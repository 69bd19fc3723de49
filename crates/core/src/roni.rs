//! The Reject On Negative Impact (RONI) defense (§5.1).
//!
//! Before admitting a candidate message into the training set, measure its
//! incremental effect: sample small train/validation splits from the clean
//! pool, compare validation performance with and without the candidate, and
//! reject messages whose inclusion costs many previously-correct ham
//! classifications.
//!
//! Paper parameters (Table 1): training sets of 20, validation sets of 50,
//! 5 independent trials; the statistic is the average decrease in
//! correctly-classified ham. The paper reports every dictionary-attack email
//! costing ≥ 6.8 ham-as-ham (of 25) while non-attack spam costs ≤ 4.4 — a
//! separable gap that a simple threshold exploits.
//!
//! ## Overlay measurement
//!
//! Every candidate costs `trials × |val|` classifications; a screened
//! pipeline pays that per *arriving message* per epoch. Candidates are
//! measured through `sb_filter::overlay`: each trial lays a read-only
//! [`sb_filter::OverlayDb`] — the candidate's token counts plus `NS + 1` —
//! over its trained base and sweeps the validation set against the
//! overlay. Compared with the train → sweep → untrain loop this
//! measurement
//!
//! * never mutates a trial's [`sb_filter::TokenDb`], so the base
//!   generation (and its warm score cache) survives an arbitrarily long
//!   [`RoniDefense::screen_ids`] sweep untouched;
//! * is allocation-free in steady state: the candidate delta is built
//!   once (a sorted-id + bitset view) and shared by every trial, and
//!   each worker thread pools one dense score scratch plus one verdict
//!   cache per trial (`MeasureState`), invalidated in O(1) on binding
//!   changes;
//! * skips whole validation messages: a message none of whose
//!   candidate-member tokens is δ-eligible provably classifies exactly
//!   as under the candidate-free `NS + 1` shift, so its cached verdict
//!   is reused across all candidates with that shift;
//! * needs only `&self`, so [`RoniDefense::measure_ids`] fans trials out
//!   on scoped threads and [`RoniDefense::measure_ids_batch`]
//!   parallelizes across candidates **without cloning any trial
//!   database** (the old path cloned every trial's counts per worker);
//! * is bit-identical to actually training the candidate — property-tested
//!   below against a reference that clones each trial filter, trains the
//!   candidate and sweeps the validation set.
//!
//! The substrate layers underneath still apply: the pool is tokenized and
//! interned **once** at construction, trials and candidates move
//! `&[TokenId]` only, and each trial's baseline sweep fills its
//! generation-stamped score cache exactly once for the life of the
//! evaluator.

use sb_email::{Dataset, Label};
use sb_filter::{
    CandidateDelta, FilterOptions, OverlayDb, OverlayScratch, ScoreDb, SpamBayes, Verdict,
};
use sb_intern::{par, AsIdSlice, TokenId};
use std::cell::RefCell;
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// RONI parameters (defaults = paper Table 1, RONI column).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoniConfig {
    /// Per-trial training-set size.
    pub train_size: usize,
    /// Per-trial validation-set size.
    pub val_size: usize,
    /// Number of independent (train, validation) samples.
    pub trials: usize,
    /// Reject when the mean decrease in correctly-classified ham meets or
    /// exceeds this many messages. The paper sets its threshold inside the
    /// measured separability gap (theirs: ≥ 6.8 attack vs ≤ 4.4
    /// non-attack); ours sits inside the gap measured on the synthetic
    /// corpus by the rig's `roni` target (`repro run --only roni`; attack
    /// ≥ 5.4 vs non-attack ≤ 4.8).
    pub reject_threshold: f64,
}

impl Default for RoniConfig {
    fn default() -> Self {
        Self {
            train_size: 20,
            val_size: 50,
            trials: 5,
            reject_threshold: 5.1,
        }
    }
}

/// The measured impact of one candidate message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoniMeasurement {
    /// Per-trial decrease in ham classified as ham (positive = harmful).
    pub ham_correct_deltas: Vec<f64>,
    /// Per-trial decrease in spam classified as spam (positive = harmful).
    pub spam_correct_deltas: Vec<f64>,
    /// Mean of `ham_correct_deltas` — the paper's rejection statistic.
    pub mean_ham_impact: f64,
    /// Whether the configured threshold rejects this message.
    pub rejected: bool,
}

/// Error from a fallible screening surface ([`RoniDefense::try_screen_ids`]):
/// an exact untrain of a candidate failed, which would mean a trial
/// database was corrupted. The overlay measurement never mutates a trial,
/// so today's screening cannot produce it; retrain loops still match on
/// the `Result` so a screening failure degrades a week instead of
/// aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoniError {
    /// Untraining the candidate underflowed a count; the offending trial
    /// filter is left with the candidate still trained.
    Untrain(sb_filter::UntrainError),
}

impl std::fmt::Display for RoniError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoniError::Untrain(e) => write!(f, "candidate measurement failed: {e}"),
        }
    }
}

impl std::error::Error for RoniError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoniError::Untrain(e) => Some(e),
        }
    }
}

/// A RONI evaluator bound to a clean email pool.
///
/// Construction tokenizes + interns the pool once and fixes the `trials`
/// (train, validation) splits, so evaluating many candidates (the
/// experiment evaluates hundreds) amortizes all per-pool work. All
/// measurement APIs take `&self`: overlay scoring never mutates the trial
/// filters.
pub struct RoniDefense {
    cfg: RoniConfig,
    trials: Vec<Trial>,
}

struct Trial {
    filter: SpamBayes,
    val: Vec<(Arc<Vec<TokenId>>, Label)>,
    baseline_ham_correct: usize,
    baseline_spam_correct: usize,
}

/// Worker-local reusable measurement state for one trial: the dense
/// overlay score scratch plus a per-validation-message verdict cache.
///
/// The verdict cache is the screening loop's biggest lever: a validation
/// message containing *no* candidate token classifies identically under
/// every candidate with the same class shift (its tokens' overlay scores
/// depend only on the base counts and `NS + 1`), so its verdict is
/// computed once per (trial, base state) and reused for every further
/// candidate — only messages actually intersecting a candidate pay
/// δ-selection and Fisher combining. Train/untrain measurement can never
/// do this: each candidate mutates the base and invalidates everything.
#[derive(Default)]
struct MeasureState {
    scratch: RefCell<OverlayScratch>,
    verdicts: RefCell<VerdictCache>,
}

#[derive(Default)]
struct VerdictCache {
    /// What the cached verdicts are valid for: `(db uid, generation,
    /// ΔNS, ΔNH)` — the same binding the overlay scratch uses.
    key: Option<(u64, u64, u32, u32)>,
    /// One slot per validation message, filled lazily.
    verdicts: Vec<Option<Verdict>>,
}

impl MeasureState {
    /// One pooled state per trial index on this thread, so bindings (and
    /// with them the cached scores and verdicts) persist across
    /// candidates, batch calls, and `RoniDefense` method boundaries.
    fn thread_local_pool(n: usize) -> Vec<std::rc::Rc<MeasureState>> {
        thread_local! {
            static POOL: RefCell<Vec<std::rc::Rc<MeasureState>>> =
                const { RefCell::new(Vec::new()) };
        }
        POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            while pool.len() < n {
                pool.push(std::rc::Rc::new(MeasureState::default()));
            }
            pool[..n].to_vec()
        })
    }
}

impl Trial {
    /// Measure one candidate against this trial: lay the candidate's
    /// overlay over the trained base and sweep the validation set. The
    /// base database is not touched — no generation bump, no cache
    /// invalidation — and with a reused [`MeasureState`] the sweep is
    /// allocation-free and skips classification entirely for validation
    /// messages the candidate does not intersect.
    fn measure(&self, delta: &CandidateDelta, state: &MeasureState) -> (f64, f64) {
        let mut scratch = state.scratch.borrow_mut();
        let overlay = OverlayDb::new(self.filter.db(), delta, &mut scratch);
        let opts = self.filter.options();
        let db = self.filter.db();
        let (d_spam, d_ham) = delta.class_shift();
        let key = (db.uid(), db.generation(), d_spam, d_ham);
        let mut cache = state.verdicts.borrow_mut();
        if cache.key != Some(key) {
            cache.key = Some(key);
            cache.verdicts.clear();
            cache.verdicts.resize(self.val.len(), None);
        }

        let strength = opts.minimum_prob_strength;
        let mut ham_ok = 0usize;
        let mut spam_ok = 0usize;
        for (vi, (ids, label)) in self.val.iter().enumerate() {
            // Exact skip rule: the candidate can only change this
            // message's verdict through δ(E), and it can only change
            // δ(E) through member tokens that are strength-eligible
            // under the candidate score or under the pure-shift score
            // (an eligible-shift member would have sat in the cached
            // δ(E)). Members ineligible under both — e.g. the common
            // words every message shares — leave δ(E), and hence the
            // verdict, exactly as in the cached shift-only run.
            let effective = ids.iter().any(|&id| {
                delta.contains(id)
                    && ((overlay.score_f(id, opts) - 0.5).abs() >= strength
                        || (overlay.shift_f(id, opts) - 0.5).abs() >= strength)
            });
            let verdict = if effective {
                // Candidate-dependent: classify under this overlay.
                sb_filter::score_token_ids(ids, &overlay, opts).verdict
            } else {
                match cache.verdicts[vi] {
                    Some(v) => v,
                    None => {
                        let v = sb_filter::score_token_ids(ids, &overlay, opts).verdict;
                        cache.verdicts[vi] = Some(v);
                        v
                    }
                }
            };
            match (label, verdict) {
                (Label::Ham, Verdict::Ham) => ham_ok += 1,
                (Label::Spam, Verdict::Spam) => spam_ok += 1,
                _ => {}
            }
        }
        (
            self.baseline_ham_correct as f64 - ham_ok as f64,
            self.baseline_spam_correct as f64 - spam_ok as f64,
        )
    }
}

impl RoniDefense {
    /// Build the evaluator from a clean pool.
    ///
    /// `pool` must contain at least `train_size + val_size` messages; each
    /// trial samples its train and validation sets disjointly.
    pub fn new(
        cfg: RoniConfig,
        pool: &Dataset,
        opts: FilterOptions,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        assert!(
            pool.len() >= cfg.train_size + cfg.val_size,
            "pool of {} too small for {}+{}",
            pool.len(),
            cfg.train_size,
            cfg.val_size
        );
        let tokenizer = Tokenizer::new();
        let interner = sb_intern::Interner::global();
        // Tokenize + intern once; trials share Arc'd id sets.
        let tokenized: Vec<(Arc<Vec<TokenId>>, Label)> = pool
            .emails()
            .iter()
            .map(|m| {
                (
                    Arc::new(interner.intern_set(&tokenizer.token_set(&m.email))),
                    m.label,
                )
            })
            .collect();

        let trials = (0..cfg.trials)
            .map(|_| {
                let picks =
                    sb_corpus::sample_indices(pool.len(), cfg.train_size + cfg.val_size, rng);
                let (train_idx, val_idx) = picks.split_at(cfg.train_size);
                let mut filter = SpamBayes::new();
                filter.set_options(opts);
                for &i in train_idx {
                    // sb-lint: allow(panic-path, "sample_indices draws from 0..pool.len() and tokenized has one entry per pool message")
                    let (ids, label) = &tokenized[i];
                    filter.train_ids(ids, *label, 1);
                }
                let val: Vec<(Arc<Vec<TokenId>>, Label)> = val_idx
                    .iter()
                    // sb-lint: allow(panic-path, "sample_indices draws from 0..pool.len() and tokenized has one entry per pool message")
                    .map(|&i| tokenized[i].clone())
                    .collect();
                // This baseline sweep is the *only* time a trial's score
                // cache is filled; every later overlay measurement reads
                // through it without invalidating.
                let (baseline_ham_correct, baseline_spam_correct) =
                    correct_counts(filter.db(), filter.options(), &val);
                Trial {
                    filter,
                    val,
                    baseline_ham_correct,
                    baseline_spam_correct,
                }
            })
            .collect();
        Self { cfg, trials }
    }

    /// The active configuration.
    pub fn config(&self) -> &RoniConfig {
        &self.cfg
    }

    /// The score-cache generation of each trial's base database —
    /// diagnostics for the overlay invariant: any amount of candidate
    /// measurement must leave these unchanged.
    pub fn trial_generations(&self) -> Vec<u64> {
        self.trials.iter().map(|t| t.filter.db().generation()).collect()
    }

    /// Measure one candidate given as a token set (interned internally;
    /// candidates are always trained as spam per the contamination
    /// assumption, §2.2).
    pub fn measure(&self, candidate_tokens: &[String]) -> RoniMeasurement {
        let ids = sb_intern::Interner::global().intern_set(candidate_tokens);
        self.measure_ids(&ids)
    }

    /// Measure one pre-interned candidate, fanning the independent trials
    /// out on scoped threads (sequential on single-core hosts, where
    /// spawning would be pure overhead). The candidate delta is built once
    /// and shared by every trial; each trial lays its own overlay over it.
    pub fn measure_ids(&self, candidate: &[TokenId]) -> RoniMeasurement {
        let delta = CandidateDelta::spam_candidate(candidate);
        let deltas: Vec<(f64, f64)> = if self.trials.len() > 1 && par::default_threads() > 1 {
            std::thread::scope(|scope| {
                let delta = &delta;
                let handles: Vec<_> = self
                    .trials
                    .iter()
                    .map(|trial| {
                        scope.spawn(move || {
                            let state = MeasureState::thread_local_pool(1);
                            // sb-lint: allow(panic-path, "thread_local_pool(1) returns exactly one state")
                            trial.measure(delta, &state[0])
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // A join error carries the child's panic payload;
                        // re-raise it verbatim (same policy as
                        // `sb_intern::par`) rather than minting a fresh
                        // panic that hides the original message.
                        h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                    })
                    .collect()
            })
        } else {
            // One pooled state per trial: state `i` always pairs with
            // trial `i`, so its binding — and its memoized scores and
            // verdicts — hold across repeated measurements on this
            // thread.
            let states = MeasureState::thread_local_pool(self.trials.len());
            self.trials
                .iter()
                .zip(&states)
                .map(|(t, s)| t.measure(&delta, s))
                .collect()
        };
        measurement_from_deltas(deltas, self.cfg.reject_threshold)
    }

    /// Measure a candidate given as an email.
    pub fn measure_email(&self, email: &sb_email::Email) -> RoniMeasurement {
        let set = Tokenizer::new().token_set(email);
        self.measure(&set)
    }

    /// Measure a batch of pre-interned candidates in parallel. Overlay
    /// measurement is read-only, so every worker shares the same trial
    /// set — no per-worker database clones (the pre-overlay cost was one
    /// O(vocabulary) counts copy plus a cold score cache per trial per
    /// worker). Each candidate's delta is built once for all trials, and
    /// each worker reuses one dense scratch memo across its whole share
    /// of the batch, so steady-state screening does not allocate.
    pub fn measure_ids_batch(
        &self,
        candidates: &[impl AsIdSlice + Sync],
    ) -> Vec<RoniMeasurement> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let threads = par::default_threads().min(candidates.len());
        let threshold = self.cfg.reject_threshold;
        // One contiguous chunk per worker: the scratch memo is per-chunk
        // state, claimed per (candidate, trial) overlay by epoch bumps.
        let chunk_size = candidates.len().div_ceil(threads);
        let chunks: Vec<&[_]> = candidates.chunks(chunk_size).collect();
        let per_chunk = par::parallel_map(chunks.len(), threads, |k| {
            // Per-worker, per-trial states: trial `i`'s binding stays
            // constant across the worker's whole chunk, so after the
            // first candidate every non-candidate token scores from warm
            // slots and every untouched validation message reuses its
            // cached verdict outright.
            let states = MeasureState::thread_local_pool(self.trials.len());
            // sb-lint: allow(panic-path, "parallel_map hands each worker a k in 0..chunks.len()")
            chunks[k]
                .iter()
                .map(|cand| {
                    let delta = CandidateDelta::spam_candidate(cand.ids());
                    let deltas: Vec<(f64, f64)> = self
                        .trials
                        .iter()
                        .zip(&states)
                        .map(|(t, s)| t.measure(&delta, s))
                        .collect();
                    measurement_from_deltas(deltas, threshold)
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Screen a list of candidates; returns `(kept, rejected)` index lists.
    pub fn screen(&self, candidates: &[Vec<String>]) -> (Vec<usize>, Vec<usize>) {
        let interner = sb_intern::Interner::global();
        let ids: Vec<Vec<TokenId>> = candidates.iter().map(|c| interner.intern_set(c)).collect();
        self.screen_ids(&ids)
    }

    /// Screen pre-interned candidates in parallel; returns `(kept,
    /// rejected)` index lists. The trial databases' generations are
    /// unchanged afterwards, however long the sweep.
    pub fn screen_ids(
        &self,
        candidates: &[impl AsIdSlice + Sync],
    ) -> (Vec<usize>, Vec<usize>) {
        let measurements = self.measure_ids_batch(candidates);
        split_verdicts(&measurements)
    }

    /// [`Self::screen_ids`] behind a fallible surface. The overlay sweep is
    /// read-only and cannot fail today; retrain loops match on the
    /// [`RoniError`] instead of `expect`ing, so a screening failure would
    /// degrade the run instead of aborting it.
    pub fn try_screen_ids(
        &self,
        candidates: &[impl AsIdSlice + Sync],
    ) -> Result<(Vec<usize>, Vec<usize>), RoniError> {
        Ok(self.screen_ids(candidates))
    }
}

/// Partition measurement indices into `(kept, rejected)` lists.
fn split_verdicts(measurements: &[RoniMeasurement]) -> (Vec<usize>, Vec<usize>) {
    let mut kept = Vec::new();
    let mut rejected = Vec::new();
    for (i, m) in measurements.iter().enumerate() {
        if m.rejected {
            rejected.push(i);
        } else {
            kept.push(i);
        }
    }
    (kept, rejected)
}

fn measurement_from_deltas(deltas: Vec<(f64, f64)>, threshold: f64) -> RoniMeasurement {
    let (ham_deltas, spam_deltas): (Vec<f64>, Vec<f64>) = deltas.into_iter().unzip();
    let mean_ham_impact = ham_deltas.iter().sum::<f64>() / ham_deltas.len().max(1) as f64;
    RoniMeasurement {
        rejected: mean_ham_impact >= threshold,
        mean_ham_impact,
        ham_correct_deltas: ham_deltas,
        spam_correct_deltas: spam_deltas,
    }
}

/// Count validation messages classified correctly, per class, against any
/// score source — a trial's trained [`sb_filter::TokenDb`] (baselines) or
/// a candidate overlay (measurements). `Unsure` counts as incorrect for
/// both classes (§2.1: unsure ham is nearly as bad as misfiled ham).
fn correct_counts<D: ScoreDb>(
    db: &D,
    opts: &FilterOptions,
    val: &[(Arc<Vec<TokenId>>, Label)],
) -> (usize, usize) {
    let mut ham_ok = 0;
    let mut spam_ok = 0;
    for (ids, label) in val {
        let v = sb_filter::score_token_ids(ids, db, opts).verdict;
        match (label, v) {
            (Label::Ham, Verdict::Ham) => ham_ok += 1,
            (Label::Spam, Verdict::Spam) => spam_ok += 1,
            _ => {}
        }
    }
    (ham_ok, spam_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sb_corpus::{CorpusConfig, TrecCorpus};

    fn pool() -> Dataset {
        TrecCorpus::generate(&CorpusConfig::with_size(200, 0.5), 77)
            .dataset()
            .clone()
    }

    /// The reference measurement the overlay path must equal bit for bit:
    /// per trial, clone the trained filter, train the candidate as spam
    /// and sweep the validation set.
    fn reference_measure(roni: &RoniDefense, candidate: &[TokenId]) -> RoniMeasurement {
        let deltas = roni
            .trials
            .iter()
            .map(|t| {
                let mut filter = t.filter.clone();
                filter.train_ids(candidate, Label::Spam, 1);
                let (ham_ok, spam_ok) = correct_counts(filter.db(), filter.options(), &t.val);
                (
                    t.baseline_ham_correct as f64 - ham_ok as f64,
                    t.baseline_spam_correct as f64 - spam_ok as f64,
                )
            })
            .collect();
        measurement_from_deltas(deltas, roni.cfg.reject_threshold)
    }

    #[test]
    fn dictionary_attack_email_is_rejected_normal_spam_is_not() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(1);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);

        // A (truncated, for test speed) dictionary-attack email.
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let atk_tokens = Tokenizer::new().token_set(attack.prototype());
        let m_attack = roni.measure(&atk_tokens);

        // Fresh ordinary spam messages. At this tiny pool size a single
        // unlucky draw can look harmful, so test the *separation* over a
        // small batch rather than one message (the §5.1 experiment in
        // sb-experiments pins the zero-false-positive claim at scale).
        let corpus = TrecCorpus::generate(&CorpusConfig::with_size(200, 0.5), 77);
        let normals: Vec<_> = (0..10)
            .map(|k| roni.measure_email(&corpus.fresh_spam(k)))
            .collect();
        let mean_normal = normals.iter().map(|m| m.mean_ham_impact).sum::<f64>() / 10.0;

        assert!(
            m_attack.mean_ham_impact > mean_normal + 3.0,
            "attack impact {} vs mean normal {}",
            m_attack.mean_ham_impact,
            mean_normal
        );
        assert!(m_attack.rejected, "attack impact {}", m_attack.mean_ham_impact);
        let kept = normals.iter().filter(|m| !m.rejected).count();
        assert!(kept >= 8, "only {kept}/10 ordinary spam kept");
    }

    #[test]
    fn measure_is_side_effect_free() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(2);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let candidate: Vec<String> = (0..50).map(|i| format!("cand{i}")).collect();
        let a = roni.measure(&candidate);
        let b = roni.measure(&candidate);
        assert_eq!(a, b, "repeated measurement must be identical");
    }

    /// The overlay invariant of the PR: measuring and screening never
    /// bump any trial database's generation.
    #[test]
    fn screening_leaves_base_generations_unchanged() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(8);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let generations = roni.trial_generations();

        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let interner = sb_intern::Interner::global();
        let mut candidates: Vec<Vec<TokenId>> = (0..8)
            .map(|k| {
                let words: Vec<String> = (0..40).map(|i| format!("gen{k}w{i}")).collect();
                interner.intern_set(&words)
            })
            .collect();
        candidates
            .push(interner.intern_set(&Tokenizer::new().token_set(attack.prototype())));

        let _ = roni.measure_ids(&candidates[0]);
        let (kept, rejected) = roni.screen_ids(&candidates);
        assert_eq!(kept.len() + rejected.len(), candidates.len());
        assert_eq!(
            roni.trial_generations(),
            generations,
            "screening invalidated a trial's score cache"
        );
    }

    #[test]
    fn screen_partitions_candidates() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(3);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let atk_tokens = Tokenizer::new().token_set(attack.prototype());
        let harmless: Vec<String> = vec!["benign".into(), "words".into(), "only".into()];
        let (kept, rejected) = roni.screen(&[atk_tokens, harmless]);
        assert_eq!(rejected, vec![0]);
        assert_eq!(kept, vec![1]);
    }

    #[test]
    fn batch_measurement_matches_sequential() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(9);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let interner = sb_intern::Interner::global();
        let candidates: Vec<Vec<TokenId>> = (0..6)
            .map(|k| {
                let words: Vec<String> = (0..30).map(|i| format!("cand{k}word{i}")).collect();
                interner.intern_set(&words)
            })
            .collect();
        let sequential: Vec<RoniMeasurement> =
            candidates.iter().map(|c| roni.measure_ids(c)).collect();
        let batched = roni.measure_ids_batch(&candidates);
        assert_eq!(sequential, batched, "batch screening must be bit-identical");
    }

    #[test]
    fn train_untrain_path_matches_overlay_on_attack_email() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(10);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let ids = sb_intern::Interner::global()
            .intern_set(&Tokenizer::new().token_set(attack.prototype()));
        let via_overlay = roni.measure_ids(&ids);
        let via_tu = reference_measure(&roni, &ids);
        assert_eq!(via_overlay, via_tu);
    }

    #[test]
    fn try_screen_surfaces_agree_across_paths() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(12);
        let roni =
            RoniDefense::new(RoniConfig::default(), &pool, FilterOptions::default(), &mut rng);
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let interner = sb_intern::Interner::global();
        let mut candidates: Vec<Vec<TokenId>> = (0..4)
            .map(|k| {
                let words: Vec<String> = (0..25).map(|i| format!("surf{k}word{i}")).collect();
                interner.intern_set(&words)
            })
            .collect();
        candidates
            .push(interner.intern_set(&Tokenizer::new().token_set(attack.prototype())));

        let overlay = roni.try_screen_ids(&candidates).expect("overlay path is infallible");
        let reference: Vec<RoniMeasurement> =
            candidates.iter().map(|c| reference_measure(&roni, c)).collect();
        let legacy = split_verdicts(&reference);
        assert_eq!(overlay, legacy, "the two screening surfaces must partition identically");
        assert_eq!(overlay, roni.screen_ids(&candidates));
    }

    proptest! {
        /// The tentpole equivalence: for arbitrary candidate token sets
        /// (fresh vocabulary, pool vocabulary, or a mix), overlay
        /// measurement is bit-identical — per trial, per statistic — to
        /// training the candidate into a clone of each trial filter.
        #[test]
        fn overlay_measure_is_bit_identical_to_train_untrain(
            words in proptest::collection::btree_set("[a-h]{2,6}", 0..40),
            from_pool in 0usize..40,
            seed in 1u64..500,
        ) {
            let cfg = RoniConfig {
                train_size: 10,
                val_size: 20,
                trials: 3,
                reject_threshold: 5.1,
            };
            let corpus = TrecCorpus::generate(&CorpusConfig::with_size(60, 0.5), 31);
            let pool = corpus.dataset().clone();
            let mut rng = Xoshiro256pp::new(seed);
            let roni = RoniDefense::new(cfg, &pool, FilterOptions::default(), &mut rng);
            // Candidates mix fresh vocabulary with real pool vocabulary,
            // so the equivalence is exercised across the verdict-cache
            // skip rule's whole range: untouched messages, messages
            // touched only by δ-ineligible members, and messages whose
            // members force a full rescore.
            let mut candidate: Vec<String> = words.into_iter().collect();
            candidate.extend(
                Tokenizer::new()
                    .token_set(&pool.emails()[seed as usize % pool.len()].email)
                    .into_iter()
                    .take(from_pool),
            );
            candidate.sort_unstable();
            candidate.dedup();
            let ids = sb_intern::Interner::global().intern_set(&candidate);

            let via_overlay = roni.measure_ids(&ids);
            let via_tu = reference_measure(&roni, &ids);

            prop_assert_eq!(
                via_overlay.mean_ham_impact.to_bits(),
                via_tu.mean_ham_impact.to_bits(),
                "mean impact diverged: {} vs {}",
                via_overlay.mean_ham_impact,
                via_tu.mean_ham_impact
            );
            for (a, b) in via_overlay
                .ham_correct_deltas
                .iter()
                .zip(&via_tu.ham_correct_deltas)
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "ham delta diverged");
            }
            for (a, b) in via_overlay
                .spam_correct_deltas
                .iter()
                .zip(&via_tu.spam_correct_deltas)
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "spam delta diverged");
            }
            prop_assert_eq!(via_overlay.rejected, via_tu.rejected);
        }
    }

    #[test]
    fn config_default_matches_table1() {
        let c = RoniConfig::default();
        assert_eq!(c.train_size, 20);
        assert_eq!(c.val_size, 50);
        assert_eq!(c.trials, 5);
    }

    #[test]
    fn roni_error_display_carries_token() {
        let err = RoniError::Untrain(sb_filter::UntrainError {
            token: Some("poison".into()),
        });
        let msg = err.to_string();
        assert!(msg.contains("poison"), "message: {msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    #[should_panic]
    fn pool_too_small_rejected() {
        let tiny = TrecCorpus::generate(&CorpusConfig::with_size(30, 0.5), 1)
            .dataset()
            .clone();
        let mut rng = Xoshiro256pp::new(4);
        let _ = RoniDefense::new(RoniConfig::default(), &tiny, FilterOptions::default(), &mut rng);
    }
}
