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
//! ## Rank-keyed measurement
//!
//! Every candidate costs `trials × |val|` classifications, and a screened
//! pipeline pays that per *arriving message* per retrain. Skipping
//! validation messages the candidate does not touch saves almost nothing:
//! on the org-scale scenario (seed 2009, week 1) 98.2% of validation
//! sweeps shared a δ-relevant token with the candidate. What a candidate
//! changes is narrow, though. Training it as spam moves the totals to
//! `NS + 1`, which is the same for every candidate, and moves the counts
//! of its own tokens only. So each trial precomputes once, in flat CSR
//! arrays (a values array plus an ends array):
//!
//! * a **rank** for every id of its validation vocabulary, numbering the
//!   vocabulary in token-string order, and an `(id, rank)` table sorted by
//!   id to intersect candidates with;
//! * rank → validation-message postings;
//! * each validation message's **shift-only δ(E)**: its clues scored at
//!   `NS + 1` with no candidate counts, sorted by (|f − 0.5| desc, rank
//!   asc), each with its `ln` pair, plus the score that δ(E) gives.
//!
//! Measuring a candidate on a trial intersects its ids with the
//! vocabulary and scores each member once, at counts `(c_s + 1, c_h)` and
//! totals `(NS + 1, NH)`. Each validation message holding a member merges
//! its eligible members, sorted by the same key, into its precomputed
//! δ(E) with the members removed, takes the first `max_discriminators`,
//! Fisher-combines and thresholds. A message with no member eligible under
//! either score keeps its shift-only verdict.
//!
//! ## Exactness
//!
//! Measurement is bit-identical to training the candidate into a copy of
//! each trial filter and classifying the validation set (property-tested
//! below against exactly that reference):
//!
//! * within a trial, rank order is token-string order, δ(E)'s tie-break;
//! * a non-member's score is its shift-only score: both come from
//!   `token_score_from_counts` on the same counts and totals;
//! * merging two lists sorted by one total order gives their sorted
//!   union, so the first `max_discriminators` entries are the reference's
//!   δ(E);
//! * Fisher sees the same `ln_pair` values in the same order.
//!
//! The tables are immutable after construction, so every measurement API
//! takes `&self`, batches fan candidates out over workers without cloning
//! anything, and measuring takes no interner lock.

use sb_email::{Dataset, Label};
use sb_filter::score::token_score_from_counts;
use sb_filter::{
    fisher_combine, ln_pair, verdict_for, FilterOptions, ScoreDb, SpamBayes, TokenCounts, Verdict,
};
use sb_intern::{par, AsIdSlice, TokenId};
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

/// Error from a fallible screening surface ([`RoniDefense::try_screen_ids`]).
///
/// Measurement is arithmetic over tables fixed at construction and
/// nothing is trained or untrained, so no screening path constructs this
/// today. Retrain loops still match on the `Result`, so a screening
/// failure would degrade a week instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoniError {
    /// A count underflow while measuring a candidate.
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
/// Construction fixes the `trials` (train, validation) splits and builds
/// each trial's screening tables (see the module docs), so evaluating
/// many candidates (the experiment evaluates hundreds) amortizes all
/// per-pool work. All measurement APIs take `&self`.
pub struct RoniDefense {
    cfg: RoniConfig,
    opts: FilterOptions,
    trials: Vec<Trial>,
}

/// An interned message and its label.
type IdMessage = (Arc<Vec<TokenId>>, Label);

/// One clue of a δ(E) list: its distance `|f − 0.5|`, its rank in the
/// trial vocabulary and its Fisher `ln` pair.
#[derive(Debug, Clone, Copy)]
struct RankedClue {
    dist: f64,
    rank: u32,
    ln: (f64, f64),
}

impl RankedClue {
    fn new(f: f64, rank: u32) -> Self {
        Self {
            dist: (f - 0.5).abs(),
            rank,
            ln: ln_pair(f),
        }
    }

    /// δ(E) order: stronger evidence first, ties by token string (rank).
    /// `dist` is never NaN or negative zero, so `total_cmp` orders it as
    /// `select_delta_ids`' `partial_cmp` does.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then(self.rank.cmp(&other.rank))
    }
}

/// Rows of variable length stored flat: row `i` is
/// `vals[ends[i - 1]..ends[i]]`.
struct Csr<T> {
    vals: Vec<T>,
    ends: Vec<usize>,
}

impl<T> Csr<T> {
    fn from_rows(rows: impl IntoIterator<Item = impl IntoIterator<Item = T>>) -> Self {
        let mut vals = Vec::new();
        let mut ends = Vec::new();
        for row in rows {
            vals.extend(row);
            ends.push(vals.len());
        }
        Self { vals, ends }
    }

    fn row(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.vals[start..self.ends[i]]
    }
}

/// One trial's screening tables (see the module docs). Ranks index
/// `counts`, `shift_eligible` and `postings`; validation messages index
/// `clues` and `val`.
struct Trial {
    /// The validation vocabulary as `(id, rank)`, sorted by id.
    vocab: Vec<(TokenId, u32)>,
    /// Training-set counts per rank.
    counts: Vec<TokenCounts>,
    /// Per rank: the shift-only score is δ-eligible.
    shift_eligible: Vec<bool>,
    /// Rank → the validation messages holding it.
    postings: Csr<u32>,
    /// Per validation message: its shift-only δ(E), in δ(E) order.
    clues: Csr<RankedClue>,
    /// Per validation message: its label and shift-only score.
    val: Vec<(Label, f64)>,
    /// The trained totals `(NS, NH)`.
    totals: (u32, u32),
    baseline_ham_correct: usize,
    baseline_spam_correct: usize,
    /// The trained filter and validation set the tables came from: the
    /// reference measurement's input.
    #[cfg(test)]
    reference: (SpamBayes, Vec<IdMessage>),
}

/// Per-worker buffers, reused across candidates and trials.
#[derive(Default)]
struct Scratch {
    /// The candidate's ranks in the current trial's vocabulary.
    ranks: Vec<u32>,
    /// Members eligible under the candidate score, in δ(E) order.
    members: Vec<RankedClue>,
    /// Per rank: a member that can change some δ(E).
    is_member: Vec<bool>,
    /// Per validation message: holds a member that can change its δ(E).
    touched: Vec<bool>,
    /// Per validation message: indices into `members`, in δ(E) order.
    held: Vec<Vec<u32>>,
}

impl Trial {
    /// Train the trial filter on `train` and build the screening tables
    /// for `val`.
    fn new(train: &[&IdMessage], val: Vec<IdMessage>, opts: FilterOptions) -> Self {
        let mut filter = SpamBayes::new();
        filter.set_options(opts);
        for (ids, label) in train {
            filter.train_ids(ids, *label, 1);
        }
        let db = filter.db();
        let (baseline_ham_correct, baseline_spam_correct) =
            correct_counts(db, filter.options(), &val);

        // Rank the validation vocabulary in token-string order.
        let mut by_str: Vec<TokenId> = val
            .iter()
            .flat_map(|(ids, _)| ids.iter().copied())
            .collect();
        by_str.sort_unstable();
        by_str.dedup();
        {
            let reader = db.interner().reader();
            let mut keyed: Vec<(&str, TokenId)> =
                by_str.iter().map(|&id| (reader.resolve(id), id)).collect();
            keyed.sort_unstable();
            by_str = keyed.into_iter().map(|(_, id)| id).collect();
        }
        let mut vocab: Vec<(TokenId, u32)> = by_str
            .iter()
            .zip(0u32..)
            .map(|(&id, rank)| (id, rank))
            .collect();
        vocab.sort_unstable_by_key(|&(id, _)| id);
        let counts: Vec<TokenCounts> = by_str.iter().map(|&id| db.counts_by_id(id)).collect();

        // Each rank's shift-only clue, where it is δ-eligible.
        let totals = (db.n_spam(), db.n_ham());
        let shift: Vec<Option<RankedClue>> = (0u32..)
            .zip(&counts)
            .map(|(rank, &c)| {
                let f = token_score_from_counts(totals.0 + 1, totals.1, c, &opts);
                ((f - 0.5).abs() >= opts.minimum_prob_strength).then(|| RankedClue::new(f, rank))
            })
            .collect();
        let shift_eligible: Vec<bool> = shift.iter().map(Option::is_some).collect();

        let val_ranks: Vec<Vec<u32>> = val
            .iter()
            .map(|(ids, _)| ids.iter().filter_map(|&id| rank_of(&vocab, id)).collect())
            .collect();
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); by_str.len()];
        for (v, ranks) in (0u32..).zip(&val_ranks) {
            for &r in ranks {
                postings[r as usize].push(v);
            }
        }
        let clues = Csr::from_rows(val_ranks.iter().map(|ranks| {
            let mut delta: Vec<RankedClue> =
                ranks.iter().filter_map(|&r| shift[r as usize]).collect();
            delta.sort_unstable_by(RankedClue::cmp);
            delta
        }));
        let val_scores = val
            .iter()
            .enumerate()
            .map(|(v, (_, label))| {
                let lns = clues
                    .row(v)
                    .iter()
                    .take(opts.max_discriminators)
                    .map(|c| c.ln);
                (*label, fisher_combine(lns))
            })
            .collect();

        Self {
            vocab,
            counts,
            shift_eligible,
            postings: Csr::from_rows(postings),
            clues,
            val: val_scores,
            totals,
            baseline_ham_correct,
            baseline_spam_correct,
            #[cfg(test)]
            reference: (filter, val),
        }
    }

    /// Measure one candidate (a sorted, deduplicated id set) against this
    /// trial: the `(ham, spam)` decrease in correctly classified
    /// validation messages.
    fn measure(&self, candidate: &[TokenId], opts: &FilterOptions, s: &mut Scratch) -> (f64, f64) {
        let mut ham_ok = 0usize;
        let mut spam_ok = 0usize;
        self.scores(candidate, opts, s, |label, score| {
            match (label, verdict_for(score, opts)) {
                (Label::Ham, Verdict::Ham) => ham_ok += 1,
                (Label::Spam, Verdict::Spam) => spam_ok += 1,
                _ => {}
            }
        });
        (
            self.baseline_ham_correct as f64 - ham_ok as f64,
            self.baseline_spam_correct as f64 - spam_ok as f64,
        )
    }

    /// Each validation message's label and score `I(E)` with the
    /// candidate (a sorted, deduplicated id set) trained, in order.
    fn scores(
        &self,
        candidate: &[TokenId],
        opts: &FilterOptions,
        s: &mut Scratch,
        mut each: impl FnMut(Label, f64),
    ) {
        let strength = opts.minimum_prob_strength;
        let (n_spam, n_ham) = (self.totals.0 + 1, self.totals.1);
        s.is_member.resize(self.counts.len(), false);
        s.touched.clear();
        s.touched.resize(self.val.len(), false);
        s.held.resize_with(self.val.len(), Vec::new);

        intersect(candidate, &self.vocab, &mut s.ranks);
        s.members.clear();
        for &r in &s.ranks {
            let c = self.counts[r as usize];
            let f = token_score_from_counts(
                n_spam,
                n_ham,
                TokenCounts {
                    spam: c.spam + 1,
                    ham: c.ham,
                },
                opts,
            );
            let eligible = (f - 0.5).abs() >= strength;
            // A member ineligible under both scores is in no δ(E), with
            // or without the candidate.
            if !eligible && !self.shift_eligible[r as usize] {
                continue;
            }
            s.is_member[r as usize] = true;
            for &v in self.postings.row(r as usize) {
                s.touched[v as usize] = true;
            }
            if eligible {
                s.members.push(RankedClue::new(f, r));
            }
        }
        s.members.sort_unstable_by(RankedClue::cmp);
        for (i, m) in (0u32..).zip(&s.members) {
            for &v in self.postings.row(m.rank as usize) {
                s.held[v as usize].push(i);
            }
        }

        for (v, &(label, shift_score)) in self.val.iter().enumerate() {
            let score = if s.touched[v] {
                let kept = self
                    .clues
                    .row(v)
                    .iter()
                    .filter(|c| !s.is_member[c.rank as usize]);
                let added = s.held[v].iter().map(|&i| &s.members[i as usize]);
                fisher_combine(
                    merge(kept, added)
                        .take(opts.max_discriminators)
                        .map(|c| c.ln),
                )
            } else {
                shift_score
            };
            each(label, score);
        }

        for &r in &s.ranks {
            s.is_member[r as usize] = false;
        }
        for held in &mut s.held {
            held.clear();
        }
    }
}

/// The rank of `id` in a trial vocabulary, if it is in it.
fn rank_of(vocab: &[(TokenId, u32)], id: TokenId) -> Option<u32> {
    vocab
        .binary_search_by_key(&id, |&(v, _)| v)
        .ok()
        .map(|k| vocab[k].1)
}

/// The ranks of the candidate's ids in a trial vocabulary, written to
/// `out`. Both lists are sorted by id: each id of the shorter one is
/// binary-searched in the rest of the longer one.
fn intersect(candidate: &[TokenId], vocab: &[(TokenId, u32)], out: &mut Vec<u32>) {
    out.clear();
    if candidate.len() <= vocab.len() {
        let mut rest = vocab;
        for &id in candidate {
            rest = &rest[rest.partition_point(|&(v, _)| v < id)..];
            match rest.first() {
                Some(&(v, rank)) if v == id => out.push(rank),
                Some(_) => {}
                None => break,
            }
        }
    } else {
        let mut rest = candidate;
        for &(v, rank) in vocab {
            rest = &rest[rest.partition_point(|&id| id < v)..];
            match rest.first() {
                Some(&id) if id == v => out.push(rank),
                Some(_) => {}
                None => break,
            }
        }
    }
}

/// Merge two clue lists, each in δ(E) order, into one in δ(E) order.
fn merge<'a>(
    mut a: impl Iterator<Item = &'a RankedClue>,
    mut b: impl Iterator<Item = &'a RankedClue>,
) -> impl Iterator<Item = &'a RankedClue> {
    let mut x = a.next();
    let mut y = b.next();
    std::iter::from_fn(move || match (x, y) {
        (Some(p), Some(q)) if q.cmp(p).is_lt() => {
            y = b.next();
            Some(q)
        }
        (Some(p), _) => {
            x = a.next();
            Some(p)
        }
        (None, Some(q)) => {
            y = b.next();
            Some(q)
        }
        (None, None) => None,
    })
}

impl RoniDefense {
    /// Build the evaluator from a clean pool: tokenize and intern it on
    /// the process-global interner, then [`RoniDefense::from_ids`].
    ///
    /// `pool` must contain at least `train_size + val_size` messages; each
    /// trial samples its train and validation sets disjointly.
    pub fn new(
        cfg: RoniConfig,
        pool: &Dataset,
        opts: FilterOptions,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let tokenizer = Tokenizer::new();
        let interner = sb_intern::Interner::global();
        let tokenized: Vec<IdMessage> = pool
            .emails()
            .iter()
            .map(|m| (Arc::new(tokenizer.intern_ids(&m.email, &interner)), m.label))
            .collect();
        Self::from_ids(cfg, &tokenized, opts, rng)
    }

    /// Build the evaluator from a pool already interned on the
    /// process-global interner (id sets as `Interner::intern_set` returns
    /// them). Draws the same splits from `rng` as [`RoniDefense::new`].
    pub fn from_ids(
        cfg: RoniConfig,
        pool: &[(Arc<Vec<TokenId>>, Label)],
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
        let trials = (0..cfg.trials)
            .map(|_| {
                let picks =
                    sb_corpus::sample_indices(pool.len(), cfg.train_size + cfg.val_size, rng);
                let (train_idx, val_idx) = picks.split_at(cfg.train_size);
                // sb-lint: allow(panic-path, "sample_indices draws from 0..pool.len()")
                let train: Vec<_> = train_idx.iter().map(|&i| &pool[i]).collect();
                // sb-lint: allow(panic-path, "sample_indices draws from 0..pool.len()")
                let val = val_idx.iter().map(|&i| pool[i].clone()).collect();
                Trial::new(&train, val, opts)
            })
            .collect();
        Self { cfg, opts, trials }
    }

    /// The active configuration.
    pub fn config(&self) -> &RoniConfig {
        &self.cfg
    }

    /// Measure one candidate given as a token set (interned internally;
    /// candidates are always trained as spam per the contamination
    /// assumption, §2.2).
    pub fn measure(&self, candidate_tokens: &[String]) -> RoniMeasurement {
        let ids = sb_intern::Interner::global().intern_set(candidate_tokens);
        self.measure_ids(&ids)
    }

    /// Measure one pre-interned candidate: the sequential one-candidate
    /// case of [`RoniDefense::measure_ids_batch`]. The ids are read as a
    /// set; order and duplicates do not matter.
    pub fn measure_ids(&self, candidate: &[TokenId]) -> RoniMeasurement {
        self.measure_one(candidate, &mut Scratch::default())
    }

    /// Measure a candidate given as an email.
    pub fn measure_email(&self, email: &sb_email::Email) -> RoniMeasurement {
        let set = Tokenizer::new().token_set(email);
        self.measure(&set)
    }

    /// Measure a batch of pre-interned candidates in parallel. Every
    /// worker reads the same trial tables and reuses one set of scratch
    /// buffers across its chunk of the batch.
    pub fn measure_ids_batch(&self, candidates: &[impl AsIdSlice + Sync]) -> Vec<RoniMeasurement> {
        par::parallel_chunks(candidates, par::default_threads(), |_, chunk| {
            let mut scratch = Scratch::default();
            chunk
                .iter()
                .map(|c| self.measure_one(c.ids(), &mut scratch))
                .collect()
        })
    }

    fn measure_one(&self, candidate: &[TokenId], scratch: &mut Scratch) -> RoniMeasurement {
        let normalized;
        let candidate = if candidate.windows(2).all(|w| w[0] < w[1]) {
            candidate
        } else {
            let mut ids = candidate.to_vec();
            ids.sort_unstable();
            ids.dedup();
            normalized = ids;
            &normalized
        };
        let deltas = self
            .trials
            .iter()
            .map(|t| t.measure(candidate, &self.opts, scratch))
            .collect();
        measurement_from_deltas(deltas, self.cfg.reject_threshold)
    }

    /// Screen a list of candidates; returns `(kept, rejected)` index lists.
    pub fn screen(&self, candidates: &[Vec<String>]) -> (Vec<usize>, Vec<usize>) {
        let interner = sb_intern::Interner::global();
        let ids: Vec<Vec<TokenId>> = candidates.iter().map(|c| interner.intern_set(c)).collect();
        self.screen_ids(&ids)
    }

    /// Screen pre-interned candidates in parallel; returns `(kept,
    /// rejected)` index lists.
    pub fn screen_ids(&self, candidates: &[impl AsIdSlice + Sync]) -> (Vec<usize>, Vec<usize>) {
        let measurements = self.measure_ids_batch(candidates);
        split_verdicts(&measurements)
    }

    /// [`Self::screen_ids`] behind a fallible surface. Measurement cannot
    /// fail today; retrain loops match on the [`RoniError`] instead of
    /// `expect`ing, so a screening failure would degrade the run instead
    /// of aborting it.
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

/// Count validation messages classified correctly, per class, by a
/// trained database. `Unsure` counts as incorrect for both classes (§2.1:
/// unsure ham is nearly as bad as misfiled ham).
fn correct_counts<D: ScoreDb>(db: &D, opts: &FilterOptions, val: &[IdMessage]) -> (usize, usize) {
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

    /// The reference measurement the rank-keyed path must equal bit for
    /// bit: per trial, clone the trained filter, train the candidate as
    /// spam and sweep the validation set.
    fn reference_measure(roni: &RoniDefense, candidate: &[TokenId]) -> RoniMeasurement {
        let deltas = roni
            .trials
            .iter()
            .map(|t| {
                let (filter, val) = &t.reference;
                let mut filter = filter.clone();
                filter.train_ids(candidate, Label::Spam, 1);
                let (ham_ok, spam_ok) = correct_counts(filter.db(), filter.options(), val);
                (
                    t.baseline_ham_correct as f64 - ham_ok as f64,
                    t.baseline_spam_correct as f64 - spam_ok as f64,
                )
            })
            .collect();
        measurement_from_deltas(deltas, roni.cfg.reject_threshold)
    }

    /// Every validation message's score under `candidate`, from the trial
    /// tables and from the reference filter, as bits.
    fn message_scores(
        trial: &Trial,
        candidate: &[TokenId],
        opts: &FilterOptions,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut got = Vec::new();
        trial.scores(candidate, opts, &mut Scratch::default(), |_, score| {
            got.push(score.to_bits())
        });
        let (filter, val) = &trial.reference;
        let mut filter = filter.clone();
        filter.train_ids(candidate, Label::Spam, 1);
        let want = val
            .iter()
            .map(|(ids, _)| filter.classify_ids(ids).score.to_bits())
            .collect();
        (got, want)
    }

    fn interned(words: &[String]) -> Arc<Vec<TokenId>> {
        Arc::new(sb_intern::Interner::global().intern_set(words))
    }

    #[test]
    fn dictionary_attack_email_is_rejected_normal_spam_is_not() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(1);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );

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
        assert!(
            m_attack.rejected,
            "attack impact {}",
            m_attack.mean_ham_impact
        );
        let kept = normals.iter().filter(|m| !m.rejected).count();
        assert!(kept >= 8, "only {kept}/10 ordinary spam kept");
    }

    #[test]
    fn measure_is_side_effect_free() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(2);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
        let candidate: Vec<String> = (0..50).map(|i| format!("cand{i}")).collect();
        let a = roni.measure(&candidate);
        let b = roni.measure(&candidate);
        assert_eq!(a, b, "repeated measurement must be identical");
    }

    /// `from_ids` over the pool's interned ids is `new`: same splits,
    /// same tables, same measurements.
    #[test]
    fn from_ids_matches_new() {
        let pool = pool();
        let tokenizer = Tokenizer::new();
        let ids: Vec<IdMessage> = pool
            .emails()
            .iter()
            .map(|m| (interned(&tokenizer.token_set(&m.email)), m.label))
            .collect();
        let opts = FilterOptions::default();
        let a = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            opts,
            &mut Xoshiro256pp::new(5),
        );
        let b = RoniDefense::from_ids(RoniConfig::default(), &ids, opts, &mut Xoshiro256pp::new(5));
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(2_000),
        );
        let candidates = vec![
            interned(&tokenizer.token_set(attack.prototype())),
            Arc::clone(&ids[0].0),
        ];
        assert_eq!(
            a.measure_ids_batch(&candidates),
            b.measure_ids_batch(&candidates)
        );
    }

    /// Screening is read-only: a long sweep between two measurements of
    /// the same candidate leaves the second equal to the first.
    #[test]
    fn screening_leaves_measurements_unchanged() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(8);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );

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
        candidates.push(interner.intern_set(&Tokenizer::new().token_set(attack.prototype())));

        let before = roni.measure_ids(&candidates[0]);
        let (kept, rejected) = roni.screen_ids(&candidates);
        assert_eq!(kept.len() + rejected.len(), candidates.len());
        assert_eq!(roni.measure_ids(&candidates[0]), before);
    }

    #[test]
    fn screen_partitions_candidates() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(3);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
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
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
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
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(10_000),
        );
        let ids = sb_intern::Interner::global()
            .intern_set(&Tokenizer::new().token_set(attack.prototype()));
        assert_eq!(roni.measure_ids(&ids), reference_measure(&roni, &ids));
    }

    /// The candidate is a set: an unsorted id list with duplicates
    /// measures exactly as its sorted, deduplicated form.
    #[test]
    fn unsorted_duplicated_candidate_measures_as_its_set() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(11);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(2_000),
        );
        let set = sb_intern::Interner::global()
            .intern_set(&Tokenizer::new().token_set(attack.prototype()));
        let mut messy: Vec<TokenId> = set.iter().rev().copied().collect();
        messy.extend(set.iter().step_by(3).copied());
        messy.push(set[0]);

        let want = reference_measure(&roni, &set);
        assert_eq!(roni.measure_ids(&set), want);
        assert_eq!(roni.measure_ids(&messy), want);
        assert_eq!(roni.measure_ids_batch(&[messy]), vec![want]);
    }

    /// A candidate whose every member is δ-ineligible under both the
    /// candidate score and the shift-only score touches no validation
    /// message: each keeps its shift-only score, which is also what
    /// training the candidate gives.
    #[test]
    fn ineligible_members_keep_the_shift_only_verdict() {
        let words = |ws: &[&str]| -> Vec<String> { ws.iter().map(|w| w.to_string()).collect() };
        let mut messages = Vec::new();
        for i in 0..5 {
            let spam = format!("inel-spam{i}");
            let ham = format!("inel-ham{i}");
            let spam = words(&["inel-common", "inel-extra", "inel-buy", &spam]);
            let ham = words(&["inel-common", "inel-extra", "inel-meet", &ham]);
            messages.push((interned(&spam), Label::Spam));
            messages.push((interned(&ham), Label::Ham));
        }
        let (train, val) = messages.split_at(6);
        let train: Vec<_> = train.iter().collect();
        let opts = FilterOptions::default();
        let trial = Trial::new(&train, val.to_vec(), opts);

        // Both tokens sit in all 3 + 3 training messages: at NS + 1 they
        // score about 0.43 without the candidate and 0.5 with it. The
        // class words keep every validation message's δ(E) non-empty.
        let candidate = sb_intern::Interner::global().intern_set(&words(&[
            "inel-common",
            "inel-extra",
            "inel-nowhere",
        ]));
        let mut s = Scratch::default();
        let mut scores = Vec::new();
        trial.scores(&candidate, &opts, &mut s, |_, score| {
            scores.push(score.to_bits())
        });
        assert_eq!(s.ranks.len(), 2, "both pool tokens are members");
        assert!(
            s.touched.iter().all(|t| !t),
            "an ineligible member touched a message"
        );
        let shift_only: Vec<u64> = trial
            .val
            .iter()
            .map(|&(_, score)| score.to_bits())
            .collect();
        assert_eq!(scores, shift_only);
        let (got, want) = message_scores(&trial, &candidate, &opts);
        assert_eq!(got, want);
    }

    #[test]
    fn try_screen_surfaces_agree_across_paths() {
        let pool = pool();
        let mut rng = Xoshiro256pp::new(12);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            &pool,
            FilterOptions::default(),
            &mut rng,
        );
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
        candidates.push(interner.intern_set(&Tokenizer::new().token_set(attack.prototype())));

        let screened = roni
            .try_screen_ids(&candidates)
            .expect("screening is infallible");
        let reference: Vec<RoniMeasurement> = candidates
            .iter()
            .map(|c| reference_measure(&roni, c))
            .collect();
        assert_eq!(
            screened,
            split_verdicts(&reference),
            "the two screening surfaces must partition identically"
        );
        assert_eq!(screened, roni.screen_ids(&candidates));
    }

    proptest! {
        /// The tentpole equivalence: for arbitrary candidate token sets
        /// (fresh vocabulary, pool vocabulary, or a mix), the rank-keyed
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
            // so the equivalence is exercised across the whole range:
            // untouched messages, messages touched only by δ-ineligible
            // members, and messages whose δ(E) takes a merge.
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

            let got = roni.measure_ids(&ids);
            let want = reference_measure(&roni, &ids);

            prop_assert_eq!(
                got.mean_ham_impact.to_bits(),
                want.mean_ham_impact.to_bits(),
                "mean impact diverged: {} vs {}",
                got.mean_ham_impact,
                want.mean_ham_impact
            );
            for (a, b) in got.ham_correct_deltas.iter().zip(&want.ham_correct_deltas) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "ham delta diverged");
            }
            for (a, b) in got.spam_correct_deltas.iter().zip(&want.spam_correct_deltas) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "spam delta diverged");
            }
            prop_assert_eq!(got.rejected, want.rejected);
        }

        /// The merge where it can break: a few-word vocabulary makes many
        /// tokens pure (one class only), and pure tokens of equal count
        /// score 0.5 ± d, tying on distance, so string order interleaves
        /// two different scores. The base has NS == NH, or NH == NS + 1 so
        /// that every mirrored count pair ties under the `NS + 1` shift.
        /// `max_discriminators` in 1..=8 makes truncation cut inside
        /// δ(E). Words are interned in generation order, so id order is
        /// not string order. Every validation message's score must match
        /// the reference bit for bit.
        #[test]
        fn merge_matches_reference_when_truncation_cuts_delta(
            words in proptest::collection::vec("[a-f]{1,3}", 6..20),
            n_spam in 2usize..6,
            ham_extra in 0usize..2,
            max_discriminators in 1usize..9,
            strength in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut vocab: Vec<String> = Vec::new();
            for w in words {
                let w = format!("mrg-{w}");
                if !vocab.contains(&w) {
                    vocab.push(w);
                }
            }
            let interner = sb_intern::Interner::global();
            for w in &vocab {
                interner.intern(w);
            }
            let mut rng = Xoshiro256pp::new(seed);
            let mut subset = |extra: &str| -> Arc<Vec<TokenId>> {
                let mut m: Vec<String> =
                    vocab.iter().filter(|_| rng.next_below(2) == 1).cloned().collect();
                m.push(extra.to_string());
                interned(&m)
            };
            let mut train = Vec::new();
            for i in 0..n_spam {
                train.push((subset(&format!("mrg-s{i}")), Label::Spam));
            }
            for i in 0..n_spam + ham_extra {
                train.push((subset(&format!("mrg-h{i}")), Label::Ham));
            }
            let val: Vec<IdMessage> = (0..8)
                .map(|i| {
                    let label = if i % 2 == 0 { Label::Spam } else { Label::Ham };
                    (subset(&format!("mrg-v{i}")), label)
                })
                .collect();
            let candidate = subset("mrg-fresh");

            let opts = FilterOptions {
                max_discriminators,
                minimum_prob_strength: [0.0, 0.1, 0.3][strength],
                ..FilterOptions::default()
            };
            let train_refs: Vec<_> = train.iter().collect();
            let roni = RoniDefense {
                cfg: RoniConfig::default(),
                opts,
                trials: vec![Trial::new(&train_refs, val, opts)],
            };
            let (got, want) = message_scores(&roni.trials[0], &candidate, &opts);
            prop_assert_eq!(got, want);
            prop_assert_eq!(roni.measure_ids(&candidate), reference_measure(&roni, &candidate));
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
        let _ = RoniDefense::new(
            RoniConfig::default(),
            &tiny,
            FilterOptions::default(),
            &mut rng,
        );
    }
}
