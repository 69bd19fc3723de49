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
//! The statistic reads ham only, so each trial draws its `train_size +
//! val_size` split as the paper does and then keeps just the ham of its
//! validation set: "validation message" below means a ham one. Every
//! candidate costs `trials × |ham validation|` classifications, and a
//! screened pipeline pays that per *arriving message* per retrain; a batch
//! measures each distinct id slice once and hands every equal slice that
//! result. Skipping validation messages the candidate does not touch saves
//! almost nothing: on the org-scale scenario (seed 2009, one whole run)
//! 98.3% of the messages a candidate was measured on shared a δ-relevant
//! token with it. What a candidate changes is narrow, though. Training it
//! as spam moves the totals to `NS + 1`, which is the same for every
//! candidate, and moves the counts of its own tokens only, each by one
//! spam count. A token's score depends on nothing but its counts, so each
//! trial precomputes once, in flat CSR arrays (a values array plus an ends
//! array):
//!
//! * a **rank** for every id of its validation vocabulary, numbering the
//!   vocabulary in token-string order, and one flat open-addressed
//!   id → rank table to look candidates up in;
//! * a **count class** for every distinct pair of trial-set counts in the
//!   vocabulary (at most `(train_size + 1)²`; on the org-scale scenario
//!   2,200–3,300 ranks share 47–59 classes), each rank pointing at its
//!   class. A class holds its tokens' clue without the candidate (the
//!   *shift-only* score, at `NS + 1`) and with it (`c_s + 1`), each with
//!   its `ln` pair when δ-eligible, and the change `(Δn, Δa, Δb)` that
//!   makes to the clue count and `ln` sums of a δ(E) list holding the
//!   token: `+1` and the candidate pair if eligible with the candidate,
//!   `−1` and the shift-only pair if eligible without;
//! * rank → validation-message postings, and each message's ranks, its
//!   **shift-only δ(E)** first: the ranks whose shift-only clue is
//!   eligible, sorted by (|f − 0.5| desc, rank asc);
//! * each message's shift-only score, and the *full* (untruncated) clue
//!   count `n₀` and sums `(Σ ln f, Σ ln(1 − f))` of its shift-only δ(E).
//!
//! Measuring a candidate on a trial scores no token: it looks up each of
//! its ids, and each member whose class changes some δ(E) walks its
//! postings once, adding the class's `(Δn, Δa, Δb)` to each message it
//! is in. A message holding no such member keeps its shift-only verdict.
//! For the rest, RONI needs only the count of (ham, Ham) per trial, so
//! each message only has to learn which side of `ham_cutoff` its score
//! `I(E)` falls on (correct iff `I ≤ ham_cutoff`). A **certificate**
//! settles that side from the accumulated sums; when it cannot, the
//! message takes the exact path: merge its members' candidate clues,
//! sorted by the same key, into its shift-only δ(E) with the members
//! removed, take the first `max_discriminators`, Fisher-combine and
//! threshold. On the org-scale scenario (seed 2009, one whole run) the
//! tail bounds below settled 77.3% of touched messages, `chi2q_even`
//! 22.6%, and 0.02% took the exact path, all but 2 of 116 for truncation.
//!
//! ## Exactness
//!
//! Measurement is bit-identical to training the candidate into a copy of
//! each trial filter and classifying the validation set (property-tested
//! below against exactly that reference). The exact path gives the
//! reference's score bit for bit:
//!
//! * within a trial, rank order is token-string order, δ(E)'s tie-break;
//! * every clue, with or without the candidate, comes from
//!   `token_score_from_counts` on the reference's counts and totals, so a
//!   non-member keeps its shift-only clue;
//! * merging two lists sorted by one total order gives their sorted
//!   union, so the first `max_discriminators` entries are the reference's
//!   δ(E);
//! * Fisher sees the same `ln_pair` values in the same order.
//!
//! A certificate gives the same verdict as that score (so `c`, the margin
//! and the branch mix below never change a count), because:
//!
//! * **No truncation.** It applies only when `n₀ ≤ K` and
//!   `n₀ + Δn ≤ K` (`K = max_discriminators`). Then the reference's δ(E)
//!   is every eligible clue, `n = n₀ + Δn` of them, and its `ln` sums are
//!   the accumulated `(A, B) = (Σ₀ ln f + Δa, Σ₀ ln(1 − f) + Δb)` up to
//!   rounding. `n = 0` gives `I = 0.5` exactly, as `fisher_combine` does.
//! * **Error bound.** `ln_pair` clamps `f` to `[1e-12, 1 − 1e-12]`, so
//!   every `ln` has magnitude at most `L = 27.64`. Let `c` bound the clue
//!   count of any certified message: `K`, or the longest validation
//!   message when that is shorter. A certified message's sums have at
//!   most `n₀ + removed + added ≤ 3c` terms, formed with at most
//!   `n₀ + 2·members ≤ 5c` roundings, each off by at most `u·3cL`
//!   (`u = 2⁻⁵³`); the reference's sequential sum is off by at most
//!   `c·u·cL`. So each accumulated sum is within `16·c²·L·u` of the
//!   reference's. `I = (1 + H − S)/2` with `H = Q(−2A | 2n)`,
//!   `S = Q(−2B | 2n)`, and `|∂Q/∂x| ≤ ½` (a Poisson probability), so the
//!   sums move `I` by at most `16·c²·L·u`. The rounding inside
//!   `chi2q_even` (at most about `6c·u` on the direct branch and
//!   `2·c²·L·u` on the log-space one, per call), the final combine and the
//!   tail-bound evaluation below fit in as much again:
//!   `ε(c) = 32·c²·L·u`, about 2.2e-9 at `c = 150`.
//! * **Margin.** A certificate settles a side only when `I` is farther
//!   than `margin = max(1e-6, 1000·ε(c))` from the cutoff, 2.2e-6 at
//!   `c = 150`: three orders of magnitude above the bound.
//! * **Tail bounds.** `Q(2m | 2n) = P(Poisson(m) ≤ n − 1)`. For
//!   `m > n − 1` the lower tail is at most
//!   `e^{−m} m^{n−1}/(n−1)! / (1 − (n−1)/m)`; for `m < n + 1` the upper
//!   tail `1 − Q` is at most `e^{−m} m^n/n! / (1 − m/(n+1))` (each sums a
//!   geometric series dominating the Poisson terms), from a `ln k!` table
//!   up to `c`. These bound `H` and `S`, hence `I`, in closed form and
//!   decide first; `chi2q_even` runs only when the bounds straddle the
//!   cutoff's margin band.
//! * **Fallback.** A truncated list, or a score inside the margin band,
//!   takes the exact path above. It is the only fallback and the path the
//!   test oracle checks.
//!
//! The tables are immutable after construction, so every measurement API
//! takes `&self`, batches fan candidates out over workers without cloning
//! anything, and measuring takes no interner lock.

use sb_email::{Dataset, Label};
use sb_filter::score::token_score_from_counts;
use sb_filter::{fisher_combine, ln_pair, FilterOptions, ScoreDb, SpamBayes, TokenCounts, Verdict};
use sb_intern::{par, AsIdSlice, FxHashMap, TokenId};
use sb_stats::chi2::chi2q_even;
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
    /// Candidates measured so far (one per distinct slice of a batch).
    #[cfg(test)]
    measured: std::sync::atomic::AtomicUsize,
}

/// An interned message and its label.
type IdMessage = (Arc<Vec<TokenId>>, Label);

/// A token score's δ(E) distance `|f − 0.5|` and its Fisher `ln` pair.
#[derive(Debug, Clone, Copy)]
struct Clue {
    dist: f64,
    ln: (f64, f64),
}

impl Clue {
    /// The clue of score `f`, when it is δ-eligible.
    fn eligible(f: f64, opts: &FilterOptions) -> Option<Self> {
        let dist = (f - 0.5).abs();
        (dist >= opts.minimum_prob_strength).then(|| Self {
            dist,
            ln: ln_pair(f),
        })
    }
}

/// One clue of a δ(E) list and its token's rank in the trial
/// vocabulary.
#[derive(Debug, Clone, Copy)]
struct RankedClue {
    dist: f64,
    rank: u32,
    ln: (f64, f64),
}

impl RankedClue {
    fn new(clue: Clue, rank: u32) -> Self {
        Self {
            dist: clue.dist,
            rank,
            ln: clue.ln,
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

/// Fibonacci multiplier spreading an id over a [`RankTable`]'s index bits.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A trial vocabulary's id → rank map: one flat open-addressed array of
/// `u64` slots, each `id << 32 | (rank + 1)` (0 marks an empty slot),
/// probed linearly from the id's Fibonacci-spread home slot at load ≤ ½ —
/// the interner's table shape, keyed by id instead of by string.
struct RankTable {
    /// The slots; the length is a power of two.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the shift taking a spread id to its home
    /// slot.
    shift: u32,
}

impl RankTable {
    /// The table mapping `ids[rank]` to `rank`; the ids are distinct.
    fn new(ids: &[TokenId]) -> Self {
        let len = (ids.len() * 2).next_power_of_two().max(2);
        let mut table = Self {
            slots: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        };
        for (&id, rank) in ids.iter().zip(1u32..) {
            let mut i = table.home(id);
            while table.slots[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            table.slots[i] = u64::from(id.0) << 32 | u64::from(rank);
        }
        table
    }

    #[inline]
    fn home(&self, id: TokenId) -> usize {
        (u64::from(id.0).wrapping_mul(SPREAD) >> self.shift) as usize
    }

    /// The rank of `id`, if it is in the vocabulary.
    #[inline]
    fn get(&self, id: TokenId) -> Option<u32> {
        let mut i = self.home(id);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == id.0 {
                return Some(slot as u32 - 1);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }
}

/// What training the candidate does to every token with one pair of
/// trial-set counts: its clue without the candidate (the shift-only
/// score, at `NS + 1`) and with it (one more spam count), each when
/// δ-eligible, and the change `(Δn, Δa, Δb)` that makes to the clue
/// count and `ln` sums of a δ(E) list holding the token.
#[derive(Debug, Clone, Copy)]
struct CountClass {
    shift: Option<Clue>,
    cand: Option<Clue>,
    /// `None` when neither clue is δ-eligible: the token is in no δ(E),
    /// with or without the candidate.
    delta: Option<(i32, f64, f64)>,
}

impl CountClass {
    fn new(shift: Option<Clue>, cand: Option<Clue>) -> Self {
        let delta = (shift.is_some() || cand.is_some()).then(|| {
            let (mut n, mut a, mut b) = (0, 0.0, 0.0);
            if let Some(c) = cand {
                (n, a, b) = (1, c.ln.0, c.ln.1);
            }
            if let Some(s) = shift {
                (n, a, b) = (n - 1, a - s.ln.0, b - s.ln.1);
            }
            (n, a, b)
        });
        Self { shift, cand, delta }
    }
}

/// A ham validation message's shift-only δ(E) summary.
#[derive(Debug, Clone, Copy)]
struct ValMessage {
    /// `I(E)` of the shift-only δ(E), truncated to `max_discriminators`.
    score: f64,
    /// The full (untruncated) shift-only clue count.
    n: u32,
    /// The full shift-only `(Σ ln f, Σ ln(1 − f))`.
    sums: (f64, f64),
}

/// What a candidate changes in one validation message's full clue count
/// and `ln` sums.
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    /// The message holds a member eligible under either score.
    touched: bool,
    n: i32,
    a: f64,
    b: f64,
}

/// `ln_pair`'s magnitude bound: it clamps `f` to `[1e-12, 1 − 1e-12]`.
const LN_BOUND: f64 = 27.64;

/// The verdict certificates of one trial (see the module docs).
struct Certifier {
    /// `ln k!` for `k ≤ c`, `c` the largest clue count certified.
    ln_fact: Vec<f64>,
    /// The half-width of the undecided band around a cutoff.
    margin: f64,
}

impl Certifier {
    /// Certificates for δ(E) lists of at most `c` clues.
    fn new(c: usize) -> Self {
        let ln_fact = std::iter::once(0.0)
            .chain((1..=c).scan(0.0, |acc, k| {
                *acc += (k as f64).ln();
                Some(*acc)
            }))
            .collect();
        let c = c as f64;
        let eps = 32.0 * c * c * LN_BOUND * (f64::EPSILON / 2.0);
        Self {
            ln_fact,
            margin: (1e3 * eps).max(1e-6),
        }
    }

    /// An upper bound on `P(Poisson(m) ≤ n − 1) = Q(2m | 2n)`, for
    /// `1 ≤ n ≤ c`.
    fn lower_tail(&self, n: usize, m: f64) -> f64 {
        let k = (n - 1) as f64;
        if m <= k {
            return 1.0;
        }
        let pmf = (-m + k * m.ln() - self.ln_fact[n - 1]).exp();
        (pmf / (1.0 - k / m)).min(1.0)
    }

    /// An upper bound on `P(Poisson(m) ≥ n) = 1 − Q(2m | 2n)`, for
    /// `1 ≤ n ≤ c`.
    fn upper_tail(&self, n: usize, m: f64) -> f64 {
        let k = (n + 1) as f64;
        if m >= k {
            return 1.0;
        }
        let pmf = (-m + n as f64 * m.ln() - self.ln_fact[n]).exp();
        (pmf / (1.0 - m / k)).min(1.0)
    }

    /// Whether `I(E)` of `n ≥ 1` clues with `a = −Σ ln f ≥ 0` and
    /// `b = −Σ ln(1 − f) ≥ 0` lies above `cutoff`, as the tail bounds
    /// settle it. With `H = Q(2a | 2n)` and `S = Q(2b | 2n)`,
    /// `I = (1 + H − S)/2` lies in
    /// `[1 − (upper(a) + lower(b))/2, (lower(a) + upper(b))/2]`; the side
    /// the sums lean to (`a > b` ⇔ `H < S` ⇔ `I < ½`) is tried first.
    fn bound_side(&self, n: usize, a: f64, b: f64, cutoff: f64) -> Option<bool> {
        let lean_below = a > b;
        for below in [lean_below, !lean_below] {
            if below {
                let hi = (self.lower_tail(n, a) + self.upper_tail(n, b)) / 2.0;
                if hi + self.margin < cutoff {
                    return Some(false);
                }
            } else {
                let lo = 1.0 - (self.upper_tail(n, a) + self.lower_tail(n, b)) / 2.0;
                if lo - self.margin > cutoff {
                    return Some(true);
                }
            }
        }
        None
    }

    /// [`Self::bound_side`] from `I(E)` itself.
    fn chi2_side(&self, n: usize, a: f64, b: f64, cutoff: f64) -> Option<bool> {
        let n = u32::try_from(n).unwrap_or(u32::MAX);
        let i = (1.0 + chi2q_even(2.0 * a, n) - chi2q_even(2.0 * b, n)) / 2.0;
        if i + self.margin < cutoff {
            Some(false)
        } else if i - self.margin > cutoff {
            Some(true)
        } else {
            None
        }
    }
}

/// One trial's screening tables (see the module docs). Ranks index
/// `class_of` and `postings`; ham validation messages index `rows` and
/// `val`.
struct Trial {
    /// The validation vocabulary's id → rank table.
    index: RankTable,
    /// Per rank: its index in `classes`.
    class_of: Vec<u32>,
    /// One per distinct pair of trial-set counts in the vocabulary.
    classes: Vec<CountClass>,
    /// Rank → the validation messages holding it.
    postings: Csr<u32>,
    /// Per message: its ranks, the `n` of its shift-only δ(E) first, in
    /// δ(E) order.
    rows: Csr<u32>,
    /// Per message: its shift-only summary.
    val: Vec<ValMessage>,
    certifier: Certifier,
    baseline_ham_correct: usize,
    /// The trained filter and ham validation set the tables came from: the
    /// reference measurement's input.
    #[cfg(test)]
    reference: (SpamBayes, Vec<Arc<Vec<TokenId>>>),
}

/// How often each way of settling a touched message's verdict ran.
#[cfg(test)]
#[derive(Debug, Default)]
struct Branches {
    /// Settled by the tail bounds (or `n = 0`).
    tail: usize,
    /// Settled by `chi2q_even`.
    chi2: usize,
    /// Exact path: the δ(E) list is or was longer than `K`.
    truncated: usize,
    /// Exact path: the score lies within the margin of its cutoff.
    near_cutoff: usize,
}

/// Per-worker buffers, reused across candidates and trials.
#[derive(Default)]
struct Scratch {
    /// The candidate's ranks in the current trial's vocabulary.
    ranks: Vec<u32>,
    /// Per rank: a member that can change some δ(E).
    is_member: Vec<bool>,
    /// Per validation message: the candidate's change.
    deltas: Vec<Delta>,
    /// One message's members with a candidate clue, in δ(E) order (exact
    /// path).
    held: Vec<RankedClue>,
    #[cfg(test)]
    branches: Branches,
}

impl Trial {
    /// Train the trial filter on `train` and build the screening tables
    /// for the ham of `val`.
    fn new(train: &[&IdMessage], val: &[&IdMessage], opts: FilterOptions) -> Self {
        let mut filter = SpamBayes::new();
        filter.set_options(opts);
        for (ids, label) in train {
            filter.train_ids(ids, *label, 1);
        }
        let db = filter.db();
        let ham: Vec<Arc<Vec<TokenId>>> = val
            .iter()
            .filter(|(_, label)| *label == Label::Ham)
            .map(|(ids, _)| Arc::clone(ids))
            .collect();
        let baseline_ham_correct = ham_correct(db, filter.options(), &ham);

        // Rank the validation vocabulary in token-string order.
        let mut by_str: Vec<TokenId> = ham.iter().flat_map(|ids| ids.iter().copied()).collect();
        by_str.sort_unstable();
        by_str.dedup();
        {
            let reader = db.interner().reader();
            let mut keyed: Vec<(&str, TokenId)> =
                by_str.iter().map(|&id| (reader.resolve(id), id)).collect();
            keyed.sort_unstable();
            by_str = keyed.into_iter().map(|(_, id)| id).collect();
        }
        let index = RankTable::new(&by_str);

        // One count class per distinct pair of trial-set counts.
        let counts: Vec<(u32, u32)> = by_str
            .iter()
            .map(|&id| {
                let c = db.counts_by_id(id);
                (c.spam, c.ham)
            })
            .collect();
        let mut pairs = counts.clone();
        pairs.sort_unstable();
        pairs.dedup();
        let class_of: Vec<u32> = counts
            .iter()
            .map(|c| pairs.partition_point(|p| p < c) as u32)
            .collect();
        let (n_spam, n_ham) = (db.n_spam() + 1, db.n_ham());
        let clue = |spam, ham| {
            let f = token_score_from_counts(n_spam, n_ham, TokenCounts { spam, ham }, &opts);
            Clue::eligible(f, &opts)
        };
        let classes: Vec<CountClass> = pairs
            .iter()
            .map(|&(spam, ham)| CountClass::new(clue(spam, ham), clue(spam + 1, ham)))
            .collect();
        let shift_of = |r: u32| classes[class_of[r as usize] as usize].shift;

        // Each message's ranks, its shift-only δ(E) first, and its summary.
        let mut rows = Vec::with_capacity(ham.len());
        let mut val = Vec::with_capacity(ham.len());
        for ids in &ham {
            let mut delta = Vec::new();
            let mut rest = Vec::new();
            for r in ids.iter().filter_map(|&id| index.get(id)) {
                match shift_of(r) {
                    Some(c) => delta.push(RankedClue::new(c, r)),
                    None => rest.push(r),
                }
            }
            delta.sort_unstable_by(RankedClue::cmp);
            let lns = delta.iter().take(opts.max_discriminators).map(|c| c.ln);
            val.push(ValMessage {
                score: fisher_combine(lns),
                n: u32::try_from(delta.len()).unwrap_or(u32::MAX),
                sums: delta
                    .iter()
                    .fold((0.0, 0.0), |(a, b), c| (a + c.ln.0, b + c.ln.1)),
            });
            rows.push(
                delta
                    .iter()
                    .map(|c| c.rank)
                    .chain(rest)
                    .collect::<Vec<u32>>(),
            );
        }
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); by_str.len()];
        for (v, row) in (0u32..).zip(&rows) {
            for &r in row {
                postings[r as usize].push(v);
            }
        }
        let longest = rows.iter().map(Vec::len).max().unwrap_or(0);

        Self {
            index,
            class_of,
            classes,
            postings: Csr::from_rows(postings),
            rows: Csr::from_rows(rows),
            val,
            certifier: Certifier::new(opts.max_discriminators.min(longest)),
            baseline_ham_correct,
            #[cfg(test)]
            reference: (filter, ham),
        }
    }

    /// Rank `r`'s count class.
    #[inline]
    fn class(&self, r: u32) -> &CountClass {
        &self.classes[self.class_of[r as usize] as usize]
    }

    /// Measure one candidate (a sorted, deduplicated id set) against this
    /// trial: the decrease in ham classified as ham.
    fn measure(&self, candidate: &[TokenId], opts: &FilterOptions, s: &mut Scratch) -> f64 {
        self.accumulate(candidate, s);
        // Ham counts iff `I ≤ ham_cutoff`.
        let cutoff = opts.ham_cutoff;
        let ham_ok = (0..self.val.len())
            .filter(|&v| {
                let above = self.settle(v, opts.max_discriminators, cutoff, s);
                !above.unwrap_or_else(|| self.exact_score(v, opts, s) > cutoff)
            })
            .count();
        self.clear(s);
        self.baseline_ham_correct as f64 - ham_ok as f64
    }

    /// Each validation message's exact score `I(E)` with the candidate (a
    /// sorted, deduplicated id set) trained, in order.
    #[cfg(test)]
    fn scores(
        &self,
        candidate: &[TokenId],
        opts: &FilterOptions,
        s: &mut Scratch,
        mut each: impl FnMut(f64),
    ) {
        self.accumulate(candidate, s);
        for (v, m) in self.val.iter().enumerate() {
            let score = if s.deltas[v].touched {
                self.exact_score(v, opts, s)
            } else {
                m.score
            };
            each(score);
        }
        self.clear(s);
    }

    /// Look the candidate up and accumulate each validation message's
    /// [`Delta`] from its members' count classes.
    fn accumulate(&self, candidate: &[TokenId], s: &mut Scratch) {
        s.is_member.resize(self.class_of.len(), false);
        s.deltas.clear();
        s.deltas.resize(self.val.len(), Delta::default());
        s.ranks.clear();
        s.ranks
            .extend(candidate.iter().filter_map(|&id| self.index.get(id)));
        for &r in &s.ranks {
            let Some((n, a, b)) = self.class(r).delta else {
                continue;
            };
            s.is_member[r as usize] = true;
            for &v in self.postings.row(r as usize) {
                let acc = &mut s.deltas[v as usize];
                acc.touched = true;
                acc.n += n;
                acc.a += a;
                acc.b += b;
            }
        }
    }

    /// Whether validation message `v`'s score with the candidate lies
    /// above `cutoff`, when its shift-only score or a certificate settles
    /// it; `None` sends it down the exact path.
    fn settle(&self, v: usize, k: usize, cutoff: f64, s: &mut Scratch) -> Option<bool> {
        let m = &self.val[v];
        let d = s.deltas[v];
        if !d.touched {
            return Some(m.score > cutoff);
        }
        let n = usize::try_from(i64::from(m.n) + i64::from(d.n)).unwrap_or(usize::MAX);
        if m.n as usize > k || n > k {
            #[cfg(test)]
            {
                s.branches.truncated += 1;
            }
            return None;
        }
        if n == 0 {
            #[cfg(test)]
            {
                s.branches.tail += 1;
            }
            return Some(0.5 > cutoff);
        }
        let a = (-(m.sums.0 + d.a)).max(0.0);
        let b = (-(m.sums.1 + d.b)).max(0.0);
        if let Some(above) = self.certifier.bound_side(n, a, b, cutoff) {
            #[cfg(test)]
            {
                s.branches.tail += 1;
            }
            return Some(above);
        }
        let settled = self.certifier.chi2_side(n, a, b, cutoff);
        #[cfg(test)]
        match settled {
            Some(_) => s.branches.chi2 += 1,
            None => s.branches.near_cutoff += 1,
        }
        settled
    }

    /// Validation message `v`'s exact score with the candidate: its
    /// members' candidate clues, in δ(E) order, merged into its
    /// shift-only δ(E) with the members removed, truncated and
    /// Fisher-combined.
    fn exact_score(&self, v: usize, opts: &FilterOptions, s: &mut Scratch) -> f64 {
        let row = self.rows.row(v);
        let is_member = &s.is_member;
        let clue_of = |r: u32, clue: Option<Clue>| clue.map(|c| RankedClue::new(c, r));
        s.held.clear();
        s.held.extend(
            row.iter()
                .filter(|&&r| is_member[r as usize])
                .filter_map(|&r| clue_of(r, self.class(r).cand)),
        );
        s.held.sort_unstable_by(RankedClue::cmp);
        let kept = row[..self.val[v].n as usize]
            .iter()
            .filter(|&&r| !is_member[r as usize])
            .filter_map(|&r| clue_of(r, self.class(r).shift));
        fisher_combine(
            merge(kept, s.held.iter().copied())
                .take(opts.max_discriminators)
                .map(|c| c.ln),
        )
    }

    /// Reset the per-rank scratch the last candidate set.
    fn clear(&self, s: &mut Scratch) {
        for &r in &s.ranks {
            s.is_member[r as usize] = false;
        }
    }
}

/// Merge two clue lists, each in δ(E) order, into one in δ(E) order.
fn merge(
    mut a: impl Iterator<Item = RankedClue>,
    mut b: impl Iterator<Item = RankedClue>,
) -> impl Iterator<Item = RankedClue> {
    let mut x = a.next();
    let mut y = b.next();
    std::iter::from_fn(move || match (x, y) {
        (Some(p), Some(q)) if q.cmp(&p).is_lt() => {
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
                // sb-lint: allow(panic-path, "sample_indices draws from 0..pool.len()")
                let picked: Vec<_> = picks.iter().map(|&i| &pool[i]).collect();
                let (train, val) = picked.split_at(cfg.train_size);
                Trial::new(train, val, opts)
            })
            .collect();
        Self {
            cfg,
            opts,
            trials,
            #[cfg(test)]
            measured: Default::default(),
        }
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
        self.measure_ids(&Tokenizer::new().intern_ids(email, &sb_intern::Interner::global()))
    }

    /// Measure a batch of pre-interned candidates in parallel, in input
    /// order. Each distinct id slice is measured once (a dictionary attack
    /// repeats one message) and every equal slice gets that result. Every
    /// worker reads the same trial tables and reuses one set of scratch
    /// buffers across its chunk of the batch.
    pub fn measure_ids_batch(&self, candidates: &[impl AsIdSlice + Sync]) -> Vec<RoniMeasurement> {
        let mut distinct: Vec<&[TokenId]> = Vec::new();
        let mut first = FxHashMap::default();
        let slots: Vec<usize> = candidates
            .iter()
            .map(|c| {
                *first.entry(c.ids()).or_insert_with(|| {
                    distinct.push(c.ids());
                    distinct.len() - 1
                })
            })
            .collect();
        let measured = par::parallel_chunks(&distinct, par::default_threads(), |_, chunk| {
            let mut scratch = Scratch::default();
            chunk
                .iter()
                .map(|c| self.measure_one(c, &mut scratch))
                .collect()
        });
        // sb-lint: allow(panic-path, "each slot < distinct.len(), and parallel_chunks keeps one result per item")
        slots.into_iter().map(|i| measured[i].clone()).collect()
    }

    fn measure_one(&self, candidate: &[TokenId], scratch: &mut Scratch) -> RoniMeasurement {
        #[cfg(test)]
        self.measured
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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

fn measurement_from_deltas(ham_correct_deltas: Vec<f64>, threshold: f64) -> RoniMeasurement {
    let mean_ham_impact =
        ham_correct_deltas.iter().sum::<f64>() / ham_correct_deltas.len().max(1) as f64;
    RoniMeasurement {
        rejected: mean_ham_impact >= threshold,
        mean_ham_impact,
        ham_correct_deltas,
    }
}

/// Count ham messages a trained database classifies as ham. `Unsure`
/// counts as incorrect (§2.1: unsure ham is nearly as bad as misfiled ham).
fn ham_correct<D: ScoreDb>(db: &D, opts: &FilterOptions, ham: &[Arc<Vec<TokenId>>]) -> usize {
    ham.iter()
        .filter(|ids| sb_filter::score_token_ids(ids, db, opts).verdict == Verdict::Ham)
        .count()
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
    /// spam and classify every ham validation message.
    fn reference_measure(roni: &RoniDefense, candidate: &[TokenId]) -> RoniMeasurement {
        let deltas = roni
            .trials
            .iter()
            .map(|t| {
                let (filter, ham) = &t.reference;
                let mut filter = filter.clone();
                filter.train_ids(candidate, Label::Spam, 1);
                let ham_ok = ham_correct(filter.db(), filter.options(), ham);
                t.baseline_ham_correct as f64 - ham_ok as f64
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
        trial.scores(candidate, opts, &mut Scratch::default(), |score| {
            got.push(score.to_bits())
        });
        let (filter, ham) = &trial.reference;
        let mut filter = filter.clone();
        filter.train_ids(candidate, Label::Spam, 1);
        let want = ham
            .iter()
            .map(|ids| filter.classify_ids(ids).score.to_bits())
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

    /// `measure_email` interns through `Tokenizer::intern_ids`; it measures
    /// exactly as the token-string form, `measure(token_set)`.
    #[test]
    fn measure_email_matches_token_set_measure() {
        let corpus = TrecCorpus::generate(&CorpusConfig::with_size(200, 0.5), 77);
        let roni = RoniDefense::new(
            RoniConfig::default(),
            corpus.dataset(),
            FilterOptions::default(),
            &mut Xoshiro256pp::new(13),
        );
        let attack = crate::dictionary::DictionaryAttack::new(
            crate::dictionary::DictionaryKind::UsenetTop(2_000),
        );
        let mut emails: Vec<sb_email::Email> = (0..4).map(|k| corpus.fresh_spam(k)).collect();
        emails.push(attack.prototype().clone());
        let tokenizer = Tokenizer::new();
        for email in &emails {
            let want = roni.measure(&tokenizer.token_set(email));
            assert_eq!(roni.measure_email(email), want);
        }
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
        let refs: Vec<_> = messages.iter().collect();
        let (train, val) = refs.split_at(6);
        let opts = FilterOptions::default();
        let trial = Trial::new(train, val, opts);

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
        trial.scores(&candidate, &opts, &mut s, |score| {
            scores.push(score.to_bits())
        });
        assert_eq!(s.ranks.len(), 2, "both pool tokens are members");
        assert!(
            s.deltas.iter().all(|d| !d.touched),
            "an ineligible member touched a message"
        );
        let shift_only: Vec<u64> = trial.val.iter().map(|m| m.score.to_bits()).collect();
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
            prop_assert_eq!(got.rejected, want.rejected);
        }

        /// A batch measures each distinct id slice once and hands every
        /// candidate its own slice's measurement, in input order. The batch
        /// mixes shared `Arc`s, equal copies and reversed copies (a
        /// distinct slice of the same set) of four id sets, in a random
        /// order.
        #[test]
        fn batch_measures_each_distinct_slice_once(
            batch in proptest::collection::vec((0usize..4, 0usize..3), 1..24),
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
            let tokenizer = Tokenizer::new();
            let mut sets: Vec<Arc<Vec<TokenId>>> = (0..3)
                .map(|k| {
                    let email = &pool.emails()[(seed as usize + k) % pool.len()].email;
                    interned(&tokenizer.token_set(email))
                })
                .collect();
            sets.push(interned(&(0..30).map(|i| format!("dup{i}")).collect::<Vec<_>>()));
            let candidates: Vec<Arc<Vec<TokenId>>> = batch
                .iter()
                .map(|&(set, form)| match form {
                    0 => Arc::clone(&sets[set]),
                    1 => Arc::new(sets[set].to_vec()),
                    _ => Arc::new(sets[set].iter().rev().copied().collect()),
                })
                .collect();
            let distinct: std::collections::BTreeSet<&[TokenId]> =
                candidates.iter().map(|c| c.as_slice()).collect();

            let got = roni.measure_ids_batch(&candidates);
            let measured = roni.measured.load(std::sync::atomic::Ordering::Relaxed);
            prop_assert_eq!(measured, distinct.len());
            let want: Vec<RoniMeasurement> =
                candidates.iter().map(|c| roni.measure_ids(c)).collect();
            prop_assert_eq!(got, want);
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
            // All ham: the trial keeps only ham validation messages.
            let val: Vec<IdMessage> = (0..8)
                .map(|i| (subset(&format!("mrg-v{i}")), Label::Ham))
                .collect();
            let candidate = subset("mrg-fresh");

            let opts = FilterOptions {
                max_discriminators,
                minimum_prob_strength: [0.0, 0.1, 0.3][strength],
                ..FilterOptions::default()
            };
            let train_refs: Vec<_> = train.iter().collect();
            let val_refs: Vec<_> = val.iter().collect();
            let roni = RoniDefense {
                cfg: RoniConfig::default(),
                opts,
                trials: vec![Trial::new(&train_refs, &val_refs, opts)],
                measured: Default::default(),
            };
            let (got, want) = message_scores(&roni.trials[0], &candidate, &opts);
            prop_assert_eq!(got.len(), 8);
            prop_assert_eq!(got, want);
            prop_assert_eq!(roni.measure_ids(&candidate), reference_measure(&roni, &candidate));
        }

        /// Both exact-path fallbacks of the verdict certificate, forced.
        /// `max_discriminators` in 1..=8 makes `n₀ + Δn > K` common
        /// (truncation). `ham_cutoff` set to a validation message's own
        /// exact score with the candidate puts that message inside the
        /// margin band (near-cutoff). Each branch must run, and the
        /// measurement must equal the reference's.
        #[test]
        fn certificate_fallbacks_match_reference(
            seed in 1u64..500,
            max_discriminators in 1usize..9,
            from_pool in 5usize..80,
        ) {
            let cfg = RoniConfig {
                train_size: 10,
                val_size: 20,
                trials: 3,
                reject_threshold: 5.1,
            };
            let corpus = TrecCorpus::generate(&CorpusConfig::with_size(60, 0.5), 31);
            let pool = corpus.dataset().clone();
            let build = |opts| RoniDefense::new(cfg, &pool, opts, &mut Xoshiro256pp::new(seed));
            let words: Vec<String> = Tokenizer::new()
                .token_set(&pool.emails()[seed as usize % pool.len()].email)
                .into_iter()
                .take(from_pool)
                .collect();
            let candidate = interned(&words);

            let roni = build(FilterOptions {
                max_discriminators,
                ..FilterOptions::default()
            });
            let mut s = Scratch::default();
            prop_assert_eq!(
                roni.measure_one(&candidate, &mut s),
                reference_measure(&roni, &candidate)
            );
            prop_assert!(s.branches.truncated > 0, "{:?}", s.branches);

            // A certifiable message in trial 0, and its exact score with the
            // candidate.
            let roni = build(FilterOptions::default());
            let (trial, k) = (&roni.trials[0], roni.opts.max_discriminators);
            let mut s = Scratch::default();
            let mut exact = Vec::new();
            trial.scores(&candidate, &roni.opts, &mut s, |score| exact.push(score));
            let certifiable = (0..exact.len()).find(|&v| {
                let (m, d) = (&trial.val[v], s.deltas[v]);
                let n = i64::from(m.n) + i64::from(d.n);
                d.touched && m.n as usize <= k && (1..=k as i64).contains(&n)
            });
            let Some(v) = certifiable else {
                return Ok(());
            };
            let roni = build(FilterOptions {
                ham_cutoff: exact[v],
                ..FilterOptions::default()
            });
            let mut s = Scratch::default();
            prop_assert_eq!(
                roni.measure_one(&candidate, &mut s),
                reference_measure(&roni, &candidate)
            );
            prop_assert!(s.branches.near_cutoff > 0, "{:?}", s.branches);
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
