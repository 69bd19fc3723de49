//! The token count database: the learner's entire mutable state.
//!
//! Stores `NS`, `NH` (spam/ham training message counts) and per-token
//! `NS(w)`, `NH(w)` (spam/ham messages containing `w`) — exactly the
//! quantities Equation 1 needs. Tokens are counted with **set semantics**:
//! callers must pass deduplicated token sets (`Tokenizer::token_set` /
//! `Interner::intern_set`).
//!
//! ## The interned-token substrate
//!
//! Counts are keyed by [`TokenId`] into a dense `Vec<TokenCounts>`; every
//! hot path (Eq. 1–4 scoring, RONI's train/untrain probes, epoch
//! retraining) moves 4-byte ids instead of hashing and allocating owned
//! `String`s. The string-keyed API (`train`, `counts`, `iter`, …) remains
//! as a thin wrapper that interns through the database's [`Interner`]
//! handle — by default the process-global table, so ids are exchangeable
//! across independently-constructed filters.
//!
//! ## The generation-stamped score cache
//!
//! Classification needs `f(w)` (Eq. 2) plus `ln f(w)` / `ln(1 − f(w))`
//! (Eq. 3–4) per probe token. All of these depend on the *global* counts
//! `NS`/`NH`, so **any** train/untrain invalidates **every** cached
//! score. The database keeps a generation counter, bumped by every
//! mutation, and memoizes scores in a [`ScoreMemo`] stamped with it: a
//! mutation costs O(1) regardless of vocabulary size, and within one
//! generation (e.g. RONI scoring 50 validation messages) every distinct
//! token's score is computed once and shared by all messages and all
//! threads. The stamp rules, and why the serving tier's score sources
//! keep no memo, are in [`crate::memo`].
//!
//! Two non-obvious requirements from the paper shape the API:
//!
//! * **`untrain`** — the RONI defense (§5.1) measures the effect of single
//!   messages by comparing filters with and without them; exact removal is
//!   cheaper than retraining and is property-tested to be an exact inverse.
//! * **multiplicity** — all emails of a dictionary attack share one token
//!   set, so training `k` copies is `O(|dict|)`, not `O(k·|dict|)`. This is
//!   what makes the paper-scale parameter sweeps tractable.

use serde::{Deserialize, Serialize};

use crate::memo::ScoreMemo;
use crate::options::FilterOptions;
use sb_email::Label;
use sb_intern::{Interner, TokenId};

/// Per-token message counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenCounts {
    /// Number of spam training messages containing the token (`NS(w)`).
    pub spam: u32,
    /// Number of ham training messages containing the token (`NH(w)`).
    pub ham: u32,
}

impl TokenCounts {
    /// `N(w)` of Equation 2: training messages containing the token.
    pub fn total(&self) -> u32 {
        self.spam + self.ham
    }

    fn is_zero(&self) -> bool {
        self.spam == 0 && self.ham == 0
    }
}

/// Error from [`TokenDb::untrain`]: removing a message that was never
/// trained (counts would go negative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UntrainError {
    /// Token whose count underflowed, or `None` when the per-class message
    /// count itself underflowed.
    pub token: Option<String>,
}

impl std::fmt::Display for UntrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.token {
            Some(t) => write!(f, "untrain underflow on token {t:?}"),
            None => write!(f, "untrain underflow on message count"),
        }
    }
}

impl std::error::Error for UntrainError {}

/// Read-only access to per-token scores — the scoring substrate that
/// [`crate::classify::score_token_ids`] (and therefore
/// `SpamBayes::classify_ids`) is generic over.
///
/// Three implementations exist:
///
/// * [`TokenDb`] — the trained counts, memoized through a [`ScoreMemo`]
///   (stamp rules in [`crate::memo`]);
/// * `sb_serve::MmapDb` — a packed model image served in place;
/// * `sb_serve::StackView` — tenant overlay layers over a served base.
///
/// The two serving sources compute every score from counts.
///
/// Implementations must be pure in their underlying counts: repeated
/// lookups of the same id under the same options return bit-identical
/// values.
pub trait ScoreDb {
    /// The interner ids resolve against (used for the deterministic
    /// string-order tie-breaks in δ(E) selection).
    fn interner(&self) -> &Interner;

    /// The smoothed token score `f(w)` (Eq. 2) under `opts`.
    fn score_f(&self, id: TokenId, opts: &FilterOptions) -> f64;

    /// The `(ln f, ln(1 − f))` pair for a token whose `f` is already
    /// known from [`ScoreDb::score_f`]. Called only for δ(E) survivors.
    fn score_lns(&self, id: TokenId, f: f64) -> (f64, f64);
}

/// A token's cached score triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedScore {
    /// Smoothed token score `f(w)` (Eq. 2).
    pub f: f64,
    /// `ln f(w)` after the Fisher clamp.
    pub ln_f: f64,
    /// `ln (1 − f(w))` after the Fisher clamp.
    pub ln_1mf: f64,
}

/// The count database (see module docs for the substrate design).
///
/// Deliberately **not** serde-serializable: raw `TokenId`s are positions
/// in the owning interner and are meaningless to another process (and a
/// skipped cache/interner would misattribute every count). The durable
/// format is the string-resolved model image of [`crate::image`].
#[derive(Debug)]
pub struct TokenDb {
    interner: Interner,
    n_spam: u32,
    n_ham: u32,
    /// Dense per-id counts; ids at or beyond `counts.len()` are unseen.
    counts: Vec<TokenCounts>,
    /// Number of ids with nonzero counts (the public `n_tokens`).
    distinct: usize,
    /// Mutation counter driving cache invalidation (starts at 1).
    generation: u64,
    cache: ScoreMemo,
}

impl Default for TokenDb {
    fn default() -> Self {
        Self::with_interner(Interner::global())
    }
}

impl Clone for TokenDb {
    fn clone(&self) -> Self {
        Self {
            interner: self.interner.clone(),
            n_spam: self.n_spam,
            n_ham: self.n_ham,
            counts: self.counts.clone(),
            distinct: self.distinct,
            generation: self.generation,
            // Fresh, unfilled cache.
            cache: ScoreMemo::with_capacity(self.counts.len()),
        }
    }
}

impl TokenDb {
    /// Empty database on the process-global interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty database on an explicit interner (share the handle across
    /// filters to exchange raw ids; see `sb_intern::Interner`).
    pub fn with_interner(interner: Interner) -> Self {
        Self {
            interner,
            n_spam: 0,
            n_ham: 0,
            counts: Vec::new(),
            distinct: 0,
            generation: 1,
            cache: ScoreMemo::new(),
        }
    }

    /// The interner this database resolves ids against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// `NS`: spam messages trained.
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// `NH`: ham messages trained.
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Total messages trained.
    pub fn n_messages(&self) -> u32 {
        self.n_spam + self.n_ham
    }

    /// Number of distinct tokens with nonzero counts.
    pub fn n_tokens(&self) -> usize {
        self.distinct
    }

    /// The mutation generation (exposed for cache diagnostics and tests).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drop every cached score by advancing the generation. Counts are
    /// untouched. Callers must invoke this when anything *outside* the
    /// counts that scores depend on changes — i.e. the `FilterOptions`
    /// (see `SpamBayes::set_options`), or after a bulk load that bypassed
    /// the training APIs (see `image::read_image_into`).
    pub fn invalidate_cache(&mut self) {
        self.bump_generation();
    }

    /// Remove every count and trained message, keeping the interner
    /// handle, count/cache allocations, and invalidating all cached
    /// scores. The reload entry point: `image::read_image_into` clears a
    /// warm database before replaying an image into it.
    pub fn clear(&mut self) {
        self.bump_generation();
        self.n_spam = 0;
        self.n_ham = 0;
        self.distinct = 0;
        self.counts.fill(TokenCounts::default());
    }

    /// Bulk-set the per-class message counts during a load. Does **not**
    /// bump the generation — the loader invalidates once at the end, not
    /// per row.
    pub(crate) fn set_message_counts_for_load(&mut self, n_spam: u32, n_ham: u32) {
        self.n_spam = n_spam;
        self.n_ham = n_ham;
    }

    /// Bulk-add one token's counts during an image load (additive, like
    /// training). Does **not** bump the
    /// generation — see [`TokenDb::set_message_counts_for_load`].
    pub(crate) fn add_counts_for_load(&mut self, id: TokenId, counts: TokenCounts) {
        if counts.is_zero() {
            return;
        }
        self.ensure_capacity(id);
        let entry = &mut self.counts[id.index()];
        if entry.is_zero() {
            self.distinct += 1;
        }
        entry.spam += counts.spam;
        entry.ham += counts.ham;
    }

    /// Counts for a token id (zero if unseen).
    #[inline]
    pub fn counts_by_id(&self, id: TokenId) -> TokenCounts {
        self.counts.get(id.index()).copied().unwrap_or_default()
    }

    /// Counts for a token string (zero if unseen).
    pub fn counts(&self, token: impl AsRef<str>) -> TokenCounts {
        match self.interner.get(token.as_ref()) {
            Some(id) => self.counts_by_id(id),
            None => TokenCounts::default(),
        }
    }

    /// Snapshot of `(token, counts)` pairs with nonzero counts, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (String, TokenCounts)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| (self.interner.resolve(TokenId(i as u32)), *c))
    }

    /// Ids with nonzero counts, ascending.
    pub fn ids(&self) -> impl Iterator<Item = (TokenId, TokenCounts)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| (TokenId(i as u32), *c))
    }

    fn bump_generation(&mut self) {
        self.generation += 1;
    }

    fn ensure_capacity(&mut self, max_id: TokenId) {
        let need = max_id.index() + 1;
        if self.counts.len() < need {
            self.counts.resize(need, TokenCounts::default());
            self.cache.ensure_capacity(need);
        }
    }

    /// Train one message given its (deduplicated) token set.
    pub fn train(&mut self, token_set: &[String], label: Label) {
        self.train_many(token_set, label, 1);
    }

    /// Train `multiplicity` identical messages sharing `token_set`.
    pub fn train_many(&mut self, token_set: &[String], label: Label, multiplicity: u32) {
        debug_assert!(
            is_distinct_or_large(token_set),
            "token_set must be deduplicated"
        );
        let ids = self.interner.intern_set(token_set);
        self.train_ids_many(&ids, label, multiplicity);
    }

    /// Train one message given its interned (deduplicated) id set.
    pub fn train_ids(&mut self, ids: &[TokenId], label: Label) {
        self.train_ids_many(ids, label, 1);
    }

    /// Train `multiplicity` identical messages sharing `ids` — the
    /// dictionary attack fast path: every attack email contains the same
    /// lexicon, so `k` of them just add `k` to each count.
    pub fn train_ids_many(&mut self, ids: &[TokenId], label: Label, multiplicity: u32) {
        if multiplicity == 0 {
            return;
        }
        debug_assert!(is_distinct_ids(ids), "id set must be deduplicated");
        self.bump_generation();
        match label {
            Label::Spam => self.n_spam += multiplicity,
            Label::Ham => self.n_ham += multiplicity,
        }
        if let Some(&max) = ids.iter().max() {
            self.ensure_capacity(max);
        }
        for &id in ids {
            let entry = &mut self.counts[id.index()];
            if entry.is_zero() {
                self.distinct += 1;
            }
            match label {
                Label::Spam => entry.spam += multiplicity,
                Label::Ham => entry.ham += multiplicity,
            }
        }
    }

    /// Exactly undo [`TokenDb::train`] for one message.
    pub fn untrain(&mut self, token_set: &[String], label: Label) -> Result<(), UntrainError> {
        self.untrain_many(token_set, label, 1)
    }

    /// Exactly undo [`TokenDb::train_many`].
    pub fn untrain_many(
        &mut self,
        token_set: &[String],
        label: Label,
        multiplicity: u32,
    ) -> Result<(), UntrainError> {
        let ids = self.interner.intern_set(token_set);
        self.untrain_ids_many(&ids, label, multiplicity)
    }

    /// Exactly undo [`TokenDb::train_ids`].
    pub fn untrain_ids(&mut self, ids: &[TokenId], label: Label) -> Result<(), UntrainError> {
        self.untrain_ids_many(ids, label, 1)
    }

    /// Exactly undo [`TokenDb::train_ids_many`].
    ///
    /// Fails without mutating anything if the message was not previously
    /// trained with this label (validation precedes every write).
    pub fn untrain_ids_many(
        &mut self,
        ids: &[TokenId],
        label: Label,
        multiplicity: u32,
    ) -> Result<(), UntrainError> {
        if multiplicity == 0 {
            return Ok(());
        }
        // Validate first so we never partially untrain.
        let class_count = match label {
            Label::Spam => self.n_spam,
            Label::Ham => self.n_ham,
        };
        if class_count < multiplicity {
            return Err(UntrainError { token: None });
        }
        for &id in ids {
            let c = self.counts_by_id(id);
            let have = match label {
                Label::Spam => c.spam,
                Label::Ham => c.ham,
            };
            if have < multiplicity {
                return Err(UntrainError {
                    token: Some(self.interner.resolve(id)),
                });
            }
        }
        self.bump_generation();
        match label {
            Label::Spam => self.n_spam -= multiplicity,
            Label::Ham => self.n_ham -= multiplicity,
        }
        for &id in ids {
            let entry = &mut self.counts[id.index()];
            match label {
                Label::Spam => entry.spam -= multiplicity,
                Label::Ham => entry.ham -= multiplicity,
            }
            if entry.is_zero() {
                self.distinct -= 1;
            }
        }
        Ok(())
    }

    /// Merge another database into this one (counts add). Databases on
    /// different interner tables are translated through their strings.
    pub fn merge(&mut self, other: &TokenDb) {
        self.bump_generation();
        self.n_spam += other.n_spam;
        self.n_ham += other.n_ham;
        if self.interner.same_table(&other.interner) {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), TokenCounts::default());
                self.cache.ensure_capacity(other.counts.len());
            }
            for (i, c) in other.counts.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let entry = &mut self.counts[i];
                if entry.is_zero() {
                    self.distinct += 1;
                }
                entry.spam += c.spam;
                entry.ham += c.ham;
            }
        } else {
            for (tok, c) in other.iter() {
                let id = self.interner.intern(&tok);
                self.ensure_capacity(id);
                let entry = &mut self.counts[id.index()];
                if entry.is_zero() {
                    self.distinct += 1;
                }
                entry.spam += c.spam;
                entry.ham += c.ham;
            }
        }
    }

    /// The cached `f(w)` of a token under `opts`, computing and publishing
    /// it if this generation has not seen the token yet. Lock-free (see
    /// [`ScoreMemo`]); ids past the counts are unseen and score the prior.
    #[inline]
    pub fn cached_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        self.cache.f(id, self.generation, || {
            crate::score::token_score_from_counts(
                self.n_spam,
                self.n_ham,
                self.counts_by_id(id),
                opts,
            )
        })
    }

    /// The cached `(ln f, ln(1 − f))` pair for a token whose `f` is
    /// already known (from [`TokenDb::cached_f`]). Only δ(E) survivors
    /// ever call this, so the two `ln`s are paid per *selected* distinct
    /// token per generation, not per probe token.
    #[inline]
    pub fn cached_lns(&self, id: TokenId, f: f64) -> (f64, f64) {
        self.cache.lns(id, self.generation, f)
    }

    /// The full cached score triple (f + ln pair) — convenience for
    /// diagnostics and tests; hot paths use [`TokenDb::cached_f`] +
    /// [`TokenDb::cached_lns`] so unselected tokens skip the `ln`s.
    pub fn cached_score(&self, id: TokenId, opts: &FilterOptions) -> CachedScore {
        let f = self.cached_f(id, opts);
        let (ln_f, ln_1mf) = self.cached_lns(id, f);
        CachedScore { f, ln_f, ln_1mf }
    }
}

impl ScoreDb for TokenDb {
    fn interner(&self) -> &Interner {
        TokenDb::interner(self)
    }

    fn score_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        self.cached_f(id, opts)
    }

    fn score_lns(&self, id: TokenId, f: f64) -> (f64, f64) {
        self.cached_lns(id, f)
    }
}

/// The `ln` pair of a token score, clamped away from exact 0/1 (Eq. 2's
/// shrinkage keeps scores interior, but dynamic-threshold experiments
/// may feed extreme synthetic values). Every score source's `ln` pairs
/// come from this one function (`TokenDb`'s through [`ScoreMemo::lns`]),
/// which keeps their verdicts bit-identical to a [`TokenDb`] trained with
/// the same mail.
#[inline]
pub fn ln_pair(f: f64) -> (f64, f64) {
    let fc = f.clamp(1e-12, 1.0 - 1e-12);
    (fc.ln(), (1.0 - fc).ln())
}

/// Debug-only sanity check: token sets must not contain duplicates. For
/// large sets (attack lexicons, which are constructed deduplicated) a full
/// check would be O(n log n) per call, so only small sets are verified.
fn is_distinct_or_large(tokens: &[String]) -> bool {
    if tokens.len() > 4096 {
        return true;
    }
    let mut seen = std::collections::HashSet::with_capacity(tokens.len());
    tokens.iter().all(|t| seen.insert(t))
}

/// Debug-only: id sets arrive sorted-deduplicated from `intern_set`; when
/// callers build them by hand they must uphold distinctness.
fn is_distinct_ids(ids: &[TokenId]) -> bool {
    if ids.len() > 4096 {
        return true;
    }
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    ids.iter().all(|t| seen.insert(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn train_updates_counts() {
        let mut db = TokenDb::new();
        db.train(&toks(&["buy", "pills"]), Label::Spam);
        db.train(&toks(&["meeting", "pills"]), Label::Ham);
        assert_eq!(db.n_spam(), 1);
        assert_eq!(db.n_ham(), 1);
        assert_eq!(db.counts("buy"), TokenCounts { spam: 1, ham: 0 });
        assert_eq!(db.counts("pills"), TokenCounts { spam: 1, ham: 1 });
        assert_eq!(db.counts("unseen"), TokenCounts::default());
        assert_eq!(db.n_tokens(), 3);
    }

    #[test]
    fn train_many_is_k_trains() {
        let mut a = TokenDb::new();
        let set = toks(&["x", "y"]);
        a.train_many(&set, Label::Spam, 5);
        let mut b = TokenDb::new();
        for _ in 0..5 {
            b.train(&set, Label::Spam);
        }
        assert_eq!(a.n_spam(), b.n_spam());
        assert_eq!(a.counts("x"), b.counts("x"));
        assert_eq!(a.counts("y"), b.counts("y"));
    }

    #[test]
    fn untrain_is_exact_inverse() {
        let mut db = TokenDb::new();
        db.train(&toks(&["alpha", "beta"]), Label::Ham);
        let snapshot = db.clone();
        db.train(&toks(&["beta", "gamma"]), Label::Spam);
        db.untrain(&toks(&["beta", "gamma"]), Label::Spam).unwrap();
        assert_eq!(db.n_spam(), snapshot.n_spam());
        assert_eq!(db.n_ham(), snapshot.n_ham());
        assert_eq!(db.counts("beta"), snapshot.counts("beta"));
        assert_eq!(db.counts("gamma"), TokenCounts::default());
        assert_eq!(db.n_tokens(), snapshot.n_tokens());
    }

    #[test]
    fn untrain_unknown_message_fails_cleanly() {
        let mut db = TokenDb::new();
        db.train(&toks(&["alpha"]), Label::Ham);
        let err = db.untrain(&toks(&["alpha"]), Label::Spam).unwrap_err();
        assert_eq!(err.token, None); // n_spam underflow detected first
        let err = db
            .untrain(&toks(&["alpha", "nope"]), Label::Ham)
            .unwrap_err();
        assert_eq!(err.token.as_deref(), Some("nope"));
        // Failed untrain left counts intact.
        assert_eq!(db.n_ham(), 1);
        assert_eq!(db.counts("alpha"), TokenCounts { spam: 0, ham: 1 });
    }

    #[test]
    fn untrain_removes_empty_entries() {
        let mut db = TokenDb::new();
        db.train(&toks(&["only"]), Label::Spam);
        db.untrain(&toks(&["only"]), Label::Spam).unwrap();
        assert_eq!(db.n_tokens(), 0);
    }

    #[test]
    fn multiplicity_zero_is_noop() {
        let mut db = TokenDb::new();
        db.train_many(&toks(&["x"]), Label::Spam, 0);
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
        db.untrain_many(&toks(&["x"]), Label::Spam, 0).unwrap();
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TokenDb::new();
        a.train(&toks(&["x"]), Label::Spam);
        let mut b = TokenDb::new();
        b.train(&toks(&["x", "y"]), Label::Ham);
        a.merge(&b);
        assert_eq!(a.n_spam(), 1);
        assert_eq!(a.n_ham(), 1);
        assert_eq!(a.counts("x"), TokenCounts { spam: 1, ham: 1 });
        assert_eq!(a.counts("y"), TokenCounts { spam: 0, ham: 1 });
    }

    #[test]
    fn merge_across_interners_translates_strings() {
        let mut a = TokenDb::with_interner(sb_intern::Interner::new());
        a.train(&toks(&["x"]), Label::Spam);
        let mut b = TokenDb::with_interner(sb_intern::Interner::new());
        b.train(&toks(&["x", "y"]), Label::Ham);
        a.merge(&b);
        assert_eq!(a.counts("x"), TokenCounts { spam: 1, ham: 1 });
        assert_eq!(a.counts("y"), TokenCounts { spam: 0, ham: 1 });
        assert_eq!(a.n_tokens(), 2);
    }

    #[test]
    fn token_counts_total() {
        assert_eq!(TokenCounts { spam: 3, ham: 4 }.total(), 7);
    }

    #[test]
    fn id_and_string_training_agree() {
        let interner = sb_intern::Interner::new();
        let set = toks(&["alpha", "beta", "gamma"]);
        let ids = interner.intern_set(&set);
        let mut by_str = TokenDb::with_interner(interner.clone());
        by_str.train(&set, Label::Spam);
        let mut by_id = TokenDb::with_interner(interner);
        by_id.train_ids(&ids, Label::Spam);
        for t in &set {
            assert_eq!(by_str.counts(t), by_id.counts(t));
        }
        assert_eq!(by_str.n_spam(), by_id.n_spam());
        assert_eq!(by_str.n_tokens(), by_id.n_tokens());
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut db = TokenDb::new();
        let g0 = db.generation();
        db.train(&toks(&["a"]), Label::Spam);
        let g1 = db.generation();
        assert!(g1 > g0);
        db.untrain(&toks(&["a"]), Label::Spam).unwrap();
        assert!(db.generation() > g1);
    }

    #[test]
    fn cached_score_invalidates_on_mutation() {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        // "win" carries both spam and ham sightings so its PS depends on
        // the class totals (a pure token's PS is scale-invariant).
        db.train(&toks(&["win"]), Label::Spam);
        db.train(&toks(&["win"]), Label::Ham);
        let id = db.interner().get("win").unwrap();
        let before = db.cached_score(id, &opts);
        // Same generation: cached value identical.
        assert_eq!(db.cached_score(id, &opts), before);
        // Training more spam changes NS and therefore PS("win") and f.
        db.train(&toks(&["other"]), Label::Spam);
        let after = db.cached_score(id, &opts);
        assert_ne!(before.f, after.f);
        // And matches a fresh computation.
        let expect =
            crate::score::token_score_from_counts(db.n_spam(), db.n_ham(), db.counts("win"), &opts);
        assert_eq!(after.f, expect);
    }

    #[test]
    fn cached_score_of_unseen_token_is_prior() {
        let opts = FilterOptions::default();
        let db = TokenDb::new();
        let id = db.interner().intern("never-trained-token-xyz");
        let s = db.cached_score(id, &opts);
        assert_eq!(s.f, opts.unknown_word_prob);
    }

    #[test]
    fn clone_preserves_counts_and_resets_cache() {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        db.train(&toks(&["a", "b"]), Label::Spam);
        let id = db.interner().get("a").unwrap();
        let s = db.cached_score(id, &opts);
        let clone = db.clone();
        assert_eq!(clone.n_tokens(), db.n_tokens());
        assert_eq!(clone.cached_score(id, &opts), s);
    }
}
