//! Overlay scoring: measure a candidate message's effect on classification
//! without mutating the base database.
//!
//! The RONI defense (paper §5.1) must score a validation set *as if* a
//! candidate had been trained, for every arriving message. Doing that with
//! real `train`/`untrain` bumps the base [`TokenDb`]'s generation twice per
//! candidate, so every trial's score cache is rebuilt from scratch for each
//! of the hundreds of candidates an epoch screens — and it forces `&mut`
//! access, which costs the batch screening path a full per-worker clone of
//! every trial database.
//!
//! An [`OverlayDb`] is the invalidation-free alternative: a borrowed
//! `&TokenDb` plus a small delta — the candidate's token counts and the
//! shifted per-class totals (`NS + 1` for the spam-labeled candidates RONI
//! measures). Count lookups consult the delta first and fall through to the
//! base counts; the base's generation-stamped score cache is never touched,
//! so the base filter stays warm across an arbitrarily long screening
//! sweep. Scores are memoized in a caller-owned, reusable
//! [`OverlayScratch`] (validation messages share vocabulary heavily), so
//! steady-state measurement performs no allocation at all; its stamp
//! rules are described in [`crate::memo`].
//!
//! ## Exactness
//!
//! Overlay scores are **bit-identical** to training the candidate,
//! scoring, and exactly untraining (property-tested in
//! `sb-core::roni`): both paths evaluate
//! `token_score_from_counts(NS + δS, NH + δH, counts + δ(w), opts)` and
//! the same `ln` clamp. Note the per-class totals enter Equation 1, so a
//! candidate shifts *every* token's score, not only its own tokens' — the
//! overlay therefore recomputes (and memoizes) scores for all probed
//! tokens rather than serving the base's cached values, which were
//! computed at the unshifted totals. The base cache still matters: it is
//! left valid, so baseline sweeps and non-overlay classification between
//! candidates pay nothing.
//!
//! ## Sharing across trial threads
//!
//! A [`CandidateDelta`] is immutable and `Sync`: build it once per
//! candidate and lend it to every parallel RONI trial, each of which lays
//! its own [`OverlayDb`] (one scratch per trial — trials have different
//! training sets, hence different scores) over its own base.

use crate::db::{ScoreDb, TokenCounts, TokenDb};
use crate::memo::ScoreMemo;
use crate::options::FilterOptions;
use crate::score::token_score_from_counts;
use sb_email::Label;
use sb_intern::{Interner, TokenId};

/// The training-set delta a candidate message would contribute: its token
/// set plus the per-class message-count shift. Immutable and `Sync` —
/// build once, share across parallel trials.
///
/// Stored as a **sorted id vector plus a membership bitset with one
/// uniform per-token count** (every token of `multiplicity` identical
/// messages gains the same `multiplicity`), not a hash map: candidate
/// sets arrive sorted from `Interner::intern_set`, so construction is a
/// copy plus a bitset fill, and membership ([`CandidateDelta::contains`])
/// is a single indexed bit test — no hashing on the scoring hot path.
#[derive(Debug, Clone)]
pub struct CandidateDelta {
    /// Sorted, deduplicated candidate token ids.
    ids: Vec<TokenId>,
    /// Membership bitset over `0..=max(ids)` — one branch-free test per
    /// probe token on the scoring hot path (a binary search over a large
    /// attack lexicon costs ~13 dependent cache probes per token).
    mask: Vec<u64>,
    /// Counts every candidate token gains.
    add: TokenCounts,
    d_spam: u32,
    d_ham: u32,
}

impl CandidateDelta {
    /// The delta of training `multiplicity` identical messages with token
    /// set `ids` under `label`. The input is a *set*: duplicates are
    /// collapsed (as `intern_set` already guarantees).
    pub fn new(ids: &[TokenId], label: Label, multiplicity: u32) -> Self {
        let mut ids = ids.to_vec();
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        ids.dedup();
        let mut mask = vec![0u64; ids.last().map_or(0, |id| id.index() / 64 + 1)];
        for id in &ids {
            mask[id.index() / 64] |= 1 << (id.index() % 64);
        }
        let (add, d_spam, d_ham) = match label {
            Label::Spam => (
                TokenCounts {
                    spam: multiplicity,
                    ham: 0,
                },
                multiplicity,
                0,
            ),
            Label::Ham => (
                TokenCounts {
                    spam: 0,
                    ham: multiplicity,
                },
                0,
                multiplicity,
            ),
        };
        Self {
            ids,
            mask,
            add,
            d_spam,
            d_ham,
        }
    }

    /// The RONI shape: one candidate trained as spam (the contamination
    /// assumption, §2.2 — attack mail genuinely is spam).
    pub fn spam_candidate(ids: &[TokenId]) -> Self {
        Self::new(ids, Label::Spam, 1)
    }

    /// Number of distinct tokens in the delta.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the delta carries no token counts.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when `id` is in the candidate set (O(1) bitset test).
    ///
    /// Public because screeners exploit it: a probe message containing
    /// *no* candidate token scores identically under every candidate
    /// with the same class shift, so its classification can be cached
    /// across candidates (see `sb_core::roni`).
    #[inline]
    pub fn contains(&self, id: TokenId) -> bool {
        match self.mask.get(id.index() / 64) {
            Some(word) => (word >> (id.index() % 64)) & 1 == 1,
            None => false,
        }
    }

    /// The `(ΔNS, ΔNH)` class shift this delta applies.
    pub fn class_shift(&self) -> (u32, u32) {
        (self.d_spam, self.d_ham)
    }

    /// The counts this delta adds for `id`, if the token is in the
    /// candidate set.
    #[inline]
    fn added(&self, id: TokenId) -> Option<TokenCounts> {
        if self.contains(id) {
            Some(self.add)
        } else {
            None
        }
    }
}

/// What an [`OverlayScratch`]'s slots are valid for: an exact base counts
/// state (`TokenDb::uid` + generation — clones get fresh uids, so the
/// pair pins the counts) and the per-class total shift. Every overlay
/// whose binding matches sees the *same* score for every non-candidate
/// token, which is what lets slots survive across candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScratchBinding {
    db_uid: u64,
    generation: u64,
    d_spam: u32,
    d_ham: u32,
}

/// The reusable score memo behind every [`OverlayDb`].
///
/// A screening loop probes the same validation vocabulary for every
/// candidate. The scratch holds two dense [`ScoreMemo`]s indexed by
/// `TokenId`, each stamped with its own epoch:
///
/// * the **stable** memo, for tokens outside the candidate. A
///   non-candidate token's overlay score depends only on the base counts
///   and the per-class total shift — not on *which* candidate is
///   measured — so when consecutive overlays share a [`ScratchBinding`]
///   the epoch is kept and their sweeps hit the already-filled slots. A
///   binding mismatch (different base, a mutated base, a different
///   shift) invalidates every slot in O(1) by bumping the epoch.
/// * the **member** memo, for candidate tokens, whose scores vary per
///   candidate: its epoch moves on every claim, but its allocation is
///   reused across the whole screening loop.
///
/// Both memos grow at claim time to cover the ids the base has counts
/// for, as the base's own memo does, so a sweep never allocates. Tokens
/// past that bound score from the delta alone and are computed, not
/// cached; the global interner is far longer than any trial's
/// vocabulary, and memos that long would multiply a screening worker's
/// memory. Like the base cache, the slots assume one
/// `FilterOptions` per (base, generation) — the classification APIs
/// guarantee that, and `SpamBayes::set_options` bumps the generation.
#[derive(Debug, Default)]
pub struct OverlayScratch {
    binding: Option<ScratchBinding>,
    /// Epoch of the binding-stable memo (starts at 1 on first claim).
    epoch: u64,
    stable: ScoreMemo,
    /// Epoch of the per-overlay member memo.
    member_epoch: u64,
    members: ScoreMemo,
}

impl OverlayScratch {
    /// A fresh scratch (memos grow on claim).
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim the scratch for an overlay over `base` with `binding`: keep
    /// the stable epoch (and every filled slot) when the binding is
    /// unchanged, otherwise invalidate the stable slots in O(1). Member
    /// slots are always invalidated.
    fn claim(&mut self, base: &TokenDb, binding: ScratchBinding) {
        if self.binding != Some(binding) {
            self.binding = Some(binding);
            self.epoch += 1;
        }
        self.member_epoch += 1;
        self.stable.ensure_capacity(base.id_bound());
        self.members.ensure_capacity(base.id_bound());
    }
}

/// A read-only scoring view: a borrowed base [`TokenDb`] with a
/// [`CandidateDelta`] applied on top, memoized in a claimed
/// [`OverlayScratch`] (see module docs).
///
/// Implements [`ScoreDb`], so it plugs directly into
/// [`crate::classify::score_token_ids`] and friends. Parallel trials each
/// build their own overlay, with their own scratch, over a shared delta.
#[derive(Debug)]
pub struct OverlayDb<'a> {
    base: &'a TokenDb,
    delta: &'a CandidateDelta,
    scratch: &'a OverlayScratch,
    /// Effective per-class totals (base + delta), entering Eq. 1 for
    /// every token.
    n_spam: u32,
    n_ham: u32,
    /// True when the delta shifts no per-class total — then non-delta
    /// tokens score exactly as in the base and lookups fall through to
    /// (and warm) the base's generation-stamped cache.
    totals_unchanged: bool,
}

impl<'a> OverlayDb<'a> {
    /// Lay `delta` over `base`, memoizing into `scratch`. The scratch is
    /// claimed under this overlay's [`ScratchBinding`]: if the previous
    /// overlay had the same base (same counts state) and the same
    /// per-class shift, its filled stable slots stay valid and this
    /// overlay's sweep hits them.
    pub fn new(
        base: &'a TokenDb,
        delta: &'a CandidateDelta,
        scratch: &'a mut OverlayScratch,
    ) -> Self {
        scratch.claim(
            base,
            ScratchBinding {
                db_uid: base.uid(),
                generation: base.generation(),
                d_spam: delta.d_spam,
                d_ham: delta.d_ham,
            },
        );
        Self {
            base,
            delta,
            scratch,
            n_spam: base.n_spam() + delta.d_spam,
            n_ham: base.n_ham() + delta.d_ham,
            totals_unchanged: delta.d_spam == 0 && delta.d_ham == 0,
        }
    }

    /// The base database the overlay falls through to.
    pub fn base(&self) -> &TokenDb {
        self.base
    }

    /// Effective `NS` (base plus delta).
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// Effective `NH` (base plus delta).
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Effective counts for a token: delta first, then the base.
    pub fn counts_by_id(&self, id: TokenId) -> TokenCounts {
        let base = self.base.counts_by_id(id);
        match self.delta.added(id) {
            Some(d) => TokenCounts {
                spam: base.spam + d.spam,
                ham: base.ham + d.ham,
            },
            None => base,
        }
    }
}

impl ScoreDb for OverlayDb<'_> {
    fn interner(&self) -> &Interner {
        self.base.interner()
    }

    fn score_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        let s = self.scratch;
        if self.delta.contains(id) {
            // Candidate-dependent scores live in their own memo so they
            // can never leak into the cross-candidate stable slots.
            s.members.f(id, s.member_epoch, || self.compute_f(id, opts))
        } else if self.totals_unchanged {
            // Totals unshifted and no count delta: the base's cached
            // score is exactly this overlay's score.
            self.base.cached_f(id, opts)
        } else {
            s.stable.f(id, s.epoch, || self.compute_f(id, opts))
        }
    }

    fn score_lns(&self, id: TokenId, f: f64) -> (f64, f64) {
        let s = self.scratch;
        if self.delta.contains(id) {
            s.members.lns(id, s.member_epoch, f)
        } else if self.totals_unchanged {
            self.base.cached_lns(id, f)
        } else {
            s.stable.lns(id, s.epoch, f)
        }
    }
}

impl OverlayDb<'_> {
    /// The overlay score of `id`, uncached.
    #[inline]
    fn compute_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        token_score_from_counts(self.n_spam, self.n_ham, self.counts_by_id(id), opts)
    }

    /// The **pure-shift** score of `id`: per-class totals shifted, but
    /// the candidate's own counts ignored — i.e. the score any
    /// *non-candidate* token gets, evaluated for an arbitrary token.
    ///
    /// Screeners use this for the exact skip rule: a probe message whose
    /// candidate-member tokens are all δ-ineligible under both the
    /// candidate score and this pure-shift score selects exactly the
    /// same δ(E) as a candidate-free (shift-only) classification, so its
    /// cached verdict can be reused. Candidate-independent, hence
    /// memoized in the cross-candidate stable slots.
    pub fn shift_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        self.scratch.stable.f(id, self.scratch.epoch, || {
            token_score_from_counts(self.n_spam, self.n_ham, self.base.counts_by_id(id), opts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::score_token_ids;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn trained_db(interner: &Interner) -> TokenDb {
        let mut db = TokenDb::with_interner(interner.clone());
        for i in 0..10 {
            db.train(&toks(&["cheap", "pills", &format!("s{i}")]), Label::Spam);
            db.train(&toks(&["meeting", "agenda", &format!("h{i}")]), Label::Ham);
        }
        db
    }

    /// The defining property: overlay scoring equals train → score →
    /// untrain, bit for bit, for delta and non-delta tokens alike.
    #[test]
    fn overlay_matches_train_untrain_bitwise() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut db = trained_db(&interner);
        let candidate = interner.intern_set(&toks(&["cheap", "novel", "agenda"]));
        let probe = interner.intern_set(&toks(&[
            "cheap", "pills", "meeting", "agenda", "novel", "unseen",
        ]));

        let delta = CandidateDelta::spam_candidate(&candidate);
        let mut scratch = OverlayScratch::new();
        let overlay = OverlayDb::new(&db, &delta, &mut scratch);
        let via_overlay = score_token_ids(&probe, &overlay, &opts);
        let overlay_f: Vec<u64> = probe
            .iter()
            .map(|&id| overlay.score_f(id, &opts).to_bits())
            .collect();

        db.train_ids(&candidate, Label::Spam);
        let via_train = score_token_ids(&probe, &db, &opts);
        let train_f: Vec<u64> = probe
            .iter()
            .map(|&id| db.cached_f(id, &opts).to_bits())
            .collect();
        db.untrain_ids(&candidate, Label::Spam).unwrap();

        assert_eq!(overlay_f, train_f, "per-token f(w) diverged");
        assert_eq!(via_overlay.score.to_bits(), via_train.score.to_bits());
        assert_eq!(via_overlay, via_train);
    }

    #[test]
    fn overlay_leaves_base_generation_and_cache_untouched() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let db = trained_db(&interner);
        let probe = interner.intern_set(&toks(&["cheap", "meeting"]));
        // Warm the base cache.
        let baseline = score_token_ids(&probe, &db, &opts);
        let gen_before = db.generation();

        let candidate = interner.intern_set(&toks(&["cheap", "xyz"]));
        let delta = CandidateDelta::spam_candidate(&candidate);
        let mut scratch = OverlayScratch::new();
        for _ in 0..3 {
            let overlay = OverlayDb::new(&db, &delta, &mut scratch);
            let _ = score_token_ids(&probe, &overlay, &opts);
        }
        assert_eq!(db.generation(), gen_before, "overlay mutated the base");
        assert_eq!(score_token_ids(&probe, &db, &opts), baseline);
    }

    #[test]
    fn empty_delta_falls_through_to_base_cache() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let db = trained_db(&interner);
        let id = interner.get("cheap").unwrap();
        let delta = CandidateDelta::new(&[], Label::Spam, 0);
        assert!(delta.is_empty());
        let mut scratch = OverlayScratch::new();
        let overlay = OverlayDb::new(&db, &delta, &mut scratch);
        assert_eq!(
            overlay.score_f(id, &opts).to_bits(),
            db.cached_f(id, &opts).to_bits()
        );
        let f = overlay.score_f(id, &opts);
        assert_eq!(overlay.score_lns(id, f), db.cached_lns(id, f));
    }

    #[test]
    fn delta_counts_accumulate_multiplicity() {
        let interner = Interner::new();
        let db = trained_db(&interner);
        let ids = interner.intern_set(&toks(&["cheap"]));
        let delta = CandidateDelta::new(&ids, Label::Ham, 7);
        let mut scratch = OverlayScratch::new();
        let overlay = OverlayDb::new(&db, &delta, &mut scratch);
        let base = db.counts_by_id(ids[0]);
        let eff = overlay.counts_by_id(ids[0]);
        assert_eq!(eff.spam, base.spam);
        assert_eq!(eff.ham, base.ham + 7);
        assert_eq!(overlay.n_ham(), db.n_ham() + 7);
        assert_eq!(overlay.n_spam(), db.n_spam());
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn overlay_scores_unseen_candidate_tokens() {
        // A candidate introducing brand-new vocabulary: the overlay must
        // score those tokens from the delta alone (the base has no slot).
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let db = trained_db(&interner);
        let fresh = interner.intern("zzz-overlay-only");
        let delta = CandidateDelta::spam_candidate(&[fresh]);
        let mut scratch = OverlayScratch::new();
        let overlay = OverlayDb::new(&db, &delta, &mut scratch);
        let f = overlay.score_f(fresh, &opts);
        // One spam sighting out of NS+1 spam: leans spam, shrunk by Eq. 2.
        assert!(f > 0.5, "fresh candidate token must lean spam: {f}");
        // Past the base's ids: computed each time, identically.
        assert_eq!(f.to_bits(), overlay.score_f(fresh, &opts).to_bits());
    }

    /// One scratch claimed over db A, then over db B at the same
    /// generation and shift, then under a different shift, then over A
    /// again: every sweep must equal an unmemoized overlay bit for bit.
    /// If the binding ignored the base's identity, B's sweep would be
    /// served A's stale slots.
    #[test]
    fn scratch_rebinds_across_bases_and_shifts() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let db_a = trained_db(&interner);
        let mut db_b = TokenDb::with_interner(interner.clone());
        for i in 0..10 {
            db_b.train(&toks(&["cheap", "agenda", &format!("b{i}")]), Label::Ham);
            db_b.train(&toks(&["meeting", "pills", &format!("c{i}")]), Label::Spam);
        }
        assert_eq!(db_a.generation(), db_b.generation());
        let probe = interner.intern_set(&toks(&[
            "cheap", "pills", "meeting", "agenda", "novel", "s1", "h2", "b3", "unseen",
        ]));
        let candidate = interner.intern_set(&toks(&["novel", "agenda"]));
        let spam = CandidateDelta::spam_candidate(&candidate);
        let ham = CandidateDelta::new(&candidate, Label::Ham, 2);

        let mut scratch = OverlayScratch::new();
        for (db, delta) in [
            (&db_a, &spam),
            (&db_b, &spam),
            (&db_b, &ham),
            (&db_a, &spam),
        ] {
            let overlay = OverlayDb::new(db, delta, &mut scratch);
            for &id in &probe {
                let want = token_score_from_counts(
                    overlay.n_spam(),
                    overlay.n_ham(),
                    overlay.counts_by_id(id),
                    &opts,
                );
                assert_eq!(overlay.score_f(id, &opts).to_bits(), want.to_bits());
                let shift = token_score_from_counts(
                    overlay.n_spam(),
                    overlay.n_ham(),
                    db.counts_by_id(id),
                    &opts,
                );
                assert_eq!(overlay.shift_f(id, &opts).to_bits(), shift.to_bits());
                assert_eq!(overlay.score_lns(id, want), crate::db::ln_pair(want));
            }
            let got = score_token_ids(&probe, &overlay, &opts);
            let mut fresh = OverlayScratch::new();
            let cold = score_token_ids(&probe, &OverlayDb::new(db, delta, &mut fresh), &opts);
            assert_eq!(got.score.to_bits(), cold.score.to_bits());
            assert_eq!(got, cold);
        }
    }
}
