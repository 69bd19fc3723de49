//! Overlay stacks: persistent per-tenant deltas over a shared read-only
//! base, combined read-only by [`StackView`].
//!
//! An [`OverlayLayer`] is the workspace's one count-delta type: it
//! accumulates a tenant's whole personal training history (arbitrary
//! per-token counts from many train/untrain calls) and lives as long as
//! the tenant does. Layers
//! stack: a [`StackView`] lays an ordered list of layers over any
//! [`BaseModel`] (org patch over the packed base, user delta over that),
//! and scoring consults them newest-to-oldest additively — effective
//! counts are `base + Σ layers`, effective class totals likewise.
//!
//! ## Bit-identity
//!
//! A stack's scores are bit-identical to a standalone
//! [`sb_filter::TokenDb`] that trained the base mail and then every
//! layer's mail: both paths evaluate
//! `token_score_from_counts(NS_eff, NH_eff, counts_eff, opts)` and the
//! same [`sb_filter::ln_pair`] clamp on equal `u32` inputs, and integer
//! addition is associative — *which* layer a count lives in cannot move
//! the sum. Property-tested in `tests/prop_serve.rs`
//! (`two_deep_stack_equals_sequential_training`).
//!
//! ## No score memo
//!
//! A stack computes `f(w)` from its summed counts on every lookup, and
//! the `ln` pair only for δ(E) survivors. Tenants train as they serve,
//! and any memo keyed on the stack's state would be invalidated by each
//! train; [`sb_filter::memo`] records the measurement behind that
//! choice. [`StackView`] is `Sync` when its base is: scoring is
//! read-only.

use crate::model::BaseModel;
use sb_email::Label;
use sb_filter::score::token_score_from_counts;
use sb_filter::{ln_pair, FilterOptions, ScoreDb, TokenCounts};
use sb_intern::{FxHashMap, Interner, TokenId};

/// A persistent training delta: the per-token counts and per-class
/// message totals a tenant's own mail contributed on top of whatever it
/// stacks on. Mutable only through [`OverlayLayer::train_ids`] /
/// [`OverlayLayer::untrain_ids`].
#[derive(Debug, Clone, Default)]
pub struct OverlayLayer {
    counts: FxHashMap<TokenId, TokenCounts>,
    d_spam: u32,
    d_ham: u32,
}

/// An untrain asked this layer to forget counts it never trained — the
/// typed, fail-closed refusal ([`crate::ServeError::Underflow`] at the
/// registry surface). The layer is left unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerUnderflow {
    /// First offending token (`None` when the class total itself would
    /// underflow).
    pub token: Option<TokenId>,
}

impl std::fmt::Display for LayerUnderflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.token {
            Some(id) => write!(f, "untrain underflows token id {}", id.0),
            None => write!(f, "untrain underflows the class message total"),
        }
    }
}

impl std::error::Error for LayerUnderflow {}

impl OverlayLayer {
    /// An empty delta (contributes nothing until trained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Train one message's token *set* (deduplicated ids, as
    /// `Interner::intern_set` produces) under `label` — the layer-local
    /// mirror of [`sb_filter::TokenDb::train_ids`].
    pub fn train_ids(&mut self, ids: &[TokenId], label: Label) {
        self.train_ids_many(ids, label, 1);
    }

    /// Train `multiplicity` identical messages at once.
    pub fn train_ids_many(&mut self, ids: &[TokenId], label: Label, multiplicity: u32) {
        if multiplicity == 0 {
            return;
        }
        for &id in ids {
            let c = self.counts.entry(id).or_default();
            match label {
                Label::Spam => c.spam += multiplicity,
                Label::Ham => c.ham += multiplicity,
            }
        }
        match label {
            Label::Spam => self.d_spam += multiplicity,
            Label::Ham => self.d_ham += multiplicity,
        }
    }

    /// Exactly remove one previously trained message from *this layer*.
    ///
    /// Scope is deliberate: a tenant may only forget mail its own delta
    /// trained — mail trained into the shared base (or a lower layer)
    /// belongs to every tenant and is immutable here. Validates the whole
    /// message first and mutates only on success, so a refused untrain
    /// leaves the layer byte-identical.
    pub fn untrain_ids(&mut self, ids: &[TokenId], label: Label) -> Result<(), LayerUnderflow> {
        match label {
            Label::Spam if self.d_spam == 0 => return Err(LayerUnderflow { token: None }),
            Label::Ham if self.d_ham == 0 => return Err(LayerUnderflow { token: None }),
            _ => {}
        }
        for &id in ids {
            let have = self.counts.get(&id).copied().unwrap_or_default();
            let class_count = match label {
                Label::Spam => have.spam,
                Label::Ham => have.ham,
            };
            if class_count == 0 {
                return Err(LayerUnderflow { token: Some(id) });
            }
        }
        for &id in ids {
            if let Some(c) = self.counts.get_mut(&id) {
                match label {
                    Label::Spam => c.spam -= 1,
                    Label::Ham => c.ham -= 1,
                }
                if c.spam == 0 && c.ham == 0 {
                    self.counts.remove(&id);
                }
            }
        }
        match label {
            Label::Spam => self.d_spam -= 1,
            Label::Ham => self.d_ham -= 1,
        }
        Ok(())
    }

    /// The counts this layer adds for `id` (zero when untouched).
    #[inline]
    pub fn added(&self, id: TokenId) -> TokenCounts {
        self.counts.get(&id).copied().unwrap_or_default()
    }

    /// The `(ΔNS, ΔNH)` class-total shift this layer applies.
    pub fn class_shift(&self) -> (u32, u32) {
        (self.d_spam, self.d_ham)
    }

    /// Distinct tokens this layer touches.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the layer contributes nothing.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.d_spam == 0 && self.d_ham == 0
    }
}

/// A read-only combined view over a base and an ordered overlay stack,
/// implementing [`ScoreDb`] — every scoring, δ(E)-selection, and Fisher
/// path works against it unchanged.
///
/// Layer order in `layers` is bottom-up (`layers[0]` sits directly on the
/// base); scoring is additive, so order only matters for bookkeeping and
/// documentation, never for the numbers.
#[derive(Debug, Clone, Copy)]
pub struct StackView<'a, B: BaseModel + ?Sized> {
    base: &'a B,
    layers: &'a [&'a OverlayLayer],
    /// Effective per-class totals (base + every layer), entering Eq. 1
    /// for every token.
    n_spam: u32,
    n_ham: u32,
}

impl<'a, B: BaseModel + ?Sized> StackView<'a, B> {
    /// Combine `layers` (bottom-up) over `base`.
    pub fn new(base: &'a B, layers: &'a [&'a OverlayLayer]) -> Self {
        let mut n_spam = base.base_n_spam();
        let mut n_ham = base.base_n_ham();
        for layer in layers {
            let (ds, dh) = layer.class_shift();
            n_spam += ds;
            n_ham += dh;
        }
        Self {
            base,
            layers,
            n_spam,
            n_ham,
        }
    }

    /// The base model under the stack.
    pub fn base(&self) -> &'a B {
        self.base
    }

    /// Stack depth (number of overlay layers).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Effective `NS` (base plus every layer).
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// Effective `NH` (base plus every layer).
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Effective counts for a token: base plus every layer's addition.
    #[inline]
    pub fn counts_by_id(&self, id: TokenId) -> TokenCounts {
        let mut c = self.base.base_counts(id);
        for layer in self.layers {
            let add = layer.added(id);
            c.spam += add.spam;
            c.ham += add.ham;
        }
        c
    }
}

impl<B: BaseModel + ?Sized> ScoreDb for StackView<'_, B> {
    fn interner(&self) -> &Interner {
        self.base.interner()
    }

    fn score_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        token_score_from_counts(self.n_spam, self.n_ham, self.counts_by_id(id), opts)
    }

    fn score_lns(&self, _id: TokenId, f: f64) -> (f64, f64) {
        ln_pair(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_filter::classify::score_token_ids;
    use sb_filter::TokenDb;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn base_db(interner: &Interner) -> TokenDb {
        let mut db = TokenDb::with_interner(interner.clone());
        for i in 0..8 {
            db.train(&toks(&["cheap", "pills", &format!("s{i}")]), Label::Spam);
            db.train(&toks(&["meeting", "agenda", &format!("h{i}")]), Label::Ham);
        }
        db
    }

    /// The contract: a 2-deep stack scores bit-identically to one TokenDb
    /// trained base → org → user sequentially.
    #[test]
    fn two_deep_stack_matches_sequential_training() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let base = base_db(&interner);

        let org_mail = interner.intern_set(&toks(&["quarterly", "cheap", "report"]));
        let user_spam = interner.intern_set(&toks(&["viagra", "cheap"]));
        let user_ham = interner.intern_set(&toks(&["meeting", "viagra", "minutes"]));

        let mut org = OverlayLayer::new();
        org.train_ids(&org_mail, Label::Ham);
        let mut user = OverlayLayer::new();
        user.train_ids(&user_spam, Label::Spam);
        user.train_ids(&user_ham, Label::Ham);

        let mut sequential = base.clone();
        sequential.train_ids(&org_mail, Label::Ham);
        sequential.train_ids(&user_spam, Label::Spam);
        sequential.train_ids(&user_ham, Label::Ham);

        let layers: Vec<&OverlayLayer> = vec![&org, &user];
        let stack = StackView::new(&base, &layers);
        assert_eq!(stack.depth(), 2);
        assert_eq!(stack.n_spam(), sequential.n_spam());
        assert_eq!(stack.n_ham(), sequential.n_ham());

        let probe = interner.intern_set(&toks(&[
            "cheap", "viagra", "meeting", "quarterly", "minutes", "unseen",
        ]));
        for &id in &probe {
            assert_eq!(stack.counts_by_id(id), sequential.counts_by_id(id));
            assert_eq!(
                stack.score_f(id, &opts).to_bits(),
                sequential.cached_f(id, &opts).to_bits()
            );
        }
        let via_stack = score_token_ids(&probe, &stack, &opts);
        let via_seq = score_token_ids(&probe, &sequential, &opts);
        assert_eq!(via_stack.score.to_bits(), via_seq.score.to_bits());
        assert_eq!(via_stack, via_seq);
    }

    /// A stack scores from the layers' counts at the moment of the
    /// lookup: after every mutation, and on repeated reads, `f` and the
    /// `ln` pair equal a `TokenDb` trained the same way, bit for bit.
    #[test]
    fn scores_follow_layer_mutations() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let base = base_db(&interner);
        let mut sequential = base.clone();
        let mut user = OverlayLayer::new();
        let mail = interner.intern_set(&toks(&["cheap", "offer"]));
        let probe = interner.intern_set(&toks(&["cheap", "offer", "meeting"]));

        let check = |user: &OverlayLayer, sequential: &TokenDb| {
            let layers = [user];
            let stack = StackView::new(&base, &layers);
            for &id in &probe {
                for _ in 0..2 {
                    let f = stack.score_f(id, &opts);
                    assert_eq!(f.to_bits(), sequential.cached_f(id, &opts).to_bits());
                    assert_eq!(stack.score_lns(id, f), sequential.cached_lns(id, f));
                }
            }
        };
        check(&user, &sequential);
        for label in [Label::Spam, Label::Spam, Label::Ham] {
            user.train_ids(&mail, label);
            sequential.train_ids(&mail, label);
            check(&user, &sequential);
        }
        user.untrain_ids(&mail, Label::Spam).unwrap();
        sequential.untrain_ids(&mail, Label::Spam).unwrap();
        check(&user, &sequential);
    }

    /// Untrain is exact and fail-closed: removing trained mail restores
    /// the previous state; removing anything else is a typed refusal that
    /// mutates nothing.
    #[test]
    fn untrain_is_exact_and_fail_closed() {
        let interner = Interner::new();
        let mail = interner.intern_set(&toks(&["a", "b"]));
        let other = interner.intern_set(&toks(&["c"]));

        let mut layer = OverlayLayer::new();
        layer.train_ids(&mail, Label::Spam);
        let snapshot = layer.clone();

        // Never-trained message: refused, untouched.
        let err = layer.untrain_ids(&other, Label::Spam).unwrap_err();
        assert_eq!(err.token, Some(other[0]));
        assert_eq!(layer.class_shift(), snapshot.class_shift());
        assert_eq!(layer.len(), snapshot.len());

        // Wrong label: the class total is empty.
        let err = layer.untrain_ids(&mail, Label::Ham).unwrap_err();
        assert_eq!(err.token, None);

        // Exact removal empties the layer.
        layer.untrain_ids(&mail, Label::Spam).unwrap();
        assert!(layer.is_empty());
        assert_eq!(layer.added(mail[0]), TokenCounts::default());
    }

    /// Tokens interned after the stack was built score like any other:
    /// nothing in a stack is sized by the interner.
    #[test]
    fn ids_interned_after_the_stack_score_from_counts() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let base = base_db(&interner);
        let mut user = OverlayLayer::new();
        let mut sequential = base.clone();
        let late = interner.intern_set(&toks(&["brand-new", "cheap"]));
        user.train_ids(&late, Label::Spam);
        sequential.train_ids(&late, Label::Spam);
        let layers = [&user];
        let stack = StackView::new(&base, &layers);
        for tok in ["cheap", "meeting", "brand-new", "never-trained"] {
            let id = interner.intern(tok);
            assert_eq!(
                stack.score_f(id, &opts).to_bits(),
                sequential.cached_f(id, &opts).to_bits()
            );
        }
    }

    /// A stack over an empty layer list is exactly the base.
    #[test]
    fn empty_stack_is_the_base() {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let base = base_db(&interner);
        let layers: [&OverlayLayer; 0] = [];
        let stack = StackView::new(&base, &layers);
        let id = interner.get("cheap").unwrap();
        assert_eq!(stack.n_spam(), base.n_spam());
        assert_eq!(stack.counts_by_id(id), base.counts_by_id(id));
        assert_eq!(
            stack.score_f(id, &opts).to_bits(),
            base.cached_f(id, &opts).to_bits()
        );
    }
}
