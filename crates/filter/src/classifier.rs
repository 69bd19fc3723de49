//! The user-facing filter: tokenizer + token database + options.

use crate::classify::{
    email_ids, lookup_ids, score_token_ids, score_token_ids_with_clues, Clue, Scored, Verdict,
};
use crate::db::{TokenDb, UntrainError};
use crate::options::FilterOptions;
use sb_email::{Email, Label};
use sb_intern::{par, AsIdSlice, Interner, TokenId};
use sb_tokenizer::{Tokenizer, TokenizerOptions};

/// A complete SpamBayes filter.
///
/// ```
/// use sb_email::{Email, Label};
/// use sb_filter::{SpamBayes, Verdict};
///
/// let mut filter = SpamBayes::default();
/// for _ in 0..10 {
///     filter.train(&Email::builder().body("cheap pills offer").build(), Label::Spam);
///     filter.train(&Email::builder().body("meeting agenda notes").build(), Label::Ham);
/// }
/// let v = filter.classify(&Email::builder().body("pills offer").build());
/// assert_eq!(v.verdict, Verdict::Spam);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpamBayes {
    db: TokenDb,
    opts: FilterOptions,
    tokenizer: Tokenizer,
}

impl SpamBayes {
    /// A fresh, untrained filter with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A filter with explicit learner and tokenizer options.
    pub fn with_options(opts: FilterOptions, tok_opts: TokenizerOptions) -> Self {
        Self {
            db: TokenDb::new(),
            opts,
            tokenizer: Tokenizer::with_options(tok_opts),
        }
    }

    /// A filter on an explicit interner (share the handle across filters
    /// to exchange raw [`TokenId`]s; the default is the process-global
    /// table, which is already shared).
    pub fn with_interner(interner: Interner) -> Self {
        Self {
            db: TokenDb::with_interner(interner),
            opts: FilterOptions::default(),
            tokenizer: Tokenizer::default(),
        }
    }

    /// Wrap an already-trained database (e.g. one restored from a
    /// `persist` checkpoint, a model image) with default options and
    /// tokenizer.
    pub fn from_db(db: TokenDb) -> Self {
        Self {
            db,
            opts: FilterOptions::default(),
            tokenizer: Tokenizer::default(),
        }
    }

    /// The interner the filter's database resolves ids against.
    pub fn interner(&self) -> &Interner {
        self.db.interner()
    }

    /// Learner options.
    pub fn options(&self) -> &FilterOptions {
        &self.opts
    }

    /// Replace the learner options (e.g. dynamic thresholds, §5.2). The
    /// trained counts are unaffected; cached scores are invalidated
    /// (f(w) depends on the Eq. 2 prior constants in the options).
    pub fn set_options(&mut self, opts: FilterOptions) {
        self.opts = opts;
        self.db.invalidate_cache();
    }

    /// The tokenizer in use.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Read access to the trained counts.
    pub fn db(&self) -> &TokenDb {
        &self.db
    }

    /// The token set the filter would use for this email.
    pub fn token_set(&self, email: &Email) -> Vec<String> {
        self.tokenizer.token_set(email)
    }

    /// The interned token set the filter would use for this email
    /// (tokenize once, then move 4-byte ids everywhere). Interns every
    /// token — use for training; classification goes through the
    /// read-only lookup so attacker-chosen probe vocabulary cannot grow
    /// the interner.
    pub fn token_ids(&self, email: &Email) -> Vec<TokenId> {
        self.tokenizer.intern_ids(email, self.db.interner())
    }

    /// Train on one labelled message.
    pub fn train(&mut self, email: &Email, label: Label) {
        let ids = self.token_ids(email);
        self.db.train_ids(&ids, label);
    }

    /// Train on a pre-tokenized (deduplicated) token set. `multiplicity`
    /// copies count as that many identical messages — the dictionary-attack
    /// fast path.
    pub fn train_tokens(&mut self, token_set: &[String], label: Label, multiplicity: u32) {
        self.db.train_many(token_set, label, multiplicity);
    }

    /// Train on a pre-interned (deduplicated) id set.
    pub fn train_ids(&mut self, ids: &[TokenId], label: Label, multiplicity: u32) {
        self.db.train_ids_many(ids, label, multiplicity);
    }

    /// Exactly undo a previous [`SpamBayes::train`] of this message.
    pub fn untrain(&mut self, email: &Email, label: Label) -> Result<(), UntrainError> {
        let ids = self.token_ids(email);
        self.db.untrain_ids(&ids, label)
    }

    /// Exactly undo a previous [`SpamBayes::train_ids`].
    pub fn untrain_ids(
        &mut self,
        ids: &[TokenId],
        label: Label,
        multiplicity: u32,
    ) -> Result<(), UntrainError> {
        self.db.untrain_ids_many(ids, label, multiplicity)
    }

    /// Score and classify a message (tokenize → read-only id lookup →
    /// ID fast path; probe-only vocabulary never grows the interner).
    pub fn classify(&self, email: &Email) -> Scored {
        score_token_ids(&self.lookup_email(email), &self.db, &self.opts)
    }

    /// The ids `email` classifies by ([`email_ids`]).
    fn lookup_email(&self, email: &Email) -> Vec<TokenId> {
        email_ids(&self.tokenizer, email, self.db.interner(), &self.opts)
    }

    /// Classify a pre-tokenized set (read-only id lookup → ID path;
    /// property-tested bit-identical to a string-keyed reference scorer
    /// in `tests/prop_intern.rs`).
    pub fn classify_tokens(&self, token_set: &[String]) -> Scored {
        let ids = lookup_ids(self.db.interner(), token_set, &self.opts);
        score_token_ids(&ids, &self.db, &self.opts)
    }

    /// Classify a pre-interned id set — the hot path for the experiment
    /// harness, RONI validation sweeps, and epoch probes.
    pub fn classify_ids(&self, ids: &[TokenId]) -> Scored {
        score_token_ids(ids, &self.db, &self.opts)
    }

    /// Classify a batch of pre-interned id sets in parallel (scoped
    /// threads, results in input order). The generation-stamped score
    /// cache is shared lock-free across workers, so each distinct token's
    /// `f(w)`/`ln` triple is computed once for the whole batch.
    pub fn classify_ids_batch(&self, batch: &[impl AsIdSlice + Sync]) -> Vec<Scored> {
        self.classify_ids_batch_with_threads(batch, par::default_threads())
    }

    /// [`SpamBayes::classify_ids_batch`] with an explicit worker count
    /// (1 = sequential, for determinism-sensitive harness comparisons —
    /// results are identical either way).
    pub fn classify_ids_batch_with_threads(
        &self,
        batch: &[impl AsIdSlice + Sync],
        threads: usize,
    ) -> Vec<Scored> {
        par::parallel_chunks(batch, threads, |_, chunk| {
            chunk
                .iter()
                .map(|ids| score_token_ids(ids.ids(), &self.db, &self.opts))
                .collect()
        })
    }

    /// Classify with the δ(E) clue list (diagnostics / Figure 4).
    pub fn classify_with_clues(&self, email: &Email) -> (Scored, Vec<Clue>) {
        score_token_ids_with_clues(&self.lookup_email(email), &self.db, &self.opts)
    }

    /// The smoothed score `f(w)` of a single token under the current counts.
    pub fn token_score(&self, token: &str) -> f64 {
        crate::score::token_score(&self.db, token, &self.opts)
    }

    /// Shorthand: the verdict only.
    pub fn verdict(&self, email: &Email) -> Verdict {
        self.classify(email).verdict
    }

    /// Number of training messages seen (spam, ham).
    pub fn training_counts(&self) -> (u32, u32) {
        (self.db.n_spam(), self.db.n_ham())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spammy(i: usize) -> Email {
        Email::builder()
            .subject("Act now")
            .body(format!("cheap pills offer number{i} click http://pills.example/buy"))
            .build()
    }

    fn hammy(i: usize) -> Email {
        Email::builder()
            .subject("Project sync")
            .body(format!("meeting agenda notes budget draft{i} review"))
            .build()
    }

    fn trained() -> SpamBayes {
        let mut f = SpamBayes::new();
        for i in 0..20 {
            f.train(&spammy(i), Label::Spam);
            f.train(&hammy(i), Label::Ham);
        }
        f
    }

    #[test]
    fn classifies_like_training_distribution() {
        let f = trained();
        assert_eq!(f.verdict(&spammy(99)), Verdict::Spam);
        assert_eq!(f.verdict(&hammy(99)), Verdict::Ham);
    }

    #[test]
    fn untrained_filter_is_unsure() {
        let f = SpamBayes::new();
        let s = f.classify(&hammy(0));
        assert_eq!(s.verdict, Verdict::Unsure);
        assert_eq!(s.score, 0.5);
    }

    #[test]
    fn train_untrain_roundtrip_restores_scores() {
        let mut f = trained();
        let email = hammy(7);
        let before = f.classify(&spammy(50)).score;
        f.train(&email, Label::Ham);
        f.untrain(&email, Label::Ham).unwrap();
        let after = f.classify(&spammy(50)).score;
        assert_eq!(before, after);
    }

    #[test]
    fn token_multiplicity_fast_path_matches_loop() {
        let set: Vec<String> = vec!["lex1".into(), "lex2".into(), "lex3".into()];
        let mut a = trained();
        let mut b = trained();
        a.train_tokens(&set, Label::Spam, 7);
        for _ in 0..7 {
            b.train_tokens(&set, Label::Spam, 1);
        }
        for t in &set {
            assert_eq!(a.token_score(t), b.token_score(t));
        }
        assert_eq!(a.training_counts(), b.training_counts());
    }

    #[test]
    fn classify_tokens_matches_classify() {
        let f = trained();
        let e = spammy(3);
        let set = f.token_set(&e);
        assert_eq!(f.classify(&e), f.classify_tokens(&set));
    }

    #[test]
    fn clues_expose_attack_evidence() {
        // Tokens present in *every* ham message are capped at PS = 0.5 by
        // per-class normalization; the attack flips *mid-frequency* tokens.
        // Build a corpus where "quarterly" appears in 5 of 20 ham messages.
        let mut f = SpamBayes::new();
        for i in 0..20 {
            f.train(&spammy(i), Label::Spam);
            let body = if i < 5 {
                format!("meeting agenda quarterly draft{i}")
            } else {
                format!("meeting agenda draft{i}")
            };
            f.train(&Email::builder().body(body).build(), Label::Ham);
        }
        let before = f.token_score("quarterly");
        assert!(before < 0.5, "ham-leaning before attack: {before}");
        // 30 attack emails containing the token, trained as spam:
        // spam ratio 30/50 = 0.6 vs ham ratio 5/20 = 0.25 → PS ≈ 0.71.
        f.train_tokens(&["quarterly".to_string()], Label::Spam, 30);
        let after = f.token_score("quarterly");
        assert!(after > 0.5, "poisoned token must lean spam: {after}");
        let (_, clues) = f.classify_with_clues(
            &Email::builder().body("quarterly numbers").build(),
        );
        assert!(clues.iter().any(|c| c.token == "quarterly" && c.score > 0.5));
    }

    #[test]
    fn set_options_invalidates_cached_scores() {
        // Score once (fills the cache), change the Eq. 2 prior strength,
        // and the new classification must match a fresh filter with the
        // same counts — not the cached old-options scores.
        let mut f = trained();
        let e = spammy(2);
        let _ = f.classify(&e); // warm the cache under default options
        let new_opts = FilterOptions {
            unknown_word_strength: 5.0,
            ..FilterOptions::default()
        };
        f.set_options(new_opts);
        let got = f.classify(&e);
        let mut fresh = trained();
        fresh.set_options(new_opts);
        assert_eq!(got, fresh.classify(&e), "stale cached f(w) served");
    }

    #[test]
    fn classify_does_not_grow_interner() {
        // Private interner: the global one is shared with concurrently
        // running tests, so its length is not stable to observe.
        let mut f = SpamBayes::with_interner(Interner::new());
        for i in 0..10 {
            f.train(&spammy(i), Label::Spam);
            f.train(&hammy(i), Label::Ham);
        }
        let before = f.interner().len();
        let probe = Email::builder()
            .body("zzz-never-seen-token-1 zzz-never-seen-token-2")
            .build();
        let _ = f.classify(&probe);
        let _ = f.classify_tokens(&f.token_set(&probe));
        assert_eq!(
            f.interner().len(),
            before,
            "classification must not intern probe-only vocabulary"
        );
    }

    #[test]
    fn set_options_changes_thresholds_not_counts() {
        let mut f = trained();
        let before_counts = f.training_counts();
        let score = f.classify(&spammy(1)).score;
        // Raise the spam cutoff to (at least) the message's own score so the
        // same score now lands in the unsure band; cutoffs stay within [0,1].
        f.set_options(FilterOptions::default().with_cutoffs(0.0, score.min(1.0)));
        assert_eq!(f.training_counts(), before_counts);
        // Same score, new verdict boundary.
        assert_eq!(f.classify(&spammy(1)).verdict, Verdict::Unsure);
    }
}
