//! A BogoFilter-flavoured learner: same Robinson × Fisher statistical core
//! as SpamBayes (the paper's footnote 1 — "the primary difference … is in
//! their tokenization methods"), with BogoFilter's default constants and its
//! token rules.
//!
//! Differences from the SpamBayes configuration, per the bogofilter 0.9x
//! defaults this emulates:
//!
//! * prior `x` = `robx` = **0.52** (vs 0.5) and prior strength `s` = `robs`
//!   = **0.0178** (vs 0.45) — a far weaker prior, so single sightings move
//!   scores hard;
//! * **no clue cap**: every token outside the `min_dev` band participates
//!   (SpamBayes stops at 150);
//! * decision cutoffs `ham_cutoff` = **0.45**, `spam_cutoff` = **0.99**;
//! * tokenization keeps case and emits no `skip:` placeholders
//!   ([`TokenizerOptions::bogofilter_flavor`]).
//!
//! Omitted BogoFilter features, documented for honesty: the ESF
//! (effective-size-factor) correction, token degeneration, and multi-corpus
//! wordlists. None of them changes which *side* a poisoned token lands on,
//! which is what the transfer experiment measures.
//!
//! The attack-relevant consequence of the weak prior: a dictionary token
//! trained once as spam jumps from 0.52 to ≈0.99 immediately (SpamBayes
//! needs the sighting to fight `s` = 0.45), so BogoFilter degrades *at
//! least* as fast as SpamBayes under the §3.2 attacks.

use crate::StatFilter;
use sb_email::{Email, Label};
use sb_filter::classify::{email_ids, score_token_ids};
use sb_filter::{FilterOptions, Scored, TokenDb, TokenId};
use sb_tokenizer::{Tokenizer, TokenizerOptions};
use serde::{Deserialize, Serialize};

/// BogoFilter's learner constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BogoOptions {
    /// `robx`: the score of a never-seen token (default 0.52).
    pub robx: f64,
    /// `robs`: prior strength (default 0.0178).
    pub robs: f64,
    /// `min_dev`: tokens with `|f(w) − 0.5|` below this are ignored
    /// (default 0.1).
    pub min_dev: f64,
    /// Scores at or below this are ham (default 0.45).
    pub ham_cutoff: f64,
    /// Scores above this are spam (default 0.99).
    pub spam_cutoff: f64,
}

impl Default for BogoOptions {
    fn default() -> Self {
        Self {
            robx: 0.52,
            robs: 0.0178,
            min_dev: 0.1,
            ham_cutoff: 0.45,
            spam_cutoff: 0.99,
        }
    }
}

impl BogoOptions {
    /// Translate to the shared Robinson/Fisher engine's options. The engine
    /// and formulas are identical (Eqs. 1–4 of the paper); only constants
    /// and the missing clue cap differ.
    pub fn to_filter_options(self) -> FilterOptions {
        FilterOptions {
            unknown_word_strength: self.robs,
            unknown_word_prob: self.robx,
            minimum_prob_strength: self.min_dev,
            max_discriminators: usize::MAX,
            ham_cutoff: self.ham_cutoff,
            spam_cutoff: self.spam_cutoff,
        }
    }
}

/// The BogoFilter-flavoured filter.
#[derive(Debug, Clone)]
pub struct BogoFilter {
    db: TokenDb,
    opts: BogoOptions,
    filter_opts: FilterOptions,
    tokenizer: Tokenizer,
}

impl Default for BogoFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl BogoFilter {
    /// A fresh filter with bogofilter defaults.
    pub fn new() -> Self {
        Self::with_options(BogoOptions::default())
    }

    /// A filter with explicit constants.
    pub fn with_options(opts: BogoOptions) -> Self {
        let filter_opts = opts.to_filter_options();
        filter_opts
            .validate()
            .expect("BogoOptions must translate to valid engine options");
        Self {
            db: TokenDb::new(),
            opts,
            filter_opts,
            tokenizer: Tokenizer::with_options(TokenizerOptions::bogofilter_flavor()),
        }
    }

    /// The constants in use.
    pub fn options(&self) -> &BogoOptions {
        &self.opts
    }

    /// The smoothed score f(w) of one token under bogofilter constants.
    pub fn token_score(&self, token: &str) -> f64 {
        sb_filter::score::token_score(&self.db, token, &self.filter_opts)
    }

    fn token_ids(&self, email: &Email) -> Vec<TokenId> {
        self.tokenizer.intern_ids(email, self.db.interner())
    }
}

impl StatFilter for BogoFilter {
    fn name(&self) -> &'static str {
        "bogofilter"
    }

    fn train(&mut self, email: &Email, label: Label) {
        let ids = self.token_ids(email);
        self.db.train_ids(&ids, label);
    }

    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        let ids = self.token_ids(email);
        self.db.train_ids_many(&ids, label, n);
    }

    fn classify(&self, email: &Email) -> Scored {
        let ids = email_ids(
            &self.tokenizer,
            email,
            self.db.interner(),
            &self.filter_opts,
        );
        score_token_ids(&ids, &self.db, &self.filter_opts)
    }

    fn training_counts(&self) -> (u32, u32) {
        (self.db.n_spam(), self.db.n_ham())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_filter::Verdict;

    fn body(b: &str) -> Email {
        Email::builder().body(b).build()
    }

    fn trained() -> BogoFilter {
        let mut f = BogoFilter::new();
        for i in 0..20 {
            f.train(&body(&format!("Cheap Pills Offer blast{i}")), Label::Spam);
            f.train(&body(&format!("Meeting Agenda Notes item{i}")), Label::Ham);
        }
        f
    }

    #[test]
    fn defaults_are_bogofilter_constants() {
        let o = BogoOptions::default();
        assert_eq!(o.robx, 0.52);
        assert_eq!(o.robs, 0.0178);
        assert_eq!(o.min_dev, 0.1);
        assert_eq!(o.ham_cutoff, 0.45);
        assert_eq!(o.spam_cutoff, 0.99);
        assert_eq!(o.to_filter_options().max_discriminators, usize::MAX);
    }

    #[test]
    fn unknown_token_scores_robx() {
        let f = trained();
        assert!((f.token_score("NeverSeen") - 0.52).abs() < 1e-12);
    }

    #[test]
    fn case_is_preserved() {
        let f = trained();
        // Trained as "Pills" (case kept); the lowercase variant is unknown.
        assert!(f.token_score("Pills") > 0.9);
        assert!((f.token_score("pills") - 0.52).abs() < 1e-12);
    }

    #[test]
    fn weak_prior_moves_fast() {
        let mut f = BogoFilter::new();
        // Token stays within the 12-char limit (longer words are dropped
        // under the bogofilter profile, which emits no skip tokens).
        f.train(&body("Sighting filler words"), Label::Spam);
        f.train(&body("Calm other words"), Label::Ham);
        // One spam sighting with s = 0.0178: f(w) ≈ (0.0178·0.52 + 1·1.0) /
        // (0.0178 + 1) ≈ 0.9916. SpamBayes' s = 0.45 would give ≈ 0.845.
        let fw = f.token_score("Sighting");
        assert!(fw > 0.98, "weak prior must move hard: {fw}");
    }

    #[test]
    fn overlong_words_are_dropped_not_skipped() {
        let mut f = BogoFilter::new();
        f.train(&body("Supercalifragilistic filler"), Label::Spam);
        f.train(&body("Calm words"), Label::Ham);
        // 20 chars > 12: dropped entirely; stays at the robx prior.
        assert!((f.token_score("Supercalifragilistic") - 0.52).abs() < 1e-12);
    }

    #[test]
    fn classifies_spam_and_ham() {
        let f = trained();
        let s = f.classify(&body("Cheap Pills Offer"));
        assert_eq!(s.verdict, Verdict::Spam, "score {}", s.score);
        let h = f.classify(&body("Meeting Agenda Notes"));
        assert_eq!(h.verdict, Verdict::Ham, "score {}", h.score);
    }

    #[test]
    fn tri_state_band_is_between_045_and_099() {
        let f = trained();
        // A balanced message (one spammy + one hammy token) sits in the band.
        let m = f.classify(&body("Pills Agenda"));
        assert_eq!(m.verdict, Verdict::Unsure, "score {}", m.score);
    }

    #[test]
    fn no_clue_cap() {
        let mut f = BogoFilter::new();
        let many: String = (0..400).map(|i| format!("tok{i} ")).collect();
        f.train(&body(&many), Label::Spam);
        f.train(&body("ham words here"), Label::Ham);
        let s = f.classify(&body(&many));
        // All 400 tokens participate (SpamBayes would cap at 150).
        assert!(s.n_clues > 150, "clue cap leaked in: {}", s.n_clues);
    }

    #[test]
    fn dictionary_poisoning_flips_ham() {
        let mut f = trained();
        let attack = body("Meeting Agenda Notes Budget Review");
        f.train_many(&attack, Label::Spam, 40);
        let h = f.classify(&body("Meeting Agenda Notes"));
        assert_ne!(
            h.verdict,
            Verdict::Ham,
            "poisoned ham must stop being deliverable: score {}",
            h.score
        );
    }
}
