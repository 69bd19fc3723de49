//! A multinomial naive Bayes baseline — the textbook learner the
//! Robinson/Fisher family is usually compared against, and the model the
//! related work (Newsome et al.'s correlated outlier attack, §6) reasons
//! about. Included so the transfer experiments can show the attacks are a
//! property of *statistical token learners*, not of SpamBayes specifics.
//!
//! Model: class priors from message counts; per-class token likelihoods
//! from **occurrence counts** with Laplace smoothing over the joint
//! vocabulary; log-space posterior
//!
//! ```text
//! ln P(spam | E) ∝ ln P(spam) + Σ_w n_w(E) · ln P(w | spam)
//! ```
//!
//! The reported score is the normalized posterior `P(spam | E)`, which —
//! unlike Fisher's method — saturates to 0/1 on almost every message of
//! realistic length. The verdict thresholds are therefore meaningful only
//! as "which side of ~certainty"; we use the SpamBayes defaults for
//! uniformity across the zoo.
//!
//! ## An accidental finding: dictionary floods self-dilute against NB
//!
//! The transfer experiment shows multinomial NB does **not** lose ham to
//! the paper's dictionary attack — and the reason is structural. Each
//! attack email adds its full lexicon (tens of thousands of occurrences)
//! to the spam class's token total, so `P(w | spam)` for any *individual*
//! attacked word stays tiny: the flood inflates its own denominator. What
//! the attack does instead is depress `P(w | spam)` for *ordinary* spam
//! vocabulary, so the damage shows up as false *negatives* — an
//! availability attack against the Robinson family degenerates into a mild
//! integrity attack against multinomial NB. Presence-based counting
//! (Eq. 1's per-message sets) is exactly what makes SpamBayes-style
//! learners attackable with word floods. Small, concentrated attacks
//! (focused-style) still transfer to NB — see the module tests.

use crate::StatFilter;
use sb_email::{Email, Label};
use sb_filter::{Scored, Verdict};
use sb_intern::{FxHashMap, Interner, TokenId};
use sb_tokenizer::{Tokenizer, TokenizerOptions};
use serde::{Deserialize, Serialize};

/// Tunables of the naive Bayes baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NbOptions {
    /// Laplace smoothing pseudo-count α.
    pub alpha: f64,
    /// Posterior at or below this is ham.
    pub ham_cutoff: f64,
    /// Posterior above this is spam.
    pub spam_cutoff: f64,
}

impl Default for NbOptions {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            ham_cutoff: 0.15,
            spam_cutoff: 0.9,
        }
    }
}

/// Per-class occurrence totals for one token.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Occ {
    spam: u64,
    ham: u64,
}

/// The multinomial naive Bayes filter.
///
/// Token occurrences are interned (process-global table) and counted in an
/// id-keyed FxHash map — the same substrate the SpamBayes learner uses, so
/// transfer experiments share one string table across the whole zoo.
#[derive(Debug, Clone)]
pub struct MultinomialNb {
    opts: NbOptions,
    tokenizer: Tokenizer,
    interner: Interner,
    counts: FxHashMap<TokenId, Occ>,
    /// Total token occurrences per class.
    total_spam_tokens: u64,
    total_ham_tokens: u64,
    n_spam: u32,
    n_ham: u32,
}

impl Default for MultinomialNb {
    fn default() -> Self {
        Self::new()
    }
}

impl MultinomialNb {
    /// A fresh filter with α = 1 smoothing.
    pub fn new() -> Self {
        Self::with_options(NbOptions::default())
    }

    /// Explicit options.
    pub fn with_options(opts: NbOptions) -> Self {
        assert!(opts.alpha > 0.0, "alpha must be positive");
        Self {
            opts,
            tokenizer: Tokenizer::with_options(TokenizerOptions::default()),
            interner: Interner::global(),
            counts: FxHashMap::default(),
            total_spam_tokens: 0,
            total_ham_tokens: 0,
            n_spam: 0,
            n_ham: 0,
        }
    }

    /// The options in use.
    pub fn options(&self) -> &NbOptions {
        &self.opts
    }

    /// Vocabulary size (distinct tokens seen in training).
    pub fn vocab_size(&self) -> usize {
        self.counts.len()
    }

    /// `ln P(w | class)` with Laplace smoothing, from occurrence counts.
    fn ln_likelihood_occ(&self, occ: Occ, label: Label) -> f64 {
        let v = self.counts.len() as f64;
        let (num, den) = match label {
            Label::Spam => (occ.spam as f64, self.total_spam_tokens as f64),
            Label::Ham => (occ.ham as f64, self.total_ham_tokens as f64),
        };
        ((num + self.opts.alpha) / (den + self.opts.alpha * v.max(1.0))).ln()
    }

    /// The spam posterior `P(spam | E)` of a message. Read-only against
    /// the interner: never-trained probe tokens fall back to the
    /// zero-occurrence Laplace term without being interned (classifying
    /// attacker-chosen vocabulary must not grow the shared table).
    pub fn posterior(&self, email: &Email) -> f64 {
        let tokens = self.tokenizer.tokenize(email);
        self.posterior_lookup(&tokens)
    }

    fn posterior_lookup(&self, tokens: &[String]) -> f64 {
        if self.n_spam == 0 || self.n_ham == 0 {
            return 0.5;
        }
        if tokens.is_empty() {
            return 0.5;
        }
        let n = f64::from(self.n_spam) + f64::from(self.n_ham);
        let mut ln_spam = (f64::from(self.n_spam) / n).ln();
        let mut ln_ham = (f64::from(self.n_ham) / n).ln();
        for t in tokens {
            let occ = self
                .interner
                .get(t)
                .and_then(|id| self.counts.get(&id).copied())
                .unwrap_or_default();
            ln_spam += self.ln_likelihood_occ(occ, Label::Spam);
            ln_ham += self.ln_likelihood_occ(occ, Label::Ham);
        }
        1.0 / (1.0 + (ln_ham - ln_spam).exp())
    }

    /// Tokenize an email into interned occurrence ids (duplicates kept —
    /// the multinomial model counts every occurrence). Interns: use for
    /// training and pre-interned pipelines, not per-probe classification.
    pub fn occurrence_ids(&self, email: &Email) -> Vec<TokenId> {
        self.tokenizer
            .tokenize(email)
            .iter()
            .map(|t| self.interner.intern(t))
            .collect()
    }
}

impl StatFilter for MultinomialNb {
    fn name(&self) -> &'static str {
        "naive-bayes"
    }

    fn train(&mut self, email: &Email, label: Label) {
        self.train_many(email, label, 1);
    }

    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        if n == 0 {
            return;
        }
        let ids = self.occurrence_ids(email);
        let added = (ids.len() as u64) * u64::from(n);
        for t in ids {
            let occ = self.counts.entry(t).or_default();
            match label {
                Label::Spam => occ.spam += u64::from(n),
                Label::Ham => occ.ham += u64::from(n),
            }
        }
        match label {
            Label::Spam => {
                self.total_spam_tokens += added;
                self.n_spam += n;
            }
            Label::Ham => {
                self.total_ham_tokens += added;
                self.n_ham += n;
            }
        }
    }

    fn classify(&self, email: &Email) -> Scored {
        // Tokenize once: the tokens drive both the posterior and the clue
        // count (every token occurrence contributes in NB); lookup-only
        // against the interner.
        let ids = self.tokenizer.tokenize(email);
        let score = self.posterior_lookup(&ids);
        let verdict = if score <= self.opts.ham_cutoff {
            Verdict::Ham
        } else if score > self.opts.spam_cutoff {
            Verdict::Spam
        } else {
            Verdict::Unsure
        };
        Scored {
            score,
            verdict,
            n_clues: ids.len(),
        }
    }

    fn training_counts(&self) -> (u32, u32) {
        (self.n_spam, self.n_ham)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(b: &str) -> Email {
        Email::builder().body(b).build()
    }

    fn trained() -> MultinomialNb {
        let mut f = MultinomialNb::new();
        for i in 0..20 {
            f.train(&body(&format!("cheap pills offer blast{i}")), Label::Spam);
            f.train(&body(&format!("meeting agenda notes item{i}")), Label::Ham);
        }
        f
    }

    #[test]
    fn untrained_posterior_is_half() {
        let f = MultinomialNb::new();
        assert_eq!(f.posterior(&body("anything")), 0.5);
    }

    #[test]
    fn empty_message_posterior_is_half() {
        let f = trained();
        assert_eq!(f.posterior(&Email::new()), 0.5);
    }

    #[test]
    fn classifies_spam_and_ham() {
        let f = trained();
        let s = f.classify(&body("cheap pills offer"));
        assert_eq!(s.verdict, Verdict::Spam);
        let h = f.classify(&body("meeting agenda notes"));
        assert_eq!(h.verdict, Verdict::Ham);
    }

    #[test]
    fn posterior_saturates_on_long_messages() {
        let f = trained();
        let long: String = (0..30).map(|_| "pills cheap ").collect();
        let p = f.posterior(&body(&long));
        assert!(p > 0.999, "expected saturation: {p}");
    }

    #[test]
    fn priors_shift_the_posterior() {
        let mut f = MultinomialNb::new();
        // 3:1 spam prior with identical token evidence.
        for _ in 0..30 {
            f.train(&body("shared words"), Label::Spam);
        }
        for _ in 0..10 {
            f.train(&body("shared words"), Label::Ham);
        }
        let p = f.posterior(&body("shared words"));
        assert!(p > 0.5, "prior must tip the balance: {p}");
    }

    #[test]
    fn alpha_zero_rejected() {
        let result = std::panic::catch_unwind(|| {
            MultinomialNb::with_options(NbOptions {
                alpha: 0.0,
                ..NbOptions::default()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn vocab_grows_with_training() {
        let mut f = MultinomialNb::new();
        assert_eq!(f.vocab_size(), 0);
        f.train(&body("alpha beta gamma"), Label::Spam);
        assert_eq!(f.vocab_size(), 3);
        f.train(&body("alpha delta"), Label::Ham);
        assert_eq!(f.vocab_size(), 4);
    }

    #[test]
    fn dictionary_poisoning_flips_ham() {
        // Mid-frequency ham vocabulary (each word in 5 of 20 ham messages):
        // the realistic shape the dictionary attack exploits.
        let vocab = ["quarterly", "budget", "forecast", "ledger"];
        let mut f = MultinomialNb::new();
        for i in 0..20 {
            let w = vocab[i % 4];
            f.train(&body(&format!("{w} common filler{i}")), Label::Ham);
            f.train(&body(&format!("cheap pills offer blast{i}")), Label::Spam);
        }
        let target = body("quarterly budget forecast ledger");
        assert_eq!(f.classify(&target).verdict, Verdict::Ham);
        f.train_many(&target, Label::Spam, 200);
        let h = f.classify(&target);
        assert_eq!(h.verdict, Verdict::Spam, "score {}", h.score);
    }
}
