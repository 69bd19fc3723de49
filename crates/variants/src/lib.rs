//! # sb-variants — the other statistical filters the paper names
//!
//! The paper attacks SpamBayes but argues (§1 footnote 1, §7) that the same
//! causative availability attacks apply to every filter built on the same
//! statistical core — naming **BogoFilter** and the **Bayes component of
//! SpamAssassin** explicitly, and noting that "the primary difference between
//! the learning elements of these three filters is in their tokenization
//! methods". It also cautions that SpamAssassin "uses the learner only as
//! one component of a broader filtering strategy", which blunts the attack.
//!
//! This crate makes both claims testable by reimplementing the family:
//!
//! | Filter | Module | Learning core | Decision |
//! |---|---|---|---|
//! | Paul Graham's *A Plan for Spam* (2002) | [`graham`] | per-token naive Bayes odds, 15 strongest clues | binary at 0.9 |
//! | BogoFilter (≈0.9x defaults) | [`bogofilter`] | Robinson geometric-mean scores + Fisher chi-square | tri-state at 0.45 / 0.99 |
//! | SpamAssassin Bayes component (3.x) | [`spamassassin`] | chi-square combining, case-kept tokens | `BAYES_XX` score buckets |
//! | SpamAssassin full rule engine | [`spamassassin`] | static heuristic rules **+** the Bayes bucket | points vs `required_score = 5.0` |
//! | Multinomial naive Bayes baseline | [`nb`] | token-frequency likelihoods, Laplace smoothing | posterior thresholds |
//!
//! All of them implement [`StatFilter`], the minimal train/classify surface
//! the attack-transfer experiments need; `sb_filter::SpamBayes` implements it
//! too, so experiments can sweep the whole zoo uniformly (see
//! `sb-experiments::figures::transfer`).
//!
//! ## What transfers and what doesn't
//!
//! The dictionary attack poisons *token statistics*; every filter above
//! trusts token statistics, so every *pure* learner in the zoo is expected to
//! degrade. The full SpamAssassin engine is the designed exception: its
//! static rules are invariant to training-set contamination and the Bayes
//! bucket contributes at most 3.7 of the 5.0 points needed to mark a message
//! spam, so poisoned ham stays deliverable — reproducing the paper's caveat.
//!
//! ```
//! use sb_email::{Email, Label};
//! use sb_variants::{GrahamFilter, StatFilter};
//!
//! let mut g = GrahamFilter::new();
//! for i in 0..10 {
//!     g.train(&Email::builder().body(format!("cheap pills offer {i}")).build(), Label::Spam);
//!     g.train(&Email::builder().body(format!("meeting agenda notes {i}")).build(), Label::Ham);
//! }
//! let v = g.classify(&Email::builder().body("cheap pills now").build());
//! assert_eq!(v.verdict, sb_filter::Verdict::Spam);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bogofilter;
pub mod graham;
pub mod nb;
pub mod spamassassin;

pub use bogofilter::{BogoFilter, BogoOptions};
pub use graham::{GrahamFilter, GrahamOptions};
pub use nb::{MultinomialNb, NbOptions};
pub use spamassassin::{RuleHit, SaBayes, SaFull, SaOptions, StaticRule};

use sb_email::{Email, Label};
use sb_filter::{Scored, SpamBayes};

/// The minimal surface a statistical spam filter exposes to the
/// attack-transfer experiments: train on labelled messages, classify new
/// ones onto the common `[0, 1]` score / tri-state verdict scale.
///
/// Implementations own their tokenizer — the paper's point is precisely that
/// these filters differ in tokenization, so token sets cannot be shared
/// across filters.
pub trait StatFilter {
    /// Short identifier used in reports ("spambayes", "graham", …).
    fn name(&self) -> &'static str;

    /// Learn one labelled message.
    fn train(&mut self, email: &Email, label: Label);

    /// Learn `n` byte-identical copies of a message (the dictionary-attack
    /// fast path: tokenize once, count `n` times). Implementations override
    /// the default loop when they can do better.
    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        for _ in 0..n {
            self.train(email, label);
        }
    }

    /// Score and classify a message. `score` is on `[0, 1]` with 1 = surely
    /// spam; `verdict` applies the filter's own decision thresholds.
    fn classify(&self, email: &Email) -> Scored;

    /// Number of (spam, ham) training messages seen.
    fn training_counts(&self) -> (u32, u32);
}

impl StatFilter for SpamBayes {
    fn name(&self) -> &'static str {
        "spambayes"
    }

    fn train(&mut self, email: &Email, label: Label) {
        SpamBayes::train(self, email, label);
    }

    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        let ids = self.token_ids(email);
        self.train_ids(&ids, label, n);
    }

    fn classify(&self, email: &Email) -> Scored {
        SpamBayes::classify(self, email)
    }

    fn training_counts(&self) -> (u32, u32) {
        SpamBayes::training_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_filter::Verdict;

    fn spam(i: usize) -> Email {
        Email::builder()
            .subject("Act now")
            .body(format!("cheap pills offer winner{i} click here"))
            .build()
    }

    fn ham(i: usize) -> Email {
        Email::builder()
            .subject("Project sync")
            .body(format!("meeting agenda notes budget item{i}"))
            .build()
    }

    /// Every filter in the zoo learns the same toy distribution.
    fn zoo() -> Vec<Box<dyn StatFilter>> {
        vec![
            Box::new(SpamBayes::new()),
            Box::new(GrahamFilter::new()),
            Box::new(BogoFilter::new()),
            Box::new(SaBayes::new()),
            Box::new(SaFull::new()),
            Box::new(MultinomialNb::new()),
        ]
    }

    #[test]
    fn all_filters_learn_the_toy_distribution() {
        for mut f in zoo() {
            for i in 0..25 {
                f.train(&spam(i), Label::Spam);
                f.train(&ham(i), Label::Ham);
            }
            let s = f.classify(&spam(99));
            let h = f.classify(&ham(99));
            assert!(
                s.score > h.score,
                "{}: spam score {} not above ham score {}",
                f.name(),
                s.score,
                h.score
            );
            assert_ne!(
                h.verdict,
                Verdict::Spam,
                "{}: clean ham classified spam",
                f.name()
            );
        }
    }

    #[test]
    fn train_many_matches_training_loop() {
        for (mut a, mut b) in zoo().into_iter().zip(zoo()) {
            for i in 0..5 {
                a.train(&ham(i), Label::Ham);
                b.train(&ham(i), Label::Ham);
            }
            a.train_many(&spam(0), Label::Spam, 9);
            for _ in 0..9 {
                b.train(&spam(0), Label::Spam);
            }
            let e = spam(1);
            let (sa, sb) = (a.classify(&e), b.classify(&e));
            assert!(
                (sa.score - sb.score).abs() < 1e-12,
                "{}: fast path diverges: {} vs {}",
                a.name(),
                sa.score,
                sb.score
            );
            assert_eq!(a.training_counts(), b.training_counts(), "{}", a.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = zoo().iter().map(|f| f.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate filter names: {names:?}");
    }

    #[test]
    fn untrained_filters_do_not_call_spam() {
        for f in zoo() {
            let v = f.classify(&ham(0));
            assert_ne!(v.verdict, Verdict::Spam, "{} spams blind", f.name());
            assert_eq!(f.training_counts(), (0, 0));
        }
    }
}
