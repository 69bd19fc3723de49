//! Defense stacking: RONI admission control (§5.1) followed by dynamic
//! threshold calibration (§5.2).
//!
//! The two defenses fail in complementary ways — RONI catches messages with
//! *large individual* training impact (dictionary attack emails) but not
//! attacks whose damage only shows on future mail (focused), while the
//! dynamic threshold repairs *rank-preserving* score shifts but pays with
//! spam-as-unsure inflation. Stacking them is the natural "future work"
//! configuration: screen first so calibration sees a cleaner pool, then
//! calibrate so residual shift is absorbed. The `defense_matrix`
//! experiment quantifies where the stack beats each component.

use crate::roni::{RoniConfig, RoniDefense};
use crate::threshold::{calibrate, ThresholdConfig, TrainItem};
use sb_email::{Dataset, Label, LabeledEmail};
use sb_filter::{FilterOptions, SpamBayes};
use sb_intern::TokenId;
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the stacked defense.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CombinedConfig {
    /// RONI admission-control parameters.
    pub roni: RoniConfig,
    /// Threshold-calibration parameters.
    pub threshold: ThresholdConfig,
}

impl Default for CombinedConfig {
    fn default() -> Self {
        Self {
            roni: RoniConfig::default(),
            threshold: ThresholdConfig::loose(),
        }
    }
}

/// What the stacked defense produced.
pub struct CombinedOutcome {
    /// Indices (into the candidate slice) admitted to training.
    pub admitted: Vec<usize>,
    /// Indices rejected by the RONI screen.
    pub rejected: Vec<usize>,
    /// The calibrated filter trained on trusted + admitted messages.
    pub filter: SpamBayes,
}

impl CombinedOutcome {
    /// Fraction of candidates rejected.
    pub fn rejection_rate(&self) -> f64 {
        let total = self.admitted.len() + self.rejected.len();
        if total == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / total as f64
        }
    }
}

/// Run the stacked defense: RONI-screen `candidates` against the `trusted`
/// pool, then train and threshold-calibrate on trusted + admitted.
///
/// `trusted` is the §5.1 "initial pool of emails given to SpamBayes for
/// training" — it must be large enough for the RONI trials
/// (`roni.train_size + roni.val_size`) and is assumed clean.
pub fn defend(
    trusted: &Dataset,
    candidates: &[LabeledEmail],
    cfg: &CombinedConfig,
    opts: FilterOptions,
    rng: &mut Xoshiro256pp,
) -> CombinedOutcome {
    let tokenizer = Tokenizer::new();
    let interner = sb_intern::Interner::global();
    let intern = |m: &LabeledEmail| Arc::new(tokenizer.intern_ids(&m.email, &interner));

    // Phase 1: RONI admission control. Trusted mail and candidates are
    // tokenized and interned once; the candidates are screened in one
    // parallel sweep, and both id sets are reused for calibration below.
    let trusted_ids: Vec<(Arc<Vec<TokenId>>, Label)> = trusted
        .emails()
        .iter()
        .map(|m| (intern(m), m.label))
        .collect();
    let roni = RoniDefense::from_ids(cfg.roni, &trusted_ids, opts, rng);
    let candidate_ids: Vec<Arc<Vec<TokenId>>> = candidates.iter().map(intern).collect();
    let (admitted, rejected) = roni.screen_ids(&candidate_ids);

    // Phase 2: calibrate on trusted + admitted.
    let mut items: Vec<TrainItem> = trusted_ids
        .into_iter()
        .map(|(ids, label)| TrainItem::from_ids(ids, label))
        .collect();
    for &i in &admitted {
        items.push(TrainItem::from_ids(
            Arc::clone(&candidate_ids[i]),
            candidates[i].label,
        ));
    }
    let filter = calibrate(&items, cfg.threshold, opts, rng);

    CombinedOutcome {
        admitted,
        rejected,
        filter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackGenerator;
    use crate::dictionary::{DictionaryAttack, DictionaryKind};
    use sb_corpus::{CorpusConfig, TrecCorpus};
    use sb_email::Label;
    use sb_filter::Verdict;

    fn trusted_pool(seed: u64, n: usize) -> TrecCorpus {
        TrecCorpus::generate(&CorpusConfig::with_size(n, 0.5), seed)
    }

    #[test]
    fn clean_candidates_are_admitted() {
        let corpus = trusted_pool(1, 200);
        let trusted = corpus.dataset();
        // Fresh clean candidates from the same distribution.
        let candidates: Vec<LabeledEmail> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    LabeledEmail::ham(corpus.fresh_ham(i))
                } else {
                    LabeledEmail::spam(corpus.fresh_spam(i))
                }
            })
            .collect();
        let mut rng = Xoshiro256pp::new(7);
        let out = defend(
            trusted,
            &candidates,
            &CombinedConfig::default(),
            FilterOptions::default(),
            &mut rng,
        );
        assert!(
            out.rejection_rate() <= 0.2,
            "clean mail should pass the screen: {:?} rejected",
            out.rejected
        );
        // The calibrated filter still works.
        let v = out.filter.classify(&corpus.fresh_ham(99));
        assert_ne!(v.verdict, Verdict::Spam);
    }

    #[test]
    fn dictionary_attack_is_rejected_and_filter_survives() {
        let corpus = trusted_pool(2, 200);
        let trusted = corpus.dataset();
        let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(5_000));
        let mut rng = Xoshiro256pp::new(11);
        let batch = attack.generate(10, &mut rng);

        let mut candidates: Vec<LabeledEmail> = batch
            .materialize()
            .into_iter()
            .map(|e| LabeledEmail::new(e, Label::Spam))
            .collect();
        // Mix in clean candidates.
        for i in 0..10 {
            candidates.push(LabeledEmail::ham(corpus.fresh_ham(i)));
        }

        let out = defend(
            trusted,
            &candidates,
            &CombinedConfig::default(),
            FilterOptions::default(),
            &mut rng,
        );
        // Every attack email (indices 0..10) must be rejected.
        for i in 0..10 {
            assert!(
                out.rejected.contains(&i),
                "attack email {i} slipped past RONI"
            );
        }
        // Ham still reaches the inbox under the calibrated filter.
        let mut ham_ok = 0;
        for k in 100..150 {
            if out.filter.classify(&corpus.fresh_ham(k)).verdict == Verdict::Ham {
                ham_ok += 1;
            }
        }
        assert!(ham_ok >= 35, "calibrated filter lost ham: {ham_ok}/50");
    }

    #[test]
    fn outcome_accounting_is_total() {
        let corpus = trusted_pool(3, 150);
        let candidates: Vec<LabeledEmail> = (0..7)
            .map(|i| LabeledEmail::ham(corpus.fresh_ham(i)))
            .collect();
        let mut rng = Xoshiro256pp::new(5);
        let out = defend(
            corpus.dataset(),
            &candidates,
            &CombinedConfig::default(),
            FilterOptions::default(),
            &mut rng,
        );
        let mut all: Vec<usize> = out.admitted.iter().chain(&out.rejected).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn empty_candidates_is_fine() {
        let corpus = trusted_pool(4, 150);
        let mut rng = Xoshiro256pp::new(5);
        let out = defend(
            corpus.dataset(),
            &[],
            &CombinedConfig::default(),
            FilterOptions::default(),
            &mut rng,
        );
        assert!(out.admitted.is_empty() && out.rejected.is_empty());
        assert_eq!(out.rejection_rate(), 0.0);
    }
}
