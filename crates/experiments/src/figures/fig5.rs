//! Figure 5: the dynamic threshold defense against the dictionary attack.
//!
//! Three systems are compared under the Usenet dictionary attack at the
//! Table-1 threshold-column fractions: the undefended filter, Threshold-.05
//! and Threshold-.10. The paper's finding, which this reproduces: the
//! defense keeps ham out of the spam folder entirely (only a moderate
//! unsure rate) — but at the cost of classifying almost all *spam* as
//! unsure, which the result records too.

use crate::config::Fig5Config;
use crate::metrics::{Confusion, RateSummary};
use crate::runner::{parallel_map, TokenizedDataset};
use sb_core::{
    attack_count_for_fraction, calibrate, DictionaryAttack, DictionaryKind, ThresholdConfig,
    TrainItem,
};
use sb_corpus::{CorpusConfig, KFold, TrecCorpus};
use sb_email::Label;
use sb_filter::{FilterOptions, SpamBayes};
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The three defenses compared in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig5Defense {
    /// Static SpamBayes thresholds (θ0 = 0.15, θ1 = 0.9).
    NoDefense,
    /// Dynamic thresholds at g = 0.05.
    Threshold05,
    /// Dynamic thresholds at g = 0.10.
    Threshold10,
}

impl Fig5Defense {
    /// All variants in display order.
    pub const ALL: [Fig5Defense; 3] = [
        Fig5Defense::NoDefense,
        Fig5Defense::Threshold05,
        Fig5Defense::Threshold10,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Fig5Defense::NoDefense => "no-defense",
            Fig5Defense::Threshold05 => "threshold-.05",
            Fig5Defense::Threshold10 => "threshold-.10",
        }
    }
}

/// One (defense, fraction) cell of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Which defense.
    pub defense: Fig5Defense,
    /// Attack fraction.
    pub fraction: f64,
    /// % of test ham classified as spam (dashed lines).
    pub ham_as_spam: RateSummary,
    /// % of test ham classified as spam or unsure (solid lines).
    pub ham_misclassified: RateSummary,
    /// % of test spam classified unsure (the defense's hidden cost).
    pub spam_as_unsure: RateSummary,
    /// % of test spam still classified spam.
    pub spam_correct: RateSummary,
}

/// Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Configuration used.
    pub config: Fig5Config,
    /// All cells.
    pub points: Vec<Fig5Point>,
}

impl Fig5Result {
    /// Look up a cell.
    pub fn point(&self, defense: Fig5Defense, fraction: f64) -> Option<&Fig5Point> {
        self.points
            .iter()
            .find(|p| p.defense == defense && (p.fraction - fraction).abs() < 1e-12)
    }
}

/// Run Figure 5.
pub fn run(cfg: &Fig5Config, threads: usize) -> Fig5Result {
    let seeds = SeedTree::new(cfg.seed).child("fig5");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.train_size, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let tokenizer = Tokenizer::new();
    let tokenized = TokenizedDataset::from_dataset(corpus.dataset(), &tokenizer);
    let kfold = KFold::new(cfg.train_size, cfg.folds, &mut seeds.child("folds").rng());

    let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(cfg.usenet_k));
    let lexicon: Arc<Vec<sb_filter::TokenId>> =
        Arc::new(tokenizer.intern_ids(attack.prototype(), tokenized.interner()));

    // fold → fraction → defense → Confusion
    let per_fold: Vec<Vec<Vec<Confusion>>> = parallel_map(cfg.folds, threads, |fold| {
        let train_idx = kfold.train_indices(fold);
        let test_idx = kfold.test_indices(fold);
        let fold_seeds = seeds.child("fold").index(fold as u64);

        cfg.fractions
            .iter()
            .enumerate()
            .map(|(fi, &frac)| {
                let n_attack = attack_count_for_fraction(train_idx.len(), frac);

                // --- No defense: static thresholds on the contaminated set.
                let mut plain = SpamBayes::new();
                for (tokens, label) in tokenized.select(&train_idx) {
                    plain.train_ids(tokens, label, 1);
                }
                plain.train_ids(&lexicon, Label::Spam, n_attack);

                // --- Dynamic thresholds: the defense sees the same
                // contaminated training material as items.
                let mut items: Vec<TrainItem> = tokenized
                    .select(&train_idx)
                    .map(|(tokens, label)| TrainItem::from_ids(Arc::clone(tokens), label))
                    .collect();
                for _ in 0..n_attack {
                    items.push(TrainItem::from_ids(Arc::clone(&lexicon), Label::Spam));
                }
                let cal05 = calibrate(
                    &items,
                    ThresholdConfig::strict(),
                    FilterOptions::default(),
                    &mut fold_seeds.child("cal05").index(fi as u64).rng(),
                );
                let cal10 = calibrate(
                    &items,
                    ThresholdConfig::loose(),
                    FilterOptions::default(),
                    &mut fold_seeds.child("cal10").index(fi as u64).rng(),
                );

                Fig5Defense::ALL
                    .iter()
                    .map(|defense| {
                        let mut conf = Confusion::new();
                        for (tokens, label) in tokenized.select(test_idx) {
                            let verdict = match defense {
                                Fig5Defense::NoDefense => {
                                    plain.classify_ids(tokens).verdict
                                }
                                Fig5Defense::Threshold05 => {
                                    cal05.classify_ids(tokens).verdict
                                }
                                Fig5Defense::Threshold10 => {
                                    cal10.classify_ids(tokens).verdict
                                }
                            };
                            conf.record(label, verdict);
                        }
                        conf
                    })
                    .collect()
            })
            .collect()
    });

    let mut points = Vec::new();
    for (di, defense) in Fig5Defense::ALL.iter().enumerate() {
        for (fi, &frac) in cfg.fractions.iter().enumerate() {
            let mut ham_spam = Vec::new();
            let mut ham_mis = Vec::new();
            let mut spam_unsure = Vec::new();
            let mut spam_ok = Vec::new();
            for fold_result in &per_fold {
                let conf = &fold_result[fi][di];
                ham_spam.push(conf.ham_as_spam());
                ham_mis.push(conf.ham_misclassified());
                spam_unsure.push(conf.spam_as_unsure());
                spam_ok.push(conf.spam_correct());
            }
            points.push(Fig5Point {
                defense: *defense,
                fraction: frac,
                ham_as_spam: RateSummary::from_rates(&ham_spam),
                ham_misclassified: RateSummary::from_rates(&ham_mis),
                spam_as_unsure: RateSummary::from_rates(&spam_unsure),
                spam_correct: RateSummary::from_rates(&spam_ok),
            });
        }
    }
    Fig5Result {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_defense_protects_ham() {
        let cfg = Fig5Config::quick(33);
        let res = run(&cfg, 2);
        let last_frac = *cfg.fractions.last().unwrap();
        let plain = res.point(Fig5Defense::NoDefense, last_frac).unwrap();
        let defended = res.point(Fig5Defense::Threshold10, last_frac).unwrap();
        // The defense must strictly reduce ham loss under heavy attack.
        assert!(
            defended.ham_misclassified.mean < plain.ham_misclassified.mean,
            "defense did not help: {} vs {}",
            defended.ham_misclassified.mean,
            plain.ham_misclassified.mean
        );
        // The paper: "ham emails are never classified as spam" under the
        // defense; allow a small tolerance at quick scale.
        assert!(
            defended.ham_as_spam.mean < 0.05,
            "defended ham-as-spam {}",
            defended.ham_as_spam.mean
        );
    }

    #[test]
    fn defense_cost_is_spam_as_unsure() {
        let cfg = Fig5Config::quick(34);
        let res = run(&cfg, 2);
        let frac = *cfg.fractions.last().unwrap();
        let defended = res.point(Fig5Defense::Threshold05, frac).unwrap();
        let plain = res.point(Fig5Defense::NoDefense, frac).unwrap();
        // The paper's observed failure mode: the dynamic threshold pushes
        // spam into the unsure band.
        assert!(
            defended.spam_as_unsure.mean >= plain.spam_as_unsure.mean - 0.05,
            "expected raised spam-as-unsure: {} vs {}",
            defended.spam_as_unsure.mean,
            plain.spam_as_unsure.mean
        );
    }
}
