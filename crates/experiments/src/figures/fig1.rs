//! Figure 1: three dictionary attacks vs. percent control of the training
//! set, 10-fold cross-validated.
//!
//! For each fold: train a clean filter on the other folds, then sweep the
//! attack fraction *incrementally* — attack emails are identical, so moving
//! from fraction `f_i` to `f_{i+1}` just trains the shared lexicon token set
//! with the delta multiplicity. Test-fold ham is classified at every step.

use crate::config::Fig1Config;
use crate::metrics::{Confusion, RateSummary};
use crate::runner::TokenizedDataset;
use sb_core::{attack_count_for_fraction, DictionaryAttack, DictionaryKind};
use sb_corpus::{CorpusConfig, KFold, TrecCorpus};
use sb_email::Label;
use sb_filter::SpamBayes;
use sb_intern::par::parallel_map;
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One (attack, fraction) point of Figure 1, averaged over folds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Point {
    /// Attack name ("optimal", "usenet-90k", "aspell").
    pub attack: String,
    /// Attack fraction of the training set (0 = clean baseline).
    pub fraction: f64,
    /// Attack emails added at this fraction.
    pub n_attack: u32,
    /// % of test ham classified as spam (dashed lines).
    pub ham_as_spam: RateSummary,
    /// % of test ham classified as spam or unsure (solid lines).
    pub ham_misclassified: RateSummary,
    /// % of test spam still classified as spam (context metric).
    pub spam_correct: RateSummary,
}

/// The full figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Result {
    /// Configuration used.
    pub config: Fig1Config,
    /// All points, grouped by attack then fraction ascending.
    pub points: Vec<Fig1Point>,
}

impl Fig1Result {
    /// Look up a point.
    pub fn point(&self, attack: &str, fraction: f64) -> Option<&Fig1Point> {
        self.points
            .iter()
            .find(|p| p.attack == attack && (p.fraction - fraction).abs() < 1e-12)
    }
}

/// Per-fold raw rates for one (attack, fraction) cell.
#[derive(Debug, Clone, Default)]
struct CellRates {
    ham_as_spam: Vec<f64>,
    ham_misclassified: Vec<f64>,
    spam_correct: Vec<f64>,
}

/// Run Figure 1.
pub fn run(cfg: &Fig1Config, threads: usize) -> Fig1Result {
    let seeds = SeedTree::new(cfg.seed).child("fig1");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.train_size, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let tokenizer = Tokenizer::new();
    let tokenized = TokenizedDataset::from_dataset(corpus.dataset(), &tokenizer);
    let kfold = KFold::new(
        cfg.train_size,
        cfg.folds,
        &mut seeds.child("folds").rng(),
    );

    // Attack lexicons tokenized + interned once, shared across folds.
    let variants: Vec<(DictionaryKind, Arc<Vec<sb_filter::TokenId>>)> = cfg
        .variants()
        .into_iter()
        .map(|kind| {
            let attack = DictionaryAttack::new(kind);
            (
                kind,
                Arc::new(tokenizer.intern_ids(attack.prototype(), tokenized.interner())),
            )
        })
        .collect();

    // Fractions with a leading 0 for the clean baseline.
    let mut fractions = vec![0.0];
    fractions.extend(cfg.fractions.iter().copied());

    // fold → variant → fraction → Confusion
    let per_fold: Vec<Vec<Vec<Confusion>>> = parallel_map(cfg.folds, threads, |fold| {
        let train_idx = kfold.train_indices(fold);
        let test_idx = kfold.test_indices(fold);
        let mut base = SpamBayes::new();
        for (tokens, label) in tokenized.select(&train_idx) {
            base.train_ids(tokens, label, 1);
        }
        let train_len = train_idx.len();
        variants
            .iter()
            .map(|(_, lexicon)| {
                let mut filter = base.clone();
                let mut trained: u32 = 0;
                fractions
                    .iter()
                    .map(|&frac| {
                        let want = attack_count_for_fraction(train_len, frac);
                        if want > trained {
                            filter.train_ids(lexicon, Label::Spam, want - trained);
                            trained = want;
                        }
                        let mut conf = Confusion::new();
                        for (tokens, label) in tokenized.select(test_idx) {
                            conf.record(label, filter.classify_ids(tokens).verdict);
                        }
                        conf
                    })
                    .collect()
            })
            .collect()
    });

    // Aggregate folds.
    let mut points = Vec::new();
    for (vi, (kind, _)) in variants.iter().enumerate() {
        for (fi, &frac) in fractions.iter().enumerate() {
            let mut rates = CellRates::default();
            for fold_result in &per_fold {
                let conf = &fold_result[vi][fi];
                rates.ham_as_spam.push(conf.ham_as_spam());
                rates.ham_misclassified.push(conf.ham_misclassified());
                rates.spam_correct.push(conf.spam_correct());
            }
            points.push(Fig1Point {
                attack: kind.name(),
                fraction: frac,
                n_attack: attack_count_for_fraction(
                    cfg.train_size - cfg.train_size / cfg.folds,
                    frac,
                ),
                ham_as_spam: RateSummary::from_rates(&rates.ham_as_spam),
                ham_misclassified: RateSummary::from_rates(&rates.ham_misclassified),
                spam_correct: RateSummary::from_rates(&rates.spam_correct),
            });
        }
    }
    Fig1Result {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig1_reproduces_paper_shape() {
        let cfg = Fig1Config::quick(42);
        let res = run(&cfg, 2);
        // Baseline: clean filter keeps ham misclassification low.
        let base = res.point("optimal", 0.0).unwrap();
        assert!(
            base.ham_misclassified.mean < 0.15,
            "clean baseline ham misclassification {}",
            base.ham_misclassified.mean
        );
        // At 10% control every attack must devastate ham delivery.
        for attack in ["optimal", "usenet-90k", "aspell"] {
            let p = res.point(attack, 0.10).unwrap();
            assert!(
                p.ham_misclassified.mean > 0.5,
                "{attack}@10%: {}",
                p.ham_misclassified.mean
            );
        }
        // Ordering at 1%: optimal ≥ usenet ≥ aspell (the paper's Figure 1).
        let opt = res.point("optimal", 0.01).unwrap().ham_misclassified.mean;
        let use_ = res.point("usenet-90k", 0.01).unwrap().ham_misclassified.mean;
        let asp = res.point("aspell", 0.01).unwrap().ham_misclassified.mean;
        assert!(opt >= use_ - 0.05, "optimal {opt} vs usenet {use_}");
        assert!(use_ >= asp - 0.05, "usenet {use_} vs aspell {asp}");
        // Monotone in attack fraction.
        for attack in ["optimal", "usenet-90k", "aspell"] {
            let mut prev = -1.0;
            for p in res.points.iter().filter(|p| p.attack == attack) {
                assert!(
                    p.ham_misclassified.mean >= prev - 0.05,
                    "{attack} not monotone at {}",
                    p.fraction
                );
                prev = p.ham_misclassified.mean;
            }
        }
    }
}
