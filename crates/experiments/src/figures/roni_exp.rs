//! The §5.1 RONI experiment: measure the incremental impact of the seven
//! dictionary-attack variants vs. ordinary non-attack spam, and verify the
//! separability the paper reports (attack ≥ 6.8 ham-as-ham lost vs
//! non-attack ≤ 4.4, → 100% detection with zero false positives).

use crate::config::RoniExperimentConfig;
use crate::runner::parallel_map;
use sb_core::{DictionaryAttack, DictionaryKind, RoniConfig, RoniDefense};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_filter::FilterOptions;
use sb_stats::rng::SeedTree;
use sb_stats::Summary;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregated impact of one attack variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoniVariantRow {
    /// Variant name ("optimal", "usenet-50k", …).
    pub variant: String,
    /// Lexicon size.
    pub lexicon_len: usize,
    /// Mean ham-as-ham decrease across repetitions.
    pub mean_impact: f64,
    /// Smallest observed impact (the paper's "at least an average decrease
    /// of 6.8" is a minimum over attack messages).
    pub min_impact: f64,
    /// Fraction of repetitions in which the variant was rejected.
    pub detection_rate: f64,
}

/// Aggregated impact of ordinary spam.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoniNonAttackRow {
    /// Messages measured.
    pub n: usize,
    /// Mean ham-as-ham decrease.
    pub mean_impact: f64,
    /// Largest observed impact (the paper's "at most … 4.4" is a maximum).
    pub max_impact: f64,
    /// Fraction wrongly rejected.
    pub false_positive_rate: f64,
}

/// The full experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoniResult {
    /// Configuration used.
    pub config: RoniExperimentConfig,
    /// Rejection threshold in force.
    pub threshold: f64,
    /// One row per dictionary variant.
    pub variants: Vec<RoniVariantRow>,
    /// The non-attack control group.
    pub non_attack: RoniNonAttackRow,
    /// Whether a single threshold separates attacks from non-attacks
    /// (min attack impact > max non-attack impact).
    pub separable: bool,
}

/// Run the RONI experiment.
pub fn run(cfg: &RoniExperimentConfig, threads: usize) -> RoniResult {
    let seeds = SeedTree::new(cfg.seed).child("roni");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.pool_size, 0.5),
        seeds.child("corpus").seed(),
    );
    let tokenizer = Tokenizer::new();
    let roni_cfg = RoniConfig::default();

    // Tokenize + intern the seven variant prototypes once.
    let interner = sb_intern::Interner::global();
    let variants: Vec<(DictionaryKind, Arc<Vec<sb_intern::TokenId>>)> =
        DictionaryKind::roni_variants()
            .into_iter()
            .map(|kind| {
                let attack = DictionaryAttack::new(kind);
                (
                    kind,
                    Arc::new(tokenizer.intern_ids(attack.prototype(), &interner)),
                )
            })
            .collect();

    let spam_per_rep = cfg.non_attack_spam.div_ceil(cfg.reps_per_variant);

    // rep → (per-variant (impact, rejected), per-spam (impact, rejected))
    #[allow(clippy::type_complexity)]
    let per_rep: Vec<(Vec<(f64, bool)>, Vec<(f64, bool)>)> =
        parallel_map(cfg.reps_per_variant, threads, |rep| {
            let rep_seeds = seeds.child("rep").index(rep as u64);
            // Overlay measurement is read-only (`&self`), so one
            // evaluator serves the variant sweep and the non-attack
            // control without its trial caches ever being invalidated.
            let roni = RoniDefense::new(
                roni_cfg,
                corpus.dataset(),
                FilterOptions::default(),
                &mut rep_seeds.child("splits").rng(),
            );
            let variant_results: Vec<(f64, bool)> = variants
                .iter()
                .map(|(_, tokens)| {
                    let m = roni.measure_ids(tokens);
                    (m.mean_ham_impact, m.rejected)
                })
                .collect();
            let spam_results: Vec<(f64, bool)> = (0..spam_per_rep)
                .map(|k| {
                    let fresh = corpus.fresh_spam((rep * spam_per_rep + k) as u64);
                    let m = roni.measure_email(&fresh);
                    (m.mean_ham_impact, m.rejected)
                })
                .collect();
            (variant_results, spam_results)
        });

    let variant_rows: Vec<RoniVariantRow> = variants
        .iter()
        .enumerate()
        .map(|(vi, (kind, tokens))| {
            let impacts: Vec<f64> = per_rep.iter().map(|(v, _)| v[vi].0).collect();
            let detections = per_rep.iter().filter(|(v, _)| v[vi].1).count();
            let s = Summary::from_slice(&impacts);
            RoniVariantRow {
                variant: kind.name(),
                lexicon_len: tokens.len(),
                mean_impact: s.mean,
                min_impact: s.min,
                detection_rate: detections as f64 / per_rep.len() as f64,
            }
        })
        .collect();

    let spam_impacts: Vec<f64> = per_rep
        .iter()
        .flat_map(|(_, s)| s.iter().map(|&(i, _)| i))
        .take(cfg.non_attack_spam)
        .collect();
    let spam_rejects = per_rep
        .iter()
        .flat_map(|(_, s)| s.iter().map(|&(_, r)| r))
        .take(cfg.non_attack_spam)
        .filter(|&r| r)
        .count();
    let s = Summary::from_slice(&spam_impacts);
    let non_attack = RoniNonAttackRow {
        n: spam_impacts.len(),
        mean_impact: s.mean,
        max_impact: s.max,
        false_positive_rate: spam_rejects as f64 / spam_impacts.len() as f64,
    };

    let min_attack = variant_rows
        .iter()
        .map(|r| r.min_impact)
        .fold(f64::INFINITY, f64::min);
    RoniResult {
        config: cfg.clone(),
        threshold: roni_cfg.reject_threshold,
        separable: min_attack > non_attack.max_impact,
        variants: variant_rows,
        non_attack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roni_separates_attacks_from_ordinary_spam() {
        let cfg = RoniExperimentConfig::quick(55);
        let res = run(&cfg, 2);
        assert_eq!(res.variants.len(), 7);
        // Every variant must be detected in every repetition (the paper:
        // "identifying 100% of the attack emails").
        for v in &res.variants {
            assert!(
                v.detection_rate > 0.99,
                "variant {} detected only {:.0}%",
                v.variant,
                v.detection_rate * 100.0
            );
        }
        // Ordinary spam is (essentially) never flagged. The paper's exact
        // zero-false-positive claim holds at full scale (the full-tier rig
        // claim `roni.non-attack-fp`, `repro run --tier full --only roni`);
        // at this test's quick scale the tiny pool leaves room for an
        // occasional unlucky draw.
        assert!(
            res.non_attack.false_positive_rate <= 0.10,
            "false positives: {}",
            res.non_attack.false_positive_rate
        );
        // The *mean* gap must be wide regardless of scale.
        let min_attack_mean = res
            .variants
            .iter()
            .map(|v| v.mean_impact)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_attack_mean > res.non_attack.mean_impact + 5.0,
            "mean attack {} vs mean non-attack {}",
            min_attack_mean,
            res.non_attack.mean_impact
        );
    }
}
