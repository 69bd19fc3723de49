//! Extension experiment: the ham-labeled integrity attack (§2.2).
//!
//! The paper's restriction — attack mail is always trained as spam — is a
//! modelling choice, and §2.2 notes that dropping it "could enable more
//! powerful attacks that place spam in a user's inbox". This experiment
//! quantifies that: chaff emails carrying a future campaign's vocabulary
//! are trained as ham (the victim's auto-labeling path), and the campaign's
//! deliverability is measured as a function of chaff volume.
//!
//! Two preconditions are also measured, because they are where the attack
//! can fail in practice: the chaff must be *delivered as ham* by the
//! pre-attack filter (or it never earns the ham label), and the campaign
//! must be *blocked* before the attack (or there is nothing to gain).

use crate::config::HamAttackConfig;
use crate::metrics::RateSummary;
use sb_core::{estimate_knowledge, HamLabelAttack};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::Label;
use sb_filter::{SpamBayes, Verdict};
use sb_intern::par::parallel_map;
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};

/// One chaff-volume cell, aggregated over repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HamAttackPoint {
    /// Chaff emails trained as ham.
    pub chaff_count: u32,
    /// Fraction of campaign blasts reaching the inbox (verdict ham).
    pub campaign_to_inbox: RateSummary,
    /// Fraction of campaign blasts still caught as spam.
    pub campaign_caught: RateSummary,
    /// Fraction of chaff the pre-attack filter would deliver as ham
    /// (plausibility of the auto-label path).
    pub chaff_delivered: RateSummary,
    /// Collateral: fraction of clean test spam still caught.
    pub clean_spam_caught: RateSummary,
}

/// Full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HamAttackResult {
    /// Configuration used.
    pub config: HamAttackConfig,
    /// One point per chaff count, ascending.
    pub points: Vec<HamAttackPoint>,
}

/// Run the integrity-attack experiment.
pub fn run(cfg: &HamAttackConfig, threads: usize) -> HamAttackResult {
    let seeds = SeedTree::new(cfg.seed).child("ham-attack");

    // rep → chaff-cell → (to_inbox, caught, chaff_ok, clean_caught)
    let per_rep: Vec<Vec<(f64, f64, f64, f64)>> =
        parallel_map(cfg.repetitions, threads, |rep| {
            let rep_seeds = seeds.child("rep").index(rep as u64);
            let corpus = TrecCorpus::generate(
                &CorpusConfig::with_size(cfg.inbox_size, cfg.spam_prevalence),
                rep_seeds.child("corpus").seed(),
            );
            let tokenizer = Tokenizer::new();

            // Base filter trained on the clean inbox.
            let mut base = SpamBayes::new();
            for m in corpus.emails() {
                base.train(&m.email, m.label);
            }

            // Campaign vocabulary: invented product names the filter has
            // never seen (every real campaign coins its own). Kept within
            // the tokenizer's 12-character word window so they survive as
            // first-class tokens rather than `skip:` buckets.
            let campaign: Vec<String> = (0..cfg.campaign_words)
                .map(|i| format!("nova{rep}x{i:03}"))
                .collect();

            // Camouflage: the victim's most characteristic ham vocabulary,
            // estimated from observable mail (same attacker capability as
            // the constrained attack).
            let observed: Vec<sb_email::Email> = (0..200)
                .map(|i| corpus.fresh_ham(2_000_000 + i as u64))
                .collect();
            let knowledge = estimate_knowledge(&observed, &tokenizer, 2);
            let camouflage = knowledge.optimal_attack(Some(cfg.camouflage_per_email * 4));
            let per_email = cfg.camouflage_per_email.min(camouflage.len());
            let attack = HamLabelAttack::new(campaign, camouflage, per_email);

            cfg.chaff_counts
                .iter()
                .map(|&chaff_n| {
                    let mut filter = base.clone();
                    let mut rng = rep_seeds.child("chaff").index(u64::from(chaff_n)).rng();
                    let batch = attack.generate(chaff_n, &mut rng);

                    // Plausibility: would the *current* filter deliver the
                    // chaff (and so would auto-labeling mark it ham)?
                    let mut chaff_ok = 0usize;
                    for (email, _) in batch.groups() {
                        if base.classify(email).verdict == Verdict::Ham {
                            chaff_ok += 1;
                        }
                    }
                    let chaff_ok_rate = if batch.is_empty() {
                        1.0
                    } else {
                        chaff_ok as f64 / batch.len() as f64
                    };

                    // The poisoning step: chaff trained as HAM.
                    for (email, count) in batch.groups() {
                        for _ in 0..*count {
                            filter.train(email, Label::Ham);
                        }
                    }

                    // Campaign deliverability.
                    let mut inbox = 0usize;
                    let mut caught = 0usize;
                    for b in 0..cfg.blasts {
                        match filter.classify(&attack.campaign_spam(b as u64)).verdict {
                            Verdict::Ham => inbox += 1,
                            Verdict::Spam => caught += 1,
                            Verdict::Unsure => {}
                        }
                    }

                    // Collateral on ordinary spam.
                    let mut clean_caught = 0usize;
                    let n_clean = 100usize;
                    for k in 0..n_clean {
                        if filter
                            .classify(&corpus.fresh_spam(3_000_000 + k as u64))
                            .verdict
                            == Verdict::Spam
                        {
                            clean_caught += 1;
                        }
                    }

                    (
                        inbox as f64 / cfg.blasts as f64,
                        caught as f64 / cfg.blasts as f64,
                        chaff_ok_rate,
                        clean_caught as f64 / n_clean as f64,
                    )
                })
                .collect()
        });

    let points = cfg
        .chaff_counts
        .iter()
        .enumerate()
        .map(|(ci, &chaff_count)| {
            let col = |sel: fn(&(f64, f64, f64, f64)) -> f64| -> Vec<f64> {
                per_rep.iter().map(|rep| sel(&rep[ci])).collect()
            };
            HamAttackPoint {
                chaff_count,
                campaign_to_inbox: RateSummary::from_rates(&col(|t| t.0)),
                campaign_caught: RateSummary::from_rates(&col(|t| t.1)),
                chaff_delivered: RateSummary::from_rates(&col(|t| t.2)),
                clean_spam_caught: RateSummary::from_rates(&col(|t| t.3)),
            }
        })
        .collect();

    HamAttackResult {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaff_volume_opens_the_inbox() {
        let cfg = HamAttackConfig::quick(61);
        let res = run(&cfg, 2);
        let first = &res.points[0];
        let last = res.points.last().unwrap();
        assert_eq!(first.chaff_count, 0);
        // Unpoisoned: the campaign does not reach the inbox as ham.
        assert!(
            first.campaign_to_inbox.mean < 0.2,
            "campaign should start blocked: {}",
            first.campaign_to_inbox.mean
        );
        // Poisoned: most blasts land.
        assert!(
            last.campaign_to_inbox.mean > first.campaign_to_inbox.mean + 0.4,
            "chaff had no effect: {} -> {}",
            first.campaign_to_inbox.mean,
            last.campaign_to_inbox.mean
        );
    }

    #[test]
    fn chaff_is_plausible_ham() {
        let cfg = HamAttackConfig::quick(62);
        let res = run(&cfg, 2);
        for p in res.points.iter().filter(|p| p.chaff_count > 0) {
            assert!(
                p.chaff_delivered.mean > 0.5,
                "chaff at {} mostly blocked ({}): the label path is implausible",
                p.chaff_count,
                p.chaff_delivered.mean
            );
        }
    }

    #[test]
    fn ordinary_spam_filtering_survives() {
        let cfg = HamAttackConfig::quick(63);
        let res = run(&cfg, 2);
        for p in &res.points {
            assert!(
                p.clean_spam_caught.mean > 0.6,
                "collateral damage too high at chaff {}: {}",
                p.chaff_count,
                p.clean_spam_caught.mean
            );
        }
    }
}
