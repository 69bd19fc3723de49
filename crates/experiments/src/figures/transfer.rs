//! Extension experiment: attack transfer across the filter zoo.
//!
//! §7 of the paper claims the attacks "should also apply to other spam
//! filtering systems based on similar learning algorithms, such as
//! BogoFilter and the Bayesian component of SpamAssassin although their
//! effect may vary", and §1 cautions that SpamAssassin "uses the learner
//! only as one component of a broader filtering strategy". This experiment
//! tests both: the Usenet dictionary attack is swept against every filter
//! in `sb-variants` plus SpamBayes itself.
//!
//! Expected shape (verified by the module tests at quick scale): every
//! *presence-counting* learner (SpamBayes, Graham, BogoFilter, SA-Bayes)
//! loses ham as the attack fraction grows — orderings among them vary with
//! their priors and combining rules — while two members resist for
//! structural reasons worth measuring:
//!
//! * **sa-full**: static rules are invariant to training contamination and
//!   bound the Bayes bucket at 3.7 of 5.0 points, so its ham-as-spam stays
//!   near zero (the paper's §1 caveat);
//! * **naive-bayes**: the multinomial likelihood normalizes by the class's
//!   *total token occurrences*, so a 90,000-word flood dilutes itself —
//!   its damage surfaces as lost spam recall (false negatives), not lost
//!   ham (see `sb_variants::nb` for the analysis).

use crate::config::TransferConfig;
use crate::runner::parallel_map;
use sb_core::{attack_count_for_fraction, DictionaryAttack, DictionaryKind};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::Label;
use sb_filter::{SpamBayes, Verdict};
use sb_stats::rng::SeedTree;
use sb_variants::{BogoFilter, GrahamFilter, MultinomialNb, SaBayes, SaFull, StatFilter};
use serde::{Deserialize, Serialize};

/// The filters compared, in display order.
pub const FILTER_NAMES: [&str; 6] = [
    "spambayes",
    "graham",
    "bogofilter",
    "sa-bayes",
    "sa-full",
    "naive-bayes",
];

/// Instantiate a zoo member by name.
pub fn make_filter(name: &str) -> Box<dyn StatFilter> {
    match name {
        "spambayes" => Box::new(SpamBayes::new()),
        "graham" => Box::new(GrahamFilter::new()),
        "bogofilter" => Box::new(BogoFilter::new()),
        "sa-bayes" => Box::new(SaBayes::new()),
        "sa-full" => Box::new(SaFull::new()),
        "naive-bayes" => Box::new(MultinomialNb::new()),
        other => panic!("unknown filter {other:?}"),
    }
}

/// One (filter, fraction) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferPoint {
    /// Filter name.
    pub filter: String,
    /// Attack fraction of the training set.
    pub fraction: f64,
    /// Fraction of test ham classified spam.
    pub ham_as_spam: f64,
    /// Fraction of test ham classified spam or unsure.
    pub ham_misclassified: f64,
    /// Fraction of test spam classified spam.
    pub spam_caught: f64,
}

/// Full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferResult {
    /// Configuration used.
    pub config: TransferConfig,
    /// All cells, filter-major in [`FILTER_NAMES`] order.
    pub points: Vec<TransferPoint>,
}

impl TransferResult {
    /// Look up a cell.
    pub fn point(&self, filter: &str, fraction: f64) -> Option<&TransferPoint> {
        self.points
            .iter()
            .find(|p| p.filter == filter && (p.fraction - fraction).abs() < 1e-12)
    }
}

/// Run the transfer experiment.
///
/// Training is email-level (each filter tokenizes with its own rules — the
/// paper's footnote-1 point). Attack fractions are swept *incrementally*:
/// training is additive for every zoo member, so moving from fraction `f_i`
/// to `f_{i+1}` only trains the difference in attack copies.
pub fn run(cfg: &TransferConfig, threads: usize) -> TransferResult {
    let seeds = SeedTree::new(cfg.seed).child("transfer");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.train_size + cfg.test_size, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let emails = corpus.emails();
    let (train, test) = emails.split_at(cfg.train_size);

    let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(cfg.usenet_k));
    let mut fractions = cfg.fractions.clone();
    fractions.sort_by(|a, b| a.partial_cmp(b).expect("fractions are finite"));

    let per_filter: Vec<Vec<TransferPoint>> =
        parallel_map(FILTER_NAMES.len(), threads, |fi| {
            let name = FILTER_NAMES[fi];
            let mut filter = make_filter(name);
            for msg in train {
                filter.train(&msg.email, msg.label);
            }
            let mut points = Vec::new();
            let mut trained_attack = 0u32;
            for &frac in &fractions {
                let want = attack_count_for_fraction(cfg.train_size, frac);
                if want > trained_attack {
                    filter.train_many(attack.prototype(), Label::Spam, want - trained_attack);
                    trained_attack = want;
                }
                let mut ham_spam = 0usize;
                let mut ham_mis = 0usize;
                let mut n_ham = 0usize;
                let mut spam_ok = 0usize;
                let mut n_spam = 0usize;
                for msg in test {
                    let v = filter.classify(&msg.email).verdict;
                    match msg.label {
                        Label::Ham => {
                            n_ham += 1;
                            if v == Verdict::Spam {
                                ham_spam += 1;
                                ham_mis += 1;
                            } else if v == Verdict::Unsure {
                                ham_mis += 1;
                            }
                        }
                        Label::Spam => {
                            n_spam += 1;
                            if v == Verdict::Spam {
                                spam_ok += 1;
                            }
                        }
                    }
                }
                points.push(TransferPoint {
                    filter: name.to_owned(),
                    fraction: frac,
                    ham_as_spam: ham_spam as f64 / n_ham.max(1) as f64,
                    ham_misclassified: ham_mis as f64 / n_ham.max(1) as f64,
                    spam_caught: spam_ok as f64 / n_spam.max(1) as f64,
                });
            }
            points
        });

    TransferResult {
        config: cfg.clone(),
        points: per_filter.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_degrades_every_presence_counting_learner() {
        let cfg = TransferConfig::quick(41);
        let res = run(&cfg, 3);
        let top = *cfg
            .fractions
            .iter()
            .max_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        for name in ["spambayes", "graham", "bogofilter", "sa-bayes"] {
            let clean = res.point(name, 0.0).expect("baseline cell");
            let hit = res.point(name, top).expect("attacked cell");
            assert!(
                hit.ham_misclassified > clean.ham_misclassified + 0.1,
                "{name}: attack did not transfer ({} -> {})",
                clean.ham_misclassified,
                hit.ham_misclassified
            );
        }
    }

    #[test]
    fn flood_self_dilutes_against_multinomial_nb() {
        let cfg = TransferConfig::quick(44);
        let res = run(&cfg, 3);
        let top = *cfg
            .fractions
            .iter()
            .max_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        let clean = res.point("naive-bayes", 0.0).unwrap();
        let hit = res.point("naive-bayes", top).unwrap();
        // Ham barely moves…
        assert!(
            hit.ham_misclassified < clean.ham_misclassified + 0.15,
            "NB unexpectedly lost ham: {} -> {}",
            clean.ham_misclassified,
            hit.ham_misclassified
        );
        // …but spam recall suffers: the flood's damage is integrity-shaped.
        assert!(
            hit.spam_caught < clean.spam_caught + 1e-9,
            "NB spam recall should not improve under the flood: {} -> {}",
            clean.spam_caught,
            hit.spam_caught
        );
    }

    #[test]
    fn sa_full_resists_ham_as_spam() {
        let cfg = TransferConfig::quick(42);
        let res = run(&cfg, 3);
        for p in res.points.iter().filter(|p| p.filter == "sa-full") {
            assert!(
                p.ham_as_spam < 0.05,
                "sa-full ham-as-spam {} at fraction {}",
                p.ham_as_spam,
                p.fraction
            );
        }
    }

    #[test]
    fn clean_baselines_are_usable() {
        let cfg = TransferConfig::quick(43);
        let res = run(&cfg, 3);
        for name in FILTER_NAMES {
            let clean = res.point(name, 0.0).expect("baseline cell");
            assert!(
                clean.ham_misclassified < 0.35,
                "{name}: unusable even before the attack: {}",
                clean.ham_misclassified
            );
        }
    }

    #[test]
    fn factory_covers_all_names() {
        for name in FILTER_NAMES {
            assert_eq!(make_filter(name).name(), name);
        }
    }
}
