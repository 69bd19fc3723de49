//! Experiment configurations: the paper's Table 1, as code.
//!
//! Every figure generator takes one of these configs. `full(seed)`
//! reproduces the paper's parameters verbatim, while `quick(seed)` shrinks
//! sizes ~10× so integration tests and Criterion benches exercise the
//! identical code paths in seconds. The rig (`repro run`) runs `quick` at
//! its lite tier and `full` at its full tier.

use sb_core::DictionaryKind;
use serde::{Deserialize, Serialize};

/// Figure 1: dictionary attacks vs attack fraction, K-fold cross-validated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Config {
    /// Training pool size (Table 1: 10,000; also 2,000).
    pub train_size: usize,
    /// Spam prevalence (Table 1: 0.50, 0.75).
    pub spam_prevalence: f64,
    /// Folds of cross-validation (Table 1: 10).
    pub folds: usize,
    /// Attack fractions (Table 1: 0.001, 0.005, 0.01, 0.02, 0.05, 0.10).
    pub fractions: Vec<f64>,
    /// Usenet truncation used for the Usenet variant (paper: 90,000).
    pub usenet_k: usize,
    /// Master seed.
    pub seed: u64,
}

impl Fig1Config {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            train_size: 10_000,
            spam_prevalence: 0.5,
            folds: 10,
            fractions: vec![0.001, 0.005, 0.01, 0.02, 0.05, 0.10],
            usenet_k: 90_000,
            seed,
        }
    }

    /// Reduced configuration for tests/benches.
    pub fn quick(seed: u64) -> Self {
        Self {
            train_size: 1_000,
            spam_prevalence: 0.5,
            folds: 3,
            fractions: vec![0.01, 0.05, 0.10],
            usenet_k: 90_000,
            seed,
        }
    }

    /// The three attack variants of Figure 1.
    pub fn variants(&self) -> Vec<DictionaryKind> {
        vec![
            DictionaryKind::Optimal,
            DictionaryKind::UsenetTop(self.usenet_k),
            DictionaryKind::Aspell,
        ]
    }
}

/// Figures 2 and 3: the focused attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FocusedConfig {
    /// Inbox (training pool) size (Table 1: 5,000).
    pub inbox_size: usize,
    /// Spam prevalence (Table 1: 0.50).
    pub spam_prevalence: f64,
    /// Number of target emails (Table 1: 20).
    pub n_targets: usize,
    /// Repetitions with fresh corpora (Table 1: 5).
    pub repetitions: usize,
    /// Guess probabilities for Figure 2 (paper: 0.1, 0.3, 0.5, 0.9).
    pub guess_probs: Vec<f64>,
    /// Attack-email count for Figure 2 (paper: 300 ≈ 16% extra).
    pub fig2_attack_count: u32,
    /// Attack fractions for Figure 3's x-axis (percent of training set).
    pub fig3_fractions: Vec<f64>,
    /// Fixed guess probability for Figure 3 (paper: 0.5).
    pub fig3_guess_prob: f64,
    /// Master seed.
    pub seed: u64,
}

impl FocusedConfig {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            inbox_size: 5_000,
            spam_prevalence: 0.5,
            n_targets: 20,
            repetitions: 5,
            guess_probs: vec![0.1, 0.3, 0.5, 0.9],
            fig2_attack_count: 300,
            fig3_fractions: vec![0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10],
            fig3_guess_prob: 0.5,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            inbox_size: 600,
            spam_prevalence: 0.5,
            n_targets: 8,
            repetitions: 2,
            guess_probs: vec![0.1, 0.5, 0.9],
            fig2_attack_count: 36, // same ~16% extra proportion as the paper
            fig3_fractions: vec![0.01, 0.05, 0.10],
            fig3_guess_prob: 0.5,
            seed,
        }
    }
}

/// Figure 5: the dynamic threshold defense under dictionary attack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Training pool size (paper: 10,000).
    pub train_size: usize,
    /// Spam prevalence (0.5).
    pub spam_prevalence: f64,
    /// Folds (Table 1, threshold column: 5).
    pub folds: usize,
    /// Attack fractions (Table 1: 0.001, 0.01, 0.05, 0.10).
    pub fractions: Vec<f64>,
    /// The dictionary variant used for the attack (the Usenet attack is the
    /// paper's strongest practical attack).
    pub usenet_k: usize,
    /// Master seed.
    pub seed: u64,
}

impl Fig5Config {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            train_size: 10_000,
            spam_prevalence: 0.5,
            folds: 5,
            fractions: vec![0.001, 0.01, 0.05, 0.10],
            usenet_k: 90_000,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            train_size: 1_000,
            spam_prevalence: 0.5,
            folds: 2,
            fractions: vec![0.01, 0.10],
            usenet_k: 90_000,
            seed,
        }
    }
}

/// §5.1: the RONI experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoniExperimentConfig {
    /// Clean pool the trials sample from.
    pub pool_size: usize,
    /// Repetitions per attack variant (paper: 15).
    pub reps_per_variant: usize,
    /// Total non-attack spam messages tested (paper: 120).
    pub non_attack_spam: usize,
    /// Master seed.
    pub seed: u64,
}

impl RoniExperimentConfig {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            pool_size: 1_000,
            reps_per_variant: 15,
            non_attack_spam: 120,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            pool_size: 200,
            reps_per_variant: 3,
            non_attack_spam: 24,
            seed,
        }
    }
}

/// Extension: cross-filter attack transfer (§7's "should also apply to
/// other spam filtering systems", tested).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferConfig {
    /// Training pool size.
    pub train_size: usize,
    /// Held-out test set size.
    pub test_size: usize,
    /// Spam prevalence.
    pub spam_prevalence: f64,
    /// Attack fractions swept (0 = clean baseline).
    pub fractions: Vec<f64>,
    /// Usenet truncation for the attack lexicon.
    pub usenet_k: usize,
    /// Master seed.
    pub seed: u64,
}

impl TransferConfig {
    /// Full-scale configuration. Email-level training (each filter owns its
    /// tokenizer) keeps this smaller than Fig. 1's pre-tokenized sweep.
    pub fn full(seed: u64) -> Self {
        Self {
            train_size: 2_000,
            test_size: 400,
            spam_prevalence: 0.5,
            fractions: vec![0.0, 0.01, 0.05, 0.10],
            usenet_k: 90_000,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            train_size: 400,
            test_size: 100,
            spam_prevalence: 0.5,
            fractions: vec![0.0, 0.05],
            usenet_k: 10_000,
            seed,
        }
    }
}

/// Extension: the optimal constrained attack (§3.4 future work) — damage
/// as a function of the attacker's token budget, for informed vs generic
/// word sources.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstrainedConfig {
    /// Training pool size.
    pub train_size: usize,
    /// Held-out test set size.
    pub test_size: usize,
    /// Spam prevalence.
    pub spam_prevalence: f64,
    /// Ham messages the attacker has observed (knowledge sample).
    pub observed_ham: usize,
    /// Token budgets swept.
    pub budgets: Vec<usize>,
    /// Attack fraction (fixed; the paper's headline 1%).
    pub attack_fraction: f64,
    /// Folds of cross-validation.
    pub folds: usize,
    /// Master seed.
    pub seed: u64,
}

impl ConstrainedConfig {
    /// Full-scale configuration. The attack fraction is 2% (the paper's
    /// §4.2 "204 emails" point): small budgets produce measurable damage
    /// there, which is the region this experiment is about.
    pub fn full(seed: u64) -> Self {
        Self {
            train_size: 2_000,
            test_size: 400,
            spam_prevalence: 0.5,
            observed_ham: 500,
            budgets: vec![300, 1_000, 5_000, 25_000, 90_000],
            attack_fraction: 0.02,
            folds: 5,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            train_size: 500,
            test_size: 150,
            spam_prevalence: 0.5,
            observed_ham: 150,
            budgets: vec![300, 1_000, 5_000],
            attack_fraction: 0.05,
            folds: 2,
            seed,
        }
    }
}

/// Extension: the ham-labeled integrity attack (§2.2 closing remark).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HamAttackConfig {
    /// Victim inbox (training pool) size.
    pub inbox_size: usize,
    /// Spam prevalence.
    pub spam_prevalence: f64,
    /// Chaff-email counts swept.
    pub chaff_counts: Vec<u32>,
    /// Campaign vocabulary size (tokens of the future spam campaign).
    pub campaign_words: usize,
    /// Camouflage tokens sampled into each chaff email.
    pub camouflage_per_email: usize,
    /// Campaign spam blasts evaluated per cell.
    pub blasts: usize,
    /// Independent repetitions.
    pub repetitions: usize,
    /// Master seed.
    pub seed: u64,
}

impl HamAttackConfig {
    /// Full-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            inbox_size: 2_000,
            spam_prevalence: 0.5,
            chaff_counts: vec![0, 10, 25, 50, 100, 200],
            campaign_words: 25,
            camouflage_per_email: 40,
            blasts: 50,
            repetitions: 5,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            inbox_size: 400,
            spam_prevalence: 0.5,
            chaff_counts: vec![0, 25, 100],
            campaign_words: 15,
            camouflage_per_email: 20,
            blasts: 20,
            repetitions: 2,
            seed,
        }
    }
}

/// Extension: the attack × defense matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseMatrixConfig {
    /// Trusted bootstrap pool size (assumed clean, RONI's yardstick).
    pub trusted_size: usize,
    /// Clean candidate messages arriving alongside the attack.
    pub clean_candidates: usize,
    /// Held-out test set size.
    pub test_size: usize,
    /// Spam prevalence.
    pub spam_prevalence: f64,
    /// Usenet truncation for dictionary attacks.
    pub usenet_k: usize,
    /// Dictionary-attack fractions included as matrix rows.
    pub dictionary_fractions: Vec<f64>,
    /// Focused-attack targets per cell.
    pub focused_targets: usize,
    /// Focused-attack emails per target.
    pub focused_attack_count: u32,
    /// Focused-attack guess probability.
    pub focused_guess_prob: f64,
    /// Master seed.
    pub seed: u64,
}

impl DefenseMatrixConfig {
    /// Full-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            trusted_size: 600,
            clean_candidates: 600,
            test_size: 400,
            spam_prevalence: 0.5,
            usenet_k: 25_000,
            dictionary_fractions: vec![0.01, 0.05],
            focused_targets: 10,
            focused_attack_count: 100,
            focused_guess_prob: 0.5,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            trusted_size: 200,
            clean_candidates: 150,
            test_size: 120,
            spam_prevalence: 0.5,
            usenet_k: 5_000,
            dictionary_fractions: vec![0.05],
            focused_targets: 4,
            focused_attack_count: 40,
            focused_guess_prob: 0.5,
            seed,
        }
    }
}

/// Extension: the week-by-week organization simulation (§2.1's deployment
/// story over the SMTP substrate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MailflowConfig {
    /// Users in the organization.
    pub users: usize,
    /// Days simulated.
    pub days: u32,
    /// Retraining period in days.
    pub retrain_every: u32,
    /// Ham per day (organization-wide).
    pub ham_per_day: u32,
    /// Background spam per day.
    pub spam_per_day: u32,
    /// Attack emails per day once the campaign starts.
    pub attack_per_day: u32,
    /// Day the campaign starts.
    pub attack_start_day: u32,
    /// Usenet truncation for the campaign lexicon.
    pub usenet_k: usize,
    /// Clean bootstrap training-set size.
    pub bootstrap_size: usize,
    /// Wire fault probability (drop and corrupt each).
    pub fault_chance: f64,
    /// Worker shards the organization's users are partitioned across
    /// (0 = one shard per available worker thread). Weekly reports are
    /// bit-identical for every value; this only sets the parallelism.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
}

impl MailflowConfig {
    /// Full-scale configuration.
    pub fn full(seed: u64) -> Self {
        Self {
            users: 5,
            days: 28,
            retrain_every: 7,
            ham_per_day: 30,
            spam_per_day: 30,
            attack_per_day: 10,
            attack_start_day: 1,
            usenet_k: 5_000,
            bootstrap_size: 400,
            fault_chance: 0.01,
            shards: 0,
            seed,
        }
    }

    /// Reduced configuration.
    pub fn quick(seed: u64) -> Self {
        Self {
            users: 3,
            days: 14,
            retrain_every: 7,
            ham_per_day: 10,
            spam_per_day: 10,
            attack_per_day: 6,
            attack_start_day: 1,
            usenet_k: 2_000,
            bootstrap_size: 200,
            fault_chance: 0.0,
            shards: 2,
            seed,
        }
    }
}

/// The scenario suite: where the committed scenario files live and which
/// shard counts the golden harness verifies bit-identity across. One
/// definition shared by the rig (`repro run`) and the `golden_scenarios`
/// integration test, so CI and the CLI can never drift apart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSuiteConfig {
    /// Directory of `*.scenario` files, relative to the repository root.
    pub dir: std::path::PathBuf,
    /// Shard counts every scenario's report must be bit-identical across.
    pub shard_matrix: Vec<usize>,
}

impl Default for ScenarioSuiteConfig {
    fn default() -> Self {
        Self {
            dir: std::path::PathBuf::from("scenarios"),
            shard_matrix: vec![1, 2, 4],
        }
    }
}

impl ScenarioSuiteConfig {
    /// The committed scenario files in `dir`, sorted by file name (the
    /// suite's canonical order). Errors are I/O only; an empty directory
    /// yields an empty list.
    pub fn scenario_files(&self) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut files: Vec<_> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
            .collect();
        files.sort();
        Ok(files)
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Parameter name.
    pub parameter: &'static str,
    /// Dictionary-attack column.
    pub dictionary: &'static str,
    /// Focused-attack column.
    pub focused: &'static str,
    /// RONI column.
    pub roni: &'static str,
    /// Threshold-defense column.
    pub threshold: &'static str,
}

/// The paper's Table 1, verbatim. This registry is the source of truth the
/// `full(…)` constructors above are checked against in tests.
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            parameter: "Training set size",
            dictionary: "2,000, 10,000",
            focused: "5,000",
            roni: "20",
            threshold: "2,000, 10,000",
        },
        Table1Row {
            parameter: "Test set size",
            dictionary: "200, 1,000",
            focused: "N/A",
            roni: "50",
            threshold: "200, 1,000",
        },
        Table1Row {
            parameter: "Spam prevalence",
            dictionary: "0.50, 0.75",
            focused: "0.50",
            roni: "0.50",
            threshold: "0.50",
        },
        Table1Row {
            parameter: "Attack fraction",
            dictionary: "0.001, 0.005, 0.01, 0.02, 0.05, 0.10",
            focused: "0.02 to 0.50 by 0.02",
            roni: "0.05",
            threshold: "0.001, 0.01, 0.05, 0.10",
        },
        Table1Row {
            parameter: "Folds of validation",
            dictionary: "10",
            focused: "5 repetitions",
            roni: "5 repetitions",
            threshold: "5",
        },
        Table1Row {
            parameter: "Target emails",
            dictionary: "N/A",
            focused: "20",
            roni: "N/A",
            threshold: "N/A",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_configs_match_table1() {
        let f1 = Fig1Config::full(0);
        assert_eq!(f1.train_size, 10_000);
        assert_eq!(f1.folds, 10);
        assert_eq!(f1.fractions, vec![0.001, 0.005, 0.01, 0.02, 0.05, 0.10]);
        let fc = FocusedConfig::full(0);
        assert_eq!(fc.inbox_size, 5_000);
        assert_eq!(fc.n_targets, 20);
        assert_eq!(fc.repetitions, 5);
        assert_eq!(fc.guess_probs, vec![0.1, 0.3, 0.5, 0.9]);
        assert_eq!(fc.fig2_attack_count, 300);
        let f5 = Fig5Config::full(0);
        assert_eq!(f5.folds, 5);
        assert_eq!(f5.fractions, vec![0.001, 0.01, 0.05, 0.10]);
        let r = RoniExperimentConfig::full(0);
        assert_eq!(r.reps_per_variant, 15);
        assert_eq!(r.non_attack_spam, 120);
    }

    #[test]
    fn table1_registry_shape() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].parameter, "Training set size");
        assert_eq!(t[4].dictionary, "10");
    }

    #[test]
    fn quick_configs_are_smaller() {
        assert!(Fig1Config::quick(0).train_size < Fig1Config::full(0).train_size);
        assert!(FocusedConfig::quick(0).inbox_size < FocusedConfig::full(0).inbox_size);
        assert!(Fig5Config::quick(0).folds < Fig5Config::full(0).folds);
    }

    #[test]
    fn fig1_variants_are_three() {
        let v = Fig1Config::full(0).variants();
        assert_eq!(v.len(), 3);
        assert!(v.contains(&DictionaryKind::Optimal));
        assert!(v.contains(&DictionaryKind::Aspell));
        assert!(v.contains(&DictionaryKind::UsenetTop(90_000)));
    }
}
