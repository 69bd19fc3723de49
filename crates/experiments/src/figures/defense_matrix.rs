//! Extension experiment: the attack × defense matrix.
//!
//! The paper evaluates each defense against the attack it was designed for
//! (RONI vs dictionary in §5.1, dynamic threshold vs dictionary in §5.2)
//! and *states* the cross terms — RONI "fails to differentiate focused
//! attack emails", focused attacks are "especially difficult to defend
//! against". This experiment fills in the whole grid, including the
//! stacked RONI+threshold configuration from `sb-core::combined`:
//!
//! ```text
//!              none    roni    threshold-.10    combined
//! no-attack     ·        ·          ·               ·
//! usenet@1%     ·        ·          ·               ·
//! usenet@5%     ·        ·          ·               ·
//! focused       ·        ·          ·               ·
//! ```
//!
//! Cells report ham damage, spam-as-unsure cost, screening counts, and —
//! for the focused row — the target flip rate.

use crate::config::DefenseMatrixConfig;
use crate::metrics::Confusion;
use sb_core::{
    attack_count_for_fraction, calibrate, defend, CombinedConfig, DictionaryAttack,
    DictionaryKind, FocusedAttack, RoniConfig, RoniDefense, ThresholdConfig, TrainItem,
};
use sb_core::attack::AttackGenerator;
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::{Dataset, Label, LabeledEmail};
use sb_filter::{FilterOptions, SpamBayes, Verdict};
use sb_intern::par::parallel_map;
use sb_stats::rng::{SeedTree, Xoshiro256pp};
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The matrix's attack rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MatrixAttack {
    /// No attack (baseline costs of each defense).
    None,
    /// Usenet dictionary attack at a training-set fraction.
    Dictionary {
        /// Attack fraction of the training set.
        fraction: f64,
    },
    /// Focused attack on fresh targets (aggregated over targets).
    Focused,
}

impl MatrixAttack {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            MatrixAttack::None => "no-attack".into(),
            MatrixAttack::Dictionary { fraction } => {
                format!("usenet@{}%", (fraction * 100.0).round() as u32)
            }
            MatrixAttack::Focused => "focused".into(),
        }
    }
}

/// The matrix's defense columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixDefense {
    /// Train on everything, stock thresholds.
    None,
    /// RONI admission control only.
    Roni,
    /// Dynamic threshold (g = 0.10) only.
    Threshold,
    /// RONI + dynamic threshold.
    Combined,
}

impl MatrixDefense {
    /// All columns in display order.
    pub const ALL: [MatrixDefense; 4] = [
        MatrixDefense::None,
        MatrixDefense::Roni,
        MatrixDefense::Threshold,
        MatrixDefense::Combined,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MatrixDefense::None => "none",
            MatrixDefense::Roni => "roni",
            MatrixDefense::Threshold => "threshold-.10",
            MatrixDefense::Combined => "combined",
        }
    }
}

/// One matrix cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Attack row.
    pub attack: MatrixAttack,
    /// Defense column.
    pub defense: MatrixDefense,
    /// Fraction of test ham misclassified (spam or unsure).
    pub ham_misclassified: f64,
    /// Fraction of test ham classified spam.
    pub ham_as_spam: f64,
    /// Fraction of test spam classified spam.
    pub spam_caught: f64,
    /// Fraction of test spam classified unsure (the threshold defenses'
    /// cost center).
    pub spam_as_unsure: f64,
    /// Candidates rejected by the screen (RONI columns only).
    pub screened_out: usize,
    /// Attack emails among the screened (detection quality).
    pub screened_attack: usize,
    /// Focused row only: fraction of targets flipped (unsure or spam).
    pub target_flips: Option<f64>,
}

/// Full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixResult {
    /// Configuration used.
    pub config: DefenseMatrixConfig,
    /// All cells, attack-major.
    pub cells: Vec<MatrixCell>,
}

impl MatrixResult {
    /// Look up a cell.
    pub fn cell(&self, attack_name: &str, defense: MatrixDefense) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.attack.name() == attack_name && c.defense == defense)
    }
}

/// Train under a defense: `trusted` is clean; `candidates` may contain
/// attack mail (flagged in `is_attack` for detection accounting). Returns
/// the filter (under a threshold defense it carries the calibrated
/// cutoffs) and the screen's rejected and rejected-attack counts.
fn train_defended(
    trusted: &Dataset,
    candidates: &[LabeledEmail],
    is_attack: &[bool],
    defense: MatrixDefense,
    rng: &mut Xoshiro256pp,
) -> (SpamBayes, usize, usize) {
    let opts = FilterOptions::default();
    let tokenizer = Tokenizer::new();
    match defense {
        MatrixDefense::None => {
            let mut f = SpamBayes::new();
            for m in trusted.emails().iter().chain(candidates) {
                f.train(&m.email, m.label);
            }
            (f, 0, 0)
        }
        MatrixDefense::Roni => {
            // Tokenize + intern every message once: the trusted ids build
            // the RONI trials and train the filter, the candidates take
            // one parallel screening sweep and the kept ids train directly.
            let mut f = SpamBayes::new();
            let interner = f.interner().clone();
            let trusted_ids: Vec<(Arc<Vec<sb_intern::TokenId>>, Label)> = trusted
                .emails()
                .iter()
                .map(|m| {
                    let ids = tokenizer.intern_ids(&m.email, &interner);
                    (Arc::new(ids), m.label)
                })
                .collect();
            let roni = RoniDefense::from_ids(RoniConfig::default(), &trusted_ids, opts, rng);
            for (ids, label) in &trusted_ids {
                f.train_ids(ids, *label, 1);
            }
            let candidate_ids: Vec<Vec<sb_intern::TokenId>> = candidates
                .iter()
                .map(|m| tokenizer.intern_ids(&m.email, &interner))
                .collect();
            let (kept, rejected) = roni.screen_ids(&candidate_ids);
            let out_atk = rejected.iter().filter(|&&i| is_attack[i]).count();
            let out = rejected.len();
            for &i in &kept {
                f.train_ids(&candidate_ids[i], candidates[i].label, 1);
            }
            (f, out, out_atk)
        }
        MatrixDefense::Threshold => {
            let mut items: Vec<TrainItem> = trusted
                .emails()
                .iter()
                .chain(candidates)
                .map(|m| TrainItem::new(tokenizer.token_set(&m.email), m.label))
                .collect();
            // calibrate() splits in half internally; items order is
            // irrelevant but keep deterministic.
            items.shrink_to_fit();
            (calibrate(&items, ThresholdConfig::loose(), opts, rng), 0, 0)
        }
        MatrixDefense::Combined => {
            let out = defend(trusted, candidates, &CombinedConfig::default(), opts, rng);
            let screened_attack = out
                .rejected
                .iter()
                .filter(|&&i| is_attack[i])
                .count();
            let n_rejected = out.rejected.len();
            (out.filter, n_rejected, screened_attack)
        }
    }
}

/// Run the full matrix.
pub fn run(cfg: &DefenseMatrixConfig, threads: usize) -> MatrixResult {
    let seeds = SeedTree::new(cfg.seed).child("matrix");
    let total = cfg.trusted_size + cfg.clean_candidates + cfg.test_size;
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(total, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let emails = corpus.emails();
    let trusted = Dataset::from_vec(emails[..cfg.trusted_size].to_vec());
    let clean_candidates = &emails[cfg.trusted_size..cfg.trusted_size + cfg.clean_candidates];
    let test = &emails[cfg.trusted_size + cfg.clean_candidates..];

    // Rows: none + one per dictionary fraction + focused.
    let mut attacks = vec![MatrixAttack::None];
    for &f in &cfg.dictionary_fractions {
        attacks.push(MatrixAttack::Dictionary { fraction: f });
    }
    attacks.push(MatrixAttack::Focused);

    // (attack, defense) work items, parallelized.
    let work: Vec<(usize, usize)> = (0..attacks.len())
        .flat_map(|a| (0..MatrixDefense::ALL.len()).map(move |d| (a, d)))
        .collect();

    let cells: Vec<MatrixCell> = parallel_map(work.len(), threads, |wi| {
        let (ai, di) = work[wi];
        let attack = attacks[ai].clone();
        let defense = MatrixDefense::ALL[di];
        let cell_seeds = seeds.child("cell").index(wi as u64);
        let mut rng = cell_seeds.rng();

        match &attack {
            MatrixAttack::Focused => {
                // Per-target pipeline, aggregated.
                let mut flips = 0usize;
                let mut conf = Confusion::new();
                let (mut out_total, mut out_atk_total) = (0, 0);
                for t in 0..cfg.focused_targets {
                    let target = corpus.fresh_ham(5_000_000 + t as u64);
                    let donor = corpus.fresh_spam(6_000_000 + t as u64);
                    let focused =
                        FocusedAttack::new(&target, cfg.focused_guess_prob, Some(donor));
                    let mut t_rng = cell_seeds.child("target").index(t as u64).rng();
                    let batch = focused.generate(cfg.focused_attack_count, &mut t_rng);
                    let mut candidates: Vec<LabeledEmail> = clean_candidates.to_vec();
                    let mut is_attack = vec![false; candidates.len()];
                    for e in batch.materialize() {
                        candidates.push(LabeledEmail::new(e, Label::Spam));
                        is_attack.push(true);
                    }
                    let (filter, out, out_atk) =
                        train_defended(&trusted, &candidates, &is_attack, defense, &mut t_rng);
                    out_total += out;
                    out_atk_total += out_atk;
                    if filter.verdict(&target) != Verdict::Ham {
                        flips += 1;
                    }
                    // Collateral metrics from a slice of the test set (full
                    // sweep per target would be folds × targets × test).
                    for m in test.iter().take(cfg.test_size / cfg.focused_targets) {
                        conf.record(m.label, filter.verdict(&m.email));
                    }
                }
                MatrixCell {
                    attack,
                    defense,
                    ham_misclassified: conf.ham_misclassified(),
                    ham_as_spam: conf.ham_as_spam(),
                    spam_caught: conf.spam_correct(),
                    spam_as_unsure: conf.spam_as_unsure(),
                    screened_out: out_total,
                    screened_attack: out_atk_total,
                    target_flips: Some(flips as f64 / cfg.focused_targets as f64),
                }
            }
            other => {
                let mut candidates: Vec<LabeledEmail> = clean_candidates.to_vec();
                let mut is_attack = vec![false; candidates.len()];
                if let MatrixAttack::Dictionary { fraction } = other {
                    let dict = DictionaryAttack::new(DictionaryKind::UsenetTop(cfg.usenet_k));
                    let n = attack_count_for_fraction(
                        cfg.trusted_size + cfg.clean_candidates,
                        *fraction,
                    );
                    let batch = dict.generate(n, &mut rng);
                    for e in batch.materialize() {
                        candidates.push(LabeledEmail::new(e, Label::Spam));
                        is_attack.push(true);
                    }
                }
                let (filter, out, out_atk) =
                    train_defended(&trusted, &candidates, &is_attack, defense, &mut rng);
                let mut conf = Confusion::new();
                for m in test {
                    conf.record(m.label, filter.verdict(&m.email));
                }
                MatrixCell {
                    attack,
                    defense,
                    ham_misclassified: conf.ham_misclassified(),
                    ham_as_spam: conf.ham_as_spam(),
                    spam_caught: conf.spam_correct(),
                    spam_as_unsure: conf.spam_as_unsure(),
                    screened_out: out,
                    screened_attack: out_atk,
                    target_flips: None,
                }
            }
        }
    });

    MatrixResult {
        config: cfg.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> MatrixResult {
        run(&DefenseMatrixConfig::quick(71), 4)
    }

    #[test]
    fn roni_kills_dictionary_but_not_focused() {
        let res = result();
        let dict_name = format!(
            "usenet@{}%",
            (res.config.dictionary_fractions[0] * 100.0).round() as u32
        );
        let dict_roni = res.cell(&dict_name, MatrixDefense::Roni).unwrap();
        let dict_none = res.cell(&dict_name, MatrixDefense::None).unwrap();
        assert!(
            dict_roni.ham_misclassified < dict_none.ham_misclassified,
            "RONI must reduce dictionary damage: {} vs {}",
            dict_roni.ham_misclassified,
            dict_none.ham_misclassified
        );
        assert!(dict_roni.screened_attack > 0, "no attack mail screened");

        let foc_roni = res.cell("focused", MatrixDefense::Roni).unwrap();
        let foc_none = res.cell("focused", MatrixDefense::None).unwrap();
        // §5.1: RONI fails to differentiate focused attacks — flips stay high.
        let (r, n) = (
            foc_roni.target_flips.unwrap(),
            foc_none.target_flips.unwrap(),
        );
        assert!(
            r >= n - 0.26,
            "RONI unexpectedly strong against focused: {r} vs {n}"
        );
    }

    #[test]
    fn matrix_is_complete() {
        let res = result();
        // rows = none + fractions + focused; columns = 4.
        let rows = 2 + res.config.dictionary_fractions.len();
        assert_eq!(res.cells.len(), rows * 4);
        for c in &res.cells {
            assert!((0.0..=1.0).contains(&c.ham_misclassified));
            assert!((0.0..=1.0).contains(&c.spam_caught));
        }
    }

    #[test]
    fn no_attack_baseline_is_healthy() {
        let res = result();
        let cell = res.cell("no-attack", MatrixDefense::None).unwrap();
        assert!(cell.ham_misclassified < 0.3, "{}", cell.ham_misclassified);
        assert!(cell.spam_caught > 0.5, "{}", cell.spam_caught);
        assert_eq!(cell.screened_out, 0);
    }

    #[test]
    fn threshold_defense_trades_unsure_for_ham() {
        let res = result();
        let dict_name = format!(
            "usenet@{}%",
            (res.config.dictionary_fractions[0] * 100.0).round() as u32
        );
        let none = res.cell(&dict_name, MatrixDefense::None).unwrap();
        let thr = res.cell(&dict_name, MatrixDefense::Threshold).unwrap();
        // The paper's Figure 5 shape: ham-as-spam collapses under the
        // dynamic threshold.
        assert!(
            thr.ham_as_spam <= none.ham_as_spam + 1e-9,
            "threshold did not reduce ham-as-spam: {} vs {}",
            thr.ham_as_spam,
            none.ham_as_spam
        );
    }
}
