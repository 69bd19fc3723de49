//! Figure 4: before/after token-score shift for three representative
//! focused-attack outcomes (target → spam, → unsure, → ham).
//!
//! For each representative target: every token of the target email is a
//! point `(f(w) before attack, f(w) after attack)`; tokens the attacker
//! guessed (red ×'s in the paper) are marked. The marginal histograms of
//! before/after scores reproduce the paper's bottom/right histograms.

use crate::config::FocusedConfig;
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::Label;
use sb_filter::{SpamBayes, Verdict};
use sb_stats::rng::SeedTree;
use sb_stats::Histogram;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One token's score shift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenShift {
    /// The token.
    pub token: String,
    /// `f(w)` under the clean filter.
    pub before: f64,
    /// `f(w)` under the attacked filter.
    pub after: f64,
    /// Whether the attacker's guess included this token (red × vs blue ○).
    pub in_attack: bool,
}

/// One representative target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Case {
    /// The target's post-attack verdict this case represents.
    pub outcome: Verdict,
    /// Message score before the attack.
    pub score_before: f64,
    /// Message score after the attack.
    pub score_after: f64,
    /// Per-token shifts.
    pub points: Vec<TokenShift>,
    /// 20-bin histogram of `before` scores (the paper's bottom histogram).
    pub hist_before: Vec<u64>,
    /// 20-bin histogram of `after` scores (the paper's right histogram).
    pub hist_after: Vec<u64>,
}

/// Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Cases in paper order: spam, unsure, ham (whichever were found).
    pub cases: Vec<Fig4Case>,
    /// Number of candidate targets examined.
    pub targets_examined: usize,
}

/// Run Figure 4: search fresh targets until one of each outcome is found
/// (or `max_targets` examined), recording token shifts for the three
/// representatives.
pub fn run(cfg: &FocusedConfig, max_targets: usize) -> Fig4Result {
    let seeds = SeedTree::new(cfg.seed).child("fig4");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.inbox_size, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let tokenizer = Tokenizer::new();
    let mut filter = SpamBayes::new();
    for m in corpus.emails() {
        filter.train(&m.email, m.label);
    }

    let mut found: Vec<(Verdict, Fig4Case)> = Vec::new();
    let mut examined = 0usize;
    for t in 0..max_targets {
        if found.len() == 3 {
            break;
        }
        examined += 1;
        let target = corpus.fresh_ham(t as u64);
        let target_tokens = tokenizer.token_set(&target);
        let target_ids = filter.interner().intern_set(&target_tokens);
        let attack = sb_core::FocusedAttack::new(&target, cfg.fig3_guess_prob, None);
        let mut rng = seeds.child("guess").index(t as u64).rng();
        let guessed = attack.guess_tokens(&mut rng);
        let guessed_ids = filter.interner().intern_set(&guessed);
        let guessed_set: HashSet<&String> = guessed.iter().collect();

        let before_scores: Vec<f64> = target_tokens
            .iter()
            .map(|w| filter.token_score(w))
            .collect();
        let score_before = filter.classify_ids(&target_ids).score;

        filter.train_ids(&guessed_ids, Label::Spam, cfg.fig2_attack_count);
        let after = filter.classify_ids(&target_ids);
        let after_scores: Vec<f64> = target_tokens
            .iter()
            .map(|w| filter.token_score(w))
            .collect();
        filter
            .untrain_ids(&guessed_ids, Label::Spam, cfg.fig2_attack_count)
            .expect("exact untrain");

        if found.iter().any(|(v, _)| *v == after.verdict) {
            continue;
        }
        let mut hist_b = Histogram::new(0.0, 1.0, 20);
        let mut hist_a = Histogram::new(0.0, 1.0, 20);
        let points: Vec<TokenShift> = target_tokens
            .iter()
            .zip(before_scores.iter().zip(after_scores.iter()))
            .map(|(tok, (&b, &a))| {
                hist_b.push(b);
                hist_a.push(a);
                TokenShift {
                    token: tok.clone(),
                    before: b,
                    after: a,
                    in_attack: guessed_set.contains(tok),
                }
            })
            .collect();
        found.push((
            after.verdict,
            Fig4Case {
                outcome: after.verdict,
                score_before,
                score_after: after.score,
                points,
                hist_before: hist_b.counts().to_vec(),
                hist_after: hist_a.counts().to_vec(),
            },
        ));
    }

    // Paper panel order: spam (left), unsure (middle), ham (right).
    let order = [Verdict::Spam, Verdict::Unsure, Verdict::Ham];
    let mut cases = Vec::new();
    for want in order {
        if let Some(pos) = found.iter().position(|(v, _)| *v == want) {
            cases.push(found.remove(pos).1);
        }
    }
    Fig4Result {
        cases,
        targets_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_shifts_match_paper_mechanism() {
        let cfg = FocusedConfig::quick(21);
        let res = run(&cfg, 40);
        assert!(!res.cases.is_empty(), "no cases found");
        for case in &res.cases {
            // "tokens included in the attack typically increase
            // significantly while those not included decrease slightly."
            let included: Vec<&TokenShift> =
                case.points.iter().filter(|p| p.in_attack).collect();
            let excluded: Vec<&TokenShift> =
                case.points.iter().filter(|p| !p.in_attack).collect();
            assert!(!included.is_empty());
            let mean_shift_inc: f64 = included.iter().map(|p| p.after - p.before).sum::<f64>()
                / included.len() as f64;
            assert!(
                mean_shift_inc > 0.05,
                "included tokens should rise: {mean_shift_inc}"
            );
            if !excluded.is_empty() {
                let mean_shift_exc: f64 =
                    excluded.iter().map(|p| p.after - p.before).sum::<f64>()
                        / excluded.len() as f64;
                assert!(
                    mean_shift_exc < mean_shift_inc,
                    "excluded tokens should shift less"
                );
            }
            // Histograms count every token.
            let total: u64 = case.hist_before.iter().sum();
            assert_eq!(total as usize, case.points.len());
        }
    }

    #[test]
    fn attacked_scores_never_decrease_for_included_tokens() {
        let cfg = FocusedConfig::quick(22);
        let res = run(&cfg, 20);
        for case in &res.cases {
            for p in case.points.iter().filter(|p| p.in_attack) {
                assert!(
                    p.after >= p.before - 1e-9,
                    "included token {} fell: {} -> {}",
                    p.token,
                    p.before,
                    p.after
                );
            }
        }
    }
}
