//! Figures 2 and 3: the focused attack.
//!
//! Shared machinery: per repetition, generate a fresh 5,000-message inbox,
//! train the victim filter, then for each of 20 fresh target ham emails run
//! the attack and observe the target's classification. The with/without
//! comparison uses the filter's exact train/untrain pair, so no filter
//! clones are needed.

use crate::config::FocusedConfig;
use crate::runner::TokenizedDataset;
use sb_core::{attack_count_for_fraction, AttackGenerator, FocusedAttack};
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::Label;
use sb_filter::{SpamBayes, Verdict};
use sb_intern::par::parallel_map;
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};

/// One bar of Figure 2: target classification shares after a 300-email
/// focused attack at guess probability `p`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Bar {
    /// The attacker's per-token guess probability.
    pub guess_prob: f64,
    /// Fraction of targets still delivered (ham).
    pub pct_ham: f64,
    /// Fraction of targets in the unsure band.
    pub pct_unsure: f64,
    /// Fraction of targets filtered as spam.
    pub pct_spam: f64,
    /// Number of (repetition × target) attack instances behind the bar.
    pub n: usize,
}

/// Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Result {
    /// Configuration used.
    pub config: FocusedConfig,
    /// One bar per guess probability.
    pub bars: Vec<Fig2Bar>,
}

/// One point of Figure 3: target misclassification vs attack volume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Attack fraction of the training set.
    pub fraction: f64,
    /// Attack emails sent.
    pub n_attack: u32,
    /// Fraction of targets classified spam (dashed line).
    pub pct_spam: f64,
    /// Fraction of targets classified spam or unsure (solid line).
    pub pct_misclassified: f64,
}

/// Figure 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Configuration used.
    pub config: FocusedConfig,
    /// One point per attack fraction, ascending.
    pub points: Vec<Fig3Point>,
}

/// One repetition's shared state.
struct Rep {
    filter: SpamBayes,
    corpus: TrecCorpus,
    tokenizer: Tokenizer,
    seeds: SeedTree,
}

impl Rep {
    fn build(cfg: &FocusedConfig, rep: usize) -> Self {
        let seeds = SeedTree::new(cfg.seed).child("focused").index(rep as u64);
        let corpus = TrecCorpus::generate(
            &CorpusConfig::with_size(cfg.inbox_size, cfg.spam_prevalence),
            seeds.child("corpus").seed(),
        );
        let tokenizer = Tokenizer::new();
        let tokenized = TokenizedDataset::from_dataset(corpus.dataset(), &tokenizer);
        let mut filter = SpamBayes::new();
        for (tokens, label) in tokenized.iter() {
            filter.train_ids(tokens, label, 1);
        }
        Self {
            filter,
            corpus,
            tokenizer,
            seeds,
        }
    }

    /// The `t`-th fresh target and its full interned token set (headers
    /// included: the arriving email is classified in full).
    fn target(&self, t: usize) -> (sb_email::Email, Vec<sb_filter::TokenId>) {
        let email = self.corpus.fresh_ham(t as u64);
        let ids = self.filter.token_ids(&email);
        (email, ids)
    }

    /// A header-donor spam ("the entire header from a randomly selected
    /// spam email", §4.1).
    fn donor(&self, t: usize) -> sb_email::Email {
        let mut rng = self.seeds.child("donor").index(t as u64).rng();
        use rand::Rng;
        let spam_idx = self.corpus.dataset().spam_indices();
        let pick = spam_idx[rng.random_range(0..spam_idx.len())];
        self.corpus.dataset().emails()[pick].email.clone()
    }
}

/// Run Figure 2.
pub fn run_fig2(cfg: &FocusedConfig, threads: usize) -> Fig2Result {
    // rep → per-p verdict counts [ham, unsure, spam]
    let per_rep: Vec<Vec<[usize; 3]>> = parallel_map(cfg.repetitions, threads, |rep| {
        let mut state = Rep::build(cfg, rep);
        let mut counts = vec![[0usize; 3]; cfg.guess_probs.len()];
        for t in 0..cfg.n_targets {
            let (target, target_tokens) = state.target(t);
            let donor = state.donor(t);
            for (pi, &p) in cfg.guess_probs.iter().enumerate() {
                let attack = FocusedAttack::new(&target, p, Some(donor.clone()));
                let mut rng = state
                    .seeds
                    .child("guess")
                    .index(t as u64)
                    .child(&format!("p{pi}"))
                    .rng();
                let batch = attack.generate(cfg.fig2_attack_count, &mut rng);
                let groups =
                    batch.token_id_groups(&state.tokenizer, state.filter.interner());
                for (set, n) in &groups {
                    state.filter.train_ids(set, Label::Spam, *n);
                }
                let verdict = state.filter.classify_ids(&target_tokens).verdict;
                for (set, n) in &groups {
                    state
                        .filter
                        .untrain_ids(set, Label::Spam, *n)
                        .expect("exact untrain");
                }
                let slot = match verdict {
                    Verdict::Ham => 0,
                    Verdict::Unsure => 1,
                    Verdict::Spam => 2,
                };
                counts[pi][slot] += 1;
            }
        }
        counts
    });

    let n = cfg.repetitions * cfg.n_targets;
    let bars = cfg
        .guess_probs
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            let mut total = [0usize; 3];
            for rep in &per_rep {
                for k in 0..3 {
                    total[k] += rep[pi][k];
                }
            }
            Fig2Bar {
                guess_prob: p,
                pct_ham: total[0] as f64 / n as f64,
                pct_unsure: total[1] as f64 / n as f64,
                pct_spam: total[2] as f64 / n as f64,
                n,
            }
        })
        .collect();
    Fig2Result {
        config: cfg.clone(),
        bars,
    }
}

/// Run Figure 3.
pub fn run_fig3(cfg: &FocusedConfig, threads: usize) -> Fig3Result {
    // rep → fraction → [spam_count, misclassified_count]
    let per_rep: Vec<Vec<[usize; 2]>> = parallel_map(cfg.repetitions, threads, |rep| {
        let mut state = Rep::build(cfg, rep);
        let mut counts = vec![[0usize; 2]; cfg.fig3_fractions.len()];
        for t in 0..cfg.n_targets {
            let (target, target_tokens) = state.target(t);
            let donor = state.donor(t);
            let attack = FocusedAttack::new(&target, cfg.fig3_guess_prob, Some(donor));
            // One fixed knowledge draw per (rep, target); the sweep varies
            // only the number of identical attack emails.
            let mut rng = state.seeds.child("guess3").index(t as u64).rng();
            let batch = attack.generate(1, &mut rng);
            let (attack_tokens, _) =
                &batch.token_id_groups(&state.tokenizer, state.filter.interner())[0];

            let mut trained: u32 = 0;
            for (fi, &frac) in cfg.fig3_fractions.iter().enumerate() {
                let want = attack_count_for_fraction(cfg.inbox_size, frac);
                if want > trained {
                    state
                        .filter
                        .train_ids(attack_tokens, Label::Spam, want - trained);
                    trained = want;
                }
                let verdict = state.filter.classify_ids(&target_tokens).verdict;
                if verdict == Verdict::Spam {
                    counts[fi][0] += 1;
                }
                if verdict != Verdict::Ham {
                    counts[fi][1] += 1;
                }
            }
            state
                .filter
                .untrain_ids(attack_tokens, Label::Spam, trained)
                .expect("exact untrain");
        }
        counts
    });

    let n = (cfg.repetitions * cfg.n_targets) as f64;
    let points = cfg
        .fig3_fractions
        .iter()
        .enumerate()
        .map(|(fi, &frac)| {
            let mut spam = 0usize;
            let mut mis = 0usize;
            for rep in &per_rep {
                spam += rep[fi][0];
                mis += rep[fi][1];
            }
            Fig3Point {
                fraction: frac,
                n_attack: attack_count_for_fraction(cfg.inbox_size, frac),
                pct_spam: spam as f64 / n,
                pct_misclassified: mis as f64 / n,
            }
        })
        .collect();
    Fig3Result {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_attack_strengthens_with_knowledge() {
        let cfg = FocusedConfig::quick(7);
        let res = run_fig2(&cfg, 2);
        assert_eq!(res.bars.len(), cfg.guess_probs.len());
        for b in &res.bars {
            let total = b.pct_ham + b.pct_unsure + b.pct_spam;
            assert!((total - 1.0).abs() < 1e-9, "shares must sum to 1: {total}");
        }
        // More knowledge → fewer targets still delivered as ham.
        let first = &res.bars[0];
        let last = &res.bars[res.bars.len() - 1];
        assert!(
            last.pct_ham <= first.pct_ham + 0.05,
            "p={} ham {} vs p={} ham {}",
            first.guess_prob,
            first.pct_ham,
            last.guess_prob,
            last.pct_ham
        );
        // At p=0.9 with a 6% attack the target should usually be filtered.
        assert!(
            last.pct_spam + last.pct_unsure > 0.5,
            "high-knowledge attack too weak: {last:?}"
        );
    }

    #[test]
    fn fig3_attack_strengthens_with_volume() {
        let cfg = FocusedConfig::quick(8);
        let res = run_fig3(&cfg, 2);
        assert_eq!(res.points.len(), cfg.fig3_fractions.len());
        let mut prev = -1.0;
        for p in &res.points {
            assert!(p.pct_misclassified >= p.pct_spam - 1e-12);
            assert!(
                p.pct_misclassified >= prev - 0.1,
                "not roughly monotone at {}",
                p.fraction
            );
            prev = p.pct_misclassified;
        }
        let last = res.points.last().unwrap();
        assert!(
            last.pct_misclassified > 0.3,
            "10% focused attack too weak: {}",
            last.pct_misclassified
        );
    }
}
