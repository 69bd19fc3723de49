//! Extension experiment: the optimal constrained attack (§3.4 future work).
//!
//! The paper sketches a spectrum between the dictionary attack (uniform
//! knowledge, enormous emails) and the focused attack (exact knowledge,
//! tiny emails) and predicts that a distribution `p` over the victim's
//! words yields an optimal attack under a size budget. This experiment
//! measures that prediction: at a fixed attack fraction, sweep the token
//! budget `B` and compare three word sources —
//!
//! * **constrained** — the `B` most probable words of knowledge estimated
//!   from a sample of the victim's ham (the attacker "knows the jargon");
//! * **usenet-B** — the top `B` words of the generic Usenet ranking;
//! * **aspell-B** — the first `B` words of the unranked dictionary (the
//!   weakest, knowledge-free source).
//!
//! Expected shape: at small budgets the informed source does the most
//! damage per token; as `B` grows, the sources converge (everything ends
//! up included) — the quantitative version of the paper's "more compact
//! attack that is also optimal" argument.

use crate::config::ConstrainedConfig;
use crate::metrics::{Confusion, RateSummary};
use crate::runner::TokenizedDataset;
use sb_core::{attack_count_for_fraction, estimate_knowledge, AttackContext, ConstrainedAttack};
use sb_corpus::{CorpusConfig, KFold, TrecCorpus};
use sb_email::Label;
use sb_filter::SpamBayes;
use sb_intern::par::parallel_map;
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The word sources compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WordSource {
    /// Victim-informed, expected-gain ranking (the optimal greedy
    /// budgeted attack — see `sb_core::constrained`).
    ConstrainedGain,
    /// Victim-informed, naive probability ranking (the obvious but
    /// suboptimal reading of §3.4).
    Constrained,
    /// Generic ranked: Usenet top-B.
    UsenetTop,
    /// Generic unranked: the Aspell surrogate's first B entries.
    AspellPrefix,
}

impl WordSource {
    /// All sources in display order.
    pub const ALL: [WordSource; 4] = [
        WordSource::ConstrainedGain,
        WordSource::Constrained,
        WordSource::UsenetTop,
        WordSource::AspellPrefix,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WordSource::ConstrainedGain => "constrained-gain",
            WordSource::Constrained => "constrained-prob",
            WordSource::UsenetTop => "usenet-top",
            WordSource::AspellPrefix => "aspell-prefix",
        }
    }
}

/// One (source, budget) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstrainedPoint {
    /// Word source.
    pub source: WordSource,
    /// Token budget.
    pub budget: usize,
    /// Words actually available at this budget (knowledge support can be
    /// smaller than the budget).
    pub words_used: usize,
    /// % of test ham misclassified (spam or unsure) across folds.
    pub ham_misclassified: RateSummary,
}

/// Full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstrainedResult {
    /// Configuration used.
    pub config: ConstrainedConfig,
    /// All cells.
    pub points: Vec<ConstrainedPoint>,
}

impl ConstrainedResult {
    /// Look up a cell.
    pub fn point(&self, source: WordSource, budget: usize) -> Option<&ConstrainedPoint> {
        self.points
            .iter()
            .find(|p| p.source == source && p.budget == budget)
    }
}

/// Run the budget sweep.
pub fn run(cfg: &ConstrainedConfig, threads: usize) -> ConstrainedResult {
    let seeds = SeedTree::new(cfg.seed).child("constrained");
    let corpus = TrecCorpus::generate(
        &CorpusConfig::with_size(cfg.train_size, cfg.spam_prevalence),
        seeds.child("corpus").seed(),
    );
    let tokenizer = Tokenizer::new();
    let tokenized = TokenizedDataset::from_dataset(corpus.dataset(), &tokenizer);
    let kfold = KFold::new(cfg.train_size, cfg.folds, &mut seeds.child("folds").rng());

    // The attacker's observation: fresh ham from the victim's distribution
    // (not the training set itself — the attacker reads mail they were sent
    // or scraped, not the victim's archive).
    let observed: Vec<sb_email::Email> =
        (0..cfg.observed_ham).map(|i| corpus.fresh_ham(1_000_000 + i as u64)).collect();
    let knowledge = estimate_knowledge(&observed, &tokenizer, 2);

    // The gain model assumes the per-fold training-set shape.
    let fold_train = cfg.train_size - cfg.train_size / cfg.folds;
    let ctx = AttackContext::typical(
        fold_train,
        attack_count_for_fraction(fold_train, cfg.attack_fraction),
    );

    // Pre-build every (source, budget) attack token set once.
    let usenet_full = sb_corpus::usenet_top(*cfg.budgets.iter().max().expect("budgets nonempty"));
    let aspell_full = sb_corpus::aspell_dictionary();
    let mut cells: Vec<(WordSource, usize, Arc<Vec<sb_filter::TokenId>>)> = Vec::new();
    for &budget in &cfg.budgets {
        for source in WordSource::ALL {
            let words: Vec<String> = match source {
                WordSource::ConstrainedGain => {
                    ConstrainedAttack::damage_ranked(&knowledge, &ctx, budget)
                        .words()
                        .to_vec()
                }
                WordSource::Constrained => {
                    ConstrainedAttack::new(&knowledge, budget).words().to_vec()
                }
                WordSource::UsenetTop => {
                    usenet_full.iter().take(budget).cloned().collect()
                }
                WordSource::AspellPrefix => {
                    aspell_full.iter().take(budget).cloned().collect()
                }
            };
            cells.push((source, budget, Arc::new(tokenized.intern_set(&words))));
        }
    }

    // fold → cell → confusion
    let per_fold: Vec<Vec<Confusion>> = parallel_map(cfg.folds, threads, |fold| {
        let train_idx = kfold.train_indices(fold);
        let test_idx = kfold.test_indices(fold);
        let n_attack = attack_count_for_fraction(train_idx.len(), cfg.attack_fraction);

        cells
            .iter()
            .map(|(_, _, lexicon)| {
                let mut filter = SpamBayes::new();
                for (tokens, label) in tokenized.select(&train_idx) {
                    filter.train_ids(tokens, label, 1);
                }
                filter.train_ids(lexicon, Label::Spam, n_attack);
                let mut conf = Confusion::new();
                for (tokens, label) in tokenized.select(test_idx) {
                    conf.record(label, filter.classify_ids(tokens).verdict);
                }
                conf
            })
            .collect()
    });

    let points = cells
        .iter()
        .enumerate()
        .map(|(ci, (source, budget, words))| {
            let rates: Vec<f64> = per_fold.iter().map(|f| f[ci].ham_misclassified()).collect();
            ConstrainedPoint {
                source: *source,
                budget: *budget,
                words_used: words.len(),
                ham_misclassified: RateSummary::from_rates(&rates),
            }
        })
        .collect();

    ConstrainedResult {
        config: cfg.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informed_sources_beat_generic_at_equal_budget() {
        let cfg = ConstrainedConfig::quick(51);
        let res = run(&cfg, 2);
        let b = cfg.budgets[1]; // the mid budget: all sources measurable
        let gain = res.point(WordSource::ConstrainedGain, b).unwrap();
        let prob = res.point(WordSource::Constrained, b).unwrap();
        let usenet = res.point(WordSource::UsenetTop, b).unwrap();
        let aspell = res.point(WordSource::AspellPrefix, b).unwrap();
        let informed_floor = gain.ham_misclassified.mean.min(prob.ham_misclassified.mean);
        let generic_ceil = usenet.ham_misclassified.mean.max(aspell.ham_misclassified.mean);
        // §3.4's knowledge-value claim: victim knowledge buys damage per
        // token, whichever informed ranking is used.
        assert!(
            informed_floor > generic_ceil + 0.1,
            "informed ({informed_floor}) must clearly beat generic ({generic_ceil}) at budget {b}"
        );
    }

    #[test]
    fn informed_saturation_still_beats_bigger_generic() {
        // At the largest budget the informed sources run out of observed
        // vocabulary but still match or beat full-size generic slices —
        // the "smaller emails without losing much effectiveness" claim of
        // §3.2 applied to §3.4.
        let cfg = ConstrainedConfig::quick(54);
        let res = run(&cfg, 2);
        let b = *cfg.budgets.last().unwrap();
        let prob = res.point(WordSource::Constrained, b).unwrap();
        let aspell = res.point(WordSource::AspellPrefix, b).unwrap();
        assert!(prob.words_used < aspell.words_used);
        assert!(
            prob.ham_misclassified.mean > aspell.ham_misclassified.mean - 0.05,
            "saturated informed source fell behind: {} vs {}",
            prob.ham_misclassified.mean,
            aspell.ham_misclassified.mean
        );
    }

    #[test]
    fn damage_is_monotone_in_budget_for_ranked_sources() {
        let cfg = ConstrainedConfig::quick(52);
        let res = run(&cfg, 2);
        for source in [WordSource::ConstrainedGain, WordSource::UsenetTop] {
            let mut last = -1.0;
            for &b in &cfg.budgets {
                let p = res.point(source, b).unwrap();
                assert!(
                    p.ham_misclassified.mean >= last - 0.05,
                    "{}: damage dropped hard with budget {b}",
                    source.name()
                );
                last = p.ham_misclassified.mean;
            }
        }
    }

    #[test]
    fn words_used_respects_support() {
        let cfg = ConstrainedConfig::quick(53);
        let res = run(&cfg, 2);
        for p in &res.points {
            assert!(p.words_used <= p.budget);
        }
        // The biggest constrained budget exceeds the knowledge support.
        let big = *cfg.budgets.iter().max().unwrap();
        let p = res.point(WordSource::Constrained, big).unwrap();
        assert!(p.words_used < big, "support should cap the informed source");
    }
}
