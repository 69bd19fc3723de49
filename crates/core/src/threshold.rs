//! The dynamic threshold defense (§5.2).
//!
//! Distribution-shifting attacks raise *every* score — ham and spam alike —
//! so fixed thresholds (θ0 = 0.15, θ1 = 0.9) misfire while the score
//! *ranking* often survives. This defense re-derives the thresholds from
//! the (possibly contaminated) training data itself:
//!
//! 1. split the training set in half;
//! 2. train a filter `F` on one half, score the other half (validation `V`);
//! 3. with `g(t) = NS,<(t) / (NS,<(t) + NH,>(t))` — `NS,<(t)` spam in `V`
//!    scoring below `t`, `NH,>(t)` ham above `t` — pick θ0 with
//!    `g(θ0) ≈ glow` and θ1 with `g(θ1) ≈ 1 − glow`, for `glow` ∈
//!    {0.05, 0.10} (the paper's Threshold-.05 / Threshold-.10 variants).
//!
//! The deployed classifier is `F` with the recalibrated thresholds, exactly
//! as the paper describes (the filter itself is not retrained on the full
//! set): [`calibrate`] returns that `SpamBayes`, with θ0/θ1 as the
//! `ham_cutoff`/`spam_cutoff` of its [`FilterOptions`]. It classifies,
//! checkpoints and restores like any other filter.

use sb_email::Label;
use sb_filter::{FilterOptions, SpamBayes};
use sb_intern::{FxHashMap, TokenId};
use sb_stats::rng::Xoshiro256pp;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One training item: an interned token set (shared for identical attack
/// emails) and its training label.
#[derive(Debug, Clone)]
pub struct TrainItem {
    /// The deduplicated, interned token set.
    pub ids: Arc<Vec<TokenId>>,
    /// The (possibly attacker-chosen) training label.
    pub label: Label,
}

impl TrainItem {
    /// Convenience constructor: interns the token set on the global table.
    pub fn new(tokens: Vec<String>, label: Label) -> Self {
        Self {
            ids: Arc::new(sb_intern::Interner::global().intern_set(&tokens)),
            label,
        }
    }

    /// Constructor from an already-interned (shared) id set.
    pub fn from_ids(ids: Arc<Vec<TokenId>>, label: Label) -> Self {
        Self { ids, label }
    }
}

/// Defense configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdConfig {
    /// The utility target `glow`: θ0 aims at `g(θ0) = glow`, θ1 at
    /// `g(θ1) = 1 − glow`. Paper variants: 0.05 and 0.10.
    pub g_low: f64,
}

impl ThresholdConfig {
    /// The paper's Threshold-.05 variant.
    pub fn strict() -> Self {
        Self { g_low: 0.05 }
    }

    /// The paper's Threshold-.10 variant.
    pub fn loose() -> Self {
        Self { g_low: 0.10 }
    }
}

/// Calibrate a dynamic-threshold filter from (possibly contaminated)
/// training items: `F`, trained on one half, with `opts`' cutoffs
/// replaced by the θ0/θ1 its scores on the other half select.
pub fn calibrate(
    items: &[TrainItem],
    cfg: ThresholdConfig,
    opts: FilterOptions,
    rng: &mut Xoshiro256pp,
) -> SpamBayes {
    assert!(items.len() >= 4, "need at least 4 training items to split");
    assert!((0.0..0.5).contains(&cfg.g_low), "g_low must be in (0, 0.5)");
    let (train_half, val_half) = sb_corpus::split_half(items.len(), rng);

    let mut filter = SpamBayes::new();
    filter.set_options(opts);
    // Identical attack emails share one Arc'd token set; group by pointer so
    // k copies train via the O(|set|) multiplicity path instead of k scans.
    // (Grouping changes nothing semantically: counts are additive.)
    let mut groups: FxHashMap<(*const Vec<TokenId>, Label), u32> = FxHashMap::default();
    for &i in &train_half {
        *groups
            .entry((Arc::as_ptr(&items[i].ids), items[i].label))
            .or_insert(0) += 1;
    }
    // Deterministic training order (counts are additive, but keep ordered
    // iteration anyway so debugging dumps are stable).
    let mut ordered: Vec<(usize, u32)> = Vec::new();
    let mut seen: FxHashMap<(*const Vec<TokenId>, Label), ()> = FxHashMap::default();
    for &i in &train_half {
        let key = (Arc::as_ptr(&items[i].ids), items[i].label);
        if seen.insert(key, ()).is_none() {
            ordered.push((i, groups[&key]));
        }
    }
    for (i, count) in ordered {
        filter.train_ids(&items[i].ids, items[i].label, count);
    }

    // Score the validation half: deduplicate by shared token set
    // (identical attack instances score once and count per instance in
    // g(t)), then classify the distinct sets through the parallel batch
    // API — the score cache shares each token's f(w) across workers.
    let mut uniq: Vec<Arc<Vec<TokenId>>> = Vec::new();
    let mut slot_of: FxHashMap<*const Vec<TokenId>, usize> = FxHashMap::default();
    for &i in &val_half {
        slot_of
            .entry(Arc::as_ptr(&items[i].ids))
            .or_insert_with(|| {
                uniq.push(Arc::clone(&items[i].ids));
                uniq.len() - 1
            });
    }
    let uniq_scores = filter.classify_ids_batch(&uniq);
    let mut scored: Vec<(f64, Label)> = val_half
        .iter()
        .map(|&i| {
            let slot = slot_of[&Arc::as_ptr(&items[i].ids)];
            (uniq_scores[slot].score, items[i].label)
        })
        .collect();
    // sb-lint: allow(panic-path, "classifier scores are finite log-sums; partial_cmp never sees NaN")
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores are finite"));

    let (theta0, theta1) = select_thresholds(&scored, cfg.g_low);
    filter.set_options(opts.with_cutoffs(theta0, theta1));
    filter
}

/// Evaluate `g(t)` on candidate thresholds and pick (θ0, θ1).
///
/// Candidates are midpoints between consecutive distinct scores plus the
/// boundaries 0 and 1. `g` is monotone non-decreasing in `t`, so θ0 is the
/// largest candidate with `g ≤ g_low` and θ1 the smallest with
/// `g ≥ 1 − g_low`.
fn select_thresholds(scored_asc: &[(f64, Label)], g_low: f64) -> (f64, f64) {
    let n_spam = scored_asc.iter().filter(|(_, l)| *l == Label::Spam).count();
    let n_ham = scored_asc.len() - n_spam;
    if n_spam == 0 || n_ham == 0 {
        // Degenerate validation split: keep SpamBayes defaults.
        return (0.15, 0.9);
    }
    let mut candidates = vec![0.0f64];
    for w in scored_asc.windows(2) {
        if w[1].0 > w[0].0 {
            candidates.push((w[0].0 + w[1].0) / 2.0);
        }
    }
    candidates.push(1.0);

    // g(t); None when no spam falls below t and no ham above it — a
    // perfectly separating threshold, which qualifies for both θ0 and θ1.
    let g = |t: f64| -> Option<f64> {
        let spam_below = scored_asc
            .iter()
            .filter(|(s, l)| *l == Label::Spam && *s < t)
            .count();
        let ham_above = scored_asc
            .iter()
            .filter(|(s, l)| *l == Label::Ham && *s > t)
            .count();
        let denom = spam_below + ham_above;
        if denom == 0 {
            None
        } else {
            Some(spam_below as f64 / denom as f64)
        }
    };

    let mut theta0 = 0.0f64;
    for &t in &candidates {
        if g(t).is_none_or(|v| v <= g_low) {
            theta0 = theta0.max(t);
        }
    }
    let mut theta1 = 1.0f64;
    for &t in candidates.iter().rev() {
        if g(t).is_none_or(|v| v >= 1.0 - g_low) {
            theta1 = theta1.min(t);
        }
    }
    if theta0 > theta1 {
        let mid = (theta0 + theta1) / 2.0;
        (mid, mid)
    } else {
        (theta0, theta1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_corpus::{CorpusConfig, TrecCorpus};
    use sb_filter::Verdict;
    use sb_tokenizer::Tokenizer;

    fn items_from_corpus(n: usize, seed: u64) -> Vec<TrainItem> {
        let corpus = TrecCorpus::generate(&CorpusConfig::with_size(n, 0.5), seed);
        let tk = Tokenizer::new();
        corpus
            .emails()
            .iter()
            .map(|m| TrainItem::new(tk.token_set(&m.email), m.label))
            .collect()
    }

    #[test]
    fn clean_data_yields_ordered_thresholds() {
        let items = items_from_corpus(400, 5);
        let mut rng = Xoshiro256pp::new(1);
        let cal = calibrate(&items, ThresholdConfig::strict(), FilterOptions::default(), &mut rng);
        let (t0, t1) = (cal.options().ham_cutoff, cal.options().spam_cutoff);
        assert!(t0 <= t1);
        assert!((0.0..=1.0).contains(&t0));
        assert!((0.0..=1.0).contains(&t1));
    }

    #[test]
    fn calibrated_filter_still_separates_clean_traffic() {
        let items = items_from_corpus(400, 6);
        let mut rng = Xoshiro256pp::new(2);
        let cal = calibrate(&items, ThresholdConfig::loose(), FilterOptions::default(), &mut rng);
        let corpus = TrecCorpus::generate(&CorpusConfig::with_size(400, 0.5), 6);
        let tk = Tokenizer::new();
        let fresh_ham = corpus.fresh_ham(3);
        let fresh_spam = corpus.fresh_spam(3);
        let vh = cal.classify_tokens(&tk.token_set(&fresh_ham)).verdict;
        let vs = cal.classify_tokens(&tk.token_set(&fresh_spam)).verdict;
        assert_ne!(vh, Verdict::Spam, "clean ham must not be filtered");
        assert_ne!(vs, Verdict::Ham, "clean spam must not reach the inbox");
    }

    #[test]
    fn select_thresholds_on_well_separated_scores() {
        // 10 ham at low scores, 10 spam at high scores.
        let mut scored: Vec<(f64, Label)> = (0..10)
            .map(|i| (0.01 * i as f64, Label::Ham))
            .chain((0..10).map(|i| (0.9 + 0.01 * i as f64, Label::Spam)))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let (t0, t1) = select_thresholds(&scored, 0.05);
        // Any threshold in the gap (0.09, 0.9) separates perfectly;
        // θ0 must sit above all ham, θ1 below all spam… conservatively:
        assert!(t0 >= 0.09 - 1e-9, "t0 = {t0}");
        assert!(t1 <= 0.91 + 1e-9, "t1 = {t1}");
        assert!(t0 <= t1);
    }

    #[test]
    fn shifted_scores_still_yield_separating_thresholds() {
        // Simulates the attack's distribution shift: ham now scores
        // 0.50–0.69, spam 0.66–0.98 (overlapping, as post-attack scores
        // are). Static thresholds (0.15/0.9) would filter every ham;
        // dynamic ones must move up and keep an unsure band.
        let mut scored: Vec<(f64, Label)> = (0..20)
            .map(|i| (0.5 + 0.01 * i as f64, Label::Ham))
            .chain((0..20).map(|i| (0.66 + 0.017 * i as f64, Label::Spam)))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let (t0, t1) = select_thresholds(&scored, 0.10);
        // The thresholds must move far above the static 0.15.
        assert!(t0 > 0.4, "θ0 = {t0} did not adapt");
        assert!(t1 >= t0);
        assert!(t1 < 1.0, "θ1 = {t1} did not adapt");
    }

    #[test]
    fn degenerate_single_class_validation_falls_back() {
        let scored: Vec<(f64, Label)> = (0..10).map(|i| (0.1 * i as f64, Label::Ham)).collect();
        let (t0, t1) = select_thresholds(&scored, 0.05);
        assert_eq!((t0, t1), (0.15, 0.9));
    }

    #[test]
    fn strict_variant_has_wider_unsure_band_than_loose() {
        // Threshold-.05 "has a wider range for unsure messages than the
        // Threshold-.10 variation" (Fig. 5 caption).
        let items = items_from_corpus(400, 7);
        let strict = calibrate(
            &items,
            ThresholdConfig::strict(),
            FilterOptions::default(),
            &mut Xoshiro256pp::new(3),
        );
        let loose = calibrate(
            &items,
            ThresholdConfig::loose(),
            FilterOptions::default(),
            &mut Xoshiro256pp::new(3),
        );
        let strict_band = strict.options().spam_cutoff - strict.options().ham_cutoff;
        let loose_band = loose.options().spam_cutoff - loose.options().ham_cutoff;
        assert!(
            strict_band >= loose_band - 1e-9,
            "strict band {strict_band} vs loose {loose_band}"
        );
    }

    #[test]
    #[should_panic]
    fn too_few_items_rejected() {
        let mut rng = Xoshiro256pp::new(4);
        let _ = calibrate(
            &[TrainItem::new(vec!["a".into()], Label::Ham)],
            ThresholdConfig::strict(),
            FilterOptions::default(),
            &mut rng,
        );
    }
}
