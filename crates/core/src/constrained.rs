//! The optimal *constrained* attack — §3.4's "future work", built.
//!
//! The paper observes that real attackers sit between the dictionary
//! extreme (uniform knowledge → send everything) and the focused extreme
//! (exact knowledge → send the target's words), and that a knowledge
//! distribution `p` over words should yield an optimal attack under a size
//! budget. This module supplies both halves:
//!
//! * [`estimate_knowledge`] builds a [`WordKnowledge`] from a *sample of
//!   ham the attacker has seen* (empirical per-word appearance
//!   frequencies — "characteristic vocabulary or jargon typical of the
//!   victim"), optionally blended with a base lexicon prior;
//! * [`ConstrainedAttack`] is an [`AttackGenerator`] that sends the `B`
//!   most probable words under that knowledge — by the paper's own
//!   monotonicity argument (token scores don't interact; `I` is monotone in
//!   each `f(w)`), this maximizes the expected spam score of the victim's
//!   next email among all `B`-word attacks.
//!
//! The `constrained` experiment sweeps `B` and shows the efficiency claim
//! the paper sketches: victim-informed budgets reach a given damage level
//! with far fewer tokens than rank-truncated generic dictionaries.
//!
//! ## Which ranking? Two candidates, measured
//!
//! The paper's monotonicity argument says more words never hurt; it does
//! not say which words to keep when only `B` fit. Two rankings are
//! provided and compared by the `constrained` experiment:
//!
//! * **probability ranking** ([`ConstrainedAttack::new`]) — "most probable
//!   words first", the obvious reading of §3.4;
//! * **expected-gain ranking** ([`ConstrainedAttack::damage_ranked`]) —
//!   rank by predicted per-token *evidence shift* under Eq. 1–2, which
//!   correctly identifies the poisonable mid-frequency band: ubiquitous
//!   ham words are pinned below 0.5 by Eq. 1's normalization and score
//!   zero gain (see [`AttackContext`]).
//!
//! The measured outcome is more interesting than either story alone. The
//! gain model's *token-level* predictions hold (its picks flip to spam
//! evidence; probability ranking's head picks never cross 0.5). But at the
//! *message* level, probability ranking does as well or better once the
//! budget is non-tiny: neutralizing the head — dragging every common word
//! from strong ham evidence toward the excluded band — removes more of the
//! ham side of Fisher's ledger than a smaller flipped portfolio adds to
//! the spam side (the per-token model underestimates head damage because
//! it assumes words start with no spam sightings). Both informed rankings
//! beat equal-budget generic dictionaries by a wide margin, which is the
//! §3.4 knowledge-value claim this module exists to test.

use crate::attack::{build_attack_email, AttackBatch, AttackGenerator, HeaderMode};
use crate::optimal::WordKnowledge;
use crate::taxonomy::AttackClass;
use sb_email::Email;
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;
use sb_intern::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Estimate attacker knowledge from an observed ham sample: the empirical
/// probability that each token appears in a message. `min_support` drops
/// tokens seen in fewer messages than that (they carry more noise than
/// signal for small samples).
pub fn estimate_knowledge(
    sample: &[Email],
    tokenizer: &Tokenizer,
    min_support: usize,
) -> WordKnowledge {
    let mut seen_in: FxHashMap<String, usize> = FxHashMap::default();
    for email in sample {
        for token in tokenizer.token_set(email) {
            *seen_in.entry(token).or_insert(0) += 1;
        }
    }
    let n = sample.len().max(1) as f64;
    let mut k = WordKnowledge::none();
    for (token, count) in seen_in {
        if count >= min_support {
            k.set(token, count as f64 / n);
        }
    }
    k
}

/// Blend empirical victim knowledge with a generic lexicon prior:
/// `α·empirical + (1−α)·uniform(lexicon, base_prob)`. Models an attacker
/// who has seen *some* victim mail but hedges with general English.
pub fn blend_with_lexicon(
    empirical: &WordKnowledge,
    lexicon: &[String],
    base_prob: f64,
    alpha: f64,
) -> WordKnowledge {
    let prior = WordKnowledge::uniform(lexicon, base_prob);
    empirical.interpolate(&prior, alpha)
}

/// What the attacker assumes about the victim's training state when
/// predicting a word's poisonability.
///
/// For a word appearing in fraction `q` of the victim's ham,
/// [`AttackContext::expected_gain`] predicts its Eq. 1–2 score before the
/// attack (no spam sightings) and after (every attack email contains it),
/// maps both through a saturating **evidence value** — the clamped distance
/// from 0.5 in units of the δ(E) exclusion band, `clamp((f − 0.5)/min_dev,
/// −1, 1)` — and weights the evidence shift by `q`, the probability the
/// word occurs in the message being protected/attacked. The evidence
/// mapping is what makes the model faithful to Fisher's method: a token
/// whose score moves from 0.0005 to 0.04 is still exactly as strong a ham
/// clue as before, so raw f-shift overvalues ubiquitous words; what counts
/// is leaving the ham-evidence region, crossing the exclusion band, and
/// emerging as spam evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackContext {
    /// Assumed ham messages in the victim's training set.
    pub n_ham: f64,
    /// Assumed spam messages in the victim's training set.
    pub n_spam: f64,
    /// Attack emails the attacker will send.
    pub attack_count: f64,
    /// Robinson prior strength `s` (SpamBayes default 0.45).
    pub prior_strength: f64,
    /// Robinson prior belief `x` (SpamBayes default 0.5).
    pub prior_prob: f64,
    /// Half-width of the δ(E) exclusion band (SpamBayes default 0.1).
    pub min_dev: f64,
}

impl AttackContext {
    /// Context for an attack of `attack_count` emails against a training
    /// set of `n` messages at 50% spam, with SpamBayes constants.
    pub fn typical(training_set_size: usize, attack_count: u32) -> Self {
        Self {
            n_ham: training_set_size as f64 / 2.0,
            n_spam: training_set_size as f64 / 2.0,
            attack_count: f64::from(attack_count),
            prior_strength: 0.45,
            prior_prob: 0.5,
            min_dev: 0.1,
        }
    }

    /// Smoothed token score f(w) from Eq. 1–2 for a word with `nh_w` ham
    /// sightings and `ns_w` spam sightings under (`n_ham`, `n_spam`)
    /// class totals.
    fn f_score(&self, nh_w: f64, ns_w: f64, n_spam: f64) -> f64 {
        let ps = if nh_w == 0.0 && ns_w == 0.0 {
            self.prior_prob
        } else {
            let num = self.n_ham * ns_w;
            let den = num + n_spam * nh_w;
            if den == 0.0 {
                self.prior_prob
            } else {
                num / den
            }
        };
        let n_w = nh_w + ns_w;
        (self.prior_strength * self.prior_prob + n_w * ps) / (self.prior_strength + n_w)
    }

    /// The saturating evidence value of a token score: −1 (strong ham
    /// clue) to +1 (strong spam clue), linear across the exclusion band.
    fn evidence(&self, f: f64) -> f64 {
        ((f - 0.5) / self.min_dev).clamp(-1.0, 1.0)
    }

    /// Expected damage of including a word that appears in fraction `q`
    /// of the victim's ham: `q · (evidence_after − evidence_before) / 2`,
    /// in `[0, 1]`.
    ///
    /// Unimodal in `q`: rare words flip completely but rarely matter;
    /// ubiquitous words always matter but Eq. 1's per-class normalization
    /// keeps them ham evidence no matter how hard they are attacked; the
    /// sweet spot is the mid-frequency band, whose width scales with the
    /// attack size.
    pub fn expected_gain(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q));
        let nh_w = q * self.n_ham;
        let before = self.f_score(nh_w, 0.0, self.n_spam);
        let after = self.f_score(nh_w, self.attack_count, self.n_spam + self.attack_count);
        q * (self.evidence(after) - self.evidence(before)) / 2.0
    }

    /// The `budget` words with the highest expected gain under this
    /// context. Ties break by word string for determinism.
    pub fn rank(&self, knowledge: &WordKnowledge, budget: usize) -> Vec<String> {
        let mut scored: Vec<(&str, f64)> = knowledge
            .iter()
            .map(|(w, q)| (w, self.expected_gain(q)))
            .filter(|&(_, g)| g > 0.0)
            .collect();
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("gains are finite")
                .then_with(|| a.0.cmp(b.0))
        });
        scored.truncate(budget);
        scored.into_iter().map(|(w, _)| w.to_owned()).collect()
    }
}

/// The §3.4 optimal attack under a token budget, as a reusable generator.
#[derive(Debug, Clone)]
pub struct ConstrainedAttack {
    words: Arc<Vec<String>>,
    prototype: Email,
    budget: usize,
    label: String,
}

impl ConstrainedAttack {
    /// Build the attack with naive probability ranking: the `budget` most
    /// probable words under `knowledge`. Kept for comparison — see the
    /// module docs for why [`ConstrainedAttack::damage_ranked`] dominates.
    pub fn new(knowledge: &WordKnowledge, budget: usize) -> Self {
        let words = knowledge.optimal_attack(Some(budget));
        Self::from_words(words, budget, format!("constrained-{budget}"))
    }

    /// Build the attack with expected-gain ranking under `ctx` — the
    /// optimal greedy budgeted attack (module docs).
    pub fn damage_ranked(knowledge: &WordKnowledge, ctx: &AttackContext, budget: usize) -> Self {
        let words = ctx.rank(knowledge, budget);
        Self::from_words(words, budget, format!("constrained-gain-{budget}"))
    }

    fn from_words(words: Vec<String>, budget: usize, label: String) -> Self {
        let prototype = build_attack_email(&words, &HeaderMode::Empty);
        Self {
            words: Arc::new(words),
            prototype,
            budget,
            label,
        }
    }

    /// The selected attack words (most probable first).
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// The token budget requested (the realized word count may be smaller
    /// when the knowledge support is smaller than the budget).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The shared attack-email prototype.
    pub fn prototype(&self) -> &Email {
        &self.prototype
    }
}

impl AttackGenerator for ConstrainedAttack {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn class(&self) -> AttackClass {
        // Knowledge in between the extremes: still an availability attack
        // against a broad class of (victim-like) mail.
        AttackClass::causative_availability_indiscriminate()
    }

    fn generate(&self, n: u32, _rng: &mut Xoshiro256pp) -> AttackBatch {
        AttackBatch::new(vec![(self.prototype.clone(), n)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham(words: &[&str]) -> Email {
        Email::builder().body(words.join(" ")).build()
    }

    fn sample() -> Vec<Email> {
        // "budget" in 4/4 messages, "ledger" in 2/4, "quarterly" in 1/4.
        vec![
            ham(&["budget", "ledger", "quarterly"]),
            ham(&["budget", "ledger", "sync"]),
            ham(&["budget", "notes"]),
            ham(&["budget", "agenda"]),
        ]
    }

    #[test]
    fn estimates_empirical_frequencies() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        assert!((k.prob("budget") - 1.0).abs() < 1e-12);
        assert!((k.prob("ledger") - 0.5).abs() < 1e-12);
        assert!((k.prob("quarterly") - 0.25).abs() < 1e-12);
        assert_eq!(k.prob("neverseen"), 0.0);
    }

    #[test]
    fn min_support_prunes_rare_tokens() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 2);
        assert!(k.prob("budget") > 0.0);
        assert!(k.prob("ledger") > 0.0);
        assert_eq!(k.prob("quarterly"), 0.0, "support-1 token must be pruned");
    }

    #[test]
    fn empty_sample_yields_no_knowledge() {
        let k = estimate_knowledge(&[], &Tokenizer::new(), 1);
        assert_eq!(k.support_size(), 0);
    }

    #[test]
    fn budget_orders_by_probability() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        let atk = ConstrainedAttack::new(&k, 2);
        assert_eq!(atk.words()[0], "budget");
        assert_eq!(atk.words()[1], "ledger");
        assert_eq!(atk.words().len(), 2);
    }

    #[test]
    fn budget_larger_than_support_takes_everything() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        let atk = ConstrainedAttack::new(&k, 10_000);
        assert!(atk.words().len() < 10_000);
        assert!(atk.words().len() >= 6); // budget..agenda + sync + notes
    }

    #[test]
    fn generator_contract() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        let atk = ConstrainedAttack::new(&k, 3);
        let batch = atk.generate(7, &mut Xoshiro256pp::new(1));
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.groups().len(), 1);
        assert!(batch.groups()[0].0.has_empty_headers());
        assert_eq!(atk.name(), "constrained-3");
    }

    #[test]
    fn blending_hedges_with_lexicon() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        let lexicon: Vec<String> = vec!["generic".into(), "budget".into()];
        let blended = blend_with_lexicon(&k, &lexicon, 0.1, 0.5);
        // "budget": 0.5·1.0 + 0.5·0.1 = 0.55; "generic": 0.5·0.1 = 0.05.
        assert!((blended.prob("budget") - 0.55).abs() < 1e-12);
        assert!((blended.prob("generic") - 0.05).abs() < 1e-12);
        // Victim-specific words outrank generic ones under any budget.
        let atk = ConstrainedAttack::new(&blended, 1);
        assert_eq!(atk.words(), ["budget"]);
    }

    #[test]
    fn expected_gain_is_unimodal_and_bounded() {
        // 20 attack emails against a 1,000-message set: the poisonable
        // band sits around q ≈ 2–4% (PS_after crosses 0.5 at
        // q = a(1 − …)/NS′ ≈ 0.03).
        let ctx = AttackContext::typical(1_000, 20);
        // Zero at the extremes: q = 0 never occurs; q = 1 is pinned as ham
        // evidence by Eq. 1's normalization however hard it is attacked.
        assert_eq!(ctx.expected_gain(0.0), 0.0);
        assert!(ctx.expected_gain(1.0).abs() < 1e-12, "{}", ctx.expected_gain(1.0));
        // Positive in the poisonable band…
        let mid = ctx.expected_gain(0.03);
        assert!(mid > 0.01, "{mid}");
        // …which beats both the head and the deep tail.
        assert!(mid > ctx.expected_gain(0.9));
        assert!(mid > ctx.expected_gain(0.0005));
        // Bounded by q.
        for q in [0.001, 0.01, 0.05, 0.2, 0.7] {
            let g = ctx.expected_gain(q);
            assert!((0.0..=q).contains(&g), "gain {g} out of [0, {q}]");
        }
    }

    #[test]
    fn gain_band_widens_with_attack_size() {
        // A 10× larger attack can poison 10×-more-frequent words.
        let small = AttackContext::typical(1_000, 10);
        let large = AttackContext::typical(1_000, 100);
        let q = 0.1; // in 10% of ham
        assert!(small.expected_gain(q) < 0.005, "{}", small.expected_gain(q));
        assert!(
            large.expected_gain(q) > small.expected_gain(q) + 0.01,
            "bigger attacks must widen the band: {} vs {}",
            large.expected_gain(q),
            small.expected_gain(q)
        );
    }

    #[test]
    fn gain_ranking_prefers_mid_frequency_words() {
        let mut k = WordKnowledge::none();
        k.set("ubiquitous", 0.95); // in nearly every ham: unpoisonable
        k.set("midband", 0.03); // the sweet spot for a 20-email attack
        k.set("rare", 0.0005); // flips hard but rarely matters
        let ctx = AttackContext::typical(1_000, 20);
        let ranked = ctx.rank(&k, 3);
        assert_eq!(ranked[0], "midband", "ranking: {ranked:?}");
        // The unpoisonable head word contributes no gain and is dropped.
        assert!(!ranked.contains(&"ubiquitous".to_string()), "{ranked:?}");
        // Probability ranking would have put "ubiquitous" first.
        let naive = k.optimal_attack(Some(1));
        assert_eq!(naive, ["ubiquitous"]);
    }

    #[test]
    fn damage_ranked_attack_differs_from_naive() {
        let k = estimate_knowledge(&sample(), &Tokenizer::new(), 1);
        let ctx = AttackContext::typical(100, 10);
        let naive = ConstrainedAttack::new(&k, 1);
        let smart = ConstrainedAttack::damage_ranked(&k, &ctx, 1);
        // "budget" (q = 1.0) tops the naive ranking; the gain ranking
        // filters it out as unpoisonable and prefers a partial-coverage
        // word instead.
        assert_eq!(naive.words(), ["budget"]);
        assert_ne!(smart.words(), ["budget"], "gain ranking: {:?}", smart.words());
        assert_eq!(smart.name(), "constrained-gain-1");
        assert_eq!(smart.budget(), 1);
    }

    #[test]
    fn constrained_attack_poisons_sampled_vocabulary() {
        use sb_email::Label;
        use sb_filter::SpamBayes;

        let mut filter = SpamBayes::new();
        // Mid-frequency victim vocabulary, like the corpus substrate.
        let vocab = ["quarterly", "budget", "forecast", "ledger"];
        let mut observed = Vec::new();
        for i in 0..20 {
            let w = vocab[i % 4];
            let h = ham(&[w, "common", &format!("filler{i}")]);
            observed.push(h.clone());
            filter.train(&h, Label::Ham);
            filter.train(
                &Email::builder()
                    .body(format!("cheap pills offer blast{i}"))
                    .build(),
                Label::Spam,
            );
        }
        let target = ham(&vocab);
        let before = filter.classify(&target).score;

        let k = estimate_knowledge(&observed, &Tokenizer::new(), 2);
        let atk = ConstrainedAttack::new(&k, 16);
        let batch = atk.generate(60, &mut Xoshiro256pp::new(5));
        for (tokens, count) in batch.token_groups(filter.tokenizer()) {
            filter.train_tokens(&tokens, Label::Spam, count);
        }
        let after = filter.classify(&target).score;
        assert!(
            after > before + 0.2,
            "constrained attack too weak: {before} -> {after}"
        );
    }
}
