//! Generative language models for ham and spam.
//!
//! Each class is a topic-mixture unigram model over the vocabulary universe:
//!
//! * a **strata mixture** decides which vocabulary stratum a token comes
//!   from (ham leans on core + colloquial + personal words; spam on core +
//!   spam-specific obfuscations);
//! * within a stratum, local word ranks are **Zipf-distributed** (rank 0 is
//!   the stratum's most frequent word), giving the heavy head / long tail
//!   that real token statistics have — the property that shapes how many
//!   mid/low-frequency tokens the paper's dictionary attack can flip;
//! * a fraction of tokens come from a per-message **topic cluster** (a slice
//!   of the core stratum owned by the topic), giving within-message
//!   coherence — the property that makes the focused attack's token
//!   guessing meaningful;
//! * spam additionally emits **gibberish hapax tokens** (hash-buster
//!   strings) and **URLs**.
//!
//! Everything is driven by the caller's RNG; the model itself is immutable
//! and cheap to share. Tokens are written straight into the caller's text
//! ([`LanguageModel::push_token`]): a message costs no allocation per token.

use crate::vocab::{push_word, Stratum, WordId};
use rand::Rng;
use sb_stats::dist::{AliasSampler, LogNormalLen, Zipf};
use serde::{Deserialize, Serialize};

/// Mixture weights over the five strata (need not be normalized).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrataMix {
    /// Weight of core-standard words (stratum A).
    pub core: f64,
    /// Weight of formal dictionary words (stratum B).
    pub formal: f64,
    /// Weight of colloquial words (stratum C).
    pub colloquial: f64,
    /// Weight of spam-specific words (stratum D).
    pub spam_specific: f64,
    /// Weight of victim-organization words (stratum E).
    pub personal: f64,
}

impl StrataMix {
    fn weights(&self) -> [f64; 5] {
        [
            self.core,
            self.formal,
            self.colloquial,
            self.spam_specific,
            self.personal,
        ]
    }
}

/// Configuration of one class-conditional language model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LanguageModelConfig {
    /// Strata mixture.
    pub mixture: StrataMix,
    /// Zipf exponent within the core stratum.
    pub zipf_core: f64,
    /// Zipf exponent within every other stratum.
    pub zipf_other: f64,
    /// Number of topic clusters.
    pub n_topics: usize,
    /// Probability that a token is drawn from the message's topic cluster.
    pub topic_frac: f64,
    /// Topic cluster width (words per topic), carved out of the core stratum.
    pub topic_cluster: usize,
    /// First core-stratum rank owned by topic 0.
    pub topic_region_start: usize,
    /// Zipf exponent within a topic cluster.
    pub zipf_topic: f64,
    /// Median body length in tokens.
    pub len_median: f64,
    /// Log-normal shape of body length.
    pub len_sigma: f64,
    /// Minimum body length.
    pub len_min: usize,
    /// Maximum body length.
    pub len_max: usize,
    /// Per-token probability of emitting a gibberish hapax string instead of
    /// a vocabulary word (hash-buster simulation; 0 for ham).
    pub gibberish_rate: f64,
}

impl LanguageModelConfig {
    /// The default ham model: mostly everyday English, a healthy dose of
    /// colloquialisms (the words only the Usenet lexicon covers) and the
    /// victim organization's personal vocabulary (words no public lexicon
    /// covers) — the strata ratios that produce Figure 1's
    /// optimal > Usenet > Aspell ordering.
    pub fn ham_default() -> Self {
        Self {
            mixture: StrataMix {
                core: 0.795,
                formal: 0.02,
                colloquial: 0.12,
                spam_specific: 0.0,
                personal: 0.065,
            },
            zipf_core: 1.05,
            zipf_other: 1.08,
            n_topics: 20,
            topic_frac: 0.25,
            topic_cluster: 1_500,
            topic_region_start: 2_000,
            zipf_topic: 0.9,
            // Median ~230 raw tokens/email reproduces the paper's §4.2
            // token-volume ratios (Usenet attack ≈ 6–7× the corpus tokens
            // at 2% contamination).
            // Median/shape chosen so (a) mean raw tokens/email ≈ 230,
            // reproducing the paper's §4.2 token-volume ratios, and (b) the
            // length distribution has the short-email mass real corpora
            // have — short targets are the ones the focused attack flips
            // all the way to spam (Figure 3's dashed line).
            len_median: 160.0,
            len_sigma: 0.85,
            len_min: 12,
            len_max: 1_200,
            // Real ham carries per-message artifact tokens (ticket numbers,
            // filenames, timestamps) that no public lexicon can cover; they
            // are the residual ham evidence that keeps Figure 1's dashed
            // lines below the solid ones.
            gibberish_rate: 0.04,
        }
    }

    /// The default spam model: shares the core head with ham but pulls from
    /// its own topic region, uses obfuscated spam vocabulary, and sprinkles
    /// gibberish hapax tokens.
    pub fn spam_default() -> Self {
        Self {
            mixture: StrataMix {
                core: 0.55,
                formal: 0.05,
                colloquial: 0.05,
                spam_specific: 0.30,
                // Reply-chain/quoting spam touches the victim org's own
                // vocabulary occasionally; without this, personal-stratum
                // tokens are perfect ham anchors no real corpus has.
                personal: 0.0,
            },
            zipf_core: 1.05,
            zipf_other: 1.05,
            n_topics: 10,
            topic_frac: 0.20,
            topic_cluster: 1_500,
            topic_region_start: 34_000, // disjoint from ham topic region
            zipf_topic: 0.9,
            len_median: 260.0,
            len_sigma: 0.6,
            len_min: 30,
            len_max: 1_000,
            gibberish_rate: 0.03,
        }
    }

    fn validate(&self) {
        assert!(self.n_topics >= 1, "need at least one topic");
        let needed = self.topic_region_start + self.n_topics * self.topic_cluster;
        assert!(
            needed <= Stratum::CoreStandard.len(),
            "topic region [{}..{}) exceeds core stratum",
            self.topic_region_start,
            needed
        );
        assert!((0.0..=1.0).contains(&self.topic_frac));
        assert!((0.0..=1.0).contains(&self.gibberish_rate));
    }
}

/// A compiled class-conditional language model.
#[derive(Debug, Clone)]
pub struct LanguageModel {
    cfg: LanguageModelConfig,
    strata_sampler: AliasSampler,
    zipf: [Zipf; 5],
    topic_zipf: Zipf,
    lengths: LogNormalLen,
}

impl LanguageModel {
    /// Compile a configuration (builds the Zipf tables once).
    pub fn new(cfg: LanguageModelConfig) -> Self {
        Self::build(cfg, &[])
    }

    /// Compile two configurations, building each distinct Zipf table once:
    /// `b` shares every table of `a` with the same rank count and exponent
    /// (the default ham and spam models share the core and topic tables).
    pub fn pair(a: LanguageModelConfig, b: LanguageModelConfig) -> (Self, Self) {
        let a = Self::new(a);
        let b = Self::build(b, &a.tables());
        (a, b)
    }

    fn build(cfg: LanguageModelConfig, donors: &[&Zipf]) -> Self {
        cfg.validate();
        let zipf_for = |n: usize, s: f64| {
            donors
                .iter()
                .find(|z| z.len() == n && z.exponent().to_bits() == s.to_bits())
                .map_or_else(|| Zipf::new(n, s), |&z| z.clone())
        };
        let strata_sampler = AliasSampler::new(&cfg.mixture.weights());
        let zipf = [
            zipf_for(Stratum::CoreStandard.len(), cfg.zipf_core),
            zipf_for(Stratum::FormalStandard.len(), cfg.zipf_other),
            zipf_for(Stratum::Colloquial.len(), cfg.zipf_other),
            zipf_for(Stratum::SpamSpecific.len(), cfg.zipf_other),
            zipf_for(Stratum::Personal.len(), cfg.zipf_other),
        ];
        let topic_zipf = zipf_for(cfg.topic_cluster, cfg.zipf_topic);
        let lengths =
            LogNormalLen::with_median(cfg.len_median, cfg.len_sigma, cfg.len_min, cfg.len_max);
        Self {
            cfg,
            strata_sampler,
            zipf,
            topic_zipf,
            lengths,
        }
    }

    /// The five strata tables, then the topic table.
    fn tables(&self) -> [&Zipf; 6] {
        let [a, b, c, d, e] = &self.zipf;
        [a, b, c, d, e, &self.topic_zipf]
    }

    /// The configuration this model was compiled from.
    pub fn config(&self) -> &LanguageModelConfig {
        &self.cfg
    }

    /// Draw a topic for a new message.
    pub fn sample_topic<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.random_range(0..self.cfg.n_topics)
    }

    /// Draw a body length for a new message.
    pub fn sample_len<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.lengths.sample(rng)
    }

    /// Draw one token given the message topic and append it to `out`: a
    /// gibberish hapax at the configured rate, else a vocabulary word.
    #[inline]
    pub fn push_token<R: Rng + ?Sized>(&self, topic: usize, rng: &mut R, out: &mut String) {
        if self.cfg.gibberish_rate > 0.0 && rng.random::<f64>() < self.cfg.gibberish_rate {
            push_gibberish(rng, out);
        } else {
            push_word(self.sample_word(topic, rng), out);
        }
    }

    /// Draw one vocabulary word given the message topic: from the topic
    /// cluster at the configured rate, else from a stratum picked by the
    /// mixture.
    #[inline]
    fn sample_word<R: Rng + ?Sized>(&self, topic: usize, rng: &mut R) -> WordId {
        debug_assert!(topic < self.cfg.n_topics);
        if rng.random::<f64>() < self.cfg.topic_frac {
            let local = self.cfg.topic_region_start
                + topic * self.cfg.topic_cluster
                + self.topic_zipf.sample(rng);
            return Stratum::CoreStandard.word(local);
        }
        let idx = self.strata_sampler.sample(rng);
        Stratum::ALL[idx].word(self.zipf[idx].sample(rng))
    }
}

/// Append a gibberish hash-buster string to `out`: 10–14 chars,
/// lowercase+digits, always at least two digits — impossible to collide
/// with any vocabulary word (those are ≤ 7 chars with ≤ 1 digit).
pub fn push_gibberish<R: Rng + ?Sized>(rng: &mut R, out: &mut String) {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let len = rng.random_range(10..=14);
    let mut chars = [0u8; 14];
    for c in &mut chars[..len] {
        *c = CHARS[rng.random_range(0..CHARS.len())];
    }
    // Force two digits at fixed interior positions.
    chars[2] = b'0' + rng.random_range(0..10) as u8;
    chars[5] = b'0' + rng.random_range(0..10) as u8;
    out.extend(chars[..len].iter().map(|&c| char::from(c)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{stratum_of, word_for};
    use sb_stats::rng::Xoshiro256pp;
    use std::collections::HashMap;

    /// A whole body's worth of tokens (topic + length + tokens), one
    /// string per token.
    fn body_tokens(m: &LanguageModel, rng: &mut Xoshiro256pp) -> Vec<String> {
        let topic = m.sample_topic(rng);
        let len = m.sample_len(rng);
        let mut body = String::new();
        for _ in 0..len {
            m.push_token(topic, rng, &mut body);
            body.push(' ');
        }
        body.split_whitespace().map(str::to_owned).collect()
    }

    /// Gibberish is the only token of ten or more characters.
    fn is_gibberish(tok: &str) -> bool {
        tok.len() >= 10
    }

    /// Stratum D's words are the only vocabulary words with a digit.
    fn is_spam_specific(tok: &str) -> bool {
        !is_gibberish(tok) && tok.bytes().any(|b| b.is_ascii_digit())
    }

    #[test]
    fn ham_model_never_emits_spam_specific_words() {
        // Ham does emit gibberish (per-message artifact tokens: ticket
        // numbers, filenames) at the configured small rate — but never
        // stratum-D obfuscations.
        let m = LanguageModel::new(LanguageModelConfig::ham_default());
        let mut rng = Xoshiro256pp::new(1);
        let mut gib = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            for tok in body_tokens(&m, &mut rng) {
                total += 1;
                assert!(!is_spam_specific(&tok), "{tok}");
                if is_gibberish(&tok) {
                    gib += 1;
                }
            }
        }
        let rate = gib as f64 / total as f64;
        let expected = LanguageModelConfig::ham_default().gibberish_rate;
        assert!(
            (rate - expected).abs() < 0.01,
            "artifact-token rate {rate} vs configured {expected}"
        );
    }

    #[test]
    fn spam_model_emits_spam_specific_and_gibberish() {
        let m = LanguageModel::new(LanguageModelConfig::spam_default());
        let mut rng = Xoshiro256pp::new(2);
        let mut saw_d = false;
        let mut saw_gib = false;
        for _ in 0..50 {
            for tok in body_tokens(&m, &mut rng) {
                saw_d |= is_spam_specific(&tok);
                if is_gibberish(&tok) {
                    saw_gib = true;
                    assert!(tok.chars().filter(|c| c.is_ascii_digit()).count() >= 2);
                }
            }
        }
        assert!(saw_d, "no spam-specific words in 50 spam bodies");
        assert!(saw_gib, "no gibberish in 50 spam bodies");
    }

    #[test]
    fn strata_mixture_respected_empirically() {
        let cfg = LanguageModelConfig::ham_default();
        let m = LanguageModel::new(cfg.clone());
        let mut rng = Xoshiro256pp::new(3);
        let mut counts: HashMap<Stratum, usize> = HashMap::new();
        let n = 60_000;
        for _ in 0..n {
            let stratum = stratum_of(m.sample_word(0, &mut rng));
            *counts.entry(stratum).or_default() += 1;
        }
        // Topic draws add to core; everything else follows the mixture.
        let personal = *counts.get(&Stratum::Personal).unwrap_or(&0) as f64 / n as f64;
        let coll = *counts.get(&Stratum::Colloquial).unwrap_or(&0) as f64 / n as f64;
        let w = [
            cfg.mixture.core,
            cfg.mixture.formal,
            cfg.mixture.colloquial,
            cfg.mixture.spam_specific,
            cfg.mixture.personal,
        ];
        let total: f64 = w.iter().sum();
        let expected_personal = (1.0 - cfg.topic_frac) * cfg.mixture.personal / total;
        let expected_coll = (1.0 - cfg.topic_frac) * cfg.mixture.colloquial / total;
        assert!(
            (personal - expected_personal).abs() < 0.01,
            "personal rate {personal} vs {expected_personal}"
        );
        assert!(
            (coll - expected_coll).abs() < 0.01,
            "colloquial rate {coll} vs {expected_coll}"
        );
    }

    #[test]
    fn topics_cluster_vocabulary() {
        let m = LanguageModel::new(LanguageModelConfig::ham_default());
        let mut rng = Xoshiro256pp::new(4);
        let cfg = m.config().clone();
        // Tokens drawn for topic 3 should hit topic 3's cluster range and
        // never topic 7's.
        let t3 = cfg.topic_region_start + 3 * cfg.topic_cluster;
        let t7 = cfg.topic_region_start + 7 * cfg.topic_cluster;
        let mut in_t3 = 0;
        let mut in_t7 = 0;
        let n = 20_000;
        for _ in 0..n {
            let id = m.sample_word(3, &mut rng) as usize;
            if (t3..t3 + cfg.topic_cluster).contains(&id) {
                in_t3 += 1;
            }
            if (t7..t7 + cfg.topic_cluster).contains(&id) {
                in_t7 += 1;
            }
        }
        assert!(in_t3 > n / 8, "topic cluster underused: {in_t3}/{n}");
        assert!(
            in_t7 < in_t3 / 20,
            "foreign topic cluster overused: {in_t7} vs {in_t3}"
        );
    }

    #[test]
    fn body_lengths_respect_config_bounds() {
        let m = LanguageModel::new(LanguageModelConfig::ham_default());
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..200 {
            let body = body_tokens(&m, &mut rng);
            let cfg = m.config();
            assert!(body.len() >= cfg.len_min && body.len() <= cfg.len_max);
        }
    }

    #[test]
    fn gibberish_never_collides_with_vocabulary() {
        let mut rng = Xoshiro256pp::new(6);
        for _ in 0..100 {
            let mut g = String::new();
            push_gibberish(&mut rng, &mut g);
            assert!(g.len() >= 10, "{g}");
            // Vocabulary words are at most 7 chars.
            assert!(g.len() > 7);
        }
        // And vocabulary words really are short.
        assert!(word_for(150_000).len() <= 7);
    }

    #[test]
    fn models_are_deterministic_given_rng() {
        let m = LanguageModel::new(LanguageModelConfig::spam_default());
        let mut r1 = Xoshiro256pp::new(7);
        let mut r2 = Xoshiro256pp::new(7);
        assert_eq!(body_tokens(&m, &mut r1), body_tokens(&m, &mut r2));
    }

    #[test]
    #[should_panic]
    fn topic_region_overflow_rejected() {
        let mut cfg = LanguageModelConfig::ham_default();
        cfg.topic_region_start = 60_000;
        cfg.n_topics = 50;
        let _ = LanguageModel::new(cfg);
    }

    #[test]
    fn paired_models_share_equal_tables_only() {
        let (ham, spam) = LanguageModel::pair(
            LanguageModelConfig::ham_default(),
            LanguageModelConfig::spam_default(),
        );
        let shared: Vec<bool> = ham
            .tables()
            .iter()
            .zip(spam.tables())
            .map(|(h, s)| std::ptr::eq(h.cdf(), s.cdf()))
            .collect();
        // Core (61,000 ranks, s = 1.05) and topic (1,500 ranks, s = 0.9)
        // match; the other strata differ in exponent (1.08 vs 1.05).
        assert_eq!(shared, [true, false, false, false, false, true]);
        // Sharing never changes a table: each equals a fresh build.
        for z in spam.tables() {
            assert_eq!(z.cdf(), Zipf::new(z.len(), z.exponent()).cdf());
        }
    }

    /// The guide lookup returns the binary search's index for every
    /// probe: each CDF value, its two neighbours, 0, the largest f64
    /// below 1 and random draws, over all five strata tables and the
    /// topic table of both default models.
    #[test]
    fn zipf_guide_equals_binary_search_on_model_tables() {
        let (ham, spam) = LanguageModel::pair(
            LanguageModelConfig::ham_default(),
            LanguageModelConfig::spam_default(),
        );
        let mut rng = Xoshiro256pp::new(8);
        for z in ham.tables().into_iter().chain(spam.tables()) {
            let cdf = z.cdf();
            let want = |u: f64| cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            let mut probes = vec![0.0, 1.0f64.next_down()];
            for &c in cdf {
                probes.extend([c, c.next_up(), c.next_down()]);
            }
            probes.extend((0..20_000).map(|_| rng.random::<f64>()));
            for u in probes {
                assert_eq!(z.rank_of(u), want(u), "u = {u:e}, n = {}", cdf.len());
            }
        }
    }
}
