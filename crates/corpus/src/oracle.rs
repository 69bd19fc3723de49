//! The reference renderer the generator must match byte for byte.
//!
//! This is the straightforward way to build a corpus message: draw every
//! token into a `Vec<ModelToken>`, give each word its own `String`
//! (`word_for`, with leetspeak applied as a rewrite of the finished word),
//! draw Zipf ranks by binary search over the whole cumulative table, then
//! join. [`crate::trec::EmailGenerator`] writes each message in one pass
//! instead; the tests below pin the two to the same bytes.

use crate::model::LanguageModelConfig;
use crate::trec::CorpusConfig;
use crate::vocab::{stratum_of, Stratum, WordId, UNIVERSE};
use rand::Rng;
use sb_email::Email;
use sb_stats::dist::{AliasSampler, LogNormalLen, Zipf};
use sb_stats::rng::SeedTree;

/// A token emitted by the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ModelToken {
    /// A vocabulary word.
    Word(WordId),
    /// A one-off gibberish string.
    Gibberish(String),
}

const CONSONANTS: [char; 20] = [
    'b', 'c', 'd', 'f', 'g', 'h', 'j', 'k', 'l', 'm', 'n', 'p', 'q', 'r', 's', 't', 'v', 'w', 'x',
    'z',
];
const VOWELS: [char; 3] = ['a', 'e', 'o'];
const CODAS: [char; 7] = ['n', 's', 'r', 'l', 't', 'm', 'k'];

/// The word string for a global id, built syllable by syllable and then
/// leetified as a whole-word rewrite.
fn word_for(id: WordId) -> String {
    let id_us = id as usize;
    assert!(id_us < UNIVERSE, "word id {id} outside universe");
    let mut n = id_us + 1;
    let mut digits = [0usize; 4];
    let mut len = 0;
    while n > 0 {
        n -= 1;
        digits[len] = n % 60;
        n /= 60;
        len += 1;
    }
    let mut word = String::with_capacity(2 * len + 1);
    for i in (0..len).rev() {
        word.push(CONSONANTS[digits[i] % 20]);
        word.push(VOWELS[digits[i] / 20]);
    }
    word.push(CODAS[id_us % CODAS.len()]);
    if stratum_of(id) == Stratum::SpamSpecific {
        // Replace the first vowel with a digit (a→4, e→3, o→0).
        let mut done = false;
        word = word
            .chars()
            .map(|c| {
                let sub = match c {
                    'a' => '4',
                    'e' => '3',
                    'o' => '0',
                    _ => return c,
                };
                if done {
                    return c;
                }
                done = true;
                sub
            })
            .collect();
    }
    word
}

/// A gibberish string: drawn into a `String`, then two interior positions
/// overwritten with digits.
fn gibberish<R: Rng + ?Sized>(rng: &mut R) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let len = rng.random_range(10..=14);
    let mut s: String = (0..len)
        .map(|_| CHARS[rng.random_range(0..CHARS.len())] as char)
        .collect();
    let d1 = char::from(b'0' + rng.random_range(0..10) as u8);
    let d2 = char::from(b'0' + rng.random_range(0..10) as u8);
    s.replace_range(2..3, &d1.to_string());
    s.replace_range(5..6, &d2.to_string());
    s
}

/// A Zipf rank by binary search over the whole cumulative table.
fn zipf_rank<R: Rng + ?Sized>(z: &Zipf, rng: &mut R) -> usize {
    let u: f64 = rng.random();
    z.cdf().partition_point(|&c| c < u).min(z.len() - 1)
}

/// The reference class model, built from its configuration alone.
struct Model {
    cfg: LanguageModelConfig,
    strata: AliasSampler,
    zipf: Vec<Zipf>,
    topic_zipf: Zipf,
    lengths: LogNormalLen,
}

impl Model {
    fn new(cfg: &LanguageModelConfig) -> Self {
        let m = &cfg.mixture;
        let exponents = [
            cfg.zipf_core,
            cfg.zipf_other,
            cfg.zipf_other,
            cfg.zipf_other,
            cfg.zipf_other,
        ];
        Self {
            cfg: cfg.clone(),
            strata: AliasSampler::new(&[
                m.core,
                m.formal,
                m.colloquial,
                m.spam_specific,
                m.personal,
            ]),
            zipf: Stratum::ALL
                .iter()
                .zip(exponents)
                .map(|(s, e)| Zipf::new(s.len(), e))
                .collect(),
            topic_zipf: Zipf::new(cfg.topic_cluster, cfg.zipf_topic),
            lengths: LogNormalLen::with_median(
                cfg.len_median,
                cfg.len_sigma,
                cfg.len_min,
                cfg.len_max,
            ),
        }
    }

    fn sample_token<R: Rng + ?Sized>(&self, topic: usize, rng: &mut R) -> ModelToken {
        if self.cfg.gibberish_rate > 0.0 && rng.random::<f64>() < self.cfg.gibberish_rate {
            return ModelToken::Gibberish(gibberish(rng));
        }
        if rng.random::<f64>() < self.cfg.topic_frac {
            let local = self.cfg.topic_region_start
                + topic * self.cfg.topic_cluster
                + zipf_rank(&self.topic_zipf, rng);
            return ModelToken::Word(Stratum::CoreStandard.word(local));
        }
        let idx = self.strata.sample(rng);
        ModelToken::Word(Stratum::ALL[idx].word(zipf_rank(&self.zipf[idx], rng)))
    }

    fn sample_tokens<R: Rng + ?Sized>(
        &self,
        topic: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<ModelToken> {
        (0..n).map(|_| self.sample_token(topic, rng)).collect()
    }
}

fn token_text(t: &ModelToken) -> String {
    match t {
        ModelToken::Word(id) => word_for(*id),
        ModelToken::Gibberish(s) => s.clone(),
    }
}

/// The reference generator: message `i` of each class from `(cfg, seed)`.
pub(crate) struct Oracle {
    cfg: CorpusConfig,
    ham: Model,
    spam: Model,
    seeds: SeedTree,
}

impl Oracle {
    pub(crate) fn new(cfg: CorpusConfig, seed: u64) -> Self {
        Self {
            ham: Model::new(&cfg.ham),
            spam: Model::new(&cfg.spam),
            cfg,
            seeds: SeedTree::new(seed).child("trec-corpus"),
        }
    }

    fn render_tokens(tokens: &[ModelToken]) -> String {
        let mut body = String::new();
        for (i, tok) in tokens.iter().enumerate() {
            if i > 0 {
                body.push(if i % 12 == 0 { '\n' } else { ' ' });
            }
            body.push_str(&token_text(tok));
        }
        body.push('\n');
        body
    }

    fn subject_line<R: Rng + ?Sized>(&self, model: &Model, topic: usize, rng: &mut R) -> String {
        let (lo, hi) = self.cfg.subject_len;
        let n = rng.random_range(lo..=hi);
        let toks = model.sample_tokens(topic, n, rng);
        toks.iter().map(token_text).collect::<Vec<_>>().join(" ")
    }

    fn spam_domain<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        let k = rng.random_range(0..self.cfg.n_spam_domains);
        let w = word_for(Stratum::SpamSpecific.word(37 * k % Stratum::SpamSpecific.len()));
        format!("{w}.example")
    }

    pub(crate) fn ham(&self, i: u64) -> Email {
        let rng = &mut self.seeds.child("ham").index(i).rng();
        let model = &self.ham;
        let topic = rng.random_range(0..model.cfg.n_topics);
        let len = model.lengths.sample(rng);
        let tokens = model.sample_tokens(topic, len, rng);
        let k = rng.random_range(0..self.cfg.n_ham_senders);
        const DOMAINS: [&str; 3] = ["corp.example", "partner.example", "client.example"];
        let first = word_for(Stratum::Personal.word(2 * k % Stratum::Personal.len()));
        let last = word_for(Stratum::Personal.word((2 * k + 1) % Stratum::Personal.len()));
        let domain = DOMAINS[k % DOMAINS.len()];
        let subject = self.subject_line(model, topic, rng);
        let msgid: u64 = rng.random();
        Email::builder()
            .from_addr(format!("\"{first} {last}\" <{first}.{last}@{domain}>"))
            .to_addr("victim@corp.example")
            .subject(subject)
            .header("Message-Id", format!("<{msgid:016x}@corp.example>"))
            .body(Self::render_tokens(&tokens))
            .build()
    }

    pub(crate) fn spam(&self, i: u64) -> Email {
        let rng = &mut self.seeds.child("spam").index(i).rng();
        let model = &self.spam;
        let topic = rng.random_range(0..model.cfg.n_topics);
        let len = model.lengths.sample(rng);
        let tokens = model.sample_tokens(topic, len, rng);
        let mut body = Self::render_tokens(&tokens);
        if rng.random::<f64>() < self.cfg.spam_url_prob {
            let n_urls = rng.random_range(1..=3);
            for _ in 0..n_urls {
                let host = if rng.random::<f64>() < self.cfg.spam_raw_ip_prob {
                    format!(
                        "{}.{}.{}.{}",
                        rng.random_range(11u8..=223),
                        rng.random_range(0u8..=255),
                        rng.random_range(0u8..=255),
                        rng.random_range(1u8..=254)
                    )
                } else {
                    self.spam_domain(rng)
                };
                let page = token_text(&model.sample_token(topic, rng));
                body.push_str(&format!("http://{host}/{page}\n"));
            }
        }
        if rng.random::<f64>() < self.cfg.spam_exclaim_prob {
            body.push_str("!!!\n");
        }
        let domain = if rng.random::<f64>() < 0.05 {
            "corp.example".to_owned()
        } else {
            self.spam_domain(rng)
        };
        let local: String = gibberish(rng).chars().take(8).collect();
        let mut subject = self.subject_line(model, topic, rng);
        if rng.random::<f64>() < self.cfg.spam_caps_subject_prob {
            subject = subject.to_uppercase();
        }
        let msgid: u64 = rng.random();
        let mut builder = Email::builder()
            .from_addr(format!("{local}@{domain}"))
            .to_addr("victim@corp.example")
            .subject(subject)
            .header("Message-Id", format!("<{msgid:016x}@{domain}>"));
        if rng.random::<f64>() < 0.4 {
            builder = builder.header("X-Mailer", "BulkMailPro 2.1");
        }
        builder.body(body).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trec::EmailGenerator;
    use crate::vocab::push_word;

    #[test]
    fn push_word_matches_reference_over_the_universe() {
        let mut buf = String::new();
        for id in 0..UNIVERSE as WordId {
            buf.clear();
            push_word(id, &mut buf);
            assert_eq!(buf, word_for(id), "id {id}");
        }
    }

    /// Ham and spam `0..2,000` at three seeds equal the reference
    /// renderer byte for byte, and the spam indices reach every optional
    /// branch: URLs, raw-IP hosts, shouted subjects and the spoofed
    /// victim domain.
    #[test]
    fn generator_matches_reference_renderer() {
        const N: u64 = 2_000;
        let (mut urls, mut raw_ips, mut caps, mut spoofed) = (0, 0, 0, 0);
        for seed in [1u64, 2009, 0xDEAD_BEEF] {
            let cfg = CorpusConfig::with_size(1_000, 0.5);
            let generator = EmailGenerator::new(cfg.clone(), seed);
            let oracle = Oracle::new(cfg, seed);
            for i in 0..N {
                assert_eq!(generator.ham(i), oracle.ham(i), "ham {i} at seed {seed}");
                let spam = generator.spam(i);
                assert_eq!(spam, oracle.spam(i), "spam {i} at seed {seed}");
                let body = spam.body();
                urls += usize::from(body.contains("http://"));
                raw_ips += usize::from((1..=9).any(|d| body.contains(&format!("http://{d}"))));
                let subject = spam.subject().unwrap_or_default();
                caps += usize::from(subject.bytes().any(|b| b.is_ascii_uppercase()));
                spoofed += usize::from(
                    spam.from_addr()
                        .is_some_and(|f| f.ends_with("@corp.example")),
                );
            }
        }
        for (branch, hits) in [
            ("url", urls),
            ("raw ip", raw_ips),
            ("caps", caps),
            ("spoofed", spoofed),
        ] {
            assert!(hits > 0, "no spam reached the {branch} branch");
        }
    }
}
