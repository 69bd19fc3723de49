//! TREC-2005-like corpus generation.
//!
//! The paper evaluates on the TREC 2005 spam corpus (92,189 Enron-based
//! emails, 57% spam). That corpus cannot be redistributed here, so this
//! module generates a synthetic equivalent: ham and spam drawn from the
//! class-conditional language models of [`crate::model`], wrapped in
//! realistic headers (sender pools, message-ids, subjects, occasional
//! mailer headers). See DESIGN.md for why this substitution preserves the
//! behaviours the paper measures.
//!
//! Generation is **indexed**: email `i` of a corpus is a pure function of
//! `(master seed, i)`, so corpora are reproducible, parallelizable, and
//! extensible (fresh target emails for the focused attack come from indices
//! beyond the training pool, guaranteeing disjointness).

use crate::model::{push_gibberish, LanguageModel, LanguageModelConfig};
use crate::vocab::{push_word, word_for, Stratum};
use rand::Rng;
use sb_email::{Dataset, Email, LabeledEmail};
use sb_stats::rng::SeedTree;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;

/// Corpus-level configuration (the per-class models plus assembly knobs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of emails in the training pool.
    pub n_emails: usize,
    /// Fraction of spam in the pool (the paper uses 0.50 and 0.75).
    pub spam_fraction: f64,
    /// Ham language model.
    pub ham: LanguageModelConfig,
    /// Spam language model.
    pub spam: LanguageModelConfig,
    /// Number of distinct ham senders (colleagues/partners of the victim).
    pub n_ham_senders: usize,
    /// Number of distinct spam sender domains.
    pub n_spam_domains: usize,
    /// Probability a spam message carries 1–3 URLs.
    pub spam_url_prob: f64,
    /// Probability a spam URL uses a raw IP host instead of a domain
    /// (the fast-flux / botnet-hosted share of real spam).
    pub spam_raw_ip_prob: f64,
    /// Probability a spam subject is SHOUTED in capitals.
    pub spam_caps_subject_prob: f64,
    /// Probability a spam body carries an exclamation flourish ("!!!").
    pub spam_exclaim_prob: f64,
    /// Subject length range (tokens).
    pub subject_len: (usize, usize),
}

impl CorpusConfig {
    /// Paper Table 1, dictionary-attack column: 10,000 messages, 50% spam.
    pub fn paper_dictionary() -> Self {
        Self::with_size(10_000, 0.5)
    }

    /// A small corpus for unit tests and quick examples.
    pub fn small() -> Self {
        Self::with_size(400, 0.5)
    }

    /// Custom size/prevalence with default models.
    pub fn with_size(n_emails: usize, spam_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&spam_fraction));
        Self {
            n_emails,
            spam_fraction,
            ham: LanguageModelConfig::ham_default(),
            spam: LanguageModelConfig::spam_default(),
            n_ham_senders: 120,
            n_spam_domains: 60,
            spam_url_prob: 0.7,
            // TREC-style presentation artifacts of real spam: raw-IP
            // landing pages, shouted subjects, exclamation flourishes.
            // They matter only to rule-based comparators (SpamAssassin's
            // static rules); the statistical learners see a few extra
            // spam-indicative tokens.
            spam_raw_ip_prob: 0.15,
            spam_caps_subject_prob: 0.25,
            spam_exclaim_prob: 0.3,
            subject_len: (3, 8),
        }
    }

    /// Number of spam messages implied by the configuration.
    pub fn n_spam(&self) -> usize {
        (self.n_emails as f64 * self.spam_fraction).round() as usize
    }
}

/// Streaming, indexed email generator.
#[derive(Debug, Clone)]
pub struct EmailGenerator {
    cfg: Arc<CorpusConfig>,
    ham_model: Arc<LanguageModel>,
    spam_model: Arc<LanguageModel>,
    seeds: SeedTree,
}

impl EmailGenerator {
    /// Build a generator rooted at `seed`.
    pub fn new(cfg: CorpusConfig, seed: u64) -> Self {
        let (ham_model, spam_model) = LanguageModel::pair(cfg.ham.clone(), cfg.spam.clone());
        Self {
            cfg: Arc::new(cfg),
            ham_model: Arc::new(ham_model),
            spam_model: Arc::new(spam_model),
            seeds: SeedTree::new(seed).child("trec-corpus"),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    /// Generate ham email number `i` (pure in `(seed, i)`).
    pub fn ham(&self, i: u64) -> Email {
        let mut rng = self.seeds.child("ham").index(i).rng();
        self.make_ham(&mut rng)
    }

    /// Generate spam email number `i` (pure in `(seed, i)`).
    pub fn spam(&self, i: u64) -> Email {
        let mut rng = self.seeds.child("spam").index(i).rng();
        self.make_spam(&mut rng)
    }

    /// A body of `len` tokens, written as they are drawn: a space between
    /// words and a line break every 12 words, ending in a newline.
    fn body<R: Rng + ?Sized>(
        &self,
        model: &LanguageModel,
        topic: usize,
        len: usize,
        rng: &mut R,
    ) -> String {
        let mut body = String::with_capacity(len * 7 + 1);
        for i in 0..len {
            if i > 0 {
                // Break into lines every ~12 words for realism.
                body.push(if i % 12 == 0 { '\n' } else { ' ' });
            }
            model.push_token(topic, rng, &mut body);
        }
        body.push('\n');
        body
    }

    fn subject_line<R: Rng + ?Sized>(
        &self,
        model: &LanguageModel,
        topic: usize,
        rng: &mut R,
    ) -> String {
        let (lo, hi) = self.cfg.subject_len;
        let n = rng.random_range(lo..=hi);
        let mut subject = String::with_capacity(n * 8);
        for i in 0..n {
            if i > 0 {
                subject.push(' ');
            }
            model.push_token(topic, rng, &mut subject);
        }
        subject
    }

    /// A ham sender's `From` value, `"first last" <first.last@domain>`:
    /// a deterministic pool of colleagues/partners built from the personal
    /// stratum (so sender names correlate with the victim organization's
    /// vocabulary).
    fn ham_sender(&self, k: usize) -> String {
        const DOMAINS: [&str; 3] = ["corp.example", "partner.example", "client.example"];
        let first = word_for(Stratum::Personal.word(2 * k % Stratum::Personal.len()));
        let last = word_for(Stratum::Personal.word((2 * k + 1) % Stratum::Personal.len()));
        let domain = DOMAINS[k % DOMAINS.len()];
        format!("\"{first} {last}\" <{first}.{last}@{domain}>")
    }

    /// Append a spam sender domain, `<stratum-D word>.example`.
    fn push_spam_domain<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut String) {
        let k = rng.random_range(0..self.cfg.n_spam_domains);
        let id = Stratum::SpamSpecific.word(37 * k % Stratum::SpamSpecific.len());
        push_word(id, out);
        out.push_str(".example");
    }

    fn make_ham<R: Rng + ?Sized>(&self, rng: &mut R) -> Email {
        let model = &self.ham_model;
        let topic = model.sample_topic(rng);
        let len = model.sample_len(rng);
        let body = self.body(model, topic, len, rng);
        let from = self.ham_sender(rng.random_range(0..self.cfg.n_ham_senders));
        let subject = self.subject_line(model, topic, rng);
        let msgid: u64 = rng.random();
        Email::builder()
            .from_addr(from)
            .to_addr("victim@corp.example")
            .subject(subject)
            .header("Message-Id", format!("<{msgid:016x}@corp.example>"))
            .body(body)
            .build()
    }

    fn make_spam<R: Rng + ?Sized>(&self, rng: &mut R) -> Email {
        let model = &self.spam_model;
        let topic = model.sample_topic(rng);
        let len = model.sample_len(rng);
        let mut body = self.body(model, topic, len, rng);
        // Spam URLs: inserted as raw text so the tokenizer cracks them.
        if rng.random::<f64>() < self.cfg.spam_url_prob {
            let n_urls = rng.random_range(1..=3);
            for _ in 0..n_urls {
                body.push_str("http://");
                if rng.random::<f64>() < self.cfg.spam_raw_ip_prob {
                    // Botnet-hosted landing page: a raw IP host.
                    let _ = write!(
                        body,
                        "{}.{}.{}.{}",
                        rng.random_range(11u8..=223),
                        rng.random_range(0u8..=255),
                        rng.random_range(0u8..=255),
                        rng.random_range(1u8..=254)
                    );
                } else {
                    self.push_spam_domain(rng, &mut body);
                }
                body.push('/');
                model.push_token(topic, rng, &mut body);
                body.push('\n');
            }
        }
        if rng.random::<f64>() < self.cfg.spam_exclaim_prob {
            // Punctuation-only flourish: pure presentation. Word tokenizers
            // drop it, so the statistical learners are unaffected; only
            // rule-based comparators (PLING_PLING) see it.
            body.push_str("!!!\n");
        }
        // Real spammers spoof the victim organization's domain in a share
        // of their mail; without this, domain tokens would be unattackable
        // perfect ham anchors no real corpus has.
        let mut domain = String::with_capacity(16);
        if rng.random::<f64>() < 0.05 {
            domain.push_str("corp.example");
        } else {
            self.push_spam_domain(rng, &mut domain);
        }
        // The local part is a gibberish string's first eight characters.
        let mut from = String::with_capacity(24 + domain.len());
        push_gibberish(rng, &mut from);
        from.truncate(8);
        from.push('@');
        from.push_str(&domain);
        let mut subject = self.subject_line(model, topic, rng);
        if rng.random::<f64>() < self.cfg.spam_caps_subject_prob {
            // Words and gibberish are ASCII.
            subject.make_ascii_uppercase();
        }
        let msgid: u64 = rng.random();
        let mut builder = Email::builder()
            .from_addr(from)
            .to_addr("victim@corp.example")
            .subject(subject)
            .header("Message-Id", format!("<{msgid:016x}@{domain}>"));
        if rng.random::<f64>() < 0.4 {
            builder = builder.header("X-Mailer", "BulkMailPro 2.1");
        }
        builder.body(body).build()
    }
}

/// A materialized corpus: the training pool the experiments draw from.
#[derive(Debug, Clone)]
pub struct TrecCorpus {
    dataset: Dataset,
    generator: EmailGenerator,
}

impl TrecCorpus {
    /// Generate the full pool for `cfg` rooted at `seed`.
    ///
    /// The pool interleaves ham and spam deterministically at the configured
    /// prevalence (exact counts, not Bernoulli), so every prefix of the pool
    /// has roughly the configured spam fraction.
    pub fn generate(cfg: &CorpusConfig, seed: u64) -> Self {
        let generator = EmailGenerator::new(cfg.clone(), seed);
        let n = cfg.n_emails;
        let n_spam = cfg.n_spam();
        let mut emails = Vec::with_capacity(n);
        // Evenly interleave by error-diffusion so prefixes stay balanced.
        let mut spam_credit = 0.0f64;
        let mut ham_i = 0u64;
        let mut spam_i = 0u64;
        let mut n_spam_left = n_spam;
        let mut n_ham_left = n - n_spam;
        for _ in 0..n {
            spam_credit += cfg.spam_fraction;
            let take_spam = if n_ham_left == 0 {
                true
            } else if n_spam_left == 0 {
                false
            } else {
                spam_credit >= 1.0
            };
            if take_spam {
                spam_credit -= 1.0;
                emails.push(LabeledEmail::spam(generator.spam(spam_i)));
                spam_i += 1;
                n_spam_left -= 1;
            } else {
                emails.push(LabeledEmail::ham(generator.ham(ham_i)));
                ham_i += 1;
                n_ham_left -= 1;
            }
        }
        Self {
            dataset: Dataset::from_vec(emails),
            generator,
        }
    }

    /// The labelled pool.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// All messages.
    pub fn emails(&self) -> &[LabeledEmail] {
        self.dataset.emails()
    }

    /// The underlying generator (for fresh out-of-pool messages).
    pub fn generator(&self) -> &EmailGenerator {
        &self.generator
    }

    /// A fresh ham email guaranteed not to be in the pool — the focused
    /// attack's targets ("randomly select a ham email … to serve as the
    /// target", §4.3).
    pub fn fresh_ham(&self, k: u64) -> Email {
        // Pool ham indices are 0..n_ham; offset beyond them.
        let n_ham = (self.dataset.n_ham()) as u64;
        self.generator.ham(n_ham + k)
    }

    /// A fresh spam email not in the pool (header donor for the focused
    /// attack, §4.1).
    pub fn fresh_spam(&self, k: u64) -> Email {
        let n_spam = (self.dataset.n_spam()) as u64;
        self.generator.spam(n_spam + k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;

    #[test]
    fn corpus_has_exact_prevalence() {
        let cfg = CorpusConfig::with_size(1000, 0.5);
        let c = TrecCorpus::generate(&cfg, 42);
        assert_eq!(c.dataset().len(), 1000);
        assert_eq!(c.dataset().n_spam(), 500);
        assert_eq!(c.dataset().n_ham(), 500);
        let cfg75 = CorpusConfig::with_size(1000, 0.75);
        let c75 = TrecCorpus::generate(&cfg75, 42);
        assert_eq!(c75.dataset().n_spam(), 750);
    }

    #[test]
    fn prefixes_stay_balanced() {
        let cfg = CorpusConfig::with_size(1000, 0.5);
        let c = TrecCorpus::generate(&cfg, 7);
        let first100 = &c.emails()[..100];
        let spam = first100.iter().filter(|m| m.label == Label::Spam).count();
        assert!((40..=60).contains(&spam), "prefix spam count {spam}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::small();
        let a = TrecCorpus::generate(&cfg, 99);
        let b = TrecCorpus::generate(&cfg, 99);
        assert_eq!(a.emails(), b.emails());
        let c = TrecCorpus::generate(&cfg, 100);
        assert_ne!(a.emails(), c.emails());
    }

    #[test]
    fn indexed_generation_is_pure() {
        let generator = EmailGenerator::new(CorpusConfig::small(), 5);
        assert_eq!(generator.ham(17), generator.ham(17));
        assert_ne!(generator.ham(17), generator.ham(18));
        assert_ne!(generator.ham(17), generator.spam(17));
    }

    #[test]
    fn ham_emails_look_like_ham() {
        let c = TrecCorpus::generate(&CorpusConfig::small(), 3);
        let ham = c
            .emails()
            .iter()
            .find(|m| m.label == Label::Ham)
            .unwrap();
        let e = &ham.email;
        assert_eq!(e.header("To"), Some("victim@corp.example"));
        let from = e.from_addr().unwrap();
        assert!(from.contains(".example"), "from = {from}");
        assert!(e.subject().is_some());
        assert!(!e.body().is_empty());
    }

    #[test]
    fn spam_emails_often_carry_urls() {
        let c = TrecCorpus::generate(&CorpusConfig::with_size(200, 1.0), 4);
        let with_urls = c
            .emails()
            .iter()
            .filter(|m| m.email.body().contains("http://"))
            .count();
        // spam_url_prob = 0.7 over 200 spam: expect well over half.
        assert!(with_urls > 100, "only {with_urls}/200 spam have URLs");
    }

    #[test]
    fn fresh_ham_is_outside_pool() {
        let c = TrecCorpus::generate(&CorpusConfig::small(), 11);
        let fresh = c.fresh_ham(0);
        assert!(c.emails().iter().all(|m| m.email != fresh));
        assert_ne!(c.fresh_ham(0), c.fresh_ham(1));
    }

    #[test]
    fn bodies_wrap_into_lines() {
        let c = TrecCorpus::generate(&CorpusConfig::small(), 12);
        let any = &c.emails()[0].email;
        // Bodies longer than a dozen words contain newlines.
        if any.body().split_whitespace().count() > 15 {
            assert!(any.body().matches('\n').count() >= 2);
        }
    }

    #[test]
    fn paper_presets_match_table1() {
        assert_eq!(CorpusConfig::paper_dictionary().n_emails, 10_000);
        assert_eq!(CorpusConfig::paper_dictionary().spam_fraction, 0.5);
    }
}
