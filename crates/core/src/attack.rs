//! Attack-email construction and the attack interface.
//!
//! The contamination assumption (§2.2) with its two restrictions is encoded
//! here: attackers control **bodies only** — attack emails carry either
//! empty headers (dictionary attacks) or headers copied verbatim from a
//! random existing spam (focused attack, §4.1) — and attack emails are
//! always **trained as spam**.

use crate::taxonomy::AttackClass;
use sb_email::{Email, Label};
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;

/// How attack emails obtain headers (§4.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum HeaderMode {
    /// No headers at all (dictionary attacks).
    #[default]
    Empty,
    /// Headers copied from this existing spam message (focused attack).
    Donor(Email),
}

/// A batch of attack emails, grouped by identical prototypes.
///
/// Dictionary attacks send `n` byte-identical emails: one group with count
/// `n`. Storing groups instead of `n` cloned ~800 KB bodies keeps a
/// 10%-contamination sweep at paper scale in tens of megabytes instead of
/// tens of gigabytes, and lets trainers use the `train_many` multiplicity
/// fast path.
#[derive(Debug, Clone)]
pub struct AttackBatch {
    groups: Vec<(Email, u32)>,
}

impl AttackBatch {
    /// Build from prototype/count pairs.
    pub fn new(groups: Vec<(Email, u32)>) -> Self {
        Self { groups }
    }

    /// The prototype groups.
    pub fn groups(&self) -> &[(Email, u32)] {
        &self.groups
    }

    /// Total number of attack emails in the batch.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|&(_, n)| n as usize).sum()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokenized form: `(token_set, count)` per group. This is what gets
    /// trained (always as spam — the §2.2 restriction).
    pub fn token_groups(&self, tokenizer: &Tokenizer) -> Vec<(Vec<String>, u32)> {
        self.groups
            .iter()
            .map(|(e, n)| (tokenizer.token_set(e), *n))
            .collect()
    }

    /// Interned form: `(id_set, count)` per group — tokenize + intern once
    /// per prototype, then train/untrain by id however many times the
    /// experiment sweeps over the batch.
    pub fn token_id_groups(
        &self,
        tokenizer: &Tokenizer,
        interner: &sb_intern::Interner,
    ) -> Vec<(Vec<sb_intern::TokenId>, u32)> {
        self.groups
            .iter()
            .map(|(e, n)| (tokenizer.intern_ids(e, interner), *n))
            .collect()
    }

    /// Materialize every individual email (for mbox export / inspection):
    /// each group's `n` entries are `n` handles to its one prototype, so
    /// the batch costs one message per group, not per email.
    pub fn materialize(&self) -> Vec<Email> {
        let mut out = Vec::with_capacity(self.len());
        for (e, n) in &self.groups {
            for _ in 0..*n {
                out.push(e.clone());
            }
        }
        out
    }

    /// The label attack emails are trained with: always spam (§2.2).
    pub const fn training_label() -> Label {
        Label::Spam
    }
}

/// Common interface of the paper's attacks.
pub trait AttackGenerator {
    /// Short identifier used in reports ("optimal", "usenet-90k", …).
    fn name(&self) -> String;

    /// Where the attack sits in the §3.1 taxonomy.
    fn class(&self) -> AttackClass;

    /// Produce a batch of `n` attack emails. `rng` drives any stochastic
    /// choices (e.g. focused-attack token guessing); dictionary attacks are
    /// deterministic and ignore it.
    fn generate(&self, n: u32, rng: &mut Xoshiro256pp) -> AttackBatch;
}

/// Assemble an attack email from a word list and a header mode.
///
/// Words are joined with spaces and wrapped into ~15-word lines; bodies are
/// exactly what the tokenizer will see (attack words are fixed points of
/// tokenization — validated by the corpus substrate's tests).
pub fn build_attack_email(words: &[String], header: &HeaderMode) -> Email {
    let mut body = String::with_capacity(words.len() * 8);
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            if i % 15 == 0 {
                body.push('\n');
            } else {
                body.push(' ');
            }
        }
        body.push_str(w);
    }
    body.push('\n');
    let headers = match header {
        HeaderMode::Empty => Vec::new(),
        HeaderMode::Donor(donor) => donor.headers().to_vec(),
    };
    Email::from_parts(headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("word{i:04}")).collect()
    }

    #[test]
    fn empty_header_mode_yields_headerless_email() {
        let e = build_attack_email(&words(30), &HeaderMode::Empty);
        assert!(e.has_empty_headers());
        assert!(e.body().contains("word0000"));
        assert!(e.body().contains("word0029"));
    }

    #[test]
    fn donor_header_mode_copies_headers() {
        let donor = Email::builder()
            .from_addr("spammer@evil.example")
            .subject("donor subject")
            .body("donor body is NOT copied")
            .build();
        let e = build_attack_email(&words(5), &HeaderMode::Donor(donor.clone()));
        assert_eq!(e.from_addr(), donor.from_addr());
        assert_eq!(e.subject(), donor.subject());
        assert!(!e.body().contains("donor body"));
    }

    #[test]
    fn bodies_wrap_lines() {
        let e = build_attack_email(&words(40), &HeaderMode::Empty);
        assert!(e.body().matches('\n').count() >= 3);
    }

    #[test]
    fn attack_words_tokenize_to_themselves() {
        let lexicon: Vec<String> = sb_corpus::usenet_top(50);
        let e = build_attack_email(&lexicon, &HeaderMode::Empty);
        let set = Tokenizer::new().token_set(&e);
        for w in &lexicon {
            assert!(set.contains(w), "lexicon word {w:?} missing after tokenize");
        }
    }

    #[test]
    fn batch_counts_and_token_groups() {
        let proto = build_attack_email(&words(10), &HeaderMode::Empty);
        let batch = AttackBatch::new(vec![(proto.clone(), 7)]);
        assert_eq!(batch.len(), 7);
        assert!(!batch.is_empty());
        let tg = batch.token_groups(&Tokenizer::new());
        assert_eq!(tg.len(), 1);
        assert_eq!(tg[0].1, 7);
        assert_eq!(tg[0].0.len(), 10);
        assert_eq!(batch.materialize().len(), 7);
    }

    #[test]
    fn training_label_is_always_spam() {
        assert_eq!(AttackBatch::training_label(), Label::Spam);
    }
}
