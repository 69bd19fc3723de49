//! Dictionary attacks (§3.2): Causative Availability Indiscriminate.
//!
//! Every attack email contains an entire lexicon, so that after training
//! (as spam) *every* lexicon word's score rises and future ham that uses
//! those words is filtered. Three lexicons, in increasing attacker
//! knowledge / effectiveness order (Figure 1):
//!
//! * **Aspell** — the English dictionary (98,568 words): no knowledge of
//!   the victim's actual usage;
//! * **Usenet-K** — the top-K words of the Usenet ranking (the paper uses
//!   K = 90,000, plus truncations for the RONI variants): colloquial usage
//!   knowledge;
//! * **Optimal** — all possible words (§3.4's theoretical optimum,
//!   simulated as the whole vocabulary universe).

use crate::attack::{build_attack_email, AttackBatch, AttackGenerator, HeaderMode};
use crate::taxonomy::AttackClass;
use sb_email::Email;
use sb_stats::rng::Xoshiro256pp;

/// Which lexicon the attack floods with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DictionaryKind {
    /// All possible words (the §3.4 optimal attack).
    Optimal,
    /// The full Aspell dictionary surrogate (98,568 words).
    Aspell,
    /// The first half of the Aspell surrogate (a weaker RONI variant).
    AspellHalf,
    /// The `k` top-ranked Usenet words.
    UsenetTop(usize),
}

impl DictionaryKind {
    /// Report name ("optimal", "aspell", "usenet-90k", …).
    pub fn name(self) -> String {
        match self {
            DictionaryKind::Optimal => "optimal".into(),
            DictionaryKind::Aspell => "aspell".into(),
            DictionaryKind::AspellHalf => "aspell-half".into(),
            DictionaryKind::UsenetTop(k) => format!("usenet-{}k", k / 1000),
        }
    }

    /// Materialize the lexicon.
    pub fn lexicon(self) -> Vec<String> {
        match self {
            DictionaryKind::Optimal => sb_corpus::all_words(),
            DictionaryKind::Aspell => sb_corpus::aspell_dictionary(),
            DictionaryKind::AspellHalf => {
                let full = sb_corpus::aspell_dictionary();
                let half = full.len() / 2;
                full.into_iter().take(half).collect()
            }
            DictionaryKind::UsenetTop(k) => sb_corpus::usenet_top(k),
        }
    }

    /// The seven dictionary-attack variants the RONI experiment tests
    /// ("15 repetitions each of seven variants of the dictionary attacks",
    /// §5.1).
    pub fn roni_variants() -> [DictionaryKind; 7] {
        [
            DictionaryKind::Optimal,
            DictionaryKind::Aspell,
            DictionaryKind::AspellHalf,
            DictionaryKind::UsenetTop(90_000),
            DictionaryKind::UsenetTop(50_000),
            DictionaryKind::UsenetTop(25_000),
            DictionaryKind::UsenetTop(10_000),
        ]
    }
}

/// A dictionary attack: a lexicon plus the (empty) header mode.
#[derive(Debug, Clone)]
pub struct DictionaryAttack {
    kind: DictionaryKind,
    prototype: Email,
    lexicon_len: usize,
}

impl DictionaryAttack {
    /// Build the attack (materializes the lexicon and the prototype email
    /// once; batches of any size reuse them).
    pub fn new(kind: DictionaryKind) -> Self {
        let lexicon = kind.lexicon();
        let prototype = build_attack_email(&lexicon, &HeaderMode::Empty);
        Self {
            kind,
            prototype,
            lexicon_len: lexicon.len(),
        }
    }

    /// Which lexicon this attack uses.
    pub fn kind(&self) -> DictionaryKind {
        self.kind
    }

    /// Number of words in the lexicon.
    pub fn lexicon_len(&self) -> usize {
        self.lexicon_len
    }

    /// The shared attack-email prototype.
    pub fn prototype(&self) -> &Email {
        &self.prototype
    }
}

impl AttackGenerator for DictionaryAttack {
    fn name(&self) -> String {
        self.kind.name()
    }

    fn class(&self) -> AttackClass {
        AttackClass::causative_availability_indiscriminate()
    }

    fn generate(&self, n: u32, _rng: &mut Xoshiro256pp) -> AttackBatch {
        AttackBatch::new(vec![(self.prototype.clone(), n)])
    }
}

/// Attack-size helper: the number of attack emails that makes up fraction
/// `frac` of the *contaminated* training set, as in the paper's
/// "1% of 10,000 = 101 messages" arithmetic: solving
/// `a / (n + a) = frac` gives `a = frac·n / (1 − frac)`.
pub fn attack_count_for_fraction(training_set_size: usize, frac: f64) -> u32 {
    assert!((0.0..1.0).contains(&frac), "fraction must be in [0, 1)");
    let a = frac * training_set_size as f64 / (1.0 - frac);
    a.round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_tokenizer::Tokenizer;

    #[test]
    fn paper_attack_sizes() {
        // "By 101 attack emails (1% of 10,000)" — §4.2.
        assert_eq!(attack_count_for_fraction(10_000, 0.01), 101);
        // "at 204 attack emails (2% of the messages)" — §4.2.
        assert_eq!(attack_count_for_fraction(10_000, 0.02), 204);
        assert_eq!(attack_count_for_fraction(10_000, 0.0), 0);
    }

    #[test]
    fn lexicon_sizes_match_paper() {
        assert_eq!(DictionaryKind::Aspell.lexicon().len(), 98_568);
        assert_eq!(DictionaryKind::UsenetTop(90_000).lexicon().len(), 90_000);
        assert_eq!(DictionaryKind::Optimal.lexicon().len(), 150_568);
        assert_eq!(DictionaryKind::AspellHalf.lexicon().len(), 49_284);
    }

    #[test]
    fn batches_are_single_group_with_empty_headers() {
        let atk = DictionaryAttack::new(DictionaryKind::UsenetTop(1_000));
        let mut rng = Xoshiro256pp::new(1);
        let batch = atk.generate(101, &mut rng);
        assert_eq!(batch.len(), 101);
        assert_eq!(batch.groups().len(), 1);
        assert!(batch.groups()[0].0.has_empty_headers());
    }

    #[test]
    fn attack_email_contains_whole_lexicon_as_tokens() {
        let atk = DictionaryAttack::new(DictionaryKind::UsenetTop(2_000));
        let set = Tokenizer::new().token_set(atk.prototype());
        assert_eq!(set.len(), 2_000, "every lexicon word must token-survive");
    }

    #[test]
    fn roni_variant_list_has_seven_distinct_attacks() {
        let variants = DictionaryKind::roni_variants();
        assert_eq!(variants.len(), 7);
        let names: std::collections::HashSet<String> =
            variants.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn taxonomy_classification() {
        let atk = DictionaryAttack::new(DictionaryKind::UsenetTop(1_000));
        assert_eq!(
            atk.class(),
            AttackClass::causative_availability_indiscriminate()
        );
        assert_eq!(atk.name(), "usenet-1k");
    }

    #[test]
    fn generation_ignores_rng() {
        let atk = DictionaryAttack::new(DictionaryKind::UsenetTop(500));
        let b1 = atk.generate(3, &mut Xoshiro256pp::new(1));
        let b2 = atk.generate(3, &mut Xoshiro256pp::new(999));
        assert_eq!(b1.groups()[0].0, b2.groups()[0].0);
    }
}
