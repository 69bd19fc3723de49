//! The synthetic vocabulary universe.
//!
//! Every word any generated email can contain comes from a fixed universe of
//! 150,568 synthetic words partitioned into five strata. The stratum sizes
//! are chosen so the two attack lexicons reproduce the paper's §3.2 / §4.2
//! numbers exactly:
//!
//! | Stratum | Ids | Size | In Aspell? | In Usenet? | Role |
//! |---|---|---|---|---|---|
//! | `CoreStandard` (A) | 0..61,000 | 61,000 | ✓ | ✓ | everyday English |
//! | `FormalStandard` (B) | 61,000..98,568 | 37,568 | ✓ | ✗ | formal/rare dictionary words |
//! | `Colloquial` (C) | 98,568..127,568 | 29,000 | ✗ | ✓ | slang, misspellings |
//! | `SpamSpecific` (D) | 127,568..135,568 | 8,000 | ✗ | ✗ | obfuscated spam vocabulary |
//! | `Personal` (E) | 135,568..150,568 | 15,000 | ✗ | ✗ | names/jargon of the victim org |
//!
//! Aspell = A∪B = **98,568** words (the paper's GNU aspell 6.0-0 count);
//! Usenet = A∪C = **90,000** words with exactly **61,000** overlap (the paper
//! reports "around 61,000"). The *optimal* attack of §3.4 is the whole
//! universe.
//!
//! Word strings are generated injectively from the global id via bijective
//! base-60 numeration over consonant-vowel syllables plus an id-derived coda
//! consonant ([`push_word`]), giving pronounceable 3–7 character words —
//! comfortably inside the tokenizer's `[3, 12]` length window. Spam-specific words additionally
//! get a leetspeak vowel substitution (`v1agra`-style), which no other
//! stratum can produce, preserving global uniqueness.

use serde::{Deserialize, Serialize};

/// Global word identifier: an index into the universe.
pub type WordId = u32;

/// Size of stratum A (core standard English; in both lexicons).
pub const CORE_STANDARD: usize = 61_000;
/// Size of stratum B (formal dictionary-only words).
pub const FORMAL_STANDARD: usize = 37_568;
/// Size of stratum C (colloquial Usenet-only words).
pub const COLLOQUIAL: usize = 29_000;
/// Size of stratum D (spam-specific obfuscations).
pub const SPAM_SPECIFIC: usize = 8_000;
/// Size of stratum E (victim-organization personal words).
pub const PERSONAL: usize = 15_000;

/// Total universe size.
pub const UNIVERSE: usize =
    CORE_STANDARD + FORMAL_STANDARD + COLLOQUIAL + SPAM_SPECIFIC + PERSONAL;

/// The five vocabulary strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stratum {
    /// Everyday English: in Aspell and in the Usenet ranking.
    CoreStandard,
    /// Formal words: in Aspell only.
    FormalStandard,
    /// Slang/misspellings: in the Usenet ranking only.
    Colloquial,
    /// Obfuscated spam vocabulary: in neither lexicon.
    SpamSpecific,
    /// Victim-organization vocabulary: in neither lexicon.
    Personal,
}

impl Stratum {
    /// All strata in id order.
    pub const ALL: [Stratum; 5] = [
        Stratum::CoreStandard,
        Stratum::FormalStandard,
        Stratum::Colloquial,
        Stratum::SpamSpecific,
        Stratum::Personal,
    ];

    /// The id range `[start, end)` of this stratum.
    pub fn range(self) -> std::ops::Range<usize> {
        match self {
            Stratum::CoreStandard => 0..CORE_STANDARD,
            Stratum::FormalStandard => CORE_STANDARD..CORE_STANDARD + FORMAL_STANDARD,
            Stratum::Colloquial => {
                CORE_STANDARD + FORMAL_STANDARD..CORE_STANDARD + FORMAL_STANDARD + COLLOQUIAL
            }
            Stratum::SpamSpecific => {
                let s = CORE_STANDARD + FORMAL_STANDARD + COLLOQUIAL;
                s..s + SPAM_SPECIFIC
            }
            Stratum::Personal => {
                let s = CORE_STANDARD + FORMAL_STANDARD + COLLOQUIAL + SPAM_SPECIFIC;
                s..s + PERSONAL
            }
        }
    }

    /// Number of words in this stratum.
    pub fn len(self) -> usize {
        self.range().len()
    }

    /// Strata are never empty.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Global id of the word with local index `local` in this stratum
    /// (local index 0 is the stratum's most frequent word).
    pub fn word(self, local: usize) -> WordId {
        let r = self.range();
        assert!(local < r.len(), "local index {local} out of stratum {self:?}");
        (r.start + local) as WordId
    }
}

/// Which stratum a global id belongs to.
pub fn stratum_of(id: WordId) -> Stratum {
    let id = id as usize;
    assert!(id < UNIVERSE, "word id {id} outside universe");
    for s in Stratum::ALL {
        if s.range().contains(&id) {
            return s;
        }
    }
    unreachable!("ranges cover the universe")
}

const CONSONANTS: [char; 20] = [
    'b', 'c', 'd', 'f', 'g', 'h', 'j', 'k', 'l', 'm', 'n', 'p', 'q', 'r', 's', 't', 'v', 'w',
    'x', 'z',
];
const VOWELS: [char; 3] = ['a', 'e', 'o'];
/// Stratum D's leetspeak vowels (`a→4, e→3, o→0`), index-aligned with
/// [`VOWELS`].
const LEET_VOWELS: [char; 3] = ['4', '3', '0'];
const CODAS: [char; 7] = ['n', 's', 'r', 'l', 't', 'm', 'k'];

/// Append the word string for a global id to `out`. Injective over the
/// universe.
///
/// The word is bijective base-60 over the 60-syllable alphabet consonant ×
/// {a,e,o} (id 0 → one syllable, …, so variable-length digit strings carry
/// no leading-zero ambiguity), then an id-derived coda consonant. A
/// stratum-D word has its first vowel replaced by a digit: the hallmark of
/// spam vocabulary. No other stratum produces digits, so uniqueness is
/// preserved.
pub fn push_word(id: WordId, out: &mut String) {
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
    // Consonants and codas hold no vowel, so the first syllable's vowel is
    // the word's first.
    let mut vowels = if Stratum::SpamSpecific.range().contains(&id_us) {
        &LEET_VOWELS
    } else {
        &VOWELS
    };
    for &digit in digits[..len].iter().rev() {
        out.push(CONSONANTS[digit % 20]);
        out.push(vowels[digit / 20]);
        vowels = &VOWELS;
    }
    out.push(CODAS[id_us % CODAS.len()]);
}

/// The word string for a global id: [`push_word`] into a fresh `String`.
pub fn word_for(id: WordId) -> String {
    let mut word = String::with_capacity(9);
    push_word(id, &mut word);
    word
}

/// The optimal attack lexicon of §3.4: every word in the universe.
pub fn all_words() -> Vec<String> {
    (0..UNIVERSE).map(|id| word_for(id as WordId)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn universe_size_matches_paper_lexicons() {
        // Aspell = A ∪ B must be the paper's 98,568 words.
        assert_eq!(CORE_STANDARD + FORMAL_STANDARD, 98_568);
        // Usenet = A ∪ C must be the paper's 90,000 words.
        assert_eq!(CORE_STANDARD + COLLOQUIAL, 90_000);
        // Overlap = A ≈ the paper's "around 61,000".
        assert_eq!(CORE_STANDARD, 61_000);
        assert_eq!(UNIVERSE, 150_568);
    }

    #[test]
    fn strata_ranges_partition_universe() {
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for s in Stratum::ALL {
            let r = s.range();
            assert_eq!(r.start, prev_end, "gap before {s:?}");
            covered += r.len();
            prev_end = r.end;
        }
        assert_eq!(covered, UNIVERSE);
    }

    #[test]
    fn stratum_of_roundtrips() {
        for s in Stratum::ALL {
            let r = s.range();
            assert_eq!(stratum_of(r.start as WordId), s);
            assert_eq!(stratum_of((r.end - 1) as WordId), s);
        }
    }

    #[test]
    fn words_are_unique_across_whole_universe() {
        let mut seen = HashSet::with_capacity(UNIVERSE);
        for id in 0..UNIVERSE {
            let w = word_for(id as WordId);
            assert!(seen.insert(w.clone()), "duplicate word {w:?} at id {id}");
        }
    }

    #[test]
    fn words_fit_tokenizer_window() {
        for id in (0..UNIVERSE).step_by(997) {
            let w = word_for(id as WordId);
            let n = w.chars().count();
            assert!((3..=12).contains(&n), "word {w:?} has length {n}");
        }
        // Edge ids too.
        for id in [0usize, 59, 60, 3659, 3660, UNIVERSE - 1] {
            let n = word_for(id as WordId).chars().count();
            assert!((3..=12).contains(&n));
        }
    }

    #[test]
    fn words_survive_tokenization_unchanged() {
        // The corpus contract: generated words ARE their own tokens.
        let tk = sb_tokenizer::Tokenizer::new();
        for id in (0..UNIVERSE).step_by(4999) {
            let w = word_for(id as WordId);
            let mut out = Vec::new();
            tk.tokenize_text(&w, &mut out);
            assert_eq!(out, vec![w.clone()], "word {w:?} not fixed by tokenizer");
        }
    }

    #[test]
    fn spam_specific_words_contain_digits_others_do_not() {
        let d = Stratum::SpamSpecific.range();
        for id in d.clone().step_by(499) {
            let w = word_for(id as WordId);
            assert!(
                w.chars().any(|c| c.is_ascii_digit()),
                "D word {w:?} lacks leet digit"
            );
        }
        for id in (0..CORE_STANDARD).step_by(4999) {
            let w = word_for(id as WordId);
            assert!(w.chars().all(|c| c.is_ascii_alphabetic()));
        }
    }

    #[test]
    fn word_generation_is_deterministic() {
        assert_eq!(word_for(12345), word_for(12345));
        assert_ne!(word_for(0), word_for(1));
    }

    #[test]
    fn stratum_word_maps_local_to_global() {
        let id = Stratum::Colloquial.word(5);
        assert_eq!(stratum_of(id), Stratum::Colloquial);
        assert_eq!(id as usize, Stratum::Colloquial.range().start + 5);
    }

    #[test]
    #[should_panic]
    fn out_of_range_id_panics() {
        let _ = word_for(UNIVERSE as WordId);
    }
}
