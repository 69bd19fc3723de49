//! Word-level token rules (SpamBayes `tokenize_word` equivalents).
//!
//! Free text reaches the rules through one byte-class pass
//! ([`tokenize_words`]): a single loop over a 256-entry class table splits
//! on ASCII whitespace and flags `@`, uppercase and non-ASCII bytes, the
//! edge trim steps over punctuation bytes, and an ASCII word's length in
//! chars is its length in bytes, so an ASCII word is copied and folded
//! without decoding a char. A word holding any non-ASCII byte takes the
//! exact `char` path instead ([`tokenize_word`] on its
//! `split_whitespace` pieces), because Unicode whitespace (U+0085, U+00A0,
//! U+2028, …) may hide inside it.

use crate::options::TokenizerOptions;
use crate::pieces::Pieces;

/// Byte class: whitespace (`char::is_whitespace` of an ASCII byte: tab,
/// LF, VT, FF, CR and space).
const SPACE: u8 = 1;
/// Byte class: trimmed from word edges (ASCII punctuation but `$`).
const EDGE: u8 = 2;
/// Byte class: `@`.
const AT: u8 = 4;
/// Byte class: `A`–`Z`.
const UPPER: u8 = 8;
/// Byte class: not ASCII.
const HIGH: u8 = 16;

/// Every byte's classes.
const CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        class[b] = if !c.is_ascii() {
            HIGH
        } else if matches!(c, b'\t'..=b'\r' | b' ') {
            SPACE
        } else if c == b'@' {
            EDGE | AT
        } else if c.is_ascii_punctuation() && c != b'$' {
            EDGE
        } else if c.is_ascii_uppercase() {
            UPPER
        } else {
            0
        };
        b += 1;
    }
    class
};

/// What the word rules need to know about a trimmed word.
#[derive(Clone, Copy)]
struct Shape {
    /// Every byte is ASCII.
    ascii: bool,
    /// It may hold an `@` (false only when it holds none).
    has_at: bool,
    /// It may hold an uppercase ASCII letter (false only when it holds
    /// none).
    has_upper: bool,
    /// Its length in chars.
    len: usize,
}

/// Write the tokens of every whitespace-separated word of `text` (the
/// byte-class pass; see module docs).
pub(crate) fn tokenize_words(text: &str, opts: &TokenizerOptions, out: &mut Pieces) {
    let bytes = text.as_bytes();
    let class = |i: usize| CLASS[usize::from(bytes[i])];
    let mut i = 0;
    while i < bytes.len() {
        if class(i) & SPACE != 0 {
            i += 1;
            continue;
        }
        let start = i;
        let mut seen = 0;
        while i < bytes.len() && class(i) & SPACE == 0 {
            seen |= class(i);
            i += 1;
        }
        if seen & HIGH != 0 {
            for raw in text[start..i].split_whitespace() {
                tokenize_word("", raw, opts, out);
            }
            continue;
        }
        let (mut s, mut e) = (start, i);
        while s < e && class(s) & EDGE != 0 {
            s += 1;
        }
        while e > s && class(e - 1) & EDGE != 0 {
            e -= 1;
        }
        if s == e {
            continue;
        }
        let shape = Shape {
            ascii: true,
            has_at: seen & AT != 0,
            has_upper: seen & UPPER != 0,
            len: e - s,
        };
        emit_word("", &text[s..e], shape, opts, out);
    }
}

/// Push one raw word through the word rules, writing its token (if any)
/// with `prefix` in front.
pub(crate) fn tokenize_word(prefix: &str, word: &str, opts: &TokenizerOptions, out: &mut Pieces) {
    let trimmed = trim_punct(word);
    if trimmed.is_empty() {
        return;
    }
    // One branch-free pass: all-ASCII?, any '@'?, and the length in
    // chars (bytes that are not UTF-8 continuation bytes).
    let (mut ascii, mut has_at, mut len) = (true, false, 0usize);
    for &b in trimmed.as_bytes() {
        ascii &= b.is_ascii();
        has_at |= b == b'@';
        len += usize::from((b as i8) >= -0x40);
    }
    let shape = Shape {
        ascii,
        has_at,
        has_upper: true,
        len,
    };
    emit_word(prefix, trimmed, shape, opts, out);
}

/// The word rules for a trimmed, non-empty word.
fn emit_word(prefix: &str, trimmed: &str, shape: Shape, opts: &TokenizerOptions, out: &mut Pieces) {
    // Embedded mail address?
    if opts.crack_addresses && shape.has_at {
        if let Some((local, domain)) = split_address(trimmed) {
            for (tag, part) in [("email name:", local), ("email addr:", domain)] {
                out.put(prefix);
                out.put(tag);
                out.put_folded(part, opts);
                out.end();
            }
            return;
        }
    }
    let len = shape.len;
    if len < opts.min_word_size {
        return; // too short: contributes nothing (SpamBayes drops it)
    }
    if len > opts.max_word_size {
        if opts.generate_long_skips {
            // SpamBayes: "skip:%c %d" with the length bucketed to tens.
            let first = trimmed.chars().next().unwrap_or('?');
            out.put(prefix);
            out.put("skip:");
            out.put_char(first);
            out.put(" ");
            out.put_number(len / 10 * 10);
            out.end();
        }
        return;
    }
    out.put(prefix);
    if !shape.ascii {
        out.put_folded(trimmed, opts);
    } else if shape.has_upper {
        out.put_ascii_folded(trimmed, opts);
    } else {
        out.put(trimmed);
    }
    out.end();
}

/// Strip leading/trailing punctuation (quotes, brackets, sentence marks) but
/// keep interior punctuation ("don't", "e-mail", "u.s.a" survive).
pub(crate) fn trim_punct(word: &str) -> &str {
    word.trim_matches(|c: char| {
        c.is_ascii_punctuation() && c != '$' // '$' is famously spammy; keep it
    })
}

/// Split `local@domain`, requiring non-empty halves and a dot in the domain
/// or a short bare host.
pub(crate) fn split_address(word: &str) -> Option<(&str, &str)> {
    let at = word.find('@')?;
    let (local, rest) = word.split_at(at);
    let domain = &rest[1..];
    if local.is_empty() || domain.is_empty() || domain.contains('@') {
        return None;
    }
    Some((local, domain))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(word: &str, opts: &TokenizerOptions) -> Vec<String> {
        let mut out = Pieces::default();
        tokenize_word("", word, opts, &mut out);
        out.iter().map(str::to_owned).collect()
    }

    fn run(word: &str) -> Vec<String> {
        run_with(word, &TokenizerOptions::default())
    }

    #[test]
    fn normal_word_is_lowercased() {
        assert_eq!(run("Hello"), vec!["hello"]);
    }

    #[test]
    fn short_words_dropped() {
        assert!(run("a").is_empty());
        assert!(run("ab").is_empty());
        assert_eq!(run("abc"), vec!["abc"]);
    }

    #[test]
    fn long_words_become_skip_tokens() {
        let t = run("supercalifragilistic"); // 20 chars
        assert_eq!(t, vec!["skip:s 20"]);
        let t = run("abcdefghijklm"); // 13 chars
        assert_eq!(t, vec!["skip:a 10"]);
    }

    #[test]
    fn twelve_char_word_kept_thirteen_skipped() {
        assert_eq!(run("abcdefghijkl"), vec!["abcdefghijkl"]);
        assert_eq!(run("abcdefghijklm"), vec!["skip:a 10"]);
    }

    #[test]
    fn punctuation_trimmed_but_interior_kept() {
        assert_eq!(run("(bid,"), vec!["bid"]);
        assert_eq!(run("don't"), vec!["don't"]);
        assert_eq!(run("\"e-mail\""), vec!["e-mail"]);
    }

    #[test]
    fn dollar_sign_survives() {
        assert_eq!(run("$100k"), vec!["$100k"]);
    }

    #[test]
    fn addresses_crack_into_name_and_domain() {
        let t = run("Alice.Smith@Example.COM");
        assert_eq!(t, vec!["email name:alice.smith", "email addr:example.com"]);
    }

    #[test]
    fn malformed_address_falls_through_to_word_rules() {
        // "@" with empty local part is not an address; too short anyway.
        assert!(run("@b").is_empty());
        // Trailing '@' is edge punctuation: trimmed, then ordinary word rules.
        assert_eq!(run("weird@"), vec!["weird"]);
    }

    #[test]
    fn skip_generation_can_be_disabled() {
        let opts = TokenizerOptions {
            generate_long_skips: false,
            ..Default::default()
        };
        assert!(run_with("supercalifragilistic", &opts).is_empty());
    }

    #[test]
    fn case_sensitivity_option() {
        let opts = TokenizerOptions {
            lowercase: false,
            ..Default::default()
        };
        assert_eq!(run_with("Hello", &opts), vec!["Hello"]);
    }

    /// The tokens of `text` through the byte-class pass.
    fn words_with(text: &str, opts: &TokenizerOptions) -> Vec<String> {
        let mut out = Pieces::default();
        tokenize_words(text, opts, &mut out);
        out.iter().map(str::to_owned).collect()
    }

    /// The tokens of `text` through `split_whitespace` and the per-word
    /// rules.
    fn words_by_char(text: &str, opts: &TokenizerOptions) -> Vec<String> {
        let mut out = Pieces::default();
        for raw in text.split_whitespace() {
            tokenize_word("", raw, opts, &mut out);
        }
        out.iter().map(str::to_owned).collect()
    }

    #[test]
    fn class_table_matches_the_char_predicates() {
        for b in 0..=255u8 {
            let class = CLASS[usize::from(b)];
            let c = char::from(b);
            assert_eq!(class & HIGH != 0, !b.is_ascii(), "{b:#04x}");
            if b.is_ascii() {
                assert_eq!(class & SPACE != 0, c.is_whitespace(), "{b:#04x}");
                let edge = c.is_ascii_punctuation() && c != '$';
                assert_eq!(class & EDGE != 0, edge, "{b:#04x}");
                assert_eq!(class & UPPER != 0, c.is_ascii_uppercase(), "{b:#04x}");
                assert_eq!(class & AT != 0, c == '@', "{b:#04x}");
            }
        }
    }

    #[test]
    fn byte_class_pass_matches_the_char_path() {
        let texts = [
            "Hello, World! (bid) \"e-mail\" $100k don't",
            "a\u{0b}bcd\u{0c}efgh\rijkl\tmnop\nqrst",
            "ab\u{85}cdef\u{a0}ghij\u{2028}klmn\u{3000}opqr",
            "@start end@ mid@dle Alice.Smith@Example.COM @@ ..@..",
            "$$$ $word$ ...!!! SUPERCALIFRAGILISTIC Straße ΣΟΦΟΣ pаypal",
            "\u{1c}x\u{1f}yz \u{7f}abc",
        ];
        for opts in [
            TokenizerOptions::default(),
            TokenizerOptions::bogofilter_flavor(),
            TokenizerOptions {
                crack_addresses: false,
                ..TokenizerOptions::default()
            },
        ] {
            for text in texts {
                assert_eq!(
                    words_with(text, &opts),
                    words_by_char(text, &opts),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    fn unicode_words_counted_by_chars_not_bytes() {
        // 6 characters, 12 bytes: must be treated as length 6.
        assert_eq!(run("привет"), vec!["привет"]);
    }
}
