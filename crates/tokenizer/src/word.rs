//! Word-level token rules (SpamBayes `tokenize_word` equivalents).

use crate::options::TokenizerOptions;
use crate::pieces::Pieces;

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
    // Embedded mail address?
    if opts.crack_addresses && has_at {
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
    if ascii {
        out.put_ascii_folded(trimmed, opts);
    } else {
        out.put_folded(trimmed, opts);
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

    #[test]
    fn unicode_words_counted_by_chars_not_bytes() {
        // 6 characters, 12 bytes: must be treated as length 6.
        assert_eq!(run("привет"), vec!["привет"]);
    }
}
