//! URL decomposition (SpamBayes `crack_urls` equivalent).
//!
//! URLs are strong spam signals; SpamBayes splits them into protocol and
//! component tokens rather than treating the whole URL as one rare token.

use crate::options::TokenizerOptions;
use crate::pieces::Pieces;

/// Write the `proto:`/`url:` tokens of every URL in `text`, in order, and
/// then `words` of the text between and around them, so word tokenization
/// does not see a URL twice.
pub(crate) fn crack_urls(
    text: &str,
    opts: &TokenizerOptions,
    out: &mut Pieces,
    mut words: impl FnMut(&str, &mut Pieces),
) {
    let mut urls = Vec::new();
    let mut at = 0;
    while let Some((start, end, scheme)) = find_url(&text[at..]) {
        emit_url_tokens(&text[at + start..at + end], scheme, opts, out);
        urls.push((at + start, at + end));
        at += end;
    }
    let mut from = 0;
    for (start, end) in urls {
        words(&text[from..start], out);
        from = end;
    }
    words(&text[from..], out);
}

/// Locate the next URL: `(start, end, scheme)`. Recognizes explicit schemes
/// (`http://`, `https://`, `ftp://`, any ASCII case) and bare `www.` hosts.
/// Only the first `www.` of `text` is a bare-host candidate, and only when
/// it starts a word.
///
/// Every opener holds a `:` or `.` a fixed distance past its start (the
/// scheme's colon, `www`'s dot), so the scan looks only at those anchor
/// bytes, eight bytes at a time, and checks the few bytes before each.
fn find_url(text: &str) -> Option<(usize, usize, &'static str)> {
    let bytes = text.as_bytes();
    let mut best: Option<(usize, &'static str)> = None;
    let mut www_seen = false;
    let mut from = 0;
    while let Some(p) = find_anchor(bytes, from) {
        // An opener's anchor is at most 5 bytes past its start, so no
        // anchor from here on can open a URL before `best`.
        if best.is_some_and(|(start, _)| p >= start + 5) {
            break;
        }
        from = p + 1;
        let hit = if bytes[p] == b':' {
            scheme_before(bytes, p)
        } else if !www_seen && p >= 3 && bytes[p - 3..p].eq_ignore_ascii_case(b"www") {
            www_seen = true;
            at_word_boundary(text, p - 3).then_some((p - 3, "http"))
        } else {
            None
        };
        if let Some((start, scheme)) = hit {
            if best.is_none_or(|(b, _)| start < b) {
                best = Some((start, scheme));
            }
        }
    }
    best.map(|(start, scheme)| (start, url_end(text, start), scheme))
}

/// The scheme whose `://` has its colon at byte `p`, with its start.
fn scheme_before(bytes: &[u8], p: usize) -> Option<(usize, &'static str)> {
    if bytes.get(p + 1..p + 3) != Some(b"//") {
        return None;
    }
    [("https", 5), ("http", 4), ("ftp", 3)]
        .into_iter()
        .find(|&(name, n)| p >= n && bytes[p - n..p].eq_ignore_ascii_case(name.as_bytes()))
        .map(|(name, n)| (p - n, name))
}

/// The first `:` or `.` at or after byte `from`, testing eight bytes per
/// step.
fn find_anchor(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // A high bit in every byte of `word` equal to `b`, and possibly in
    // bytes after the first such one: the lowest set bit is exact.
    let matches = |word: u64, b: u8| {
        let x = word ^ (ONES * u64::from(b));
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    let rest = bytes.get(from..)?;
    let mut chunks = rest.chunks_exact(8);
    let mut at = from;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let hits = matches(word, b':') | matches(word, b'.');
        if hits != 0 {
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = chunks.remainder();
    tail.iter()
        .position(|&b| b == b':' || b == b'.')
        .map(|k| at + k)
}

/// True when byte `pos` of `text` starts a word: the text's start, or
/// after whitespace, `(`, `<` or `"`.
fn at_word_boundary(text: &str, pos: usize) -> bool {
    pos == 0
        || text[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_whitespace() || c == '(' || c == '<' || c == '"')
}

/// A URL ends at whitespace or a closing delimiter.
fn url_end(text: &str, start: usize) -> usize {
    text[start..]
        .find(|c: char| c.is_whitespace() || c == '>' || c == ')' || c == '"' || c == '\'')
        .map(|off| start + off)
        .unwrap_or(text.len())
}

/// Emit tokens for one URL.
fn emit_url_tokens(url: &str, scheme: &'static str, opts: &TokenizerOptions, out: &mut Pieces) {
    out.put("proto:");
    out.put(scheme);
    out.end();
    // Strip the scheme prefix if present; bare www. hosts keep their "www"
    // label (SpamBayes emits url:www for them too).
    let rest = url.split_once("://").map_or(url, |x| x.1);
    // host[:port][/path...]
    let (host_port, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i + 1..]),
        None => (rest, ""),
    };
    let host = host_port.split(':').next().unwrap_or(host_port);
    let mut url_token = |part: &str| {
        out.put("url:");
        out.put_folded(part, opts);
        out.end();
    };
    for label in host.split('.') {
        let label = label.trim_matches(|c: char| c.is_ascii_punctuation());
        if !label.is_empty() {
            url_token(label);
        }
    }
    for seg in path.split(['/', '?', '&', '=']) {
        let seg = seg.trim_matches(|c: char| c.is_ascii_punctuation());
        if !seg.is_empty() && seg.len() <= 40 {
            url_token(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The URL tokens of `text`, and the text around its URLs joined by
    /// single spaces (the body-sized copy word tokenization once read).
    fn crack(text: &str) -> (Vec<String>, String) {
        let mut out = Pieces::default();
        let mut around = Vec::new();
        crack_urls(text, &TokenizerOptions::default(), &mut out, |seg, _| {
            around.push(seg.to_owned())
        });
        (out.iter().map(str::to_owned).collect(), around.join(" "))
    }

    /// The finder before it became one pass: one case-insensitive scan of
    /// the rest of the body per needle (the tokenizer oracle's
    /// `find_url`).
    fn find_url_oracle(text: &str) -> Option<(usize, usize, &'static str)> {
        const SCHEMES: [(&str, &str); 3] = [
            ("http://", "http"),
            ("https://", "https"),
            ("ftp://", "ftp"),
        ];
        let mut best: Option<(usize, usize, &'static str)> = None;
        for (prefix, scheme) in SCHEMES {
            if let Some(pos) = find_ascii_case_insensitive(text, prefix) {
                if best.is_none_or(|(b, _, _)| pos < b) {
                    let end = url_end(text, pos);
                    best = Some((pos, end, scheme));
                }
            }
        }
        // Bare "www." host, only at a word boundary.
        if let Some(pos) = find_ascii_case_insensitive(text, "www.") {
            let at_boundary = pos == 0
                || text[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_whitespace() || c == '(' || c == '<' || c == '"');
            if at_boundary && best.is_none_or(|(b, _, _)| pos < b) {
                let end = url_end(text, pos);
                best = Some((pos, end, "http"));
            }
        }
        best
    }

    fn find_ascii_case_insensitive(haystack: &str, needle: &str) -> Option<usize> {
        if needle.is_empty() || haystack.len() < needle.len() {
            return None;
        }
        let hb = haystack.as_bytes();
        let nb = needle.as_bytes();
        'outer: for i in 0..=(hb.len() - nb.len()) {
            for j in 0..nb.len() {
                if !hb[i + j].eq_ignore_ascii_case(&nb[j]) {
                    continue 'outer;
                }
            }
            return Some(i);
        }
        None
    }

    /// Bodies dense in URL openers: schemes and `www.` in mixed case,
    /// delimiters, punctuation and non-ASCII text between them.
    const URL_SOUP: &str = "((http://|HTTPS://|fTp://|xwww\\.|www\\.|WWW\\.| wWw\\.|<www\\.|ww|htt)|[a-z0-9./:<>()\"' ?&=]{0,6}|\\PC{0,3}|(Σ|İ|ß|é|\u{3000})){0,30}";

    /// Bodies dense in near-misses of an opener: a doubled first
    /// letter, a short or missing slash, a scheme colon with no slashes,
    /// a fourth `w`, `www.` inside a word, non-ASCII just before `www.`,
    /// and anchor bytes (`:`, `.`) with nothing in front.
    const NEAR_MISSES: &str = "((hhttp://|hTTp:/|HTTPS:/|https:|ftp:|fttp://|ftp:/|wwww\\.|ww\\.|w\\.www|xwww\\.|www|(é|ß|Σ|\u{a0}|\u{3000})www\\.|[:.]{1,3}|http|https|ftp|www\\.)|[a-z ]{0,3}){0,24}";

    /// Every URL of `text` by the anchored finder and by the oracle.
    fn all_urls(
        text: &str,
        find: fn(&str) -> Option<(usize, usize, &'static str)>,
    ) -> Vec<(usize, usize, &'static str)> {
        let mut urls = Vec::new();
        let mut at = 0;
        while let Some((start, end, scheme)) = find(&text[at..]) {
            urls.push((at + start, at + end, scheme));
            at += end;
        }
        urls
    }

    proptest! {
        #[test]
        fn anchored_finder_matches_the_oracle_on_near_misses(text in NEAR_MISSES) {
            prop_assert_eq!(all_urls(&text, find_url), all_urls(&text, find_url_oracle));
        }

        #[test]
        fn one_pass_finder_matches_the_oracle(text in URL_SOUP) {
            let mut at = 0;
            loop {
                let rest = &text[at..];
                let got = find_url(rest);
                prop_assert_eq!(got, find_url_oracle(rest), "text {:?} from byte {}", text, at);
                match got {
                    Some((_, end, _)) => at += end,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn only_the_first_www_is_a_candidate() {
        // The first "www." is mid-word, so the later one at a word
        // boundary is not considered either.
        assert_eq!(find_url("xwww.a www.b.com"), None);
        assert_eq!(find_url_oracle("xwww.a www.b.com"), None);
        // A scheme after the dropped "www." still counts.
        assert_eq!(find_url("xwww.a http://b.com").map(|u| u.2), Some("http"));
    }

    #[test]
    fn http_url_decomposed() {
        let (tokens, cleaned) = crack("visit http://Pills.Example.COM/buy/now today");
        assert!(tokens.contains(&"proto:http".to_owned()));
        assert!(tokens.contains(&"url:pills".to_owned()));
        assert!(tokens.contains(&"url:example".to_owned()));
        assert!(tokens.contains(&"url:com".to_owned()));
        assert!(tokens.contains(&"url:buy".to_owned()));
        assert!(tokens.contains(&"url:now".to_owned()));
        assert!(!cleaned.contains("http://"));
        assert!(cleaned.contains("visit"));
        assert!(cleaned.contains("today"));
    }

    #[test]
    fn https_and_ftp_schemes() {
        let (t1, _) = crack("https://secure.example.org");
        assert!(t1.contains(&"proto:https".to_owned()));
        let (t2, _) = crack("ftp://files.example.org");
        assert!(t2.contains(&"proto:ftp".to_owned()));
    }

    #[test]
    fn bare_www_recognized_at_boundary() {
        let (tokens, _) = crack("go to www.example.com now");
        assert!(tokens.contains(&"proto:http".to_owned()));
        assert!(tokens.contains(&"url:example".to_owned()));
    }

    #[test]
    fn www_mid_word_not_a_url() {
        let (tokens, cleaned) = crack("swww.ord");
        assert!(tokens.is_empty());
        assert_eq!(cleaned, "swww.ord");
    }

    #[test]
    fn url_ends_at_closing_delimiters() {
        let (tokens, cleaned) = crack("(see http://example.org/page) rest");
        assert!(tokens.contains(&"url:page".to_owned()));
        assert!(cleaned.contains(") rest"));
    }

    #[test]
    fn multiple_urls_all_cracked() {
        let (tokens, _) = crack("http://a.com and http://b.net");
        assert!(tokens.contains(&"url:a".to_owned()));
        assert!(tokens.contains(&"url:b".to_owned()));
        assert_eq!(tokens.iter().filter(|t| *t == "proto:http").count(), 2);
    }

    #[test]
    fn port_stripped_from_host() {
        let (tokens, _) = crack("http://example.org:8080/x");
        assert!(tokens.contains(&"url:example".to_owned()));
        assert!(!tokens.iter().any(|t| t.contains("8080")));
    }

    #[test]
    fn no_urls_leaves_text_untouched() {
        let (tokens, cleaned) = crack("plain words only");
        assert!(tokens.is_empty());
        assert_eq!(cleaned, "plain words only");
    }
}
