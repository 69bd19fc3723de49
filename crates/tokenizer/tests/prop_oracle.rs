//! Equivalence: the arena tokenizer against the string tokenizer it
//! replaced.
//!
//! `oracle` is the tokenizer as it was when every token was a `format!`ed
//! `String` and URL cracking copied the body with each URL blanked out.
//! The properties check that `tokenize`, `token_set`, `token_count` and
//! the fused id paths (`intern_ids`, `lookup_ids`) agree with it on mail
//! built to reach every rule: URLs in mixed case, addresses, long words,
//! every mined header, and non-ASCII text whose lowercasing depends on
//! context (a final `Σ`), expands (`İ`) or has no single-char lowercase
//! (`ß`), plus visual-spoof words mixing Latin with Cyrillic and Greek
//! confusables. Words are separated by every whitespace the byte-class
//! pass must agree with `char::is_whitespace` on: ASCII space, tab and
//! line ends, VT, FF and a lone CR (which `u8::is_ascii_whitespace` does
//! not all count), and U+0085, U+00A0, U+2028 and U+3000; and words carry
//! `@` and `$` at their edges, where the trim and the address rule meet.

use proptest::prelude::*;
use sb_email::Email;
use sb_intern::Interner;
use sb_tokenizer::{Tokenizer, TokenizerOptions};

mod oracle {
    use sb_email::Email;
    use sb_tokenizer::TokenizerOptions;

    pub fn tokenize(email: &Email, opts: &TokenizerOptions) -> Vec<String> {
        let mut out = Vec::new();
        tokenize_headers(email, opts, &mut out);
        tokenize_text(email.body(), opts, &mut out);
        out
    }

    pub fn token_set(email: &Email, opts: &TokenizerOptions) -> Vec<String> {
        let mut tokens = tokenize(email, opts);
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    fn tokenize_text(text: &str, opts: &TokenizerOptions, out: &mut Vec<String>) {
        let cleaned: std::borrow::Cow<'_, str> = if opts.crack_urls {
            std::borrow::Cow::Owned(crack_urls(text, opts, out))
        } else {
            std::borrow::Cow::Borrowed(text)
        };
        for raw in cleaned.split_whitespace() {
            tokenize_word(raw, opts, out);
        }
    }

    fn tokenize_word(word: &str, opts: &TokenizerOptions, out: &mut Vec<String>) {
        let trimmed = trim_punct(word);
        if trimmed.is_empty() {
            return;
        }
        if opts.crack_addresses && trimmed.contains('@') {
            if let Some((local, domain)) = split_address(trimmed) {
                out.push(format!("email name:{}", fold(local, opts)));
                out.push(format!("email addr:{}", fold(domain, opts)));
                return;
            }
        }
        let len = trimmed.chars().count();
        if len < opts.min_word_size {
            return;
        }
        if len > opts.max_word_size {
            if opts.generate_long_skips {
                let first = trimmed.chars().next().unwrap_or('?');
                out.push(format!("skip:{} {}", first, len / 10 * 10));
            }
            return;
        }
        out.push(fold(trimmed, opts));
    }

    fn fold(s: &str, opts: &TokenizerOptions) -> String {
        if opts.lowercase {
            s.to_lowercase()
        } else {
            s.to_owned()
        }
    }

    fn trim_punct(word: &str) -> &str {
        word.trim_matches(|c: char| c.is_ascii_punctuation() && c != '$')
    }

    fn split_address(word: &str) -> Option<(&str, &str)> {
        let at = word.find('@')?;
        let (local, rest) = word.split_at(at);
        let domain = &rest[1..];
        if local.is_empty() || domain.is_empty() || domain.contains('@') {
            return None;
        }
        Some((local, domain))
    }

    fn crack_urls(text: &str, opts: &TokenizerOptions, out: &mut Vec<String>) -> String {
        let mut result = String::with_capacity(text.len());
        let mut rest = text;
        loop {
            match find_url(rest) {
                Some((start, end, scheme)) => {
                    result.push_str(&rest[..start]);
                    result.push(' ');
                    emit_url_tokens(&rest[start..end], scheme, opts, out);
                    rest = &rest[end..];
                }
                None => {
                    result.push_str(rest);
                    break;
                }
            }
        }
        result
    }

    fn find_url(text: &str) -> Option<(usize, usize, &'static str)> {
        const SCHEMES: [(&str, &str); 3] = [
            ("http://", "http"),
            ("https://", "https"),
            ("ftp://", "ftp"),
        ];
        let mut best: Option<(usize, usize, &'static str)> = None;
        for (prefix, scheme) in SCHEMES {
            if let Some(pos) = find_ascii_case_insensitive(text, prefix) {
                if best.is_none_or(|(b, _, _)| pos < b) {
                    best = Some((pos, url_end(text, pos), scheme));
                }
            }
        }
        if let Some(pos) = find_ascii_case_insensitive(text, "www.") {
            let at_boundary = pos == 0
                || text[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_whitespace() || c == '(' || c == '<' || c == '"');
            if at_boundary && best.is_none_or(|(b, _, _)| pos < b) {
                best = Some((pos, url_end(text, pos), "http"));
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

    fn url_end(text: &str, start: usize) -> usize {
        text[start..]
            .find(|c: char| c.is_whitespace() || c == '>' || c == ')' || c == '"' || c == '\'')
            .map(|off| start + off)
            .unwrap_or(text.len())
    }

    fn emit_url_tokens(url: &str, scheme: &str, opts: &TokenizerOptions, out: &mut Vec<String>) {
        out.push(format!("proto:{scheme}"));
        let rest = url.split_once("://").map_or(url, |x| x.1);
        let (host_port, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        let host = host_port.split(':').next().unwrap_or(host_port);
        for label in host.split('.') {
            let label = label.trim_matches(|c: char| c.is_ascii_punctuation());
            if !label.is_empty() {
                out.push(format!("url:{}", fold(label, opts)));
            }
        }
        for seg in path.split(['/', '?', '&', '=']) {
            let seg = seg.trim_matches(|c: char| c.is_ascii_punctuation());
            if !seg.is_empty() && seg.len() <= 40 {
                out.push(format!("url:{}", fold(seg, opts)));
            }
        }
    }

    const ADDRESS_HEADERS: [&str; 5] = ["From", "To", "Cc", "Sender", "Reply-To"];

    fn tokenize_headers(email: &Email, opts: &TokenizerOptions, out: &mut Vec<String>) {
        for (name, value) in email.headers() {
            let lname = name.to_ascii_lowercase();
            match lname.as_str() {
                "subject" if opts.tokenize_subject => {
                    for word in value.split_whitespace() {
                        let mut words = Vec::new();
                        tokenize_word(word, opts, &mut words);
                        for w in words {
                            out.push(format!("subject:{w}"));
                        }
                    }
                }
                "message-id" if opts.tokenize_message_id => {
                    if let Some((_, domain)) = value
                        .trim_matches(['<', '>'])
                        .split_once('@')
                        .map(|(l, d)| (l, d.trim_matches('>')))
                    {
                        out.push(format!("message-id:@{}", fold(domain, opts)));
                    } else {
                        out.push("message-id:invalid".to_owned());
                    }
                }
                "content-type" if opts.tokenize_mailer_headers => {
                    let main = value.split(';').next().unwrap_or(value).trim();
                    if !main.is_empty() {
                        out.push(format!("content-type:{}", fold(main, opts)));
                    }
                }
                "x-mailer" if opts.tokenize_mailer_headers => {
                    out.push(format!("x-mailer:{}", fold(value.trim(), opts)));
                }
                "received" if opts.tokenize_received => {
                    for word in value.split_whitespace() {
                        let w = trim_punct(word);
                        if w.contains('.') && !w.contains('@') && w.len() >= 4 {
                            out.push(format!("received:{}", fold(w, opts)));
                        }
                    }
                }
                _ if opts.tokenize_address_headers
                    && ADDRESS_HEADERS.iter().any(|h| h.eq_ignore_ascii_case(name)) =>
                {
                    tokenize_address_header(&lname, value, opts, out);
                }
                _ => {}
            }
        }
    }

    fn tokenize_address_header(
        lname: &str,
        value: &str,
        opts: &TokenizerOptions,
        out: &mut Vec<String>,
    ) {
        for part in value.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (display, addr) = match (part.find('<'), part.rfind('>')) {
                (Some(l), Some(r)) if l < r => (&part[..l], &part[l + 1..r]),
                _ => ("", part),
            };
            if let Some((_local, domain)) = split_address(addr.trim()) {
                out.push(format!("{lname}:addr:{}", fold(domain, opts)));
            }
            for word in display.split_whitespace() {
                let w = trim_punct(word);
                if !w.is_empty() {
                    out.push(format!("{lname}:name:{}", fold(w, opts)));
                }
            }
        }
    }
}

/// Words that reach every folding rule: a final or medial `Σ`, `İ`
/// (lowercases to two chars), `ß`, Latin/Cyrillic/Greek look-alikes
/// (`pаypal` with a Cyrillic `а`, `Ρayment` with a Greek `Ρ`), mixed
/// case ASCII, addresses, URLs (and `www.` inside a word, which is not
/// one) and over-long words.
const WORDS: &str = "(ΟΔΟΣ|ΣΟΦΟΣ|Σ|σΣ|İstanbul|İİ|STRASSE|Straße|ß|pаypal|PАYPAL|Ρayment|vіagra|ЖУРНАЛ|Hello|CHEAP|(http://|HTTPS://|ftp://|www\\.|WWW\\.)[A-Za-z0-9.:/?&=]{0,14}|[a-z]{1,3}(www|WwW)\\.[a-z]{1,4}|[A-Za-z]{1,15}|[a-z]{1,4}@[A-Za-zΣ]{1,6}\\.[a-z]{2,3}|[@$]{1,2}[A-Za-z]{1,5}|[A-Za-z]{1,5}[@$]{1,2}|[@$][a-z]{1,4}@[a-z]{1,4}[@$]|\\PC{1,6}|[()<>\"',.!?$-]{1,2})";

/// Word separators: every whitespace in the module docs, plus
/// punctuation that is not whitespace.
const SEPARATORS: &str = "([ \n\t,<(\"]|\u{0b}|\u{0c}|\r|\u{85}|\u{a0}|\u{2028}|\u{3000}|\r\n|  )";

fn text(max_words: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((WORDS, SEPARATORS), 0..max_words)
        .prop_map(|parts| parts.into_iter().map(|(w, sep)| w + &sep).collect())
}

/// A header name from the mined set in random ASCII case, or an
/// unmined one.
fn header_name() -> impl Strategy<Value = String> {
    (
        "(Subject|From|To|Cc|Sender|Reply-To|Message-Id|Content-Type|X-Mailer|Received|X-Other)",
        any::<u64>(),
    )
        .prop_map(|(name, case)| {
            name.chars()
                .enumerate()
                .map(|(i, c)| {
                    if case >> (i % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        })
}

fn header_value() -> impl Strategy<Value = String> {
    (
        text(6),
        "(|<[a-zA-Z0-9.]{1,8}@[A-Za-zΣİ.]{1,10}>|\"[A-Za-zΣß ]{0,10}\" <[a-z]{1,5}@[A-Za-z.]{1,8}>, [a-z]{1,4}@[a-z.]{1,6}|text/[A-Za-z]{1,6}; charset=utf-8|from [a-z]{1,6}\\.[A-Za-z]{2,5}\\.org by mx)",
    )
        .prop_map(|(t, v)| format!("{v} {t}"))
}

fn email() -> impl Strategy<Value = Email> {
    (
        proptest::collection::vec((header_name(), header_value()), 0..6),
        text(40),
    )
        .prop_map(|(headers, body)| {
            let mut e = Email::new();
            for (name, value) in headers {
                e.push_header(name, value);
            }
            e.set_body(body);
            e
        })
}

fn options() -> impl Strategy<Value = TokenizerOptions> {
    (0usize..6, 1usize..5, 8usize..16).prop_map(|(profile, min, max)| {
        let mut opts = match profile {
            0 | 1 => TokenizerOptions::default(),
            2 => TokenizerOptions::bogofilter_flavor(),
            3 => TokenizerOptions::body_only(),
            4 => TokenizerOptions {
                tokenize_received: true,
                crack_addresses: false,
                ..TokenizerOptions::default()
            },
            _ => TokenizerOptions {
                crack_urls: false,
                ..TokenizerOptions::default()
            },
        };
        if profile == 1 {
            opts.min_word_size = min;
            opts.max_word_size = max;
        }
        opts
    })
}

proptest! {
    #[test]
    fn arena_tokenizer_matches_the_string_oracle(e in email(), opts in options()) {
        let tk = Tokenizer::with_options(opts.clone());
        let want = oracle::tokenize(&e, &opts);
        prop_assert_eq!(tk.tokenize(&e), want.clone());
        prop_assert_eq!(tk.token_count(&e), want.len());
        let want_set = oracle::token_set(&e, &opts);
        prop_assert_eq!(tk.token_set(&e), want_set.clone());

        let mut text_tokens = Vec::new();
        tk.tokenize_text(e.body(), &mut text_tokens);
        let mut body_only = Email::new();
        body_only.set_body(e.body());
        prop_assert_eq!(text_tokens, oracle::tokenize(&body_only, &opts));
    }

    #[test]
    fn fused_ids_match_intern_set_of_the_oracle_set(e in email(), opts in options()) {
        let tk = Tokenizer::with_options(opts.clone());
        let want_set = oracle::token_set(&e, &opts);

        // Same ids as interning the string set on a fresh interner.
        let fused = Interner::new();
        let ids = tk.intern_ids(&e, &fused);
        let strings = Interner::new();
        prop_assert_eq!(&ids, &strings.intern_set(&want_set));
        prop_assert_eq!(fused.len(), want_set.len());
        for t in &want_set {
            prop_assert_eq!(fused.get(t), strings.get(t));
        }

        // The ids name exactly the oracle's set.
        let mut resolved: Vec<String> = ids.iter().map(|&id| fused.resolve(id)).collect();
        resolved.sort_unstable();
        prop_assert_eq!(&resolved, &want_set);

        // The read-only twin finds them all once interned, and nothing on
        // an interner that has never seen the message.
        prop_assert_eq!(tk.lookup_ids(&e, &fused), ids);
        let empty = Interner::new();
        prop_assert!(tk.lookup_ids(&e, &empty).is_empty());
        prop_assert_eq!(empty.len(), 0);
    }
}

#[test]
fn context_dependent_lowercasing_folds_the_whole_word() {
    let tk = Tokenizer::new();
    let mut e = Email::new();
    e.set_body("ΟΔΟΣ ΣΟΦΟΣ İstanbul Straße pаypal http://ΟΔΟΣ.example/ΣΟΦΟΣ");
    assert_eq!(
        tk.tokenize(&e),
        oracle::tokenize(&e, &TokenizerOptions::default())
    );
    let set = tk.token_set(&e);
    // Σ folds to the final form ς at a word's end and to σ inside it.
    assert!(set.contains(&"οδο\u{3c2}".to_owned()));
    assert!(set.contains(&"\u{3c3}οφο\u{3c2}".to_owned()));
    assert!(set.contains(&"url:οδο\u{3c2}".to_owned()));
    assert!(set.contains(&"i\u{307}stanbul".to_owned()));
    // The Cyrillic look-alike stays distinct from the Latin word.
    assert!(set.contains(&"pаypal".to_owned()));
    assert!(!set.contains(&"paypal".to_owned()));
}
