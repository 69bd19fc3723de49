//! Tolerant wire-format parsing.
//!
//! The grammar is RFC-2822-lite: a block of `Name: value` header lines
//! (values may fold across lines that start with whitespace), a blank line,
//! then the body. The parser is *total*: any input produces an [`Email`].
//! Garbage that cannot be a header block is treated as body, matching how
//! SpamBayes tokenizes malformed mail rather than dropping it.

use crate::message::Email;

/// Parse a message from its wire form.
///
/// Rules:
/// * Header lines are `Name: value` where `Name` contains no whitespace or
///   colon. A line starting with space/tab continues the previous header
///   (unfolding inserts a single space).
/// * The first blank line ends the headers; everything after is the body.
/// * If the *first* line does not look like a header, the whole input is
///   body (an email with no headers — the paper's attack emails do this).
/// * CRLF and LF line endings are both accepted; output is normalized to LF.
pub fn parse_email(raw: &str) -> Email {
    let mut headers: Vec<(String, String)> = Vec::new();

    // Decide whether a header block exists at all.
    let first_is_header = raw
        .split_inclusive('\n')
        .next()
        .is_some_and(|piece| looks_like_header(line_of(piece)));
    if !first_is_header {
        return Email::from_parts(Vec::new(), lf_normalized(raw));
    }

    let mut consumed = 0usize; // raw bytes of the header lines so far
    for piece in raw.split_inclusive('\n') {
        let line = line_of(piece);
        if line.is_empty() {
            // Blank line: headers end; body is the rest.
            let body = lf_normalized(&raw[consumed + piece.len()..]);
            return Email::from_parts(headers, body);
        }
        if let Some(rest) = line.strip_prefix(|c: char| c == ' ' || c == '\t') {
            // Folded continuation of the previous header.
            match headers.last_mut() {
                Some((_, v)) => {
                    v.push(' ');
                    v.push_str(rest.trim_start());
                }
                None => {
                    // Continuation with no preceding header: treat the whole
                    // input as body (cannot happen when first_is_header, but
                    // stay total).
                    return Email::from_parts(Vec::new(), lf_normalized(raw));
                }
            }
        } else if let Some((name, value)) = split_header(line) {
            headers.push((name.to_owned(), value.to_owned()));
        } else {
            // Non-header, non-blank line inside the header block: header
            // block ends here and this line starts the body (tolerates the
            // common "no blank line before body" corruption).
            return Email::from_parts(headers, lf_normalized(&raw[consumed..]));
        }
        consumed += piece.len();
    }
    // Headers run to the end of the input: no body.
    Email::from_parts(headers, String::new())
}

/// One `split_inclusive('\n')` piece of the raw message as a line: the
/// `\n` and one `\r` before it removed. A `\r` not followed by `\n`
/// (lone, or at the very end of the input) is kept, as CRLF → LF
/// normalization keeps it.
fn line_of(piece: &str) -> &str {
    match piece.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => piece,
    }
}

/// `text` with every CRLF replaced by LF, in one copy. Callers pass the
/// whole input or a suffix starting right after a `\n`, so no CRLF pair
/// is split by the cut.
fn lf_normalized(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for piece in text.split_inclusive('\n') {
        match piece.strip_suffix("\r\n") {
            Some(line) => {
                out.push_str(line);
                out.push('\n');
            }
            None => out.push_str(piece),
        }
    }
    out
}

/// Does this line plausibly start a header block?
fn looks_like_header(line: &str) -> bool {
    split_header(line).is_some()
}

/// Split `Name: value`; `Name` must be non-empty, contain no spaces, tabs or
/// control characters, and be followed by a colon.
fn split_header(line: &str) -> Option<(&str, &str)> {
    let idx = line.find(':')?;
    let name = &line[..idx];
    if name.is_empty()
        || name
            .chars()
            .any(|c| c == ' ' || c == '\t' || c.is_control())
    {
        return None;
    }
    let value = line[idx + 1..].trim_start();
    Some((name, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The parser before the single-copy rewrite: CRLF-normalize the
    /// whole input, then split lines and copy the body out again. Kept as
    /// the oracle the rewrite must match byte for byte.
    fn two_copy_parse(raw: &str) -> Email {
        let text = raw.replace("\r\n", "\n");
        let mut headers: Vec<(String, String)> = Vec::new();
        let mut lines = text.split('\n').peekable();

        // Decide whether a header block exists at all.
        let first_is_header = lines.peek().map(|l| looks_like_header(l)).unwrap_or(false);
        if !first_is_header {
            return Email::from_parts(Vec::new(), text);
        }

        let mut body_start: Option<usize> = None;
        let mut consumed = 0usize; // bytes consumed including newline
        for line in text.split('\n') {
            let line_len = line.len() + 1; // +1 for the split '\n'
            if line.is_empty() {
                // Blank line: headers end; body is the rest.
                body_start = Some(consumed + line_len);
                break;
            }
            if let Some(rest) = line.strip_prefix(|c: char| c == ' ' || c == '\t') {
                // Folded continuation of the previous header.
                match headers.last_mut() {
                    Some((_, v)) => {
                        v.push(' ');
                        v.push_str(rest.trim_start());
                    }
                    None => {
                        // Continuation with no preceding header: treat the whole
                        // input as body (cannot happen when first_is_header, but
                        // stay total).
                        return Email::from_parts(Vec::new(), text);
                    }
                }
            } else if let Some((name, value)) = split_header(line) {
                headers.push((name.to_owned(), value.to_owned()));
            } else {
                // Non-header, non-blank line inside the header block: header
                // block ends here and this line starts the body (tolerates the
                // common "no blank line before body" corruption).
                body_start = Some(consumed);
                break;
            }
            consumed += line_len;
        }

        let body = match body_start {
            Some(off) if off <= text.len() => text[off..].to_owned(),
            Some(_) | None => String::new(),
        };
        Email::from_parts(headers, body)
    }

    /// Line material that exercises every rule: CR/LF in every
    /// combination, folding whitespace, colons, header-ish and body-ish
    /// words.
    fn wire() -> impl Strategy<Value = String> {
        const PARTS: [&str; 14] = [
            "\r",
            "\n",
            "\r\n",
            "\r\r\n",
            " ",
            "\t",
            ":",
            "Subject: ",
            "X-A:",
            "é",
            "ab",
            "to",
            "x y",
            "",
        ];
        proptest::collection::vec(0..PARTS.len(), 0..24)
            .prop_map(|picks| picks.into_iter().map(|i| PARTS[i]).collect())
    }

    proptest! {
        #[test]
        fn single_copy_parse_matches_the_two_copy_oracle(raw in wire()) {
            let got = parse_email(&raw);
            let want = two_copy_parse(&raw);
            prop_assert_eq!(got.headers(), want.headers());
            prop_assert_eq!(got.body(), want.body());
        }
    }

    #[test]
    fn line_ending_corners_match_the_oracle() {
        for raw in [
            "",
            "\r",
            "\n",
            "\r\n",
            "Subject: x\r",
            "Subject: x\r\r\nbody\r",
            "Subject: x\r\n\r\nline\rmid\r\r\nend",
            "Subject: a\r\n\tfolded\r\n  twice\r\n\r\n",
            "Subject: only\n",
            "Subject: only\r\n",
            "Subject: x\n\r",
            "Subject: x\n\r\n",
            "no header\r\nbody\r\n",
            " leading: space\nbody",
            "A: 1\nB: 2\nnot a header line\r\nrest",
        ] {
            let got = parse_email(raw);
            let want = two_copy_parse(raw);
            assert_eq!(got.headers(), want.headers(), "{raw:?}");
            assert_eq!(got.body(), want.body(), "{raw:?}");
        }
    }

    #[test]
    fn parses_simple_message() {
        let e = parse_email("From: a@b\nSubject: hello world\n\nbody line 1\nbody line 2\n");
        assert_eq!(e.from_addr(), Some("a@b"));
        assert_eq!(e.subject(), Some("hello world"));
        assert_eq!(e.body(), "body line 1\nbody line 2\n");
    }

    #[test]
    fn unfolds_continuation_lines() {
        let e = parse_email("Subject: a very\n\tlong subject\n  indeed\n\nbody");
        assert_eq!(e.subject(), Some("a very long subject indeed"));
    }

    #[test]
    fn headerless_input_is_all_body() {
        let raw = "just some text\nwith no headers\n";
        let e = parse_email(raw);
        assert!(e.has_empty_headers());
        assert_eq!(e.body(), raw);
    }

    #[test]
    fn crlf_normalized() {
        let e = parse_email("Subject: x\r\n\r\nline\r\nline2");
        assert_eq!(e.subject(), Some("x"));
        assert_eq!(e.body(), "line\nline2");
    }

    #[test]
    fn missing_blank_line_starts_body_at_first_nonheader() {
        let e = parse_email("Subject: x\nthis is already body\nmore");
        assert_eq!(e.subject(), Some("x"));
        assert!(e.body().starts_with("this is already body"));
    }

    #[test]
    fn empty_input() {
        let e = parse_email("");
        assert!(e.has_empty_headers());
        assert_eq!(e.body(), "");
    }

    #[test]
    fn header_only_message_has_empty_body() {
        let e = parse_email("Subject: only\n");
        assert_eq!(e.subject(), Some("only"));
        assert_eq!(e.body(), "");
    }

    #[test]
    fn colon_in_value_preserved() {
        let e = parse_email("Subject: re: re: bid\n\n.");
        assert_eq!(e.subject(), Some("re: re: bid"));
    }

    #[test]
    fn header_name_with_space_is_not_a_header() {
        let e = parse_email("not a: header\nbody");
        assert!(e.has_empty_headers());
        assert!(e.body().contains("not a: header"));
    }

    #[test]
    fn duplicate_headers_kept_in_order() {
        let e = parse_email("Received: one\nReceived: two\n\n.");
        assert_eq!(e.header_all("Received"), vec!["one", "two"]);
    }
}
