//! Property tests: parsing is total, rendering round-trips canonical
//! messages, mbox I/O is lossless for arbitrary message sets, and a clone
//! shares its message until one side writes.

use proptest::prelude::*;
use sb_email::{mbox, parse_email, render_email, Email};
use std::io::Cursor;

/// Header names: RFC-ish tokens (no whitespace, no colon, no control chars).
fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

/// Header values: printable, no newlines, not starting with whitespace
/// (canonical form after unfolding).
fn header_value() -> impl Strategy<Value = String> {
    "[!-~][ -~]{0,60}".prop_map(|s| s.trim_end().to_owned())
}

/// Bodies: any printable text incl. newlines. When the message has headers,
/// parse is unambiguous regardless of body shape.
fn body_text() -> impl Strategy<Value = String> {
    proptest::collection::vec("[ -~]{0,70}", 0..8).prop_map(|lines| lines.join("\n"))
}

fn canonical_email() -> impl Strategy<Value = Email> {
    (
        proptest::collection::vec((header_name(), header_value()), 1..6),
        body_text(),
    )
        .prop_map(|(headers, body)| Email::from_parts(headers, body))
}

proptest! {
    #[test]
    fn parse_never_panics_on_arbitrary_input(raw in "\\PC{0,400}") {
        let _ = parse_email(&raw);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_email(&text);
    }

    #[test]
    fn render_parse_roundtrip(email in canonical_email()) {
        let rendered = render_email(&email);
        let back = parse_email(&rendered);
        prop_assert_eq!(back, email);
    }

    #[test]
    fn mbox_roundtrip(emails in proptest::collection::vec(canonical_email(), 0..6)) {
        // mbox is line-oriented: bodies gain a trailing newline if missing,
        // so canonicalize first, then require exact round-trip.
        let canon: Vec<Email> = emails
            .into_iter()
            .map(|e| {
                let mut body = e.body().to_owned();
                if !body.is_empty() && !body.ends_with('\n') {
                    body.push('\n');
                }
                // Collapse duplicate trailing blank lines which the format
                // cannot distinguish from the message terminator.
                while body.ends_with("\n\n") {
                    body.pop();
                }
                Email::from_parts(e.headers().to_vec(), body)
            })
            .collect();
        let bytes = mbox::write_mbox(&canon).unwrap();
        let back = mbox::read_mbox(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(back, canon);
    }

    /// A clone shares the original's text; a write on either side copies
    /// first, so the other side renders byte-identically to before, and
    /// the two differ exactly when the write changed something.
    #[test]
    fn clone_shares_until_written(
        email in canonical_email(),
        new_body in body_text(),
        header in (header_name(), header_value()),
        write_header in any::<bool>(),
        write_original in any::<bool>(),
    ) {
        let copy = email.clone();
        // `canonical_email` has at least one header, so both pointers name
        // heap buffers and equal pointers mean one shared allocation.
        prop_assert_eq!(copy.headers().as_ptr(), email.headers().as_ptr());
        prop_assert_eq!(copy.body().as_ptr(), email.body().as_ptr());
        let before = render_email(&email);
        let (mut written, kept) = if write_original { (email, copy) } else { (copy, email) };
        let changed = if write_header {
            written.push_header(header.0, header.1);
            true
        } else {
            let changed = written.body() != new_body;
            written.set_body(new_body);
            changed
        };
        prop_assert_eq!(render_email(&kept), before);
        prop_assert_eq!(written != kept, changed);
    }

    #[test]
    fn parse_output_headers_are_wellformed(raw in "\\PC{0,300}") {
        let e = parse_email(&raw);
        for (name, _) in e.headers() {
            prop_assert!(!name.is_empty());
            prop_assert!(!name.contains(' '));
            prop_assert!(!name.contains(':'));
        }
    }
}
