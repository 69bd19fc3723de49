//! The in-memory email model.
//!
//! An [`Email`] is a refcounted, immutable value: its header list and body
//! sit behind one `Arc`, so `clone()` shares the message instead of
//! copying it (a mailbox, a training pool, a replay record and an attack
//! batch can all hold one message for the price of one). The two
//! mutators, [`Email::set_body`] and [`Email::push_header`], copy on
//! write: on a shared message they first give this handle its own copy,
//! so no other handle sees the change. Equality compares content, never
//! identity: two messages built apart with equal headers and body are
//! equal.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Ground-truth label of a training or test message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Legitimate mail.
    Ham,
    /// Unsolicited mail.
    Spam,
}

impl Label {
    /// The other label.
    pub fn flip(self) -> Label {
        match self {
            Label::Ham => Label::Spam,
            Label::Spam => Label::Ham,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Ham => write!(f, "ham"),
            Label::Spam => write!(f, "spam"),
        }
    }
}

/// A flat email: an ordered list of header fields plus a body.
///
/// Headers preserve order and duplicates (real mail has several `Received:`
/// lines); lookup is case-insensitive on the field name, returning the first
/// match, like typical MUA behaviour. Clones share one allocation (module
/// docs).
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Email {
    parts: Arc<Parts>,
}

/// What the handles of one message share.
#[derive(Clone, Default, PartialEq, Eq)]
struct Parts {
    headers: Vec<(String, String)>,
    body: String,
}

impl fmt::Debug for Email {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Email")
            .field("headers", &self.parts.headers)
            .field("body", &self.parts.body)
            .finish()
    }
}

impl Email {
    /// An empty message (no headers, empty body).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start building a message fluently.
    pub fn builder() -> EmailBuilder {
        EmailBuilder::default()
    }

    /// Construct directly from parts.
    pub fn from_parts(headers: Vec<(String, String)>, body: String) -> Self {
        Self {
            parts: Arc::new(Parts { headers, body }),
        }
    }

    /// All header fields in order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.parts.headers
    }

    /// The message body.
    pub fn body(&self) -> &str {
        &self.parts.body
    }

    /// Replace the body (copy on write: other handles keep the old one).
    pub fn set_body(&mut self, body: impl Into<String>) {
        Arc::make_mut(&mut self.parts).body = body.into();
    }

    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for a header name (case-insensitive), in order.
    pub fn header_all(&self, name: &str) -> Vec<&str> {
        self.headers()
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Append a header field (copy on write: other handles keep the old
    /// list).
    pub fn push_header(&mut self, name: impl Into<String>, value: impl Into<String>) {
        Arc::make_mut(&mut self.parts)
            .headers
            .push((name.into(), value.into()));
    }

    /// Convenience accessor for `Subject:`.
    pub fn subject(&self) -> Option<&str> {
        self.header("Subject")
    }

    /// Convenience accessor for `From:`.
    pub fn from_addr(&self) -> Option<&str> {
        self.header("From")
    }

    /// True when the message has no headers at all (the paper's dictionary
    /// attack emails are sent with empty headers, §4.1).
    pub fn has_empty_headers(&self) -> bool {
        self.headers().is_empty()
    }

    /// Approximate wire size in bytes (headers + separators + body).
    pub fn wire_len(&self) -> usize {
        self.headers()
            .iter()
            .map(|(n, v)| n.len() + 2 + v.len() + 1)
            .sum::<usize>()
            + 1
            + self.body().len()
    }
}

/// Fluent builder for [`Email`].
#[derive(Debug, Default, Clone)]
pub struct EmailBuilder {
    headers: Vec<(String, String)>,
    body: String,
}

impl EmailBuilder {
    /// Append any header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Set `From:`.
    pub fn from_addr(self, value: impl Into<String>) -> Self {
        self.header("From", value)
    }

    /// Set `To:`.
    pub fn to_addr(self, value: impl Into<String>) -> Self {
        self.header("To", value)
    }

    /// Set `Subject:`.
    pub fn subject(self, value: impl Into<String>) -> Self {
        self.header("Subject", value)
    }

    /// Set the body.
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Finish building.
    pub fn build(self) -> Email {
        Email::from_parts(self.headers, self.body)
    }
}

/// An email together with its ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledEmail {
    /// The message.
    pub email: Email,
    /// Ground truth.
    pub label: Label,
}

impl LabeledEmail {
    /// Pair a message with its label.
    pub fn new(email: Email, label: Label) -> Self {
        Self { email, label }
    }

    /// Shorthand for a ham message.
    pub fn ham(email: Email) -> Self {
        Self::new(email, Label::Ham)
    }

    /// Shorthand for a spam message.
    pub fn spam(email: Email) -> Self {
        Self::new(email, Label::Spam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let e = Email::builder()
            .from_addr("alice@example.org")
            .to_addr("bob@example.org")
            .subject("quarterly bid")
            .body("numbers attached")
            .build();
        assert_eq!(e.from_addr(), Some("alice@example.org"));
        assert_eq!(e.subject(), Some("quarterly bid"));
        assert_eq!(e.body(), "numbers attached");
        assert_eq!(e.headers().len(), 3);
    }

    #[test]
    fn header_lookup_is_case_insensitive_first_match() {
        let mut e = Email::new();
        e.push_header("Received", "first");
        e.push_header("received", "second");
        assert_eq!(e.header("RECEIVED"), Some("first"));
        assert_eq!(e.header_all("Received"), vec!["first", "second"]);
    }

    #[test]
    fn clones_share_one_allocation_until_written() {
        let a = Email::builder().subject("s").body("shared").build();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.parts, &b.parts));
        b.push_header("X-Flag", "1");
        assert!(!Arc::ptr_eq(&a.parts, &b.parts));
        assert_eq!(a.headers().len(), 1);
        assert_eq!(b.headers().len(), 2);
        let mut c = a.clone();
        c.set_body("own");
        assert_eq!((a.body(), c.body()), ("shared", "own"));
        // A handle holding the only reference writes in place.
        let before = Arc::as_ptr(&c.parts);
        c.set_body("again");
        assert_eq!(Arc::as_ptr(&c.parts), before);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Email::builder().subject("s").body("b").build();
        let b = Email::builder().subject("s").body("b").build();
        assert!(!Arc::ptr_eq(&a.parts, &b.parts));
        assert_eq!(a, b);
        assert_ne!(a, Email::builder().subject("s").body("c").build());
    }

    #[test]
    fn debug_shows_headers_and_body() {
        let e = Email::builder().subject("s").body("b").build();
        assert_eq!(
            format!("{e:?}"),
            r#"Email { headers: [("Subject", "s")], body: "b" }"#
        );
    }

    #[test]
    fn email_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Email>();
    }

    #[test]
    fn label_flip() {
        assert_eq!(Label::Ham.flip(), Label::Spam);
        assert_eq!(Label::Spam.flip(), Label::Ham);
        assert_eq!(Label::Ham.to_string(), "ham");
    }

    #[test]
    fn empty_headers_flag() {
        assert!(Email::new().has_empty_headers());
        let e = Email::builder().subject("s").build();
        assert!(!e.has_empty_headers());
    }

    #[test]
    fn wire_len_counts_all_parts() {
        let e = Email::builder().header("A", "b").body("cd").build();
        // "A: b\n" = 5, separator "\n" = 1, body = 2
        assert_eq!(e.wire_len(), 8);
    }
}
