//! The in-memory email model.

use serde::{Deserialize, Serialize};
use std::fmt;

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
/// match, like typical MUA behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Email {
    headers: Vec<(String, String)>,
    body: String,
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
        Self { headers, body }
    }

    /// All header fields in order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// The message body.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Replace the body.
    pub fn set_body(&mut self, body: impl Into<String>) {
        self.body = body.into();
    }

    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for a header name (case-insensitive), in order.
    pub fn header_all(&self, name: &str) -> Vec<&str> {
        self.headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Append a header field.
    pub fn push_header(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.headers.push((name.into(), value.into()));
    }

    /// Remove all headers with the given name; returns how many were removed.
    pub fn remove_header(&mut self, name: &str) -> usize {
        let before = self.headers.len();
        self.headers.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before - self.headers.len()
    }

    /// Replace all occurrences of a header with a single value.
    pub fn set_header(&mut self, name: &str, value: impl Into<String>) {
        self.remove_header(name);
        self.push_header(name.to_owned(), value);
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
        self.headers.is_empty()
    }

    /// Approximate wire size in bytes (headers + separators + body).
    pub fn wire_len(&self) -> usize {
        self.headers
            .iter()
            .map(|(n, v)| n.len() + 2 + v.len() + 1)
            .sum::<usize>()
            + 1
            + self.body.len()
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
        Email {
            headers: self.headers,
            body: self.body,
        }
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
    fn set_header_replaces_all() {
        let mut e = Email::new();
        e.push_header("X-Flag", "a");
        e.push_header("X-Flag", "b");
        e.set_header("x-flag", "c");
        assert_eq!(e.header_all("X-Flag"), vec!["c"]);
    }

    #[test]
    fn remove_header_counts() {
        let mut e = Email::new();
        e.push_header("A", "1");
        e.push_header("B", "2");
        e.push_header("a", "3");
        assert_eq!(e.remove_header("A"), 2);
        assert_eq!(e.headers().len(), 1);
        assert_eq!(e.remove_header("missing"), 0);
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
