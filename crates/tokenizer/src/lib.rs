//! # sb-tokenizer — SpamBayes-style tokenization
//!
//! Converts an [`sb_email::Email`] into the token stream the learner
//! consumes. The rules reproduce the behaviours of the SpamBayes tokenizer
//! that matter to the paper's attacks:
//!
//! * body words split on whitespace, edge punctuation trimmed, lowercased;
//! * words shorter than 3 characters dropped; words longer than 12 become
//!   `skip:<first-char> <length-bucket>` tokens;
//! * URLs decomposed into `proto:`/`url:` component tokens;
//! * mail addresses into `email name:` / `email addr:` tokens;
//! * selected headers mined with per-header prefixes (`subject:`,
//!   `from:addr:`, `message-id:@…`, …).
//!
//! The learner uses **set semantics** — a token counts once per message no
//! matter how often it repeats (this is why the paper's attack emails need
//! only *contain* each dictionary word once). [`Tokenizer::token_set`]
//! implements that reduction; [`Tokenizer::tokenize`] preserves the raw
//! stream for diagnostics and token-volume accounting (§4.2 of the paper).
//!
//! ## The request path
//!
//! Every entry point writes a message's tokens ("pieces") into one
//! reusable arena. Body text is split by one byte-class pass over ASCII
//! words (see [`word`]), and URLs are found by anchoring on their `:` and
//! `.` bytes (see [`url`]). The set entry points ([`Tokenizer::token_set`],
//! [`Tokenizer::intern_ids`], [`Tokenizer::lookup_ids`]) reduce to the set
//! as the pieces are written: closing a piece records its interner tag
//! and 8-byte prefix key and drops it if it repeats an earlier piece. So
//! `token_set` sorts `(key, index)` records of distinct pieces only, and
//! the id paths probe each distinct piece once, reusing its tag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod header;
pub mod options;
mod pieces;
pub mod url;
pub mod word;

pub use options::TokenizerOptions;

use pieces::Pieces;
use sb_email::Email;
use sb_intern::{Interner, TokenId};
use std::cell::RefCell;

thread_local! {
    /// Each thread's reusable piece arena.
    static PIECES: RefCell<Pieces> = RefCell::default();
}

/// The tokenizer: [`TokenizerOptions`] plus the tokenization entry points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tokenizer {
    opts: TokenizerOptions,
}

impl Tokenizer {
    /// Tokenizer with SpamBayes-default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizer with explicit options.
    pub fn with_options(opts: TokenizerOptions) -> Self {
        Self { opts }
    }

    /// The active options.
    pub fn options(&self) -> &TokenizerOptions {
        &self.opts
    }

    /// The core every entry point wraps: write the tokens of headers +
    /// body, in document order, into this thread's piece arena and hand
    /// it to `f`. With `distinct`, the arena keeps each distinct token
    /// once (see the `pieces` module).
    fn with_pieces<R>(&self, email: &Email, distinct: bool, f: impl FnOnce(&Pieces) -> R) -> R {
        let run = |out: &mut Pieces| {
            out.clear(distinct);
            header::tokenize_headers(email, &self.opts, out);
            self.text_pieces(email.body(), out);
            f(out)
        };
        PIECES.with(|cell| match cell.try_borrow_mut() {
            Ok(mut out) => run(&mut out),
            Err(_) => run(&mut Pieces::default()),
        })
    }

    /// Write the tokens of free text (no headers) into `out`.
    fn text_pieces(&self, text: &str, out: &mut Pieces) {
        let words =
            |segment: &str, out: &mut Pieces| word::tokenize_words(segment, &self.opts, out);
        if self.opts.crack_urls {
            url::crack_urls(text, &self.opts, out, words);
        } else {
            words(text, out);
        }
    }

    /// Tokenize headers + body, preserving duplicates and document order.
    pub fn tokenize(&self, email: &Email) -> Vec<String> {
        self.with_pieces(email, false, |p| p.iter().map(str::to_owned).collect())
    }

    /// Tokenize free text (no headers) into `out`.
    pub fn tokenize_text(&self, text: &str, out: &mut Vec<String>) {
        let mut pieces = Pieces::default();
        self.text_pieces(text, &mut pieces);
        out.extend(pieces.iter().map(str::to_owned));
    }

    /// Tokenize with set semantics: sorted, deduplicated. This is what the
    /// learner trains and classifies on.
    pub fn token_set(&self, email: &Email) -> Vec<String> {
        self.with_pieces(email, true, |p| {
            // Sorting by a big-endian 8-byte prefix first settles most
            // comparisons without touching the strings; equal prefixes
            // fall back to the full byte order, so the order is `str`'s.
            // The pieces are already distinct.
            let mut order: Vec<(u64, usize)> = p.keys().iter().copied().zip(0..).collect();
            order.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then_with(|| p.piece(a.1).cmp(p.piece(b.1)))
            });
            order
                .into_iter()
                .map(|(_, k)| p.piece(k).to_owned())
                .collect()
        })
    }

    /// Number of raw (non-deduplicated) tokens; used by the §4.2
    /// token-volume accounting.
    pub fn token_count(&self, email: &Email) -> usize {
        self.with_pieces(email, false, Pieces::len)
    }

    /// The id set the learner trains on, sorted by id: the ids
    /// `interner.intern_set(&self.token_set(email))` returns, without
    /// building a `String` per token. Interns every token.
    pub fn intern_ids(&self, email: &Email, interner: &Interner) -> Vec<TokenId> {
        self.with_pieces(email, true, |p| {
            interner.intern_tagged(&p.iter().collect::<Vec<_>>(), p.tags())
        })
    }

    /// The read-only twin of [`Tokenizer::intern_ids`]: the ids of the
    /// message's already-interned tokens, sorted by id. Never grows the
    /// interner, so it is the path for classifying untrusted mail.
    pub fn lookup_ids(&self, email: &Email, interner: &Interner) -> Vec<TokenId> {
        self.with_pieces(email, true, |p| {
            interner.lookup_tagged(&p.iter().collect::<Vec<_>>(), p.tags())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Email;

    #[test]
    fn body_and_headers_both_tokenized() {
        let e = Email::builder()
            .subject("Urgent offer")
            .from_addr("seller@spam.example")
            .body("Buy cheap pills now http://pills.example/buy")
            .build();
        let t = Tokenizer::new().tokenize(&e);
        assert!(t.contains(&"subject:urgent".to_owned()));
        assert!(t.contains(&"from:addr:spam.example".to_owned()));
        assert!(t.contains(&"cheap".to_owned()));
        assert!(t.contains(&"pills".to_owned()));
        assert!(t.contains(&"proto:http".to_owned()));
        assert!(t.contains(&"url:pills".to_owned()));
    }

    #[test]
    fn token_set_deduplicates() {
        let mut e = Email::new();
        e.set_body("spam spam spam eggs");
        let tk = Tokenizer::new();
        assert_eq!(tk.tokenize(&e).len(), 4);
        let set = tk.token_set(&e);
        assert_eq!(set, vec!["eggs".to_owned(), "spam".to_owned()]);
    }

    #[test]
    fn token_set_is_sorted() {
        let mut e = Email::new();
        e.set_body("zebra apple mango");
        let set = Tokenizer::new().token_set(&e);
        let mut sorted = set.clone();
        sorted.sort();
        assert_eq!(set, sorted);
    }

    #[test]
    fn headerless_attack_email_has_only_body_tokens() {
        let mut e = Email::new();
        e.set_body("lexicon words flood inbox");
        let t = Tokenizer::new().tokenize(&e);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|tok| !tok.contains(':')));
    }

    #[test]
    fn empty_email_yields_no_tokens() {
        assert!(Tokenizer::new().tokenize(&Email::new()).is_empty());
    }

    #[test]
    fn url_cracking_disableable() {
        let opts = TokenizerOptions {
            crack_urls: false,
            ..Default::default()
        };
        let mut e = Email::new();
        e.set_body("see http://example.org/x");
        let t = Tokenizer::with_options(opts).tokenize(&e);
        assert!(!t.iter().any(|tok| tok.starts_with("proto:")));
    }

    #[test]
    fn token_count_counts_duplicates() {
        let mut e = Email::new();
        e.set_body("a b c word word word");
        // "a" "b" "c" dropped as too short; three "word"s counted.
        assert_eq!(Tokenizer::new().token_count(&e), 3);
    }

    #[test]
    fn multiline_bodies_tokenize_across_lines() {
        let mut e = Email::new();
        e.set_body("first line\nsecond line\r\nthird line");
        let set = Tokenizer::new().token_set(&e);
        assert!(set.contains(&"first".to_owned()));
        assert!(set.contains(&"second".to_owned()));
        assert!(set.contains(&"third".to_owned()));
        assert!(set.contains(&"line".to_owned()));
    }
}
