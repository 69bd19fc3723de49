//! The piece arena the tokenizer core writes into.
//!
//! A message's tokens ("pieces") are written back to back into one
//! `String`, with one end offset per piece, so tokenizing allocates
//! nothing per token: prefixes are copied in, ASCII text is lowercased in
//! place, and the arena is reused from message to message.

use crate::options::TokenizerOptions;

/// A reusable arena of token pieces (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Pieces {
    text: String,
    /// `ends[k]` is the offset one past piece `k`'s last byte.
    ends: Vec<usize>,
}

impl Pieces {
    /// Arena capacity past which a reused arena is dropped rather than
    /// kept for the next message.
    const KEEP_BYTES: usize = 1 << 20;

    /// Forget every piece, keeping the allocation unless one huge
    /// message inflated it.
    pub(crate) fn clear(&mut self) {
        if self.text.capacity() > Self::KEEP_BYTES {
            *self = Self::default();
        }
        self.text.clear();
        self.ends.clear();
    }

    /// Number of pieces.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The pieces, in the order they were written.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let piece = &self.text[start..end];
            start = end;
            piece
        })
    }

    /// Append `s` verbatim to the open piece.
    pub(crate) fn put(&mut self, s: &str) {
        self.text.push_str(s);
    }

    /// Append one character to the open piece.
    pub(crate) fn put_char(&mut self, c: char) {
        self.text.push(c);
    }

    /// Append `n` in decimal to the open piece.
    pub(crate) fn put_number(&mut self, n: usize) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{n}");
    }

    /// Append `s` to the open piece, case-folded per `opts`. ASCII text
    /// is lowercased in place; other text goes through `str::to_lowercase`
    /// on exactly `s` (its final-sigma rule depends on the whole string).
    pub(crate) fn put_folded(&mut self, s: &str, opts: &TokenizerOptions) {
        if s.is_ascii() {
            self.put_ascii_folded(s, opts);
        } else if opts.lowercase {
            self.text.push_str(&s.to_lowercase());
        } else {
            self.text.push_str(s);
        }
    }

    /// [`Pieces::put_folded`] for `s` the caller knows is ASCII.
    pub(crate) fn put_ascii_folded(&mut self, s: &str, opts: &TokenizerOptions) {
        let start = self.text.len();
        self.text.push_str(s);
        if opts.lowercase {
            self.text[start..].make_ascii_lowercase();
        }
    }

    /// Close the open piece.
    pub(crate) fn end(&mut self) {
        self.ends.push(self.text.len());
    }
}
