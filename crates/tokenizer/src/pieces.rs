//! The piece arena the tokenizer core writes into.
//!
//! A message's tokens ("pieces") are written back to back into one
//! `String`, with one end offset per piece, so tokenizing allocates
//! nothing per token: prefixes are copied in, ASCII text is lowercased in
//! place, and the arena is reused from message to message.
//!
//! An arena cleared for a *set* ([`Pieces::clear`] with `distinct`) also
//! does the set reduction's per-piece work at [`Pieces::end`], while the
//! piece is still in cache: it computes the piece's interner tag
//! ([`sb_intern::tag_of`]) and its 8-byte prefix key, and drops the piece
//! when an equal one is already in the arena (a tag match, confirmed by
//! comparing the bytes). What stays is each distinct piece once, in
//! first-seen order, with its tag and key; the set paths then sort or
//! probe distinct pieces only. A raw arena keeps every piece, for the
//! token stream.

use crate::options::TokenizerOptions;
use sb_intern::{prefix_key, tag_of};

/// Slots a fresh dedup index starts with (a power of two).
const MIN_SLOTS: usize = 512;

/// Dedup index size past which a reused arena drops it rather than
/// clearing it for the next message.
const KEEP_SLOTS: usize = 1 << 14;

/// Fibonacci multiplier spreading a tag over the slot index bits.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A reusable arena of token pieces (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Pieces {
    text: String,
    /// `ends[k]` is the offset one past piece `k`'s last byte.
    ends: Vec<usize>,
    /// Pieces closed since the last clear, duplicates included.
    raw: usize,
    /// Whether [`Pieces::end`] drops duplicates (see module docs).
    distinct: bool,
    /// Set mode: `tags[k]` is [`tag_of`] piece `k`.
    tags: Vec<u32>,
    /// Set mode: `keys[k]` is piece `k`'s prefix key.
    keys: Vec<u64>,
    /// Set mode: an open-addressed index over the pieces, `k + 1` for
    /// piece `k` and 0 when empty, probed linearly from the tag's home
    /// slot; at most half full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl Pieces {
    /// Arena capacity past which a reused arena is dropped rather than
    /// kept for the next message.
    const KEEP_BYTES: usize = 1 << 20;

    /// Forget every piece, keeping the allocations unless one huge
    /// message inflated them. With `distinct`, the pieces written next
    /// form a set (see module docs).
    pub(crate) fn clear(&mut self, distinct: bool) {
        if self.text.capacity() > Self::KEEP_BYTES {
            *self = Self::default();
        }
        self.text.clear();
        self.ends.clear();
        self.tags.clear();
        self.keys.clear();
        self.raw = 0;
        self.distinct = distinct;
        if distinct {
            if self.slots.is_empty() || self.slots.len() > KEEP_SLOTS {
                self.slots = vec![0; MIN_SLOTS];
                self.shift = 64 - MIN_SLOTS.trailing_zeros();
            } else {
                self.slots.fill(0);
            }
        }
    }

    /// Number of pieces closed, duplicates included.
    pub(crate) fn len(&self) -> usize {
        self.raw
    }

    /// The pieces kept (all of them, or in set mode each distinct piece
    /// once), in the order they were first written.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|k| self.piece(k))
    }

    /// Kept piece `k`.
    pub(crate) fn piece(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.text[start..self.ends[k]]
    }

    /// Set mode: each kept piece's [`tag_of`], in [`Pieces::iter`] order.
    pub(crate) fn tags(&self) -> &[u32] {
        &self.tags
    }

    /// Set mode: each kept piece's prefix key (its first 8 bytes as a
    /// big-endian integer), in [`Pieces::iter`] order.
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
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

    /// Close the open piece; in set mode, drop it if it repeats a kept
    /// one.
    pub(crate) fn end(&mut self) {
        self.raw += 1;
        if !self.distinct {
            self.ends.push(self.text.len());
            return;
        }
        let start = self.ends.last().copied().unwrap_or(0);
        let piece = &self.text.as_bytes()[start..];
        let tag = tag_of(piece);
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while let Some(k) = self.slots[i].checked_sub(1) {
            let k = k as usize;
            if self.tags[k] == tag && self.piece(k).as_bytes() == piece {
                self.text.truncate(start);
                return;
            }
            i = (i + 1) & mask;
        }
        self.keys.push(prefix_key(piece));
        self.tags.push(tag);
        self.ends.push(self.text.len());
        // 2^32 distinct pieces would take gigabytes of message text.
        self.slots[i] = self.ends.len() as u32;
        if self.ends.len() * 2 > self.slots.len() {
            self.grow();
        }
    }

    fn home(&self, tag: u32) -> usize {
        (u64::from(tag).wrapping_mul(SPREAD) >> self.shift) as usize
    }

    /// Double the dedup index, re-placing every piece by its tag.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (k, &tag) in self.tags.iter().enumerate() {
            let mut i = self.home(tag);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = k as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(p: &mut Pieces, words: &[&str]) {
        for w in words {
            p.put(w);
            p.end();
        }
    }

    #[test]
    fn set_mode_keeps_first_copies_with_tags_and_keys() {
        let mut p = Pieces::default();
        p.clear(true);
        write(&mut p, &["spam", "eggs", "spam", "", "", "spam-and-eggs"]);
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            ["spam", "eggs", "", "spam-and-eggs"]
        );
        let tags: Vec<u32> = p.iter().map(|s| tag_of(s.as_bytes())).collect();
        assert_eq!(p.tags(), tags);
        let keys: Vec<u64> = p.iter().map(|s| prefix_key(s.as_bytes())).collect();
        assert_eq!(p.keys(), keys);

        p.clear(false);
        write(&mut p, &["spam", "spam"]);
        assert_eq!(p.iter().collect::<Vec<_>>(), ["spam", "spam"]);
    }

    #[test]
    fn set_mode_survives_growth_and_reuse() {
        let mut p = Pieces::default();
        for round in 0..3 {
            p.clear(true);
            let n = MIN_SLOTS * 3 + round;
            for k in 0..2 * n {
                p.put_number(k % n);
                p.end();
            }
            assert_eq!(p.len(), 2 * n);
            let want: Vec<String> = (0..n).map(|k| k.to_string()).collect();
            assert_eq!(p.iter().collect::<Vec<_>>(), want);
        }
    }
}
