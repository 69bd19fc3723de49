//! Offline shim for `bytes`: `Bytes` / `BytesMut` / `BufMut` backed by a
//! plain `Vec<u8>`. API-compatible with the subset this workspace uses
//! (append, split, freeze); no refcounted zero-copy slicing.
//!
//! Cost model: every method here costs what the real crate's does —
//! `split` and `freeze` move the vector (O(1)), appends are amortized O(1)
//! per byte. The shim offers no prefix split (`split_to`, `advance`): on a
//! plain vector those copy the rest of the buffer, O(n) where the real
//! crate is O(1), so a decoder that takes lines with them is quadratic.

use std::ops::{Deref, DerefMut};

/// Immutable byte buffer (here: an owned `Vec<u8>`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Empty buffer.
    pub const fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl From<&str> for Bytes {
    fn from(data: &str) -> Self {
        Self::copy_from_slice(data.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub const fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Keep only the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Split off and return the whole contents, leaving this empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            data: std::mem::take(&mut self.data),
        }
    }

    /// Freeze into an immutable buffer.
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Byte-sink trait (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, b: u8) {
        self.put_slice(&[b]);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_everything() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"abc");
        let all = b.split();
        assert_eq!(&all[..], b"abc");
        assert!(b.is_empty());
    }

    #[test]
    fn freeze_roundtrip() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"xy");
        b.put_u8(b'z');
        let f = b.freeze();
        assert_eq!(&f[..], b"xyz");
        assert_eq!(f.len(), 3);
    }
}
