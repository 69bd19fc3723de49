//! [`MmapDb`]: a read-only [`ScoreDb`] served straight from packed image
//! bytes.
//!
//! Where [`sb_filter::TokenDb`] owns a dense `Vec<TokenCounts>`, an
//! `MmapDb` *is* the image: every count lookup is two little-endian
//! `u32` reads at `HEADER_LEN + 8·id` into the (usually mapped) bytes.
//! The only materialized state is the serving [`Interner`] — built once
//! at load by interning the arena strings in row order, so that
//! **image row `i` ⇔ `TokenId(i)`** and ids can index the counts array
//! directly — and a score cache.
//!
//! The cache is a [`ScoreMemo`] stamped with the constant 1: a base model
//! never mutates, so a slot is simply filled or not (stamp rules in
//! [`sb_filter::memo`]).
//!
//! `FilterOptions` are fixed at construction for the same reason
//! `TokenDb` invalidates on `set_options`: cached `f(w)` values bake the
//! options in. Serving a different configuration means opening another
//! `MmapDb` (cheap — the kernel shares the mapped pages).

use crate::mmap::ImageBytes;
use crate::ServeError;
use sb_filter::image::{ImageView, HEADER_LEN};
use sb_filter::score::token_score_from_counts;
use sb_filter::{FilterOptions, ScoreDb, ScoreMemo, TokenCounts, TokenDb};
use sb_intern::{Interner, TokenId};
use std::path::Path;

/// What a tenant overlay stacks on: any read-only source of per-id
/// counts and class totals sharing an [`Interner`].
///
/// Implementations must be **immutable while served** — `StackView`
/// memo slots and `MmapDb` cache slots are stamped once and trusted for
/// the base's lifetime, so a mutating base would serve stale scores.
/// The two implementations hold the invariant structurally: [`MmapDb`]
/// has no mutating API at all, and a [`TokenDb`] base is owned by an
/// `Arc` the registry never hands out mutably.
pub trait BaseModel: ScoreDb + Send + Sync {
    /// Counts for a token id (zero if unseen).
    fn base_counts(&self, id: TokenId) -> TokenCounts;

    /// `NS`: spam messages trained into the base.
    fn base_n_spam(&self) -> u32;

    /// `NH`: ham messages trained into the base.
    fn base_n_ham(&self) -> u32;
}

impl BaseModel for TokenDb {
    fn base_counts(&self, id: TokenId) -> TokenCounts {
        self.counts_by_id(id)
    }

    fn base_n_spam(&self) -> u32 {
        self.n_spam()
    }

    fn base_n_ham(&self) -> u32 {
        self.n_ham()
    }
}

/// A packed model image served in place (see module docs).
pub struct MmapDb {
    bytes: ImageBytes,
    interner: Interner,
    opts: FilterOptions,
    n_spam: u32,
    n_ham: u32,
    n_tokens: usize,
    cache: ScoreMemo,
}

impl std::fmt::Debug for MmapDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapDb")
            .field("bytes", &self.bytes)
            .field("n_spam", &self.n_spam)
            .field("n_ham", &self.n_ham)
            .field("n_tokens", &self.n_tokens)
            .finish()
    }
}

impl MmapDb {
    /// Map (or read) and validate a packed image file, building the
    /// serving interner.
    pub fn open(path: &Path, opts: FilterOptions) -> Result<Self, ServeError> {
        Self::from_bytes(ImageBytes::load(path)?, opts)
    }

    /// Serve an already-loaded image. Validates the full image
    /// ([`ImageView::parse`]) and interns the arena in row order on a
    /// **fresh** interner, establishing `row i ⇔ TokenId(i)`.
    pub fn from_bytes(bytes: ImageBytes, opts: FilterOptions) -> Result<Self, ServeError> {
        let view = ImageView::parse(&bytes)?;
        let interner = Interner::new();
        for i in 0..view.n_tokens() {
            let id = interner.intern(view.token(i));
            // A fresh interner hands out sequential ids and parse
            // guarantees strictly sorted (hence unique) rows, so this
            // only fires if one of those invariants breaks.
            if id.index() != i {
                return Err(ServeError::InternMismatch { row: i });
            }
        }
        let n_tokens = view.n_tokens();
        let (n_spam, n_ham) = (view.n_spam(), view.n_ham());
        let cache = ScoreMemo::with_capacity(n_tokens);
        Ok(Self {
            bytes,
            interner,
            opts,
            n_spam,
            n_ham,
            n_tokens,
            cache,
        })
    }

    /// The serving interner (`TokenId(i)` ⇔ image row `i`; tokens unseen
    /// by the base intern onward from `n_tokens`).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The options the cache was built for.
    pub fn options(&self) -> &FilterOptions {
        &self.opts
    }

    /// `NS`: spam messages in the packed model.
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// `NH`: ham messages in the packed model.
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Distinct tokens in the packed model.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Whether the image is served by a live mapping (vs. the owned
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Image size in bytes.
    pub fn image_len(&self) -> usize {
        self.bytes.len()
    }

    /// Counts for a token id: an offset read into the image. Ids at or
    /// beyond `n_tokens` (interned after load, or from another source)
    /// are unseen — zero counts, like `TokenDb`.
    #[inline]
    pub fn counts_by_id(&self, id: TokenId) -> TokenCounts {
        let i = id.index();
        if i >= self.n_tokens {
            return TokenCounts::default();
        }
        let bytes = self.bytes.as_slice();
        let off = HEADER_LEN + 8 * i;
        let mut spam = [0u8; 4];
        let mut ham = [0u8; 4];
        // sb-lint: allow(panic-path, "i < n_tokens was checked above, and parse proved HEADER_LEN + 8·n_tokens <= len")
        spam.copy_from_slice(&bytes[off..off + 4]);
        // sb-lint: allow(panic-path, "i < n_tokens was checked above, and parse proved HEADER_LEN + 8·n_tokens <= len")
        ham.copy_from_slice(&bytes[off + 4..off + 8]);
        TokenCounts {
            spam: u32::from_le_bytes(spam),
            ham: u32::from_le_bytes(ham),
        }
    }

    /// The cached `f(w)` (Eq. 2) of a token under the fixed options —
    /// lock-free, fill-once (the base is immutable; see module docs).
    /// Ids past the image are unseen: zero counts make Eq. 2 collapse to
    /// the prior `x`.
    #[inline]
    pub fn cached_f(&self, id: TokenId) -> f64 {
        self.cache.f(id, 1, || {
            token_score_from_counts(self.n_spam, self.n_ham, self.counts_by_id(id), &self.opts)
        })
    }

    /// The cached `(ln f, ln(1 − f))` pair (same fill-once discipline).
    #[inline]
    pub fn cached_lns(&self, id: TokenId, f: f64) -> (f64, f64) {
        self.cache.lns(id, 1, f)
    }
}

impl ScoreDb for MmapDb {
    fn interner(&self) -> &Interner {
        MmapDb::interner(self)
    }

    fn score_f(&self, id: TokenId, opts: &FilterOptions) -> f64 {
        debug_assert!(
            *opts == self.opts,
            "MmapDb serves the options it was opened with"
        );
        let _ = opts;
        self.cached_f(id)
    }

    fn score_lns(&self, id: TokenId, f: f64) -> (f64, f64) {
        self.cached_lns(id, f)
    }
}

impl BaseModel for MmapDb {
    fn base_counts(&self, id: TokenId) -> TokenCounts {
        self.counts_by_id(id)
    }

    fn base_n_spam(&self) -> u32 {
        self.n_spam
    }

    fn base_n_ham(&self) -> u32 {
        self.n_ham
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;
    use sb_filter::classify::score_token_ids;
    use sb_filter::image::pack;

    fn trained_db() -> TokenDb {
        let interner = Interner::new();
        let mut db = TokenDb::with_interner(interner);
        db.train(
            &["cheap".into(), "pills".into(), "now".into()],
            Label::Spam,
        );
        db.train(&["cheap".into(), "meeting".into()], Label::Ham);
        db.train(&["agenda".into(), "meeting".into()], Label::Ham);
        db
    }

    fn mmap_from(db: &TokenDb, opts: FilterOptions) -> MmapDb {
        MmapDb::from_bytes(ImageBytes::Owned(pack(db)), opts).unwrap()
    }

    #[test]
    fn counts_match_source_by_string() {
        let db = trained_db();
        let m = mmap_from(&db, FilterOptions::default());
        assert_eq!(m.n_spam(), db.n_spam());
        assert_eq!(m.n_ham(), db.n_ham());
        assert_eq!(m.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            let id = m.interner().get(&tok).unwrap();
            assert_eq!(m.counts_by_id(id), c, "token {tok:?}");
        }
    }

    #[test]
    fn scores_are_bit_identical_to_source() {
        let opts = FilterOptions::default();
        let db = trained_db();
        let m = mmap_from(&db, opts);
        let probe = ["cheap", "pills", "meeting", "unseen-token"];
        // Resolve each interner's own ids for the same strings.
        let db_ids: Vec<TokenId> = probe.iter().map(|t| db.interner().intern(t)).collect();
        let m_ids: Vec<TokenId> = probe.iter().map(|t| m.interner().intern(t)).collect();
        let want = score_token_ids(&db_ids, &db, &opts);
        let got = score_token_ids(&m_ids, &m, &opts);
        assert_eq!(got.score.to_bits(), want.score.to_bits());
        assert_eq!(got.verdict, want.verdict);
        assert_eq!(got.n_clues, want.n_clues);
    }

    #[test]
    fn cached_and_uncached_scores_agree() {
        let opts = FilterOptions::default();
        let db = trained_db();
        let m = mmap_from(&db, opts);
        for (tok, _) in db.iter() {
            let id = m.interner().get(&tok).unwrap();
            let cold = token_score_from_counts(m.n_spam(), m.n_ham(), m.counts_by_id(id), &opts);
            assert_eq!(m.cached_f(id).to_bits(), cold.to_bits());
            // Second read comes from the cache.
            assert_eq!(m.cached_f(id).to_bits(), cold.to_bits());
        }
    }

    #[test]
    fn ids_beyond_image_are_unseen() {
        let db = trained_db();
        let opts = FilterOptions::default();
        let m = mmap_from(&db, opts);
        let fresh = m.interner().intern("brand-new-token");
        assert_eq!(m.counts_by_id(fresh), TokenCounts::default());
        assert_eq!(m.cached_f(fresh), opts.unknown_word_prob);
    }

    #[test]
    fn corrupt_bytes_surface_typed_errors() {
        let mut img = pack(&trained_db());
        let mid = img.len() / 2;
        img[mid] ^= 0x10;
        match MmapDb::from_bytes(ImageBytes::Owned(img), FilterOptions::default()) {
            Err(ServeError::Image(_)) => {}
            other => panic!("expected ServeError::Image, got {other:?}"),
        }
    }

    #[test]
    fn open_maps_a_real_file() {
        let db = trained_db();
        let path = std::env::temp_dir().join(format!("sb-serve-model-{}.img", std::process::id()));
        std::fs::write(&path, pack(&db)).unwrap();
        let m = MmapDb::open(&path, FilterOptions::default()).unwrap();
        assert_eq!(m.n_tokens(), db.n_tokens());
        drop(m);
        std::fs::remove_file(path).ok();
    }
}
