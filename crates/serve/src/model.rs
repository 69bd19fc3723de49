//! [`MmapDb`]: a read-only [`ScoreDb`] served straight from packed image
//! bytes.
//!
//! Where [`sb_filter::TokenDb`] owns a dense `Vec<TokenCounts>`, an
//! `MmapDb` *is* the image: every count lookup is two little-endian
//! `u32` reads at `HEADER_LEN + 8·id` into the (usually mapped) bytes.
//! The only materialized state is the serving [`Interner`], built once
//! at load by interning the arena strings in row order, so that
//! **image row `i` ⇔ `TokenId(i)`** and ids can index the counts array
//! directly.
//!
//! There is no score cache: `f(w)` is computed from the two counts on
//! every lookup, and the `ln` pair only for δ(E) survivors. In serving,
//! an `MmapDb` is read through tenant stacks, which add their layers'
//! counts before scoring and so never consult a base-level cache (see
//! [`sb_filter::memo`] for why the stacks carry none either).
//!
//! `FilterOptions` are fixed at construction: the image is opened for one
//! configuration. Serving a different one means opening another `MmapDb`
//! (cheap — the kernel shares the mapped pages).

use crate::mmap::ImageBytes;
use crate::ServeError;
use sb_filter::image::{ImageView, HEADER_LEN};
use sb_filter::score::token_score_from_counts;
use sb_filter::{ln_pair, FilterOptions, ScoreDb, TokenCounts, TokenDb};
use sb_intern::{Interner, TokenId};
use std::path::Path;

/// What a tenant overlay stacks on: any read-only source of per-id
/// counts and class totals sharing an [`Interner`].
///
/// Implementations must be **immutable while served**: every tenant
/// shares the base, so a mutation would move every tenant's verdicts at
/// once. The two implementations hold the invariant structurally:
/// [`MmapDb`] has no mutating API at all, and a [`TokenDb`] base is owned
/// by an `Arc` the registry never hands out mutably.
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
    /// ([`ImageView::parse`]) and interns the arena in one batch on a
    /// **fresh** interner, establishing `row i ⇔ TokenId(i)`.
    pub fn from_bytes(bytes: ImageBytes, opts: FilterOptions) -> Result<Self, ServeError> {
        let view = ImageView::parse(&bytes)?;
        let (n_spam, n_ham, n_tokens) = (view.n_spam(), view.n_ham(), view.n_tokens());
        let rows: Vec<&str> = (0..n_tokens).map(|i| view.token(i)).collect();
        let interner = Interner::new();
        intern_rows(&interner, &rows)?;
        Ok(Self {
            bytes,
            interner,
            opts,
            n_spam,
            n_ham,
            n_tokens,
        })
    }

    /// The serving interner (`TokenId(i)` ⇔ image row `i`; tokens unseen
    /// by the base intern onward from `n_tokens`).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The options the image is served with.
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
}

/// Intern an image's rows in one batch and check `row i ⇔ TokenId(i)`.
///
/// On a fresh interner a batch's new tokens get sequential ids in string
/// order, and [`ImageView::parse`] guarantees strictly sorted (hence
/// unique) rows, so the check only fails if one of those invariants
/// breaks.
fn intern_rows(interner: &Interner, rows: &[&str]) -> Result<(), ServeError> {
    interner.intern_pieces(rows);
    let len = interner.len();
    let reader = interner.reader();
    // `i < len` is checked first, and ids are `u32`, so the cast is exact.
    match rows
        .iter()
        .enumerate()
        .position(|(i, row)| i >= len || reader.resolve(TokenId(i as u32)) != *row)
    {
        Some(row) => Err(ServeError::InternMismatch { row }),
        None => Ok(()),
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
        token_score_from_counts(self.n_spam, self.n_ham, self.counts_by_id(id), opts)
    }

    fn score_lns(&self, _id: TokenId, f: f64) -> (f64, f64) {
        ln_pair(f)
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

    /// The image computes every score from its counts; the source
    /// `TokenDb` serves the same scores from its memo. Both agree bit for
    /// bit, on first and repeated reads, for `f` and the `ln` pair.
    #[test]
    fn cached_and_uncached_scores_agree() {
        let opts = FilterOptions::default();
        let db = trained_db();
        let m = mmap_from(&db, opts);
        for (tok, _) in db.iter() {
            let id = m.interner().get(&tok).unwrap();
            let src = db.interner().get(&tok).unwrap();
            let cold = token_score_from_counts(m.n_spam(), m.n_ham(), m.counts_by_id(id), &opts);
            for _ in 0..2 {
                let f = m.score_f(id, &opts);
                assert_eq!(f.to_bits(), cold.to_bits());
                assert_eq!(f.to_bits(), db.cached_f(src, &opts).to_bits());
                assert_eq!(m.score_lns(id, f), db.cached_lns(src, f));
            }
        }
    }

    #[test]
    fn ids_beyond_image_are_unseen() {
        let db = trained_db();
        let opts = FilterOptions::default();
        let m = mmap_from(&db, opts);
        let fresh = m.interner().intern("brand-new-token");
        assert_eq!(m.counts_by_id(fresh), TokenCounts::default());
        assert_eq!(m.score_f(fresh, &opts), opts.unknown_word_prob);
    }

    /// The check is on the ids: rows that would not land on their own
    /// ids (unsorted rows, or an interner already holding another token)
    /// are refused.
    #[test]
    fn rows_off_their_ids_are_an_intern_mismatch() {
        assert!(intern_rows(&Interner::new(), &["a", "b", "c"]).is_ok());
        assert!(matches!(
            intern_rows(&Interner::new(), &["b", "a"]),
            Err(ServeError::InternMismatch { row: 0 })
        ));
        let used = Interner::new();
        used.intern("a");
        assert!(intern_rows(&used, &["a", "b"]).is_ok());
        let used = Interner::new();
        used.intern("zz");
        assert!(matches!(
            intern_rows(&used, &["a", "b"]),
            Err(ServeError::InternMismatch { row: 0 })
        ));
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
