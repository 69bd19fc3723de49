//! The packed model image: the one model format — a versioned,
//! checksummed binary layout for a trained [`TokenDb`], loadable by
//! offset instead of by parsing.
//!
//! The two big arrays (the dense `TokenCounts` table and the token string
//! arena) are **offset-indexable in place**, so a server can `mmap` the
//! file and answer count lookups without materializing anything (see the
//! `sb-serve` crate's `MmapDb`), while [`read_image_into`] loads an image
//! into a [`TokenDb`] — the checkpoint path of [`crate::persist`]. This
//! module owns the format itself: the header, the checksum, the pack
//! step, and the validated read-only view; it performs no I/O and no
//! `unsafe` (the mapping lives in `sb-serve`, outside this crate's
//! `#![forbid(unsafe_code)]`).
//!
//! ## Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic   b"SBMIMG1\n"
//! 8       4     version u32 (= 1)
//! 12      4     reserved u32 (= 0)
//! 16      4     n_spam  u32   — NS, spam training messages
//! 20      4     n_ham   u32   — NH, ham training messages
//! 24      8     n_tokens u64  — rows; row i is image-local TokenId(i)
//! 32      8     arena_len u64 — bytes of the string arena
//! 40      8     checksum u64  — fnv1a64 over bytes 0..40 ++ 48..EOF
//!                               (the whole file except this field, so
//!                               header corruption is caught too)
//! 48      8·n   counts array  — per row: spam u32, ham u32
//! 48+8n   8·n   ends array    — per row: cumulative u64 end offset of
//!                               the row's token string in the arena
//! 48+16n  A     string arena  — concatenated UTF-8 token strings
//! ```
//!
//! Rows are sorted by token string bytes, ascending — the image of a
//! given set of counts is **canonical** (pack twice, byte-identical),
//! and `parse` → load → `pack` is a fixpoint. Zero-count tokens are
//! skipped.
//!
//! ## Integrity
//!
//! [`ImageView::parse`] validates everything up front — magic, version,
//! the zero reserved field, declared sizes vs. actual length, the
//! checksum, end-offset monotonicity, UTF-8 of every token, sort order,
//! and live counts within the class totals — and returns a
//! typed [`ImageError`], never panicking on corrupt bytes (the serve
//! crate property-tests truncations and bit flips against this). After
//! `parse` succeeds, the per-row accessors are infallible.

use crate::db::{TokenCounts, TokenDb};
use sb_intern::{prefix_key, TokenId};

/// Magic bytes opening every packed model image.
pub const IMAGE_MAGIC: [u8; 8] = *b"SBMIMG1\n";

/// Current (only) format version.
pub const IMAGE_VERSION: u32 = 1;

/// Fixed header length in bytes; the counts array starts here.
pub const HEADER_LEN: usize = 48;

/// Errors from reading a model image.
#[derive(Debug)]
pub enum ImageError {
    /// Structural problem in the image bytes.
    Format {
        /// Byte offset of the defect (0 for whole-file problems).
        offset: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Format { offset, reason } => {
                write!(f, "bad model image at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for ImageError {}

/// FNV-1a over a byte slice — the image checksum's hash, and (re-exported
/// as `sb_experiments::fnv1a64`) the golden-digest seal.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_step(0xCBF2_9CE4_8422_2325, bytes)
}

fn fnv1a64_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The image checksum: fnv1a64 over the whole file *except* the checksum
/// field itself (bytes 40..48), so corruption anywhere — header fields
/// included — is caught.
fn image_checksum(bytes: &[u8]) -> u64 {
    let h = fnv1a64_step(0xCBF2_9CE4_8422_2325, &bytes[..40]);
    fnv1a64_step(h, &bytes[HEADER_LEN..])
}

fn err(offset: usize, reason: impl Into<String>) -> ImageError {
    ImageError::Format {
        offset,
        reason: reason.into(),
    }
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(b)
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(b)
}

/// Pack a database into image bytes (see the module docs for the layout).
///
/// The image is canonical: rows are sorted by token string, so equal
/// counts produce byte-identical images regardless of training order or
/// interning history.
///
/// The rows are sorted as ids, comparing an 8-byte prefix key first and
/// the strings themselves only on a tie, through one interner read guard:
/// packing allocates no `String` per row.
pub fn pack(db: &TokenDb) -> Vec<u8> {
    let reader = db.interner().reader();
    let token = |id: TokenId| reader.resolve(id);
    let mut entries: Vec<(u64, TokenId, TokenCounts)> = db
        .ids()
        .map(|(id, c)| (prefix_key(token(id).as_bytes()), id, c))
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| reader.cmp_by_str(a.1, b.1)));

    let n = entries.len();
    let arena_len: usize = entries.iter().map(|&(_, id, _)| token(id).len()).sum();
    let mut buf = Vec::with_capacity(HEADER_LEN + 16 * n + arena_len);
    buf.extend_from_slice(&IMAGE_MAGIC);
    buf.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&db.n_spam().to_le_bytes());
    buf.extend_from_slice(&db.n_ham().to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(arena_len as u64).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below

    for (_, _, c) in &entries {
        buf.extend_from_slice(&c.spam.to_le_bytes());
        buf.extend_from_slice(&c.ham.to_le_bytes());
    }
    let mut end: u64 = 0;
    for &(_, id, _) in &entries {
        end += token(id).len() as u64;
        buf.extend_from_slice(&end.to_le_bytes());
    }
    for &(_, id, _) in &entries {
        buf.extend_from_slice(token(id).as_bytes());
    }

    let checksum = image_checksum(&buf);
    // sb-lint: allow(panic-path, "buf begins with the 48-byte header written above; 40..48 is the checksum field")
    buf[40..48].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// A validated, read-only view over image bytes: every accessor after a
/// successful [`ImageView::parse`] is pure offset arithmetic, which is
/// what makes the format `mmap`-servable.
///
/// Row indices double as the image-local dense token ids (`TokenId(i)`
/// in a serving interner built from the arena, in row order).
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a> {
    bytes: &'a [u8],
    n_spam: u32,
    n_ham: u32,
    n_tokens: usize,
    ends_off: usize,
    arena_off: usize,
}

impl<'a> ImageView<'a> {
    /// Validate `bytes` as a version-1 image (see module docs for the
    /// full check list) and return the view.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ImageError> {
        if bytes.len() < HEADER_LEN {
            return Err(err(
                0,
                format!("truncated header: {} bytes, need {HEADER_LEN}", bytes.len()),
            ));
        }
        // sb-lint: allow(panic-path, "len >= HEADER_LEN (48) was checked above; 8 <= 48")
        if bytes[..8] != IMAGE_MAGIC {
            // sb-lint: allow(panic-path, "len >= HEADER_LEN (48) was checked above; 8 <= 48")
            return Err(err(0, format!("bad magic {:?}", &bytes[..8])));
        }
        let version = u32_at(bytes, 8);
        if version != IMAGE_VERSION {
            return Err(err(8, format!("unsupported version {version}")));
        }
        // `pack` writes 0; any other value would load like the canonical
        // image but re-pack to different bytes.
        let reserved = u32_at(bytes, 12);
        if reserved != 0 {
            return Err(err(12, format!("reserved field is {reserved}, must be 0")));
        }
        let n_spam = u32_at(bytes, 16);
        let n_ham = u32_at(bytes, 20);
        let n_tokens_u64 = u64_at(bytes, 24);
        let arena_len_u64 = u64_at(bytes, 32);
        let checksum = u64_at(bytes, 40);

        // Declared sizes must reproduce the actual length exactly before
        // any array offset is trusted (checked in u64 so a hostile header
        // cannot overflow usize arithmetic on 32-bit hosts).
        let n_tokens = usize::try_from(n_tokens_u64)
            .map_err(|_| err(24, format!("token count {n_tokens_u64} overflows usize")))?;
        let arena_len = usize::try_from(arena_len_u64)
            .map_err(|_| err(32, format!("arena length {arena_len_u64} overflows usize")))?;
        let expect_len = (HEADER_LEN as u64)
            .checked_add(n_tokens_u64.checked_mul(16).ok_or_else(|| {
                err(24, format!("token count {n_tokens_u64} overflows the layout"))
            })?)
            .and_then(|v| v.checked_add(arena_len_u64))
            .ok_or_else(|| err(24, "declared sizes overflow the layout".to_string()))?;
        if bytes.len() as u64 != expect_len {
            return Err(err(
                0,
                format!("file is {} bytes, header declares {expect_len}", bytes.len()),
            ));
        }
        let got = image_checksum(bytes);
        if got != checksum {
            return Err(err(
                40,
                format!("checksum mismatch: header {checksum:#018x}, computed {got:#018x}"),
            ));
        }

        let view = Self {
            bytes,
            n_spam,
            n_ham,
            n_tokens,
            ends_off: HEADER_LEN + 8 * n_tokens,
            arena_off: HEADER_LEN + 16 * n_tokens,
        };

        // Ends must be monotone non-decreasing and land exactly on the
        // arena length; every token must be UTF-8; rows must be strictly
        // sorted (canonical form, and what interning in row order relies
        // on for id == row).
        let mut prev_end = 0u64;
        for i in 0..n_tokens {
            let end = u64_at(bytes, view.ends_off + 8 * i);
            if end < prev_end || end > arena_len as u64 {
                return Err(err(
                    view.ends_off + 8 * i,
                    format!("row {i}: end offset {end} out of order (prev {prev_end}, arena {arena_len})"),
                ));
            }
            prev_end = end;
        }
        if prev_end != arena_len as u64 {
            return Err(err(
                view.ends_off,
                format!("last end offset {prev_end} != arena length {arena_len}"),
            ));
        }
        let mut prev_token: Option<&str> = None;
        for i in 0..n_tokens {
            let (start, end) = view.token_span(i);
            // sb-lint: allow(panic-path, "the ends loop above proved start <= end <= arena_len, and arena_off + arena_len == bytes.len() by the exact-size check")
            let tok = std::str::from_utf8(&bytes[view.arena_off + start..view.arena_off + end])
                .map_err(|e| err(view.arena_off + start, format!("row {i}: invalid UTF-8: {e}")))?;
            if let Some(prev) = prev_token {
                if prev >= tok {
                    return Err(err(
                        view.arena_off + start,
                        format!("row {i}: token {tok:?} not sorted after {prev:?}"),
                    ));
                }
            }
            prev_token = Some(tok);
            let c = view.counts(i);
            if c.spam > n_spam || c.ham > n_ham {
                return Err(err(
                    HEADER_LEN + 8 * i,
                    format!(
                        "row {i}: token counts ({},{}) exceed message counts ({n_spam},{n_ham})",
                        c.spam, c.ham
                    ),
                ));
            }
            if c.spam == 0 && c.ham == 0 {
                return Err(err(
                    HEADER_LEN + 8 * i,
                    format!("row {i}: zero-count token (images store only live rows)"),
                ));
            }
        }
        Ok(view)
    }

    /// `NS`: spam messages trained into the packed model.
    pub fn n_spam(&self) -> u32 {
        self.n_spam
    }

    /// `NH`: ham messages trained into the packed model.
    pub fn n_ham(&self) -> u32 {
        self.n_ham
    }

    /// Number of rows (distinct tokens).
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Total bytes of the string arena.
    pub fn arena_len(&self) -> usize {
        self.bytes.len() - self.arena_off
    }

    /// The declared checksum (already verified by [`ImageView::parse`]).
    pub fn checksum(&self) -> u64 {
        u64_at(self.bytes, 40)
    }

    fn token_span(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 {
            0
        } else {
            u64_at(self.bytes, self.ends_off + 8 * (i - 1)) as usize
        };
        let end = u64_at(self.bytes, self.ends_off + 8 * i) as usize;
        (start, end)
    }

    /// Counts of row `i` (row indices are `0..n_tokens`; parse validated
    /// the array bounds).
    pub fn counts(&self, i: usize) -> TokenCounts {
        TokenCounts {
            spam: u32_at(self.bytes, HEADER_LEN + 8 * i),
            ham: u32_at(self.bytes, HEADER_LEN + 8 * i + 4),
        }
    }

    /// Token string of row `i` — a direct arena slice, zero-copy
    /// (UTF-8 validated once at parse).
    pub fn token(&self, i: usize) -> &'a str {
        let (start, end) = self.token_span(i);
        debug_assert!(
            // sb-lint: allow(panic-path, "parse proved every row span in bounds; debug-only re-check")
            std::str::from_utf8(&self.bytes[self.arena_off + start..self.arena_off + end]).is_ok()
        );
        // Parse validated every row's UTF-8; re-checking per lookup would
        // put an O(len) scan on the serving hot path.
        // sb-lint: allow(panic-path, "parse proved every row span in bounds (ends monotone, arena exact-sized)")
        let raw = &self.bytes[self.arena_off + start..self.arena_off + end];
        std::str::from_utf8(raw).unwrap_or_default()
    }
}

/// Read image bytes into an existing database, replacing its contents:
/// interns every token in one batch and replays the counts. This is the
/// checkpoint path ([`crate::persist::restore`]) and the warm-reload
/// path, not the serving path, which keeps the bytes mapped (see
/// `sb-serve`).
///
/// The target keeps its interner handle and allocations. Any previously
/// cached scores are **invalidated**: the counts are written through the
/// bulk path, which bypasses the per-mutation generation bump, so serving
/// pre-load `f(w)` entries afterwards would silently misclassify
/// (`read_into_warm_db_invalidates_cache` pins this).
///
/// On error the target is left cleared (never with a half-applied image).
pub fn read_image_into(db: &mut TokenDb, bytes: &[u8]) -> Result<(), ImageError> {
    db.clear();
    let res = (|| -> Result<(), ImageError> {
        let view = ImageView::parse(bytes)?;
        db.set_message_counts_for_load(view.n_spam(), view.n_ham());
        let rows: Vec<&str> = (0..view.n_tokens()).map(|i| view.token(i)).collect();
        let ids = db.interner().intern_each(&rows);
        for (i, id) in ids.into_iter().enumerate() {
            db.add_counts_for_load(id, view.counts(i));
        }
        Ok(())
    })();
    if res.is_err() {
        db.clear();
    }
    db.invalidate_cache();
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;

    fn sample_db() -> TokenDb {
        let mut db = TokenDb::new();
        db.train(
            &["cheap".into(), "email name:bob".into(), "skip:a 20".into()],
            Label::Spam,
        );
        db.train(&["agenda".into(), "cheap".into()], Label::Ham);
        db
    }

    /// The offset of `bytes`' `Format` error; panics if they parse.
    fn format_offset(bytes: &[u8]) -> usize {
        match ImageView::parse(bytes) {
            Err(ImageError::Format { offset, .. }) => offset,
            Ok(_) => panic!("corrupt image parsed"),
        }
    }

    /// `img` with `edit` applied and its checksum recomputed, so the
    /// defect reaches the checks that sit behind the checksum.
    fn rechecksummed(mut img: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        edit(&mut img);
        let sum = image_checksum(&img);
        img[40..48].copy_from_slice(&sum.to_le_bytes());
        img
    }

    /// Rows `aa`, `bb`, `cc`, each trained into one spam message: counts
    /// at 48..72, ends `[2, 4, 6]` at 72..96, arena `aabbcc` at 96..102.
    fn three_rows() -> Vec<u8> {
        let mut db = TokenDb::new();
        db.train(&["aa".into(), "bb".into(), "cc".into()], Label::Spam);
        let img = pack(&db);
        assert_eq!(&img[96..], b"aabbcc");
        img
    }

    #[test]
    fn nonzero_reserved_field_rejected() {
        let img = rechecksummed(pack(&sample_db()), |b| b[12] = 1);
        assert_eq!(format_offset(&img), 12);
    }

    #[test]
    fn row_counts_above_totals_rejected() {
        // sample_db has NS = NH = 1; row 1 is `cheap` (1, 1).
        let spam = rechecksummed(pack(&sample_db()), |b| b[HEADER_LEN + 8] = 2);
        assert_eq!(format_offset(&spam), HEADER_LEN + 8);
        let ham = rechecksummed(pack(&sample_db()), |b| b[HEADER_LEN + 12] = 2);
        assert_eq!(format_offset(&ham), HEADER_LEN + 8);
    }

    #[test]
    fn zero_count_row_rejected() {
        let img = rechecksummed(three_rows(), |b| b[HEADER_LEN + 16] = 0);
        assert_eq!(format_offset(&img), HEADER_LEN + 16);
    }

    #[test]
    fn unsorted_and_duplicate_rows_rejected() {
        let swapped = rechecksummed(three_rows(), |b| b[96..100].copy_from_slice(b"bbaa"));
        assert_eq!(format_offset(&swapped), 98);
        let duplicate = rechecksummed(three_rows(), |b| b[96..100].copy_from_slice(b"aaaa"));
        assert_eq!(format_offset(&duplicate), 98);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let img = rechecksummed(three_rows(), |b| b[100] = 0xFF);
        assert_eq!(format_offset(&img), 100);
    }

    #[test]
    fn decreasing_end_offsets_rejected() {
        let img = rechecksummed(three_rows(), |b| b[80] = 1);
        assert_eq!(format_offset(&img), 80);
    }

    #[test]
    fn pack_parse_roundtrip() {
        let db = sample_db();
        let img = pack(&db);
        let view = ImageView::parse(&img).unwrap();
        assert_eq!(view.n_spam(), db.n_spam());
        assert_eq!(view.n_ham(), db.n_ham());
        assert_eq!(view.n_tokens(), db.n_tokens());
        for i in 0..view.n_tokens() {
            let tok = view.token(i);
            assert_eq!(view.counts(i), db.counts(tok), "token {tok:?}");
        }
    }

    #[test]
    fn pack_is_canonical_across_training_order() {
        let mut a = TokenDb::new();
        a.train(&["x".into(), "y".into()], Label::Spam);
        a.train(&["z".into()], Label::Ham);
        let mut b = TokenDb::new();
        b.train(&["z".into()], Label::Ham);
        b.train(&["y".into(), "x".into()], Label::Spam);
        assert_eq!(pack(&a), pack(&b));
    }

    #[test]
    fn rows_are_sorted_by_token() {
        let img = pack(&sample_db());
        let view = ImageView::parse(&img).unwrap();
        for i in 1..view.n_tokens() {
            assert!(view.token(i - 1) < view.token(i));
        }
    }

    #[test]
    fn read_image_into_matches_source() {
        let db = sample_db();
        let img = pack(&db);
        let mut back = TokenDb::new();
        read_image_into(&mut back, &img).unwrap();
        assert_eq!(back.n_spam(), db.n_spam());
        assert_eq!(back.n_ham(), db.n_ham());
        assert_eq!(back.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            assert_eq!(back.counts(&tok), c, "token {tok:?}");
        }
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = TokenDb::new();
        let img = pack(&db);
        let view = ImageView::parse(&img).unwrap();
        assert_eq!(view.n_tokens(), 0);
        assert_eq!(view.arena_len(), 0);
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let img = pack(&sample_db());
        for len in 0..img.len() {
            let e = ImageView::parse(&img[..len]).unwrap_err();
            assert!(matches!(e, ImageError::Format { .. }), "len {len}: {e}");
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum_or_validation() {
        let img = pack(&sample_db());
        // Flip one bit in each region: header count, counts array, ends
        // array, arena. Every corruption must surface as a typed error.
        for &pos in &[16usize, HEADER_LEN + 1, HEADER_LEN + 8 * 5 + 2, img.len() - 1] {
            let mut bad = img.clone();
            bad[pos] ^= 0x40;
            assert!(
                ImageView::parse(&bad).is_err(),
                "bit flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn oversized_header_counts_rejected_without_panic() {
        let mut img = pack(&sample_db());
        // Declare an absurd token count; length check must catch it
        // before any offset arithmetic runs (and overflow-safe at that).
        img[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ImageView::parse(&img),
            Err(ImageError::Format { .. })
        ));
    }

    #[test]
    fn magic_prefix_detection() {
        let img = pack(&TokenDb::new());
        assert!(ImageView::parse(&img).is_ok());
        // A magic prefix alone, or a header-sized file behind one, is not
        // an image; neither is a foreign header.
        let mut prefix_only = b"SBM".to_vec();
        prefix_only.resize(HEADER_LEN, 0);
        let mut foreign = b"sbdb 1\nnspam 0\nnham 0\n".to_vec();
        foreign.resize(HEADER_LEN, b' ');
        for bytes in [&b"SBM"[..], &prefix_only, &foreign] {
            assert_eq!(format_offset(bytes), 0, "{bytes:?}");
        }
    }

    #[test]
    fn read_image_into_error_leaves_db_cleared() {
        let mut db = TokenDb::new();
        db.train(&["keepme".into()], Label::Ham);
        let mut img = pack(&sample_db());
        let last = img.len() - 1;
        img[last] ^= 0x01;
        assert!(read_image_into(&mut db, &img).is_err());
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
    }

    /// Reading into a warm database must not serve pre-load cached
    /// scores: the bulk row writes bypass the per-mutation generation
    /// bump, so `read_image_into` has to invalidate explicitly.
    #[test]
    fn read_into_warm_db_invalidates_cache() {
        use crate::options::FilterOptions;
        let opts = FilterOptions::default();

        // Warm database: "win" is spam-leaning and its score is cached.
        let mut warm = TokenDb::new();
        warm.train(&["win".into()], Label::Spam);
        warm.train(&["win".into()], Label::Ham);
        warm.train(&["other".into()], Label::Spam);
        let id = warm.interner().get("win").unwrap();
        let stale = warm.cached_score(id, &opts);

        // An image in which "win" has very different counts and totals.
        let mut other = TokenDb::new();
        for _ in 0..5 {
            other.train(&["win".into(), "meet".into()], Label::Ham);
        }
        other.train(&["win".into()], Label::Spam);
        let img = pack(&other);

        read_image_into(&mut warm, &img).unwrap();
        assert_eq!(warm.n_spam(), other.n_spam());
        assert_eq!(warm.n_ham(), other.n_ham());
        assert_eq!(warm.counts("win"), other.counts("win"));
        // The reloaded score must match a cold load of the same image,
        // bit for bit — not the pre-load cached value.
        let mut cold = TokenDb::new();
        read_image_into(&mut cold, &img).unwrap();
        let got = warm.cached_score(id, &opts);
        let cold_id = cold.interner().get("win").unwrap();
        let want = cold.cached_score(cold_id, &opts);
        assert_eq!(got.f.to_bits(), want.f.to_bits(), "stale f(w) served");
        assert_ne!(got.f.to_bits(), stale.f.to_bits(), "test not probative");
    }

    #[test]
    fn read_into_replaces_rather_than_merges() {
        let mut db = TokenDb::new();
        db.train(&["gone".into()], Label::Spam);
        let fresh = sample_db();
        read_image_into(&mut db, &pack(&fresh)).unwrap();
        assert_eq!(db.counts("gone"), TokenCounts::default());
        assert_eq!(db.n_tokens(), fresh.n_tokens());
        assert_eq!(db.n_messages(), fresh.n_messages());
    }

    /// The loader interns its rows in one batch. Into an interner that is
    /// shared and already holds some of the image's tokens (and others),
    /// that must give every string the counts, and every token the id,
    /// that interning row by row gives.
    #[test]
    fn read_into_a_used_shared_interner_matches_per_row_interning() {
        use sb_intern::Interner;
        let src = sample_db();
        let history = |interner: &Interner| {
            for tok in ["zz-before", "cheap", "aa-before", "skip:a 20"] {
                interner.intern(tok);
            }
        };
        let shared = Interner::new();
        history(&shared);
        let mut db = TokenDb::with_interner(shared.clone());
        read_image_into(&mut db, &pack(&src)).unwrap();

        let per_row = Interner::new();
        history(&per_row);
        let mut rows: Vec<(String, TokenCounts)> = src.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (tok, counts) in &rows {
            let id = per_row.intern(tok);
            assert_eq!(db.counts(tok), *counts, "token {tok:?}");
            assert_eq!(shared.get(tok), Some(id), "token {tok:?}");
        }
        assert_eq!(shared.len(), per_row.len());
        assert_eq!(db.n_tokens(), src.n_tokens());
        assert_eq!((db.n_spam(), db.n_ham()), (src.n_spam(), src.n_ham()));
    }
}
