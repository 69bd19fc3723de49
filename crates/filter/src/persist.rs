//! In-memory checkpoints of the token database: a [`snapshot`] is the
//! packed model image of [`crate::image`], and [`restore`] reads one back
//! into a fresh database. The image is checksummed and validated on
//! read, so a corrupt checkpoint is a typed [`ImageError`], never a
//! different model.

use crate::db::TokenDb;
use crate::image::{self, ImageError};

/// Capture a checkpoint of the database: its packed model image. Counts
/// are exact `u32`s and rows are sorted by token string, so a
/// [`restore`]d database classifies bit-identically to the original.
pub fn snapshot(db: &TokenDb) -> Vec<u8> {
    image::pack(db)
}

/// Rebuild a database from a [`snapshot`] image (on the process-global
/// interner).
pub fn restore(bytes: &[u8]) -> Result<TokenDb, ImageError> {
    let mut db = TokenDb::new();
    image::read_image_into(&mut db, bytes)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TokenCounts;
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

    #[test]
    fn roundtrip() {
        let db = sample_db();
        let back = restore(&snapshot(&db)).unwrap();
        assert_eq!(back.n_spam(), db.n_spam());
        assert_eq!(back.n_ham(), db.n_ham());
        assert_eq!(back.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            assert_eq!(back.counts(&tok), c, "token {tok:?}");
        }
    }

    /// The checkpoint pair is exact: snapshot -> restore reproduces every
    /// count, and a second snapshot of the restored db is byte-identical
    /// (sorted rows make the image canonical).
    #[test]
    fn snapshot_restore_is_exact_and_canonical() {
        let db = sample_db();
        let image = snapshot(&db);
        let back = restore(&image).unwrap();
        assert_eq!(back.n_spam(), db.n_spam());
        assert_eq!(back.n_ham(), db.n_ham());
        assert_eq!(back.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            assert_eq!(back.counts(&tok), c, "token {tok:?}");
        }
        assert_eq!(snapshot(&back), image, "image must be canonical");
        assert!(restore(b"garbage").is_err());
    }

    #[test]
    fn tokens_with_spaces_roundtrip() {
        let back = restore(&snapshot(&sample_db())).unwrap();
        assert_eq!(back.counts("email name:bob").spam, 1);
        assert_eq!(back.counts("skip:a 20").spam, 1);
    }

    #[test]
    fn output_is_deterministic() {
        let db = sample_db();
        assert_eq!(snapshot(&db), snapshot(&db));
    }

    #[test]
    fn empty_db_roundtrips() {
        let back = restore(&snapshot(&TokenDb::new())).unwrap();
        assert_eq!(back.n_messages(), 0);
        assert_eq!(back.n_tokens(), 0);
    }

    /// Tokens carrying leading / trailing / interior whitespace (the
    /// tokenizer emits e.g. `skip:a 20`), and the empty token, survive a
    /// checkpoint byte for byte.
    #[test]
    fn whitespace_tokens_roundtrip_exactly() {
        let tokens = [
            " leading",
            "trailing ",
            " both ",
            "a  b",
            "three   spaces",
            "tab\tinside",
            "line\nbreak",
            " ",
            "",
        ];
        let mut db = TokenDb::new();
        db.train(
            &tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            Label::Spam,
        );
        let back = restore(&snapshot(&db)).unwrap();
        assert_eq!(back.n_tokens(), db.n_tokens());
        for t in tokens {
            assert_eq!(
                back.counts(t),
                TokenCounts { spam: 1, ham: 0 },
                "token {t:?} did not roundtrip"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut image = snapshot(&sample_db());
        image[0] = b's';
        let err = restore(&image).unwrap_err();
        assert!(matches!(err, ImageError::Format { offset: 0, .. }), "{err}");
    }

    /// A checkpoint that fails part-way through its rows (here: cut off
    /// inside the row table) never leaves a half-applied load: the warm
    /// target is empty, not partial.
    #[test]
    fn load_into_error_leaves_db_cleared() {
        let mut db = TokenDb::new();
        db.train(&["keepme".into()], Label::Ham);
        let img = snapshot(&sample_db());
        let err = image::read_image_into(&mut db, &img[..img.len() - 1]).unwrap_err();
        assert!(matches!(err, ImageError::Format { .. }), "{err}");
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
        assert_eq!(db.counts("keepme"), TokenCounts::default());
        assert_eq!(db.counts("cheap"), TokenCounts::default());
    }

    /// Corrupt checkpoint bytes surface as a typed `ImageError::Format`,
    /// with the target left cleared.
    #[test]
    fn corrupt_image_through_dispatch_is_typed_and_clears() {
        let mut img = snapshot(&sample_db());
        let last = img.len() - 1;
        img[last] ^= 0x01;
        let mut db = TokenDb::new();
        db.train(&["keepme".into()], Label::Ham);
        let err = image::read_image_into(&mut db, &img).unwrap_err();
        assert!(matches!(err, ImageError::Format { .. }), "{err}");
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
        assert!(restore(&img).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        let image = snapshot(&sample_db());
        let err = restore(&image[..image::HEADER_LEN - 1]).unwrap_err();
        assert!(matches!(err, ImageError::Format { offset: 0, .. }), "{err}");
    }
}
