//! Plain-text persistence for the token database.
//!
//! A deliberately simple line format (no external serialization crate
//! needed), analogous to SpamBayes' exported wordinfo dumps:
//!
//! ```text
//! sbdb 1
//! nspam 5000
//! nham 5000
//! t 13 2 cheap
//! t 0 7 agenda
//! ...
//! ```
//!
//! Tokens go last on the line and may contain spaces (e.g. `email name:x`,
//! `skip:a 20`); they cannot contain newlines (the tokenizer splits on
//! whitespace), which this module re-validates on write.

use crate::db::{TokenCounts, TokenDb};
use std::io::{BufRead, Write};

/// Errors from loading a database dump.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the dump.
    Format {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format { line, reason } => {
                write!(f, "bad database dump at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Write a database dump.
pub fn save_db<W: Write>(db: &TokenDb, mut w: W) -> Result<(), PersistError> {
    writeln!(w, "sbdb 1")?;
    writeln!(w, "nspam {}", db.n_spam())?;
    writeln!(w, "nham {}", db.n_ham())?;
    // Deterministic output order for diffability.
    let mut entries: Vec<(String, TokenCounts)> = db.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (tok, c) in entries {
        debug_assert!(!tok.contains('\n'), "token contains newline: {tok:?}");
        writeln!(w, "t {} {} {}", c.spam, c.ham, tok)?;
    }
    Ok(())
}

/// Read a database dump produced by [`save_db`] into a fresh database on
/// the process-global interner.
pub fn load_db<R: BufRead>(r: R) -> Result<TokenDb, PersistError> {
    let mut db = TokenDb::new();
    load_db_into(&mut db, r)?;
    Ok(db)
}

/// Capture an in-memory checkpoint image of the database — the dump bytes
/// of [`save_db`]. Counts are exact `u32`s and the dump order is sorted, so
/// a [`restore`]d database classifies bit-identically to the original.
pub fn snapshot(db: &TokenDb) -> Vec<u8> {
    let mut buf = Vec::new();
    // sb-lint: allow(fail-closed, "io::Write on a Vec<u8> is infallible; there is no error to propagate")
    save_db(db, &mut buf).expect("writing a dump to a Vec cannot fail");
    buf
}

/// Rebuild a database from a [`snapshot`] image (on the process-global
/// interner).
pub fn restore(bytes: &[u8]) -> Result<TokenDb, PersistError> {
    load_db(std::io::Cursor::new(bytes))
}

/// Read a database dump into an existing database, replacing its
/// contents — the warm-reload path (e.g. a serving filter re-reading its
/// dump after an out-of-band retrain).
///
/// Accepts **either** on-disk model format transparently, dispatching on
/// the first buffered bytes: the [`save_db`] text dump (`sbdb 1` magic)
/// or the packed binary image of [`crate::image`] (`SBMIMG1` magic,
/// written by `repro model pack`). Existing callers therefore work
/// unchanged against migrated models.
///
/// The target keeps its interner handle and allocations. Any previously
/// cached scores are **invalidated**: both loaders write counts through
/// the bulk path, which bypasses the per-mutation generation bump, so
/// serving pre-load `f(w)` entries afterwards would silently
/// misclassify — the regression test `load_into_warm_db_invalidates_cache`
/// pins this.
///
/// On error the target is left cleared (never with a half-applied dump).
pub fn load_db_into<R: BufRead>(db: &mut TokenDb, mut r: R) -> Result<(), PersistError> {
    // Peek without consuming: the text path re-reads these bytes as line 1.
    // `fill_buf` may surface fewer than 8 bytes, but a *prefix* match on
    // the image magic is already unambiguous (no text dump starts with
    // `S`), so short buffers still dispatch correctly.
    let prefix_is_image = crate::image::looks_like_image(r.fill_buf()?);
    if prefix_is_image {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        return crate::image::read_image_into(db, &bytes).map_err(|e| match e {
            crate::image::ImageError::Io(io) => PersistError::Io(io),
            crate::image::ImageError::Format { offset, reason } => PersistError::Format {
                line: 0,
                reason: format!("model image byte {offset}: {reason}"),
            },
        });
    }
    db.clear();
    let res = load_rows(db, r);
    if res.is_err() {
        db.clear();
    }
    // The bulk row writes bypass the per-mutation generation bump;
    // invalidate once so no pre-load cached score survives the reload.
    db.invalidate_cache();
    res
}

fn load_rows<R: BufRead>(db: &mut TokenDb, r: R) -> Result<(), PersistError> {
    let mut lines = r.lines().enumerate();
    let expect = |got: Option<(usize, std::io::Result<String>)>,
                  what: &str|
     -> Result<(usize, String), PersistError> {
        match got {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(PersistError::Format {
                line: i + 1,
                reason: format!("read error: {e}"),
            }),
            None => Err(PersistError::Format {
                line: 0,
                reason: format!("missing {what}"),
            }),
        }
    };

    let (ln, magic) = expect(lines.next(), "magic header")?;
    if magic.trim() != "sbdb 1" {
        return Err(PersistError::Format {
            line: ln,
            reason: format!("bad magic {magic:?}"),
        });
    }
    let parse_count = |line: &str, ln: usize, key: &str| -> Result<u32, PersistError> {
        let mut it = line.splitn(2, ' ');
        let k = it.next().unwrap_or("");
        let v = it.next().unwrap_or("");
        if k != key {
            return Err(PersistError::Format {
                line: ln,
                reason: format!("expected {key}, got {k:?}"),
            });
        }
        v.trim().parse().map_err(|e| PersistError::Format {
            line: ln,
            reason: format!("bad count: {e}"),
        })
    };
    let (ln, l) = expect(lines.next(), "nspam")?;
    let n_spam = parse_count(&l, ln, "nspam")?;
    let (ln, l) = expect(lines.next(), "nham")?;
    let n_ham = parse_count(&l, ln, "nham")?;
    db.set_message_counts_for_load(n_spam, n_ham);

    // Parse every row first, then intern them in one batch.
    let mut tokens = Vec::new();
    let mut counts = Vec::new();
    for (i, line) in lines {
        let ln = i + 1;
        let line = line.map_err(|e| PersistError::Format {
            line: ln,
            reason: format!("read error: {e}"),
        })?;
        if line.is_empty() {
            continue;
        }
        let rest = line.strip_prefix("t ").ok_or_else(|| PersistError::Format {
            line: ln,
            reason: format!("expected token row, got {line:?}"),
        })?;
        let mut parts = rest.splitn(3, ' ');
        let spam: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PersistError::Format {
                line: ln,
                reason: "bad spam count".into(),
            })?;
        let ham: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PersistError::Format {
                line: ln,
                reason: "bad ham count".into(),
            })?;
        let tok = parts.next().ok_or_else(|| PersistError::Format {
            line: ln,
            reason: "missing token".into(),
        })?;
        if spam > n_spam || ham > n_ham {
            return Err(PersistError::Format {
                line: ln,
                reason: format!(
                    "token counts ({spam},{ham}) exceed message counts ({n_spam},{n_ham})"
                ),
            });
        }
        tokens.push(tok.to_string());
        counts.push(TokenCounts { spam, ham });
    }
    let ids = db.interner().intern_each(&tokens);
    for (id, c) in ids.into_iter().zip(counts) {
        db.add_counts_for_load(id, c);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;
    use std::io::Cursor;

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
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let back = load_db(Cursor::new(buf)).unwrap();
        assert_eq!(back.n_spam(), db.n_spam());
        assert_eq!(back.n_ham(), db.n_ham());
        assert_eq!(back.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            assert_eq!(back.counts(&tok), c, "token {tok:?}");
        }
    }

    /// The checkpoint wrappers are exact: snapshot -> restore reproduces
    /// every count, and a second snapshot of the restored db is
    /// byte-identical (sorted dump order makes the image canonical).
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
        let db = sample_db();
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let back = load_db(Cursor::new(buf)).unwrap();
        assert_eq!(back.counts("email name:bob").spam, 1);
        assert_eq!(back.counts("skip:a 20").spam, 1);
    }

    #[test]
    fn output_is_deterministic() {
        let db = sample_db();
        let mut a = Vec::new();
        let mut b = Vec::new();
        save_db(&db, &mut a).unwrap();
        save_db(&db, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_db(Cursor::new(b"wrong 9\n".to_vec())).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 1, .. }));
    }

    #[test]
    fn truncated_header_rejected() {
        let err = load_db(Cursor::new(b"sbdb 1\nnspam 3\n".to_vec())).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }));
    }

    #[test]
    fn overlarge_token_counts_rejected() {
        let dump = "sbdb 1\nnspam 1\nnham 0\nt 5 0 tok\n";
        let err = load_db(Cursor::new(dump.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 4, .. }));
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = TokenDb::new();
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let back = load_db(Cursor::new(buf)).unwrap();
        assert_eq!(back.n_messages(), 0);
        assert_eq!(back.n_tokens(), 0);
    }

    /// Loading into a warm database must not serve pre-load cached
    /// scores: the bulk row writes bypass the per-mutation generation
    /// bump, so `load_db_into` has to invalidate explicitly.
    #[test]
    fn load_into_warm_db_invalidates_cache() {
        use crate::options::FilterOptions;
        let opts = FilterOptions::default();

        // Warm database: "win" is spam-leaning and its score is cached.
        let mut warm = TokenDb::new();
        warm.train(&["win".into()], Label::Spam);
        warm.train(&["win".into()], Label::Ham);
        warm.train(&["other".into()], Label::Spam);
        let id = warm.interner().get("win").unwrap();
        let stale = warm.cached_score(id, &opts);

        // A dump in which "win" has very different counts and totals.
        let mut other = TokenDb::new();
        for _ in 0..5 {
            other.train(&["win".into(), "meet".into()], Label::Ham);
        }
        other.train(&["win".into()], Label::Spam);
        let mut dump = Vec::new();
        save_db(&other, &mut dump).unwrap();

        load_db_into(&mut warm, Cursor::new(dump.clone())).unwrap();
        assert_eq!(warm.n_spam(), other.n_spam());
        assert_eq!(warm.n_ham(), other.n_ham());
        assert_eq!(warm.counts("win"), other.counts("win"));
        // The reloaded score must match a cold load of the same dump,
        // bit for bit — not the pre-load cached value.
        let cold = load_db(Cursor::new(dump)).unwrap();
        let got = warm.cached_score(id, &opts);
        let cold_id = cold.interner().get("win").unwrap();
        let want = cold.cached_score(cold_id, &opts);
        assert_eq!(got.f.to_bits(), want.f.to_bits(), "stale f(w) served");
        assert_ne!(got.f.to_bits(), stale.f.to_bits(), "test not probative");
    }

    #[test]
    fn load_into_replaces_rather_than_merges() {
        let mut db = TokenDb::new();
        db.train(&["gone".into()], Label::Spam);
        let fresh = sample_db();
        let mut dump = Vec::new();
        save_db(&fresh, &mut dump).unwrap();
        load_db_into(&mut db, Cursor::new(dump)).unwrap();
        assert_eq!(db.counts("gone"), TokenCounts::default());
        assert_eq!(db.n_tokens(), fresh.n_tokens());
        assert_eq!(db.n_messages(), fresh.n_messages());
    }

    /// Both loaders intern their rows in one batch. Into an interner that
    /// is shared and already holds some of the dump's tokens (and others),
    /// that must give every string the counts, and every token the id,
    /// that interning row by row gives.
    #[test]
    fn load_into_a_used_shared_interner_matches_per_row_interning() {
        use sb_intern::Interner;
        let src = sample_db();
        let mut text = Vec::new();
        save_db(&src, &mut text).unwrap();
        let image = crate::image::pack(&src);
        let history = |interner: &Interner| {
            for tok in ["zz-before", "cheap", "aa-before", "skip:a 20"] {
                interner.intern(tok);
            }
        };
        let mut rows: Vec<(String, TokenCounts)> = src.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for dump in [text, image] {
            let shared = Interner::new();
            history(&shared);
            let mut db = TokenDb::with_interner(shared.clone());
            load_db_into(&mut db, Cursor::new(dump)).unwrap();

            let per_row = Interner::new();
            history(&per_row);
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

    #[test]
    fn load_into_error_leaves_db_cleared() {
        let mut db = TokenDb::new();
        db.train(&["keepme".into()], Label::Ham);
        let bad = "sbdb 1\nnspam 1\nnham 1\nt 1 0 ok\nt 9 9 overflow\n";
        let err = load_db_into(&mut db, Cursor::new(bad.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 5, .. }));
        // Never a half-applied dump: the target is empty, not partial.
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
        assert_eq!(db.counts("ok"), TokenCounts::default());
    }

    /// Tokens carrying leading / trailing / interior whitespace (the
    /// tokenizer emits e.g. `skip:a 20`; the db accepts anything without
    /// a newline) must survive the line format byte-for-byte.
    #[test]
    fn whitespace_tokens_roundtrip_exactly() {
        let tokens = [
            " leading",
            "trailing ",
            " both ",
            "a  b",
            "three   spaces",
            "tab\tinside",
            " ",
            "",
        ];
        let mut db = TokenDb::new();
        db.train(
            &tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            Label::Spam,
        );
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let back = load_db(Cursor::new(buf)).unwrap();
        assert_eq!(back.n_tokens(), db.n_tokens());
        for t in tokens {
            assert_eq!(
                back.counts(t),
                TokenCounts { spam: 1, ham: 0 },
                "token {t:?} did not roundtrip"
            );
        }
    }

    /// `PersistError::Format` must report the 1-based line of the actual
    /// defect, for every row kind.
    #[test]
    fn format_errors_carry_exact_line_numbers() {
        let cases: [(&str, usize, &str); 6] = [
            ("nonsense\n", 1, "bad magic"),
            ("sbdb 1\nnspam x\nnham 0\n", 2, "bad nspam value"),
            ("sbdb 1\nnspam 0\nnham y\n", 3, "bad nham value"),
            ("sbdb 1\nnspam 1\nnham 1\nx 1 0 tok\n", 4, "bad row prefix"),
            ("sbdb 1\nnspam 1\nnham 1\nt 1 0 a\nt 1 b\n", 5, "bad ham count"),
            (
                "sbdb 1\nnspam 1\nnham 1\nt 1 0 a\n\nt 1 0\n",
                6,
                "missing token after blank line",
            ),
        ];
        for (dump, want_line, what) in cases {
            let err = load_db(Cursor::new(dump.as_bytes().to_vec())).unwrap_err();
            match err {
                PersistError::Format { line, .. } => {
                    assert_eq!(line, want_line, "{what}: wrong line in {err}")
                }
                other => panic!("{what}: expected Format, got {other}"),
            }
        }
    }

    /// `load_db_into` accepts the packed binary image transparently: the
    /// same caller code loads either format and ends with identical
    /// counts.
    #[test]
    fn load_db_into_dispatches_on_image_magic() {
        let db = sample_db();
        let img = crate::image::pack(&db);
        let from_img = load_db(Cursor::new(img)).unwrap();
        let mut dump = Vec::new();
        save_db(&db, &mut dump).unwrap();
        let from_txt = load_db(Cursor::new(dump)).unwrap();
        assert_eq!(from_img.n_spam(), from_txt.n_spam());
        assert_eq!(from_img.n_ham(), from_txt.n_ham());
        assert_eq!(from_img.n_tokens(), from_txt.n_tokens());
        for (tok, c) in from_txt.iter() {
            assert_eq!(from_img.counts(&tok), c, "token {tok:?}");
        }
    }

    /// Corrupt image bytes surface as `PersistError::Format` through the
    /// dispatch path, with the target left cleared.
    #[test]
    fn corrupt_image_through_dispatch_is_typed_and_clears() {
        let mut img = crate::image::pack(&sample_db());
        let last = img.len() - 1;
        img[last] ^= 0x01;
        let mut db = TokenDb::new();
        db.train(&["keepme".into()], Label::Ham);
        let err = load_db_into(&mut db, Cursor::new(img)).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }), "{err}");
        assert_eq!(db.n_messages(), 0);
        assert_eq!(db.n_tokens(), 0);
    }

    #[test]
    fn truncated_after_nspam_reports_missing_nham() {
        let err = load_db(Cursor::new(b"sbdb 1\nnspam 3\n".to_vec())).unwrap_err();
        match err {
            PersistError::Format { reason, .. } => {
                assert!(reason.contains("nham"), "reason: {reason}")
            }
            other => panic!("expected Format, got {other}"),
        }
    }
}
