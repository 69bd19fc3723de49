//! Loading model image bytes: `mmap` on unix, read-to-`Vec` everywhere
//! else (and as a runtime fallback).
//!
//! The packed image format (`sb_filter::image`) was designed so that a
//! server never materializes the model: the counts array and string
//! arena are offset-indexable in place, so mapping the file *is* loading
//! it — the kernel pages counts in on demand and shares the clean pages
//! across every process serving the same org image. [`ImageBytes`]
//! abstracts over the two sources; everything downstream sees `&[u8]`.
//!
//! This module contains the only `unsafe` code in the workspace. The
//! bindings call `mmap`/`munmap` directly (libc is already linked via
//! `std` on every unix target — no new dependency), and the safety
//! argument for each block is local and spelled out inline.
//!
//! Set `SB_NO_MMAP=1` to force the read fallback (e.g. on filesystems
//! with broken mmap semantics); the bytes served are identical either
//! way, so this is purely an operational switch.

use crate::ServeError;
use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(unix)]
mod sys {
    //! Minimal raw bindings: just enough of the POSIX mapping API.
    //! Types follow the 64-bit unix ABI (`size_t` = `usize`,
    //! `off_t` = `i64`).

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

/// Model image bytes, either owned or memory-mapped. Dereferences to
/// `&[u8]`; the mapping (if any) is released on drop.
pub enum ImageBytes {
    /// Bytes read into memory (the portability fallback, `SB_NO_MMAP`,
    /// zero-length files, and non-unix targets).
    Owned(Vec<u8>),
    /// A live read-only private mapping.
    #[cfg(unix)]
    Mapped {
        /// Page-aligned base address returned by `mmap`.
        ptr: *const u8,
        /// Mapping length in bytes (the file length).
        len: usize,
    },
}

// SAFETY: a `Mapped` value is a read-only MAP_PRIVATE mapping of an
// immutable model image; no API hands out `&mut` into it and the fd is
// closed after mapping (POSIX keeps the mapping valid). Shared reads
// from multiple threads are therefore data-race-free, and ownership may
// move across threads freely — exactly the `Vec<u8>` semantics the
// `Owned` variant already has.
#[cfg(unix)]
unsafe impl Send for ImageBytes {}
#[cfg(unix)]
unsafe impl Sync for ImageBytes {}

impl ImageBytes {
    /// Load a model image file, mapping it when possible.
    ///
    /// Falls back to an owned read when the target is not unix, the file
    /// is empty (zero-length mappings are an `mmap` error), `SB_NO_MMAP`
    /// is set, or the `mmap` call itself fails.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "image larger than the address space",
            ))
        })?;
        // The env read only picks the load mechanism; the bytes served
        // are identical, so no simulation result can depend on it.
        if len == 0 || std::env::var_os("SB_NO_MMAP").is_some() {
            return Self::read_owned(&mut file, len);
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let fd = file.as_raw_fd();
            // SAFETY: fd is a valid open file descriptor for the whole
            // call; addr = null lets the kernel pick a free region;
            // len > 0 was checked above. A PROT_READ + MAP_PRIVATE
            // mapping of a regular file has no aliasing obligations on
            // our side — the kernel either returns a fresh region of
            // `len` bytes or MAP_FAILED, which we check before use.
            let ptr = unsafe {
                sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, fd, 0)
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(ImageBytes::Mapped { ptr, len });
            }
            // MAP_FAILED (e.g. a filesystem without mmap support): fall
            // through to the owned read — serving correctness does not
            // depend on the mapping, only cold-load speed does.
        }
        Self::read_owned(&mut file, len)
    }

    fn read_owned(file: &mut File, len: usize) -> Result<Self, ServeError> {
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(ImageBytes::Owned(bytes))
    }

    /// The image bytes, whichever way they were loaded.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ImageBytes::Owned(v) => v,
            #[cfg(unix)]
            ImageBytes::Mapped { ptr, len } => {
                // SAFETY: (ptr, len) came from a successful mmap that is
                // released only in Drop, so the region is valid for reads
                // for the lifetime of `self`; the mapping is PROT_READ +
                // MAP_PRIVATE, so no writer exists and the bytes are
                // plain initialized u8s.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// True when the bytes are served by a live mapping (reported by
    /// `repro model inspect`).
    pub fn is_mapped(&self) -> bool {
        match self {
            ImageBytes::Owned(_) => false,
            #[cfg(unix)]
            ImageBytes::Mapped { .. } => true,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for ImageBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for ImageBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageBytes::Owned(v) => write!(f, "ImageBytes::Owned({} bytes)", v.len()),
            #[cfg(unix)]
            ImageBytes::Mapped { len, .. } => write!(f, "ImageBytes::Mapped({len} bytes)"),
        }
    }
}

#[cfg(unix)]
impl Drop for ImageBytes {
    fn drop(&mut self) {
        if let ImageBytes::Mapped { ptr, len } = self {
            // SAFETY: (ptr, len) is exactly the region a successful mmap
            // returned, unmapped only here; no `&[u8]` view outlives
            // `self` (as_slice ties the borrow to &self), so nothing can
            // read through the mapping after this call.
            unsafe {
                sys::munmap(ptr.cast_mut(), *len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("sb-serve-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn load_serves_exact_file_bytes() {
        let want: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("exact", &want);
        let img = ImageBytes::load(&path).unwrap();
        assert_eq!(&*img, &want[..]);
        #[cfg(unix)]
        assert!(img.is_mapped() || std::env::var_os("SB_NO_MMAP").is_some());
        drop(img);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_loads_as_owned() {
        let path = temp_file("empty", b"");
        let img = ImageBytes::load(&path).unwrap();
        assert!(img.is_empty());
        assert!(!img.is_mapped());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("sb-serve-definitely-missing");
        assert!(matches!(
            ImageBytes::load(&path),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn mapping_survives_file_handle_close_and_threads() {
        let want: Vec<u8> = b"abcdef".repeat(2000);
        let path = temp_file("threads", &want);
        let img = ImageBytes::load(&path).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert_eq!(&*img, &want[..]));
            }
        });
        std::fs::remove_file(path).ok();
    }
}
