//! # sb-serve — multi-tenant filter serving
//!
//! The serving layer the ROADMAP's north star calls for: one warm,
//! shared, **read-only base model** per org, with every user's personal
//! training expressed as a small overlay delta — per-user state is a
//! delta, not a filter clone. Three layers:
//!
//! * [`mmap`] / [`model`] — load a packed model image
//!   (`sb_filter::image`) by `mmap` (read-to-`Vec` fallback) and serve it
//!   through [`MmapDb`], an `ScoreDb` implementation whose count lookups
//!   are offset reads into the mapped bytes. All existing scoring and
//!   RONI code works against it unchanged.
//! * [`tenant`] — overlay *stacks*: an ordered list of
//!   [`OverlayLayer`] deltas (org patch over base, user delta over that)
//!   combined read-only by [`StackView`], which many probe threads share.
//! * [`registry`] — [`TenantRegistry`]: `TenantId → overlay stack`
//!   bookkeeping with per-tenant train/untrain (mutating only the top
//!   delta) and batch classification.
//!
//! Neither `MmapDb` nor a stack keeps a score memo: both compute `f(w)`
//! from counts on every lookup, so a tenant costs its own mail, not a
//! slot per interned token ([`sb_filter::memo`] has the measurement).
//!
//! ## The bit-identity contract
//!
//! At every layer, serving verdicts are **bit-identical** to a standalone
//! [`sb_filter::TokenDb`] trained with the same mail:
//!
//! * `pack → mmap-load → score` equals scoring the source `TokenDb`
//!   (counts are exact `u32`s; both paths compute
//!   `token_score_from_counts` + `ln_pair` on equal inputs);
//! * a tenant's stacked-overlay verdicts equal a `TokenDb` that trained
//!   the base mail, then each layer's mail, sequentially.
//!
//! Both halves are property-tested in `tests/prop_serve.rs`. This is what
//! makes the overlay architecture safe to deploy: moving a user from a
//! filter clone to a delta changes *where* their counts live, not a
//! single verdict. It also bounds poisoning blast radius — a poisoned
//! tenant delta perturbs that tenant's stack only, never the shared base.
//!
//! ## Safety
//!
//! The only `unsafe` in the workspace lives in [`mmap`] (the `mmap` /
//! `munmap` calls and the mapped-slice view), each block with a
//! `// SAFETY:` argument. `sb-filter` itself stays
//! `#![forbid(unsafe_code)]`; this crate is deny-listed in
//! `sb-lint.toml`'s fail-closed rule, so every serving path returns
//! typed [`ServeError`]s instead of panicking.

#![warn(missing_docs)]

pub mod mmap;
pub mod model;
pub mod registry;
pub mod tenant;

pub use mmap::ImageBytes;
pub use model::{BaseModel, MmapDb};
pub use registry::{TenantId, TenantRegistry};
pub use tenant::{OverlayLayer, StackView};

use sb_filter::ImageError;

/// Errors from the serving layer. Serving paths fail closed: corrupt
/// images, unknown tenants, and underflowing untrains all surface here,
/// never as panics.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying I/O failure (opening or reading a model image).
    Io(std::io::Error),
    /// The model image failed validation (see [`sb_filter::ImageError`]).
    Image(ImageError),
    /// The image's rows did not intern to dense sequential ids — the
    /// serving interner was not fresh.
    InternMismatch {
        /// Image row that broke the `row i ⇔ TokenId(i)` invariant.
        row: usize,
    },
    /// Operation addressed a tenant id the registry does not hold.
    UnknownTenant(u32),
    /// Tenant creation collided with an existing tenant id.
    TenantExists(u32),
    /// An untrain would drive an effective count below zero — the
    /// message was never trained into this tenant's stack (or base).
    Underflow {
        /// Tenant whose stack rejected the untrain.
        tenant: u32,
    },
    /// A lock was poisoned by a panicking writer; the registry refuses
    /// to serve potentially half-written tenant state.
    Poisoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Image(e) => write!(f, "model image: {e}"),
            ServeError::InternMismatch { row } => {
                write!(f, "image row {row} interned to a non-dense id")
            }
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            ServeError::TenantExists(id) => write!(f, "tenant {id} already exists"),
            ServeError::Underflow { tenant } => {
                write!(f, "untrain underflow in tenant {tenant}'s overlay stack")
            }
            ServeError::Poisoned => write!(f, "tenant state lock poisoned"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ImageError> for ServeError {
    fn from(e: ImageError) -> Self {
        ServeError::Image(e)
    }
}
