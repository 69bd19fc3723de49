//! # sb-intern — the interned-token substrate
//!
//! Every hot loop in this reproduction — Eq. 1–4 scoring, the §2.1
//! retraining pipeline, and above all the RONI defense (§5.1), which
//! classifies a held-out set once per candidate per epoch — used to hash
//! and allocate owned `String` tokens. This crate provides the shared
//! substrate that lets the whole stack move 4-byte [`TokenId`]s instead:
//!
//! * [`TokenId`] + [`Interner`] — a concurrent, append-only string
//!   interner with cheap cloneable handles: one flat open-addressed slot
//!   table plus one string arena, probed a whole token batch at a time
//!   ([`intern::Interner::intern_pieces`], its per-piece form
//!   [`intern::Interner::intern_each`], and the read-only
//!   [`intern::Interner::lookup_pieces`] for untrusted input; callers
//!   that already hashed their pieces with [`tag_of`] pass the tags in),
//!   with a sorted watermark ([`intern::Interner::watermark`]) below
//!   which id order is string order;
//! * [`fxhash`] — the FxHash function (the rustc hasher) plus
//!   [`FxHashMap`] / [`FxHashSet`] aliases for the token-keyed maps that
//!   remain string-keyed (tokenizer-variant filters, attack bookkeeping);
//! * [`par`] — scoped-thread parallel primitives ([`par::parallel_map`],
//!   [`par::parallel_chunks`]) used by the batch classification and
//!   RONI-screening APIs.
//!
//! Design invariant: interned ids are **stable for the lifetime of the
//! interner** and never reused, so a `Vec<TokenCounts>` indexed by id is a
//! valid (and optimally dense) token database. Determinism note: id
//! *values* depend on interning order, so any observable ordering must be
//! derived from the resolved strings, never from raw id order — see
//! `sb_filter::classify::select_delta_ids` for the pattern, which orders
//! ids below the watermark by id only because there the two orders agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod intern;
pub mod par;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{prefix_key, tag_of, AsIdSlice, Interner, TokenId};
