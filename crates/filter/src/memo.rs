//! [`ScoreMemo`]: the score cache of [`crate::TokenDb`].
//!
//! Classification needs `f(w)` (Eq. 2) for every probe token and the
//! `(ln f, ln(1 − f))` pair (Eq. 3–4) for the δ(E) survivors. Both are
//! pure functions of the counts a scoring source sees and of the
//! `FilterOptions`, so a source may memoize them in a dense `Vec` of
//! slots indexed by `TokenId`.
//!
//! ## Stamps
//!
//! A slot is valid for one **stamp**, a `u64` the caller passes with
//! every lookup. The stamp names the counts state the slot was filled
//! under: when those counts change, the owner moves to a new stamp and
//! every old slot dies by mismatch — O(1), no table is cleared. Stamp 0
//! means "never filled", so callers use stamps ≥ 1. `f` and the `ln` pair
//! carry separate stamps, because most probed tokens sit in the excluded
//! band and must never pay the two `ln` calls.
//!
//! A memo bakes one `FilterOptions` in per stamp; an owner whose options
//! can change must move to a new stamp when they do.
//!
//! ## The one owner
//!
//! **`TokenDb`** stamps with its generation (starts at 1, bumped by
//! every train/untrain/merge/clear and by `invalidate_cache`, which
//! `SpamBayes::set_options` calls). The org's weekly model is read far
//! more often than it is trained, and there the memo pays: read-only,
//! single-threaded, on the serve-raw corpus (2-vCPU host, ten runs), a
//! memoized classify took 21.0–22.1 µs against 24.9–25.8 µs computed from
//! counts.
//!
//! The serving tier (sb-serve) keeps no memo, because its tenants train
//! as they serve. A slot costs 40 bytes per interned token — 8.8 MB per
//! tenant over a 220k-token vocabulary — and every tenant train
//! restamps the tenant's whole memo, so a slot is rarely read twice
//! before it dies. Single-threaded, on the serve-raw corpus with 8
//! tenants (2-vCPU host, three runs each), classify through a memoized
//! stack cost 45–52 µs per request with a train every 16 requests per
//! tenant, 48–57 µs every 64 and 49–50 µs every 256, against 35–39,
//! 38–45 and 44 µs computed from counts; only tenants that never train
//! came out ahead with the memo (34–36 vs 45–46 µs). `MmapDb` carried a
//! constant-stamped memo as well, which the tenant stacks never read.
//! Both were removed; scores are bit-identical either way.
//!
//! ## Concurrency and capacity
//!
//! Lookups take `&self` and are lock-free: a filled value is published
//! `Release` after it is written, so a reader that sees the stamp sees
//! the value. Two threads may both miss and compute the same value; the
//! function is pure, so the duplicate is harmless. Capacity grows only
//! through `&mut self` ([`ScoreMemo::ensure_capacity`]). An id past
//! capacity is computed and never cached, so capacity changes speed,
//! never a result.
//!
//! The slots are allocated on the first lookup, not when capacity is
//! asked for: a database that is trained and never scored (a model built
//! only to be packed into an image, or kept only to be cloned) holds no
//! slots at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::db::ln_pair;
use sb_intern::TokenId;

/// One memo slot: a stamp for `f`, and a separate stamp for the `ln`
/// pair (see the module docs). Values are stored as `f64` bits.
#[derive(Debug, Default)]
struct Slot {
    stamp_f: AtomicU64,
    f: AtomicU64,
    stamp_ln: AtomicU64,
    ln_f: AtomicU64,
    ln_1mf: AtomicU64,
}

/// A dense, stamp-keyed, lock-free score memo (see the module docs).
#[derive(Default)]
pub struct ScoreMemo {
    /// `capacity` slots, allocated on the first lookup.
    slots: OnceLock<Vec<Slot>>,
    capacity: usize,
}

impl std::fmt::Debug for ScoreMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScoreMemo({} slots)", self.capacity)
    }
}

impl ScoreMemo {
    /// An empty memo: every lookup computes until capacity is added.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memo with `capacity` empty slots.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut memo = Self::new();
        memo.ensure_capacity(capacity);
        memo
    }

    /// Number of slots (ids `0..capacity` are cached).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grow to at least `capacity` slots; never shrinks. Filled slots
    /// keep their stamps and values.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.capacity < capacity {
            self.capacity = capacity;
            if let Some(slots) = self.slots.get_mut() {
                slots.resize_with(capacity, Slot::default);
            }
        }
    }

    /// `id`'s slot, allocating every slot on the first lookup.
    fn slot(&self, id: TokenId) -> Option<&Slot> {
        self.slots
            .get_or_init(|| (0..self.capacity).map(|_| Slot::default()).collect())
            .get(id.index())
    }

    /// `f(w)` for `id` under `stamp`: the memoized value when the slot
    /// was filled under `stamp`, otherwise `compute()`, stored if `id`
    /// is within capacity.
    #[inline]
    pub fn f(&self, id: TokenId, stamp: u64, compute: impl FnOnce() -> f64) -> f64 {
        debug_assert!(stamp != 0, "stamp 0 marks an empty slot");
        let Some(slot) = self.slot(id) else {
            return compute();
        };
        if slot.stamp_f.load(Ordering::Acquire) == stamp {
            return f64::from_bits(slot.f.load(Ordering::Relaxed));
        }
        let f = compute();
        slot.f.store(f.to_bits(), Ordering::Relaxed);
        slot.stamp_f.store(stamp, Ordering::Release);
        f
    }

    /// The [`ln_pair`] of `f` for `id` under `stamp`, memoized like
    /// [`ScoreMemo::f`]. `f` must be the value [`ScoreMemo::f`] returns
    /// for the same id and stamp.
    #[inline]
    pub fn lns(&self, id: TokenId, stamp: u64, f: f64) -> (f64, f64) {
        debug_assert!(stamp != 0, "stamp 0 marks an empty slot");
        let Some(slot) = self.slot(id) else {
            return ln_pair(f);
        };
        if slot.stamp_ln.load(Ordering::Acquire) == stamp {
            return (
                f64::from_bits(slot.ln_f.load(Ordering::Relaxed)),
                f64::from_bits(slot.ln_1mf.load(Ordering::Relaxed)),
            );
        }
        let (ln_f, ln_1mf) = ln_pair(f);
        slot.ln_f.store(ln_f.to_bits(), Ordering::Relaxed);
        slot.ln_1mf.store(ln_1mf.to_bits(), Ordering::Relaxed);
        slot.stamp_ln.store(stamp, Ordering::Release);
        (ln_f, ln_1mf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn same_stamp_hits_and_new_stamp_recomputes() {
        let memo = ScoreMemo::with_capacity(4);
        let calls = Cell::new(0);
        let f = |v: f64| {
            calls.set(calls.get() + 1);
            v
        };
        let id = TokenId(2);
        assert_eq!(memo.f(id, 1, || f(0.25)), 0.25);
        // Same stamp: the stored value, not the new closure's.
        assert_eq!(memo.f(id, 1, || f(0.75)), 0.25);
        assert_eq!(calls.get(), 1);
        // Stamp mismatch: recomputed and re-stored.
        assert_eq!(memo.f(id, 2, || f(0.75)), 0.75);
        assert_eq!(memo.f(id, 2, || f(0.5)), 0.75);
        assert_eq!(calls.get(), 2);

        assert_eq!(memo.lns(id, 2, 0.75), ln_pair(0.75));
        // A filled ln pair is served for its stamp only.
        assert_eq!(memo.lns(id, 2, 0.25), ln_pair(0.75));
        assert_eq!(memo.lns(id, 3, 0.25), ln_pair(0.25));
    }

    #[test]
    fn slots_are_allocated_on_the_first_lookup() {
        let mut memo = ScoreMemo::with_capacity(4);
        memo.ensure_capacity(8);
        assert_eq!(memo.capacity(), 8);
        assert!(memo.slots.get().is_none());
        assert_eq!(memo.f(TokenId(7), 1, || 0.25), 0.25);
        assert_eq!(memo.slots.get().map(Vec::len), Some(8));
        assert_eq!(memo.f(TokenId(7), 1, || 0.5), 0.25);
        // Growing after the first lookup keeps the filled slots.
        memo.ensure_capacity(9);
        assert_eq!(memo.slots.get().map(Vec::len), Some(9));
        assert_eq!(memo.f(TokenId(7), 1, || 0.5), 0.25);
    }

    #[test]
    fn ids_past_capacity_are_computed_not_stored() {
        let mut memo = ScoreMemo::with_capacity(1);
        let calls = Cell::new(0);
        let f = |v: f64| {
            calls.set(calls.get() + 1);
            v
        };
        let past = TokenId(5);
        assert_eq!(memo.f(past, 1, || f(0.9)), 0.9);
        assert_eq!(memo.f(past, 1, || f(0.8)), 0.8);
        assert_eq!(calls.get(), 2, "an id past capacity was cached");
        assert_eq!(memo.lns(past, 1, 0.9), ln_pair(0.9));
        assert_eq!(memo.lns(past, 1, 0.8), ln_pair(0.8));

        // Growing keeps filled slots and starts caching the new ids.
        assert_eq!(memo.f(TokenId(0), 1, || 0.3), 0.3);
        memo.ensure_capacity(6);
        assert_eq!(memo.capacity(), 6);
        assert_eq!(memo.f(TokenId(0), 1, || 0.4), 0.3);
        assert_eq!(memo.f(past, 1, || 0.9), 0.9);
        assert_eq!(memo.f(past, 1, || 0.8), 0.9);
    }
}
