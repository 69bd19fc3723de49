//! The token interner: stable `u32` ids for token strings.
//!
//! An [`Interner`] is a cheap cloneable *handle*: clones share one
//! append-only table, so a pipeline, its RONI screen, and every trial
//! filter inside it can exchange raw [`TokenId`]s without re-hashing
//! strings or agreeing on anything beyond the handle. A process-global
//! default table ([`Interner::global`]) backs all components that are not
//! explicitly constructed with a private interner, which is what makes
//! ids exchangeable across independently-constructed filters.
//!
//! Ids are dense (`0..len`), never reused, and resolve back to their
//! string for the lifetime of the table — the properties the ID-keyed
//! `TokenDb` (dense `Vec<TokenCounts>`) and the deterministic
//! string-order tie-breaks rely on.
//!
//! ## Layout
//!
//! The table is one flat open-addressed slot array plus one string
//! arena, behind one `RwLock`:
//!
//! * each slot is a `u64` holding a 32-bit hash tag (high half) and
//!   `id + 1` (low half; 0 marks an empty slot), probed linearly from the
//!   tag's home slot; the tag alone locates a slot, so growing never
//!   re-hashes a string;
//! * the arena is one `String` holding every token back to back plus a
//!   `Vec<u32>` of end offsets indexed by id.
//!
//! Interning is bound by memory latency, not by hashing, so the batch
//! entry points ([`Interner::intern_pieces`], [`Interner::lookup_pieces`],
//! their wrapper [`Interner::intern_set`] and the per-piece
//! [`Interner::intern_each`]) work in four steps: hash
//! every piece; read every piece's home slot in one pass, so their cache
//! misses overlap; probe and verify against the arena, all under one read
//! guard; then sort the misses by string and insert them under one write
//! guard, re-probing each first in case another thread inserted it.
//! Sorting the misses makes a batch's new ids follow string order, so a
//! single-threaded caller gets the same ids whatever order the batch
//! lists its pieces in.

use crate::fxhash::FxHasher;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned token: a dense index into the owning [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a batch probe returns.
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// The ids of the pieces already interned, in no particular order.
    Lookup,
    /// Every piece's id, interning the misses, in no particular order.
    Intern,
    /// Every piece's id, interning the misses, in input order.
    InternEach,
}

/// [`Batch::InternEach`]'s placeholder for a miss until it is interned.
const MISSING: TokenId = TokenId(u32::MAX);

/// Slots a fresh table starts with (a power of two).
const MIN_SLOTS: usize = 16;

/// Fibonacci multiplier spreading a tag over the slot index bits.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 32-bit tag of a token: FxHash of its length and bytes, folded so
/// every input bit reaches the tag.
#[inline]
fn tag_of(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write_usize(bytes.len());
    h.write(bytes);
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

/// The id a non-empty `slot` holds, when the slot carries `tag`.
#[inline]
fn tagged_id(slot: u64, tag: u32) -> Option<usize> {
    (slot != 0 && (slot >> 32) as u32 == tag).then(|| (slot as u32 - 1) as usize)
}

/// The flat table (see module docs).
struct Table {
    /// `tag << 32 | (id + 1)`, or 0 when empty; the length is a power of
    /// two.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the shift taking a spread tag to its home
    /// slot.
    shift: u32,
    /// Every token, back to back, in id order.
    text: String,
    /// `ends[id]` is the arena offset one past token `id`'s last byte.
    ends: Vec<u32>,
}

impl Default for Table {
    fn default() -> Self {
        Self {
            slots: vec![0; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            text: String::new(),
            ends: Vec::new(),
        }
    }
}

impl Table {
    #[inline]
    fn home(&self, tag: u32) -> usize {
        (u64::from(tag).wrapping_mul(SPREAD) >> self.shift) as usize
    }

    #[inline]
    fn next(&self, i: usize) -> usize {
        (i + 1) & (self.slots.len() - 1)
    }

    /// Token `id`'s byte range in the arena.
    #[inline]
    fn span(&self, id: usize) -> (usize, usize) {
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        (start, self.ends[id] as usize)
    }

    /// Token `id`'s text.
    #[inline]
    fn str_of(&self, id: usize) -> &str {
        let (start, end) = self.span(id);
        &self.text[start..end]
    }

    /// The id of `bytes` (tagged `tag`), probing from its home slot whose
    /// value the caller already read as `slot`; `Err` carries the empty
    /// slot the probe stopped at.
    #[inline]
    fn find(&self, bytes: &[u8], tag: u32, mut slot: u64) -> Result<u32, usize> {
        let mut i = self.home(tag);
        loop {
            if slot == 0 {
                return Err(i);
            }
            if let Some(id) = tagged_id(slot, tag) {
                if self.str_of(id).as_bytes() == bytes {
                    return Ok(id as u32);
                }
            }
            i = self.next(i);
            slot = self.slots[i];
        }
    }

    #[inline]
    fn find_fresh(&self, bytes: &[u8], tag: u32) -> Result<u32, usize> {
        self.find(bytes, tag, self.slots[self.home(tag)])
    }

    /// The id of `token`, inserting it as the next id when absent.
    fn find_or_insert(&mut self, token: &str, tag: u32) -> u32 {
        // Keep the load factor at or under one half.
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let empty = match self.find_fresh(token.as_bytes(), tag) {
            Ok(id) => return id,
            Err(i) => i,
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            // sb-lint: allow(panic-path, "2^32 interned tokens is orders of magnitude past any corpus this workspace generates")
            .expect("interner capacity (2^32 tokens) exceeded");
        self.text.push_str(token);
        // sb-lint: allow(panic-path, "a 4 GiB token arena is orders of magnitude past any corpus this workspace generates")
        let end = u32::try_from(self.text.len()).expect("interner arena (4 GiB) exceeded");
        self.ends.push(end);
        self.slots[empty] = u64::from(tag) << 32 | u64::from(id + 1);
        id
    }

    /// Double the slot array, re-placing every slot by its stored tag.
    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = self.home((slot >> 32) as u32);
            while self.slots[i] != 0 {
                i = self.next(i);
            }
            self.slots[i] = slot;
        }
    }
}

/// A shared, append-only string interner (see module docs).
#[derive(Clone, Default)]
pub struct Interner {
    inner: Arc<RwLock<Table>>,
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

static GLOBAL: OnceLock<Interner> = OnceLock::new();

impl Interner {
    /// A fresh, private interner (ids are NOT exchangeable with other
    /// interners — prefer [`Interner::global`] unless isolation is the
    /// point, e.g. leak-free benchmarks).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global interner every default-constructed component
    /// shares.
    pub fn global() -> Interner {
        GLOBAL.get_or_init(Interner::new).clone()
    }

    /// True when `self` and `other` are handles to the same table.
    pub fn same_table(&self, other: &Interner) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn read(&self) -> RwLockReadGuard<'_, Table> {
        // sb-lint: allow(panic-path, "lock poisoning means another thread already panicked; propagating is fail-fast, not fail-open")
        self.inner.read().expect("interner lock")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Table> {
        // sb-lint: allow(panic-path, "lock poisoning means another thread already panicked; propagating is fail-fast, not fail-open")
        self.inner.write().expect("interner lock")
    }

    /// Number of interned tokens.
    pub fn len(&self) -> usize {
        self.read().ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern one token, returning its stable id.
    pub fn intern(&self, token: &str) -> TokenId {
        let tag = tag_of(token.as_bytes());
        if let Ok(id) = self.read().find_fresh(token.as_bytes(), tag) {
            return TokenId(id);
        }
        TokenId(self.write().find_or_insert(token, tag))
    }

    /// Intern a token set: the ids of [`Interner::intern_pieces`], sorted
    /// by id and deduplicated — what the ID-keyed `TokenDb` expects.
    pub fn intern_set(&self, token_set: &[String]) -> Vec<TokenId> {
        self.intern_pieces(token_set)
    }

    /// Intern every piece of a batch (any order, duplicates allowed) and
    /// return the batch's distinct ids, sorted by id. New tokens get ids
    /// in string order.
    pub fn intern_pieces<S: AsRef<str>>(&self, pieces: &[S]) -> Vec<TokenId> {
        let mut ids = self.probe(pieces, Batch::Intern);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Intern every piece of a batch and return each piece's id, in input
    /// order: the per-row form of [`Interner::intern_pieces`] for loaders
    /// that pair row `i` with its id. New tokens get ids in string order,
    /// inserted under one write guard.
    pub fn intern_each<S: AsRef<str>>(&self, pieces: &[S]) -> Vec<TokenId> {
        self.probe(pieces, Batch::InternEach)
    }

    /// The read-only twin of [`Interner::intern_pieces`]: the sorted,
    /// distinct ids of the batch's already-interned pieces. Never grows
    /// the table, so it is the entry point for untrusted input.
    pub fn lookup_pieces<S: AsRef<str>>(&self, pieces: &[S]) -> Vec<TokenId> {
        let mut ids = self.probe(pieces, Batch::Lookup);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The batch probe behind [`Interner::intern_pieces`],
    /// [`Interner::intern_each`] and [`Interner::lookup_pieces`] (see
    /// module docs and [`Batch`]).
    fn probe<S: AsRef<str>>(&self, pieces: &[S], batch: Batch) -> Vec<TokenId> {
        let tags: Vec<u32> = pieces
            .iter()
            .map(|p| tag_of(p.as_ref().as_bytes()))
            .collect();
        let mut ids = Vec::with_capacity(pieces.len());
        let mut misses = Vec::new();
        {
            let table = self.read();
            // Each pass issues one independent load per piece, so the
            // pieces' cache misses are in flight together: first the home
            // slots, then the arena spans of the home slots' tokens.
            let homes: Vec<u64> = tags.iter().map(|&t| table.slots[table.home(t)]).collect();
            let spans: Vec<(usize, usize)> = tags
                .iter()
                .zip(&homes)
                .map(|(&tag, &slot)| match tagged_id(slot, tag) {
                    Some(id) => table.span(id),
                    None => (0, 0),
                })
                .collect();
            for (k, piece) in pieces.iter().enumerate() {
                let bytes = piece.as_ref().as_bytes();
                let (tag, slot, (start, end)) = (tags[k], homes[k], spans[k]);
                let found = match tagged_id(slot, tag) {
                    Some(id) if &table.text.as_bytes()[start..end] == bytes => Ok(id as u32),
                    _ => table.find(bytes, tag, slot),
                };
                match (found, batch) {
                    (Ok(id), _) => ids.push(TokenId(id)),
                    (Err(_), Batch::Lookup) => {}
                    (Err(_), Batch::Intern) => misses.push(k),
                    (Err(_), Batch::InternEach) => {
                        ids.push(MISSING);
                        misses.push(k);
                    }
                }
            }
        }
        if !misses.is_empty() {
            misses.sort_unstable_by(|&a, &b| pieces[a].as_ref().cmp(pieces[b].as_ref()));
            let mut table = self.write();
            let mut prev: Option<(usize, TokenId)> = None;
            for k in misses {
                // A repeated miss takes the id its first copy was given.
                let repeat = prev.filter(|&(j, _)| pieces[j].as_ref() == pieces[k].as_ref());
                let id = match repeat {
                    Some((_, id)) => id,
                    None => TokenId(table.find_or_insert(pieces[k].as_ref(), tags[k])),
                };
                match batch {
                    Batch::InternEach => ids[k] = id,
                    _ if repeat.is_none() => ids.push(id),
                    _ => {}
                }
                prev = Some((k, id));
            }
        }
        ids
    }

    /// The id of an already-interned token, if any.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        let tag = tag_of(token.as_bytes());
        self.read()
            .find_fresh(token.as_bytes(), tag)
            .ok()
            .map(TokenId)
    }

    /// Resolve an id back to its token.
    ///
    /// Panics on an id not produced by this interner (or its clones).
    pub fn resolve(&self, id: TokenId) -> String {
        self.reader().resolve(id).to_string()
    }

    /// Compare two ids by their resolved strings (the deterministic
    /// tie-break order used wherever id order would leak interning
    /// order). For comparison-heavy loops (sorts), prefer
    /// [`Interner::reader`], which pays the lock once.
    pub fn cmp_by_str(&self, a: TokenId, b: TokenId) -> std::cmp::Ordering {
        self.reader().cmp_by_str(a, b)
    }

    /// A read guard over the table: resolve and compare ids without
    /// re-acquiring the lock per call. Hold it only across tight loops —
    /// it blocks writers (new interning) while alive.
    pub fn reader(&self) -> InternerReader<'_> {
        InternerReader { guard: self.read() }
    }
}

/// A borrowed read view of an [`Interner`] (see [`Interner::reader`]).
pub struct InternerReader<'a> {
    guard: RwLockReadGuard<'a, Table>,
}

impl InternerReader<'_> {
    /// Resolve an id to its token.
    ///
    /// Panics on an id not produced by this interner (or its clones).
    pub fn resolve(&self, id: TokenId) -> &str {
        assert!(
            id.index() < self.guard.ends.len(),
            "TokenId from a different interner"
        );
        self.guard.str_of(id.index())
    }

    /// Compare two ids by their resolved strings.
    pub fn cmp_by_str(&self, a: TokenId, b: TokenId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.resolve(a).cmp(self.resolve(b))
    }
}

/// Anything viewable as an id slice — the argument type of the batch
/// APIs, so callers can pass `Vec<TokenId>`, `&[TokenId]`, or the
/// `Arc<Vec<TokenId>>` the pipelines share without copying.
pub trait AsIdSlice {
    /// The ids.
    fn ids(&self) -> &[TokenId];
}

impl AsIdSlice for [TokenId] {
    fn ids(&self) -> &[TokenId] {
        self
    }
}

impl AsIdSlice for Vec<TokenId> {
    fn ids(&self) -> &[TokenId] {
        self
    }
}

impl AsIdSlice for Arc<Vec<TokenId>> {
    fn ids(&self) -> &[TokenId] {
        self
    }
}

impl<T: AsIdSlice + ?Sized> AsIdSlice for &T {
    fn ids(&self) -> &[TokenId] {
        (**self).ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("cheap");
        let b = i.intern("pills");
        assert_ne!(a, b);
        assert_eq!(i.intern("cheap"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_resolve() {
        let i = Interner::new();
        let ids: Vec<TokenId> = (0..100).map(|k| i.intern(&format!("t{k}"))).collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), k);
            assert_eq!(i.resolve(*id), format!("t{k}"));
        }
    }

    #[test]
    fn clones_share_the_table() {
        let a = Interner::new();
        let b = a.clone();
        let id = a.intern("shared");
        assert_eq!(b.get("shared"), Some(id));
        assert!(a.same_table(&b));
        assert!(!a.same_table(&Interner::new()));
    }

    #[test]
    fn global_is_one_table() {
        let a = Interner::global();
        let b = Interner::global();
        assert!(a.same_table(&b));
        let id = a.intern("sb-intern-global-test-token");
        assert_eq!(b.get("sb-intern-global-test-token"), Some(id));
    }

    #[test]
    fn intern_set_sorts_by_id_and_dedups() {
        let i = Interner::new();
        let set = vec!["b".to_string(), "a".to_string(), "c".to_string()];
        let ids = i.intern_set(&set);
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn batch_misses_get_ids_in_string_order() {
        let i = Interner::new();
        i.intern("m");
        let ids = i.intern_pieces(&["z", "m", "a", "z", ""]);
        assert_eq!(ids, vec![TokenId(0), TokenId(1), TokenId(2), TokenId(3)]);
        assert_eq!(i.resolve(TokenId(1)), "");
        assert_eq!(i.resolve(TokenId(2)), "a");
        assert_eq!(i.resolve(TokenId(3)), "z");
    }

    #[test]
    fn intern_each_gives_ids_in_input_order() {
        let i = Interner::new();
        let old = i.intern("m");
        let ids = i.intern_each(&["z", "m", "a", "z", ""]);
        assert_eq!(ids[1], old);
        assert_eq!(ids[0], ids[3]);
        // The misses get new ids in string order: "", "a", "z".
        assert_eq!(ids[4], TokenId(1));
        assert_eq!(ids[2], TokenId(2));
        assert_eq!(ids[0], TokenId(3));
        for (id, piece) in ids.iter().zip(["z", "m", "a", "z", ""]) {
            assert_eq!(i.resolve(*id), piece);
        }
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn lookup_pieces_never_grows_the_table() {
        let i = Interner::new();
        let known = i.intern("known");
        assert_eq!(i.lookup_pieces(&["unseen", "known", "known"]), vec![known]);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn cmp_by_str_orders_lexicographically() {
        let i = Interner::new();
        let z = i.intern("zebra");
        let a = i.intern("apple");
        assert_eq!(i.cmp_by_str(a, z), std::cmp::Ordering::Less);
        assert_eq!(i.cmp_by_str(z, a), std::cmp::Ordering::Greater);
        assert_eq!(i.cmp_by_str(a, a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let i = Interner::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let i = i.clone();
                scope.spawn(move || {
                    for k in 0..500 {
                        i.intern(&format!("tok{}", (k * 7 + t) % 300));
                    }
                });
            }
        });
        assert_eq!(i.len(), 300);
        for k in 0..300 {
            let tok = format!("tok{k}");
            let id = i.get(&tok).expect("interned");
            assert_eq!(i.resolve(id), tok);
        }
    }
}
