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
//! their wrapper [`Interner::intern_set`], the per-piece
//! [`Interner::intern_each`] and the pre-tagged
//! [`Interner::intern_tagged`]/[`Interner::lookup_tagged`]) work in four
//! steps: hash every piece (unless its [`tag_of`] came with it); read
//! every piece's home slot in one pass, so their cache misses overlap;
//! probe and verify against the arena, all under one read guard; then
//! sort the misses by string and insert them under one write guard,
//! re-probing each first in case another thread inserted it. The first
//! three steps run over fixed-size chunks of the batch, so a 200k-row
//! image load keeps scratch for one chunk, not for every row. Sorting the
//! misses makes a batch's new ids follow string order, so a
//! single-threaded caller gets the same ids whatever order the batch
//! lists its pieces in.
//!
//! ## The sorted watermark
//!
//! The table records a watermark `k` ([`Interner::watermark`]): ids
//! `0..k` were interned in strictly increasing string order, and `k` is
//! the longest such prefix. A model image's rows are sorted and load as
//! one batch on a fresh interner, so after a load every row id is below
//! `k`. For two ids below `k`, id order *is* string order, so
//! [`InternerReader::cmp_by_str`] and the δ(E) tie-break
//! (`sb_filter::classify::select_delta_ids`) compare them without reading
//! the arena. Each insert extends `k` when `k` was the table's length and
//! the new token sorts after the last one; once an insert breaks the run,
//! `k` stays put. The watermark is published as an atomic after every
//! write guard, so a reader can take it without the lock.

use crate::fxhash::FxHasher;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

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
    /// The distinct ids of the pieces already interned, sorted.
    Lookup,
    /// The distinct ids of every piece, interning the misses, sorted.
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

/// Pieces the read phase of a batch probe handles at a time (see module
/// docs).
const CHUNK: usize = 4096;

/// The 32-bit tag the table files a token under: FxHash of its length
/// and bytes, folded so every input bit reaches the tag. Callers that
/// already hashed their pieces pass the tags to
/// [`Interner::intern_tagged`]/[`Interner::lookup_tagged`].
#[inline]
pub fn tag_of(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write_usize(bytes.len());
    h.write(bytes);
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

/// The first 8 bytes of `s`, zero-padded, as a big-endian integer: for
/// any two strings, a smaller key means a smaller string, so sorting by
/// the key first leaves only equal keys to compare byte by byte.
#[inline]
pub fn prefix_key(s: &[u8]) -> u64 {
    match s.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => s
            .iter()
            .enumerate()
            .fold(0, |key, (i, &b)| key | u64::from(b) << (56 - 8 * i)),
    }
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
    /// The sorted watermark: ids `0..sorted` are in strictly increasing
    /// string order (see module docs).
    sorted: usize,
}

impl Default for Table {
    fn default() -> Self {
        Self {
            slots: vec![0; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            text: String::new(),
            ends: Vec::new(),
            sorted: 0,
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
        let n = id as usize;
        if self.sorted == n && (n == 0 || self.str_of(n - 1) < token) {
            self.sorted = n + 1;
        }
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

/// What the handles of one interner share.
#[derive(Default)]
struct Shared {
    table: RwLock<Table>,
    /// `Table::sorted` as of the last write guard.
    sorted: AtomicUsize,
}

/// A shared, append-only string interner (see module docs).
#[derive(Clone, Default)]
pub struct Interner {
    inner: Arc<Shared>,
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
        self.inner.table.read().expect("interner lock")
    }

    /// Run `f` under the write guard, then publish the watermark.
    fn insert_with<R>(&self, f: impl FnOnce(&mut Table) -> R) -> R {
        // sb-lint: allow(panic-path, "lock poisoning means another thread already panicked; propagating is fail-fast, not fail-open")
        let mut table = self.inner.table.write().expect("interner lock");
        let r = f(&mut table);
        self.inner.sorted.store(table.sorted, Ordering::Release);
        r
    }

    /// The sorted watermark `k`: ids `0..k` were interned in strictly
    /// increasing string order, so below `k` id order is string order
    /// (see module docs). Reads no lock; the value only grows.
    pub fn watermark(&self) -> usize {
        self.inner.sorted.load(Ordering::Acquire)
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
        TokenId(self.insert_with(|table| table.find_or_insert(token, tag)))
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
        self.probe(pieces, None, Batch::Intern)
    }

    /// [`Interner::intern_pieces`] for pieces whose tags the caller
    /// already computed: `tags[k]` must be [`tag_of`] piece `k`'s bytes.
    /// A `tags` of the wrong length is ignored (the tags are recomputed).
    pub fn intern_tagged(&self, pieces: &[&str], tags: &[u32]) -> Vec<TokenId> {
        let tags = (tags.len() == pieces.len()).then_some(tags);
        self.probe(pieces, tags, Batch::Intern)
    }

    /// Intern every piece of a batch and return each piece's id, in input
    /// order: the per-row form of [`Interner::intern_pieces`] for loaders
    /// that pair row `i` with its id. New tokens get ids in string order,
    /// inserted under one write guard.
    pub fn intern_each<S: AsRef<str>>(&self, pieces: &[S]) -> Vec<TokenId> {
        self.probe(pieces, None, Batch::InternEach)
    }

    /// The read-only twin of [`Interner::intern_pieces`]: the sorted,
    /// distinct ids of the batch's already-interned pieces. Never grows
    /// the table, so it is the entry point for untrusted input.
    pub fn lookup_pieces<S: AsRef<str>>(&self, pieces: &[S]) -> Vec<TokenId> {
        self.probe(pieces, None, Batch::Lookup)
    }

    /// [`Interner::lookup_pieces`] for pre-tagged pieces, as
    /// [`Interner::intern_tagged`] takes them.
    pub fn lookup_tagged(&self, pieces: &[&str], tags: &[u32]) -> Vec<TokenId> {
        let tags = (tags.len() == pieces.len()).then_some(tags);
        self.probe(pieces, tags, Batch::Lookup)
    }

    /// The batch probe behind [`Interner::intern_pieces`],
    /// [`Interner::intern_each`], [`Interner::lookup_pieces`] and their
    /// pre-tagged forms (see module docs and [`Batch`]).
    fn probe<S: AsRef<str>>(
        &self,
        pieces: &[S],
        tags: Option<&[u32]>,
        batch: Batch,
    ) -> Vec<TokenId> {
        let bytes_of = |k: usize| pieces[k].as_ref().as_bytes();
        let tag = |k: usize| tags.map_or_else(|| tag_of(bytes_of(k)), |t| t[k]);
        let mut ids = Vec::with_capacity(pieces.len());
        // The set batches keep ids at or above the watermark apart: below
        // it id order is string order, so a batch listed in string order
        // (a token set) leaves `ids` sorted already.
        let mut above = Vec::new();
        let mut misses = Vec::new();
        {
            let table = self.read();
            let (mut own_tags, mut homes, mut spans) = (Vec::new(), Vec::new(), Vec::new());
            for first in (0..pieces.len()).step_by(CHUNK) {
                let chunk = first..pieces.len().min(first + CHUNK);
                let chunk_tags = match tags {
                    Some(t) => &t[chunk.clone()],
                    None => {
                        own_tags.clear();
                        own_tags.extend(chunk.clone().map(tag));
                        &own_tags[..]
                    }
                };
                // Each pass issues one independent load per piece, so the
                // pieces' cache misses are in flight together: first the
                // home slots, then the arena spans of the home slots'
                // tokens.
                homes.clear();
                homes.extend(chunk_tags.iter().map(|&t| table.slots[table.home(t)]));
                spans.clear();
                spans.extend(chunk_tags.iter().zip(&homes).map(|(&tag, &slot)| {
                    match tagged_id(slot, tag) {
                        Some(id) => table.span(id),
                        None => (0, 0),
                    }
                }));
                for (j, k) in chunk.enumerate() {
                    let bytes = bytes_of(k);
                    let (tag, slot, (start, end)) = (chunk_tags[j], homes[j], spans[j]);
                    let found = match tagged_id(slot, tag) {
                        Some(id) if &table.text.as_bytes()[start..end] == bytes => Ok(id as u32),
                        _ => table.find(bytes, tag, slot),
                    };
                    match (found, batch) {
                        (Ok(id), Batch::InternEach) => ids.push(TokenId(id)),
                        (Ok(id), _) if (id as usize) < table.sorted => ids.push(TokenId(id)),
                        (Ok(id), _) => above.push(TokenId(id)),
                        (Err(_), Batch::Lookup) => {}
                        (Err(_), Batch::Intern) => misses.push(k),
                        (Err(_), Batch::InternEach) => {
                            ids.push(MISSING);
                            misses.push(k);
                        }
                    }
                }
            }
        }
        if !misses.is_empty() {
            misses.sort_unstable_by(|&a, &b| bytes_of(a).cmp(bytes_of(b)));
            self.insert_with(|table| {
                let mut prev: Option<(usize, TokenId)> = None;
                for k in misses {
                    // A repeated miss takes the id its first copy was given.
                    let repeat = prev.filter(|&(j, _)| bytes_of(j) == bytes_of(k));
                    let id = match repeat {
                        Some((_, id)) => id,
                        None => TokenId(table.find_or_insert(pieces[k].as_ref(), tag(k))),
                    };
                    match batch {
                        Batch::InternEach => ids[k] = id,
                        _ if repeat.is_none() => above.push(id),
                        _ => {}
                    }
                    prev = Some((k, id));
                }
            });
        }
        if let Batch::InternEach = batch {
            return ids;
        }
        // Every id in `ids` is below the watermark the read guard saw,
        // every id in `above` (misses included) at or above it.
        ids.sort_unstable();
        above.sort_unstable();
        ids.append(&mut above);
        ids.dedup();
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

    /// Compare two ids by their resolved strings. Two ids below the
    /// sorted watermark compare by id, without reading the arena.
    pub fn cmp_by_str(&self, a: TokenId, b: TokenId) -> std::cmp::Ordering {
        if a == b || a.index().max(b.index()) < self.guard.sorted {
            return a.cmp(&b);
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
    fn batches_past_one_chunk_get_the_ids_of_one_pass() {
        // Three chunks and a bit, listed out of string order, with
        // repeats, and every fifth token interned beforehand.
        let n = 3 * CHUNK + 17;
        let tokens: Vec<String> = (0..n).map(|k| format!("t{:05}", k * 7919 % n)).collect();
        let mut batch: Vec<&str> = tokens.iter().map(String::as_str).collect();
        batch.extend(tokens[..100].iter().map(String::as_str));
        let i = Interner::new();
        for t in tokens.iter().step_by(5) {
            i.intern(t);
        }
        // The misses get the next ids in string order.
        let mut misses: Vec<&str> = batch
            .iter()
            .copied()
            .filter(|t| i.get(t).is_none())
            .collect();
        misses.sort_unstable();
        misses.dedup();
        let old = i.len();
        let want = |t: &str| {
            i.get(t).unwrap_or_else(|| {
                let rank = misses.binary_search(&t).expect("a miss");
                TokenId((old + rank) as u32)
            })
        };
        let want_each: Vec<TokenId> = batch.iter().map(|t| want(t)).collect();

        let each = i.intern_each(&batch);
        assert_eq!(each, want_each);
        assert_eq!(i.len(), n);
        let mut all = each;
        all.sort_unstable();
        all.dedup();
        assert_eq!(i.lookup_pieces(&batch), all);
        let tags: Vec<u32> = batch.iter().map(|t| tag_of(t.as_bytes())).collect();
        assert_eq!(i.lookup_tagged(&batch, &tags), all);

        // The set form and the pre-tagged form assign the same ids.
        let fresh = Interner::new();
        let tagged = Interner::new();
        for t in tokens.iter().step_by(5) {
            fresh.intern(t);
            tagged.intern(t);
        }
        assert_eq!(fresh.intern_pieces(&batch), all);
        assert_eq!(tagged.intern_tagged(&batch, &tags), all);
    }

    #[test]
    fn prefix_keys_order_like_strings() {
        let words: [&[u8]; 7] = [b"", b"a", b"a\0", b"ab", b"abcdefgh", b"abcdefgh!", b"b"];
        for a in words {
            for b in words {
                if prefix_key(a) < prefix_key(b) {
                    assert!(a < b, "{a:?} {b:?}");
                }
            }
        }
        assert_eq!(prefix_key(b"ab"), u64::from_be_bytes(*b"ab\0\0\0\0\0\0"));
    }

    #[test]
    fn watermark_is_the_longest_sorted_id_prefix() {
        let i = Interner::new();
        assert_eq!(i.watermark(), 0);
        // A sorted batch on a fresh table, like an image load.
        i.intern_pieces(&["b", "d", "f"]);
        assert_eq!(i.watermark(), 3);
        // Appends that sort after the last token extend it.
        i.intern("g");
        i.intern_pieces(&["i", "h"]);
        assert_eq!(i.watermark(), 6);
        // One that sorts before it stops the run for good.
        i.intern("a");
        i.intern("z");
        assert_eq!(i.watermark(), 6);
        assert_eq!(i.len(), 8);
        let r = i.reader();
        for a in 0..8 {
            for b in 0..8 {
                let (a, b) = (TokenId(a), TokenId(b));
                assert_eq!(r.cmp_by_str(a, b), r.resolve(a).cmp(r.resolve(b)));
            }
        }
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
