//! Property tests: the flat interner against a `HashMap<String, u32>`
//! model.
//!
//! The model assigns ids the documented way — dense, in first-seen
//! order, a batch's new tokens in string order — and every operation's
//! result is checked against it: ids are dense and interning is
//! idempotent, `resolve`/`get` round-trip, the batch probe agrees with
//! per-token `intern`/`get`, growth from the tiny initial table through
//! many resizes loses nothing, concurrent interning stays consistent,
//! and the tokenizer's fused path assigns the ids
//! `intern_set(token_set(e))` does. The sorted watermark is the longest
//! prefix of ids in strictly increasing string order after any mix of
//! batches, single interns and concurrent batches, and `cmp_by_str` is
//! string order for every pair of ids.

use proptest::prelude::*;
use sb_email::Email;
use sb_intern::{Interner, TokenId};
use sb_tokenizer::Tokenizer;
use std::collections::HashMap;

/// Short tokens from a small alphabet (so batches repeat and overlap),
/// plus the empty string, long tokens and non-ASCII ones.
const TOKEN: &str = "([a-d]{1,3}|[a-z]{4,12}|url:[a-z]{1,30}|(é|ß|Σ|中|☂)[a-c]{0,2}|)";

#[derive(Debug, Clone)]
enum Op {
    Intern(String),
    Get(String),
    InternBatch(Vec<String>),
    LookupBatch(Vec<String>),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, TOKEN, proptest::collection::vec(TOKEN, 0..24)).prop_map(|(kind, t, batch)| match kind
    {
        0 => Op::Intern(t),
        1 => Op::Get(t),
        2 => Op::InternBatch(batch),
        _ => Op::LookupBatch(batch),
    })
}

#[derive(Default)]
struct Model {
    ids: HashMap<String, u32>,
}

impl Model {
    fn intern(&mut self, t: &str) -> TokenId {
        let next = self.ids.len() as u32;
        TokenId(*self.ids.entry(t.to_owned()).or_insert(next))
    }

    fn intern_batch(&mut self, batch: &[String]) -> Vec<TokenId> {
        let mut fresh: Vec<&String> = batch
            .iter()
            .filter(|t| !self.ids.contains_key(*t))
            .collect();
        fresh.sort();
        for t in fresh {
            self.intern(t);
        }
        self.lookup_batch(batch)
    }

    fn lookup_batch(&self, batch: &[String]) -> Vec<TokenId> {
        let mut ids: Vec<TokenId> = batch
            .iter()
            .filter_map(|t| self.ids.get(t))
            .map(|&id| TokenId(id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Every model entry resolves and looks up both ways, and the ids are
/// exactly `0..len`.
fn assert_matches_model(interner: &Interner, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(interner.len(), model.ids.len());
    let mut seen = vec![false; model.ids.len()];
    for (t, &id) in &model.ids {
        prop_assert_eq!(interner.get(t), Some(TokenId(id)));
        prop_assert_eq!(&interner.resolve(TokenId(id)), t);
        seen[id as usize] = true;
    }
    prop_assert!(seen.into_iter().all(|s| s), "ids are not dense");
    Ok(())
}

/// One step of the watermark suite.
#[derive(Debug, Clone)]
enum Grow {
    /// A batch, interned as listed.
    Batch(Vec<String>),
    /// The same batch, sorted first (an image load's shape).
    SortedBatch(Vec<String>),
    /// Single `intern` calls, one per token.
    Singles(Vec<String>),
    /// Batches raced from several threads at once.
    Concurrent(Vec<Vec<String>>),
}

fn grow() -> impl Strategy<Value = Grow> {
    let batch = || proptest::collection::vec(TOKEN, 0..16);
    (0u8..4, batch(), proptest::collection::vec(batch(), 2..4)).prop_map(|(kind, b, many)| {
        match kind {
            0 => Grow::Batch(b),
            1 => Grow::SortedBatch(b),
            2 => Grow::Singles(b),
            _ => Grow::Concurrent(many),
        }
    })
}

/// The length of the longest prefix of ids whose strings strictly
/// increase.
fn sorted_prefix(interner: &Interner) -> usize {
    let r = interner.reader();
    let len = interner.len() as u32;
    (1..len)
        .find(|&i| r.resolve(TokenId(i - 1)) >= r.resolve(TokenId(i)))
        .unwrap_or(len) as usize
}

proptest! {
    #[test]
    fn watermark_is_the_longest_sorted_prefix_and_ties_keep_string_order(
        steps in proptest::collection::vec(grow(), 1..8),
    ) {
        let interner = Interner::new();
        for step in &steps {
            match step {
                Grow::Batch(b) => {
                    interner.intern_pieces(b);
                }
                Grow::SortedBatch(b) => {
                    let mut b = b.clone();
                    b.sort();
                    interner.intern_pieces(&b);
                }
                Grow::Singles(b) => {
                    for t in b {
                        interner.intern(t);
                    }
                }
                Grow::Concurrent(batches) => std::thread::scope(|scope| {
                    for b in batches {
                        let interner = interner.clone();
                        scope.spawn(move || interner.intern_pieces(b));
                    }
                }),
            }
            prop_assert_eq!(interner.watermark(), sorted_prefix(&interner));
        }
        let r = interner.reader();
        let len = interner.len() as u32;
        for a in (0..len).map(TokenId) {
            for b in (0..len).map(TokenId) {
                prop_assert_eq!(r.cmp_by_str(a, b), r.resolve(a).cmp(r.resolve(b)), "{:?} {:?}", a, b);
            }
        }
    }

    #[test]
    fn operations_match_the_hashmap_model(ops in proptest::collection::vec(op(), 1..60)) {
        let interner = Interner::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Intern(t) => {
                    let want = model.intern(t);
                    prop_assert_eq!(interner.intern(t), want);
                    // Idempotent.
                    prop_assert_eq!(interner.intern(t), want);
                }
                Op::Get(t) => {
                    prop_assert_eq!(interner.get(t), model.ids.get(t).map(|&id| TokenId(id)));
                }
                Op::InternBatch(batch) => {
                    prop_assert_eq!(interner.intern_pieces(batch), model.intern_batch(batch));
                }
                Op::LookupBatch(batch) => {
                    let len = interner.len();
                    prop_assert_eq!(interner.lookup_pieces(batch), model.lookup_batch(batch));
                    prop_assert_eq!(interner.len(), len);
                }
            }
        }
        assert_matches_model(&interner, &model)?;
    }

    #[test]
    fn batch_probe_agrees_with_per_token_calls(
        first in proptest::collection::vec(TOKEN, 0..40),
        second in proptest::collection::vec(TOKEN, 0..40),
    ) {
        let interner = Interner::new();
        interner.intern_pieces(&first);
        let looked_up = interner.lookup_pieces(&second);
        let mut by_get: Vec<TokenId> = second.iter().filter_map(|t| interner.get(t)).collect();
        by_get.sort_unstable();
        by_get.dedup();
        prop_assert_eq!(&looked_up, &by_get);

        let ids = interner.intern_pieces(&second);
        for t in &second {
            let id = interner.get(t).expect("interned by the batch");
            prop_assert!(ids.binary_search(&id).is_ok());
            prop_assert_eq!(interner.intern(t), id);
        }
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "not sorted and distinct");
    }

    #[test]
    fn growth_through_many_resizes_loses_nothing(
        sizes in proptest::collection::vec(1usize..400, 8..24),
        salt in any::<u32>(),
    ) {
        // From the initial 16 slots to tens of thousands: every doubling
        // re-places all slots by tag.
        let interner = Interner::new();
        let mut model = Model::default();
        let mut k = 0u32;
        for size in sizes {
            let batch: Vec<String> = (0..size)
                .map(|i| {
                    k += 1;
                    // Every third token repeats an earlier one.
                    let n = if i % 3 == 0 { k / 2 } else { k };
                    format!("t{}-{n}", salt % 7)
                })
                .collect();
            prop_assert_eq!(interner.intern_pieces(&batch), model.intern_batch(&batch));
        }
        assert_matches_model(&interner, &model)?;
    }

    #[test]
    fn concurrent_interning_is_consistent(
        batches in proptest::collection::vec(proptest::collection::vec(TOKEN, 0..30), 4..5),
    ) {
        let interner = Interner::new();
        // Every round starts on all threads at once, so their batches
        // race for the same misses.
        let rounds = std::sync::Barrier::new(batches.len());
        let results: Vec<Vec<(String, TokenId)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .iter()
                .map(|batch| {
                    let interner = interner.clone();
                    let rounds = &rounds;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for round in 0..3 {
                            rounds.wait();
                            let half = &batch[..batch.len() * (round + 1) / 3];
                            interner.intern_pieces(half);
                            got.extend(half.iter().map(|t| (t.clone(), interner.intern(t))));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        let mut distinct: Vec<&String> = batches.iter().flatten().collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(interner.len(), distinct.len());
        let mut seen = vec![false; distinct.len()];
        for (t, id) in results.iter().flatten() {
            prop_assert_eq!(interner.get(t), Some(*id));
            prop_assert_eq!(&interner.resolve(*id), t);
            seen[id.index()] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s), "ids are not dense");
    }

    #[test]
    fn fused_path_assigns_intern_set_ids(
        bodies in proptest::collection::vec("(([a-z]{1,14}|[A-Z][a-z]{2,6}|http://[a-z]{1,5}\\.com/[a-z]{1,4}|x@[a-z]{2,4}\\.org|Σ[a-zß]{2,4})( |\n)){0,40}", 1..5),
        subject in "[A-Za-z ]{0,24}",
    ) {
        let tokenizer = Tokenizer::new();
        let fused = Interner::new();
        let strings = Interner::new();
        for body in &bodies {
            let e = Email::builder().subject(subject.as_str()).body(body.as_str()).build();
            let set = tokenizer.token_set(&e);
            prop_assert_eq!(tokenizer.intern_ids(&e, &fused), strings.intern_set(&set));
            prop_assert_eq!(fused.len(), strings.len());
            for t in &set {
                prop_assert_eq!(fused.get(t), strings.get(t));
            }
        }
    }
}
