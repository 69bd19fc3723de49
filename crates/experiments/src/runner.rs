//! Execution plumbing: pre-tokenized datasets and deterministic parallel
//! fan-out over folds/repetitions.
//!
//! CPU-bound fan-out uses plain scoped threads (`sb_intern::par`), not an
//! async runtime. Results are collected in input order, so parallel and
//! single-threaded runs produce *identical* output for the same seed.

use sb_email::{Dataset, Label};
use sb_intern::{Interner, TokenId};
use sb_tokenizer::Tokenizer;
use std::sync::Arc;

/// A dataset tokenized **and interned** once up front. Id sets are
/// `Arc`-shared so fold subsets and attack sweeps never re-tokenize,
/// re-intern, or copy message text — every figure's fold loop moves
/// 4-byte ids through `SpamBayes::{train_ids, classify_ids}`.
#[derive(Debug, Clone)]
pub struct TokenizedDataset {
    interner: Interner,
    items: Vec<(Arc<Vec<TokenId>>, Label)>,
}

impl TokenizedDataset {
    /// Tokenize + intern every message of a dataset (on the process-global
    /// interner, so ids are valid for any default-constructed filter).
    pub fn from_dataset(data: &Dataset, tokenizer: &Tokenizer) -> Self {
        let interner = Interner::global();
        let items = data
            .emails()
            .iter()
            .map(|m| {
(Arc::new(tokenizer.intern_ids(&m.email, &interner)), m.label)
            })
            .collect();
        Self { interner, items }
    }

    /// The interner the item ids resolve against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern an attack lexicon / probe token set once for reuse across
    /// folds and fractions.
    pub fn intern_set(&self, token_set: &[String]) -> Vec<TokenId> {
        self.interner.intern_set(token_set)
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Interned token set and label of message `i`.
    pub fn item(&self, i: usize) -> (&Arc<Vec<TokenId>>, Label) {
        let (t, l) = &self.items[i];
        (t, *l)
    }

    /// Iterate `(ids, label)` over a set of indices.
    pub fn select<'a>(
        &'a self,
        indices: &'a [usize],
    ) -> impl Iterator<Item = (&'a Arc<Vec<TokenId>>, Label)> + 'a {
        indices.iter().map(move |&i| self.item(i))
    }

    /// All items.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<Vec<TokenId>>, Label)> {
        self.items.iter().map(|(t, l)| (t, *l))
    }

    /// Indices with a given label.
    pub fn indices_of(&self, label: Label) -> Vec<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, (_, l))| *l == label)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Map `f` over `0..n` jobs on up to `threads` worker threads, returning
/// results in job order. `f` must be deterministic per job index for
/// reproducibility (all experiment closures are: they derive their RNG from
/// the job index).
pub fn parallel_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    sb_intern::par::parallel_map(n, threads, f)
}

/// Default worker count: physical parallelism, at least 1. Honors the
/// `SB_THREADS` override (see `sb_intern::par::default_threads`) — CI's
/// single-threaded job sets `SB_THREADS=1` to force every experiment
/// fan-out onto the sequential single-core path.
pub fn default_threads() -> usize {
    sb_intern::par::default_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::{Email, LabeledEmail};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_matches_multi() {
        let a = parallel_map(37, 1, |i| i as u64 + 1);
        let b = parallel_map(37, 7, |i| i as u64 + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn tokenized_dataset_matches_tokenizer() {
        let data = Dataset::from_vec(vec![
            LabeledEmail::ham(Email::builder().body("alpha beta gamma").build()),
            LabeledEmail::spam(Email::builder().body("delta beta").build()),
        ]);
        let tk = Tokenizer::new();
        let td = TokenizedDataset::from_dataset(&data, &tk);
        assert_eq!(td.len(), 2);
        let (tokens, label) = td.item(0);
        assert_eq!(label, Label::Ham);
        assert_eq!(
            **tokens,
            tk.intern_ids(&data.emails()[0].email, td.interner())
        );
        assert_eq!(td.indices_of(Label::Spam), vec![1]);
    }

    #[test]
    fn select_iterates_chosen_indices() {
        let data = Dataset::from_vec(
            (0..5)
                .map(|i| {
                    LabeledEmail::ham(Email::builder().body(format!("word{i} filler")).build())
                })
                .collect(),
        );
        let td = TokenizedDataset::from_dataset(&data, &Tokenizer::new());
        let picked: Vec<Label> = td.select(&[4, 0]).map(|(_, l)| l).collect();
        assert_eq!(picked.len(), 2);
    }
}
