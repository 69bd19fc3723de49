//! Scoped-thread parallel primitives.
//!
//! The workspace's parallel batch APIs (classification sweeps, RONI
//! screening, per-epoch held-out scoring, experiment fan-out) all reduce
//! to "map a pure function over an index range, preserve input order".
//! These helpers implement exactly that on `std::thread::scope` — no
//! external thread-pool dependency, no global executor, deterministic
//! output order regardless of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};

/// Default worker count: the `SB_THREADS` environment variable if set to a
/// positive integer (read once per process), otherwise available
/// parallelism, at least 1.
///
/// `SB_THREADS=1` forces every batch API onto its sequential fallback —
/// the same code path a genuinely single-core host takes — which CI
/// exercises in a dedicated job so that path cannot rot unnoticed on
/// multi-core runners.
pub fn default_threads() -> usize {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    let forced = *OVERRIDE.get_or_init(|| {
        std::env::var("SB_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    });
    forced.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Map `f` over `0..n` on up to `threads` workers, returning results in
/// index order. Work is claimed dynamically (atomic counter), so uneven
/// job costs balance; `f` must be deterministic per index for reproducible
/// output.
pub fn parallel_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            // sb-lint: allow(panic-path, "scope join re-raises a worker's panic before slots are read; a missing slot is unreachable")
            .map(|s| s.expect("worker completed every claimed job"))
            .collect()
    })
}

/// Map `f` over a slice of *owned worker states*, in parallel, returning
/// results in index order. Each state is handed to exactly one worker at a
/// time by `&mut`, so stateful shard workers (per-shard mailboxes, fresh
/// pools, accumulators) need no interior locking of their own; work is
/// claimed dynamically from a shared queue so uneven shard costs balance.
///
/// `SB_THREADS=1` (or `threads == 1`, or a single state) degrades to a
/// plain sequential loop — the exact code path a single-core host takes —
/// so results must not depend on scheduling; `f` must be deterministic per
/// `(index, state)`.
pub fn parallel_map_mut<S, R, F>(states: &mut [S], threads: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    let n = states.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);
    if threads == 1 {
        return states.iter_mut().enumerate().map(|(i, s)| f(i, s)).collect();
    }
    // Reversed so `pop()` hands out index 0 first; per-job work is shard-
    // sized (a whole day loop), so one lock per claim is noise.
    let jobs: Mutex<Vec<(usize, &mut S)>> = Mutex::new(states.iter_mut().enumerate().rev().collect());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let jobs = &jobs;
                let f = &f;
                scope.spawn(move || loop {
                    // sb-lint: allow(panic-path, "mutex poisoning means another worker already panicked; that panic is re-raised at join")
                    let job = jobs.lock().expect("job queue poisoned").pop();
                    match job {
                        Some((i, s)) => {
                            if tx.send((i, f(i, s))).is_err() {
                                break;
                            }
                        }
                        None => break,
                    }
                })
            })
            .collect();
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Re-raise a worker's own panic payload rather than tripping over
        // its missing slot with an unrelated bookkeeping message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            // sb-lint: allow(panic-path, "the join loop above resume_unwinds a worker's panic first; a missing slot is unreachable")
            .map(|s| s.expect("worker completed every claimed job"))
            .collect()
    })
}

/// Chunk-size override: the `SB_CHUNK` environment variable as a positive
/// integer (read once per process), or `None` to use the adaptive default
/// of ~4 chunks per worker.
///
/// Exposed for throughput tuning on multi-core hosts (benchmark runs, CI
/// runners): smaller chunks balance uneven per-item costs at more
/// coordination overhead, larger chunks amortize the per-chunk channel
/// send. Like `SB_THREADS`, this only moves work *scheduling* —
/// chunk boundaries never feed seeds, RNG, or merge order, so results
/// stay bit-identical under any value (`chunks_flatten_under_any_size`
/// pins this).
pub fn chunk_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("SB_CHUNK")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// Map `f` over contiguous chunks of `items`, in parallel, flattening the
/// per-chunk result vectors back into input order. `f` receives
/// `(chunk_start_index, chunk)` and must return one result per item.
///
/// Used where per-item work is too small to pay a channel send per item
/// (e.g. classifying thousands of token sets): chunking amortizes the
/// coordination to one send per chunk. Chunk size defaults to ~4 chunks
/// per worker and can be pinned with `SB_CHUNK` (see [`chunk_override`]).
pub fn parallel_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(items.len());
    if threads == 1 {
        let out = f(0, items);
        assert_eq!(out.len(), items.len(), "chunk fn must map 1:1");
        return out;
    }
    // ~4 chunks per worker balances scheduling against coordination.
    let chunk_size = chunk_override()
        .unwrap_or_else(|| items.len().div_ceil(threads * 4))
        .max(1);
    parallel_chunks_sized(items, threads, chunk_size, f)
}

/// [`parallel_chunks`] with an explicit chunk size — the implementation
/// behind the `SB_CHUNK` override, exposed so tests (and benchmarks) can
/// sweep sizes without touching process-global environment state.
pub fn parallel_chunks_sized<T, R, F>(items: &[T], threads: usize, chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    assert!(chunk_size >= 1, "need a positive chunk size");
    if items.is_empty() {
        return Vec::new();
    }
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_size)
        .enumerate()
        .map(|(k, c)| (k * chunk_size, c))
        .collect();
    let results = parallel_map(chunks.len(), threads, |k| {
        let (start, chunk) = chunks[k];
        let out = f(start, chunk);
        assert_eq!(out.len(), chunk.len(), "chunk fn must map 1:1");
        out
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out = parallel_map(1000, 8, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_single_thread_matches_multi() {
        let a = parallel_map(57, 1, |i| i as u64 * i as u64);
        let b = parallel_map(57, 6, |i| i as u64 * i as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn map_empty_is_empty() {
        let out: Vec<u8> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_flatten_in_order() {
        let items: Vec<u32> = (0..997).collect();
        let out = parallel_chunks(&items, 8, |start, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &v)| {
                    assert_eq!(v as usize, start + off);
                    v * 2
                })
                .collect()
        });
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    /// Chunk size is pure scheduling: any `SB_CHUNK` value produces the
    /// same flattened output (boundaries never reach the per-item fn's
    /// results, only its slice bounds).
    #[test]
    fn chunks_flatten_under_any_size() {
        let items: Vec<u32> = (0..331).collect();
        let want: Vec<u32> = items.iter().map(|v| v * 2).collect();
        for chunk_size in [1, 2, 3, 7, 64, 331, 1000] {
            let out = parallel_chunks_sized(&items, 4, chunk_size, |start, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(off, &v)| {
                        assert_eq!(v as usize, start + off);
                        v * 2
                    })
                    .collect()
            });
            assert_eq!(out, want, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn chunks_single_item() {
        let out = parallel_chunks(&[41u32], 8, |_, c| c.iter().map(|v| v + 1).collect());
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn map_mut_preserves_order_and_mutations() {
        let mut states: Vec<u64> = (0..100).collect();
        let out = parallel_map_mut(&mut states, 8, |i, s| {
            *s += 1_000;
            i as u64 * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<u64>>());
        assert_eq!(states, (1_000..1_100).collect::<Vec<u64>>());
    }

    #[test]
    fn map_mut_single_thread_matches_multi() {
        let mut a: Vec<u64> = (0..37).collect();
        let mut b = a.clone();
        let ra = parallel_map_mut(&mut a, 1, |i, s| *s * i as u64);
        let rb = parallel_map_mut(&mut b, 6, |i, s| *s * i as u64);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn map_mut_propagates_worker_panics() {
        let mut states: Vec<u32> = (0..8).collect();
        let _ = parallel_map_mut(&mut states, 4, |i, _| {
            if i == 3 {
                panic!("worker boom");
            }
            i
        });
    }

    #[test]
    fn map_mut_empty_is_empty() {
        let mut states: Vec<u8> = Vec::new();
        let out: Vec<u8> = parallel_map_mut(&mut states, 4, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_costs_still_ordered() {
        let out = parallel_map(64, 4, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
