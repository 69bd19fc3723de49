//! Property tests for the serving layer's bit-identity contract.
//!
//! Two halves (mirroring the crate docs): `pack → mmap-load → score`
//! equals scoring the source `TokenDb`, and a 2-deep overlay stack
//! (org patch over base under tenant delta) equals one `TokenDb` that
//! trained the same mail sequentially. Plus fail-closed corruption:
//! any byte flip or truncation of an image is a typed error, never a
//! panic, never a silently different model. And raw serving
//! (`classify_raw`) never grows the interner, yet scores exactly as the
//! interning path does. Stacks keep no score memo, so the concurrent
//! suite checks that every score reads the counts of the moment: tenants
//! trained, untrained and classified from two threads at once score like
//! standalone `TokenDb`s replaying each tenant's operations in order.
//! δ(E) ties across the interner's sorted watermark (an `MmapDb` base
//! whose interner grew past its sorted rows) break by string exactly as
//! a `TokenDb` breaks them.

use proptest::prelude::*;
use sb_email::{parse_email, render_email, Email, Label};
use sb_filter::classify::score_token_ids;
use sb_filter::{image, FilterOptions, Scored, TokenDb};
use sb_intern::{Interner, TokenId};
use sb_serve::{ImageBytes, MmapDb, OverlayLayer, ServeError, TenantId, TenantRegistry};
use sb_tokenizer::Tokenizer;
use std::sync::{Arc, Barrier};

/// A fixed 27-token vocabulary (every 3-letter word over `a`–`c`), so
/// probes keep sharing tokens with trained mail and score through real
/// δ(E) lists instead of the prior.
fn token() -> impl Strategy<Value = String> {
    "[a-c]{3}"
}

fn token_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(token(), 0..8).prop_map(|s| s.into_iter().collect())
}

fn mail() -> impl Strategy<Value = Vec<(Vec<String>, bool)>> {
    proptest::collection::vec((token_set(), any::<bool>()), 0..8)
}

fn label(is_spam: bool) -> Label {
    if is_spam {
        Label::Spam
    } else {
        Label::Ham
    }
}

fn train_all(db: &mut TokenDb, mail: &[(Vec<String>, bool)]) {
    for (set, is_spam) in mail {
        db.train(set, label(*is_spam));
    }
}

fn intern(interner: &Interner, set: &[String]) -> Vec<TokenId> {
    interner.intern_set(set)
}

/// One tenant operation in the concurrent suite.
#[derive(Debug, Clone)]
enum Op {
    /// Train a message into the tenant's delta.
    Train(Vec<String>, bool),
    /// Untrain one of the tenant's live messages (index modulo their
    /// count; a no-op while there are none).
    Untrain(usize),
    /// Classify a probe through the tenant's stack.
    Classify(Vec<String>),
}

/// A 12-token vocabulary, so that operations keep hitting the same
/// tokens and a stale score could not hide.
fn dense_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set("[a-c]{1,2}", 0..6).prop_map(|s| s.into_iter().collect())
}

fn dense_mail() -> impl Strategy<Value = Vec<(Vec<String>, bool)>> {
    proptest::collection::vec((dense_set(), any::<bool>()), 0..8)
}

/// The dense vocabulary plus the tokens with a `d`, which sort before,
/// between and after it (`ad`, `bd`, `d`, `dd`, …).
fn wider_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set("[a-d]{1,2}", 0..6).prop_map(|s| s.into_iter().collect())
}

fn wider_mail() -> impl Strategy<Value = Vec<(Vec<String>, bool)>> {
    proptest::collection::vec((wider_set(), any::<bool>()), 0..8)
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..3, dense_set(), any::<bool>(), any::<usize>()).prop_map(|(kind, set, spam, pick)| {
        match kind {
            0 => Op::Train(set, spam),
            1 => Op::Untrain(pick),
            _ => Op::Classify(set),
        }
    })
}

/// A tenant's standalone twin: a `TokenDb`, on another interner than the
/// registry's, that replays the tenant's operations, plus the messages it
/// may untrain.
struct Twin {
    db: TokenDb,
    live: Vec<(Vec<String>, Label)>,
}

/// One worker's record, `(tenant, step, outcome)`: every classification
/// with the registry's and the twin's scores, and every failed operation.
/// Failures are recorded, not unwrapped, so a worker never leaves the
/// other waiting at the barrier.
type Observed = Vec<(usize, usize, Result<(Scored, Scored), String>)>;

/// Apply one operation to tenant `id` and to its twin; a classification
/// returns both scores.
fn apply(
    registry: &TenantRegistry<TokenDb>,
    interner: &Interner,
    id: TenantId,
    op: &Op,
    twin: &mut Twin,
    opts: &FilterOptions,
) -> Result<Option<(Scored, Scored)>, String> {
    match op {
        Op::Train(set, spam) => {
            registry
                .train(id, &intern(interner, set), label(*spam))
                .map_err(|e| e.to_string())?;
            twin.db.train(set, label(*spam));
            twin.live.push((set.clone(), label(*spam)));
        }
        Op::Untrain(pick) => {
            if !twin.live.is_empty() {
                let (set, lab) = twin.live.swap_remove(pick % twin.live.len());
                registry
                    .untrain(id, &intern(interner, &set), lab)
                    .map_err(|e| e.to_string())?;
                twin.db.untrain(&set, lab).map_err(|e| e.to_string())?;
            }
        }
        Op::Classify(set) => {
            let got = registry
                .classify_ids(id, &intern(interner, set))
                .map_err(|e| e.to_string())?;
            let want = score_token_ids(&intern(twin.db.interner(), set), &twin.db, opts);
            return Ok(Some((got, want)));
        }
    }
    Ok(None)
}

/// Apply the operations of the tenants in `mine` round-robin, step by
/// step. Every step starts at `barrier`, so the two workers' steps run
/// against each other.
fn drive(
    registry: &TenantRegistry<TokenDb>,
    interner: &Interner,
    scripts: &[Vec<Op>],
    mine: &[usize],
    mut twins: Vec<Twin>,
    barrier: &Barrier,
    opts: &FilterOptions,
) -> (Observed, Vec<Twin>) {
    let mut seen = Vec::new();
    let steps = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..steps {
        barrier.wait();
        for (&t, twin) in mine.iter().zip(twins.iter_mut()) {
            let Some(op) = scripts[t].get(step) else {
                continue;
            };
            let id = TenantId(t as u32);
            if let Some(outcome) = apply(registry, interner, id, op, twin, opts).transpose() {
                seen.push((t, step, outcome));
            }
        }
    }
    (seen, twins)
}

/// Write `bytes` to a unique temp file, run `f`, clean up.
fn with_temp_image<R>(tag: &str, bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
    let path = std::env::temp_dir().join(format!(
        "sb-prop-serve-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let r = f(&path);
    std::fs::remove_file(&path).ok();
    r
}

proptest! {
    /// pack → mmap-load → score is bit-identical to the source TokenDb,
    /// across interners (the image rebuilds its own dense interner).
    #[test]
    fn pack_mmap_load_score_bit_identity(
        base in mail(),
        probes in proptest::collection::vec(token_set(), 1..6),
    ) {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        train_all(&mut db, &base);
        let img = image::pack(&db);
        let served = with_temp_image("identity", &img, |path| {
            MmapDb::open(path, opts)
        }).unwrap();
        prop_assert_eq!(served.n_tokens(), db.n_tokens());
        for probe in &probes {
            let want = score_token_ids(&intern(db.interner(), probe), &db, &opts);
            let got = score_token_ids(&intern(served.interner(), probe), &served, &opts);
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
    }

    /// Any single-byte flip or truncation fails closed with a typed
    /// error — no panic, and never a quietly different model.
    #[test]
    fn corrupted_images_yield_typed_errors(
        base in mail(),
        seed in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        train_all(&mut db, &base);
        let img = image::pack(&db);
        let corrupted = if truncate {
            // Drop at least one byte (an empty file is also covered).
            img[..(seed as usize) % img.len()].to_vec()
        } else {
            let mut c = img.clone();
            let i = (seed as usize) % c.len();
            c[i] ^= 1 + (seed >> 32) as u8 % 255;
            c
        };
        let res = with_temp_image("corrupt", &corrupted, |path| {
            MmapDb::open(path, opts)
        });
        match res {
            Err(ServeError::Image(_)) => {}
            Err(other) => prop_assert!(false, "expected ImageError, got {other}"),
            Ok(_) => prop_assert!(false, "corrupted image parsed successfully"),
        }
    }

    /// A 2-deep overlay stack (frozen org patch + mutable tenant delta)
    /// over a shared base serves verdicts bit-identical to a standalone
    /// TokenDb — with its own interner — that trained base mail, then
    /// org mail, then the tenant's mail, sequentially. A repeated
    /// classify must not move a bit either.
    #[test]
    fn two_deep_stack_equals_sequential_training(
        base in mail(),
        org in proptest::collection::vec(token_set(), 0..4),
        tenants in proptest::collection::vec(mail(), 1..3),
        probes in proptest::collection::vec(token_set(), 1..5),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let mut org_patch = OverlayLayer::new();
        for set in &org {
            org_patch.train_ids(&intern(&interner, set), Label::Ham);
        }
        let registry =
            TenantRegistry::with_org_patch(Arc::new(shared), org_patch, opts);
        for (t, mail) in tenants.iter().enumerate() {
            let id = TenantId(t as u32);
            registry.add_tenant(id).unwrap();
            for (set, is_spam) in mail {
                registry.train(id, &intern(&interner, set), label(*is_spam)).unwrap();
            }
        }
        for (t, mail) in tenants.iter().enumerate() {
            let mut standalone = TokenDb::new();
            train_all(&mut standalone, &base);
            for set in &org {
                standalone.train(set, Label::Ham);
            }
            train_all(&mut standalone, mail);
            for probe in &probes {
                let want =
                    score_token_ids(&intern(standalone.interner(), probe), &standalone, &opts);
                let ids = intern(&interner, probe);
                let cold = registry.classify_ids(TenantId(t as u32), &ids).unwrap();
                let warm = registry.classify_ids(TenantId(t as u32), &ids).unwrap();
                prop_assert_eq!(cold.score.to_bits(), want.score.to_bits());
                prop_assert_eq!(cold.verdict, want.verdict);
                prop_assert_eq!(warm.score.to_bits(), want.score.to_bits());
                prop_assert_eq!(warm.verdict, want.verdict);
            }
        }
    }

    /// Three or more tenants, each driven by one of two threads that
    /// interleave train, untrain and classify across their tenants while
    /// sharing the registry and its interner. Every classification, and
    /// a final sweep of every tenant, equals a standalone `TokenDb` that
    /// replayed that tenant's operations in order, bit for bit.
    #[test]
    fn concurrent_tenant_ops_equal_sequential_replay(
        base in dense_mail(),
        org in proptest::collection::vec(dense_set(), 0..3),
        scripts in proptest::collection::vec(proptest::collection::vec(op(), 0..16), 3..6),
        probes in proptest::collection::vec(dense_set(), 1..4),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let mut org_patch = OverlayLayer::new();
        for set in &org {
            org_patch.train_ids(&intern(&interner, set), Label::Ham);
        }
        let registry = TenantRegistry::with_org_patch(Arc::new(shared), org_patch, opts);
        let twin = || {
            let mut db = TokenDb::new();
            train_all(&mut db, &base);
            for set in &org {
                db.train(set, Label::Ham);
            }
            Twin { db, live: Vec::new() }
        };
        for t in 0..scripts.len() {
            registry.add_tenant(TenantId(t as u32)).unwrap();
        }
        let halves: [Vec<usize>; 2] = [
            (0..scripts.len()).step_by(2).collect(),
            (1..scripts.len()).step_by(2).collect(),
        ];
        let barrier = Barrier::new(halves.len());
        let runs: Vec<(Observed, Vec<Twin>)> = std::thread::scope(|s| {
            let workers: Vec<_> = halves
                .iter()
                .map(|mine| {
                    let twins = mine.iter().map(|_| twin()).collect();
                    let (registry, interner, scripts) = (&registry, &interner, &scripts);
                    let barrier = &barrier;
                    s.spawn(move || {
                        drive(registry, interner, scripts, mine, twins, barrier, &opts)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (mine, (seen, twins)) in halves.iter().zip(&runs) {
            for (t, step, outcome) in seen {
                prop_assert!(outcome.is_ok(), "tenant {} step {}: {:?}", t, step, outcome);
                let Ok((got, want)) = outcome else { continue };
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits(), "tenant {} step {}", t, step);
                prop_assert_eq!(got, want);
            }
            for (&t, twin) in mine.iter().zip(twins) {
                for probe in &probes {
                    let got = registry.classify_ids(TenantId(t as u32), &intern(&interner, probe)).unwrap();
                    let want = score_token_ids(&intern(twin.db.interner(), probe), &twin.db, &opts);
                    prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
                    prop_assert_eq!(got.verdict, want.verdict);
                }
            }
        }
    }

    /// An `MmapDb` base loads its sorted rows as ids below the interner's
    /// watermark; the org patch, the tenant mail and the probes then
    /// intern tokens that sort before, between and after those rows, so
    /// δ(E) ties span the watermark. Every verdict equals, bit for bit, a
    /// standalone `TokenDb` that trained the same mail in order.
    #[test]
    fn mmap_stack_ties_across_the_watermark_equal_sequential_training(
        base in dense_mail(),
        org in proptest::collection::vec(wider_set(), 0..3),
        tenant in wider_mail(),
        probes in proptest::collection::vec(
            proptest::collection::btree_set("[a-d]{1,2}", 4..16),
            1..5,
        ),
    ) {
        let probes: Vec<Vec<String>> = probes.into_iter().map(|p| p.into_iter().collect()).collect();
        let opts = FilterOptions::default();
        let mut source = TokenDb::with_interner(Interner::new());
        train_all(&mut source, &base);
        let served = MmapDb::from_bytes(ImageBytes::Owned(image::pack(&source)), opts).unwrap();
        let interner = served.interner().clone();
        prop_assert_eq!(interner.watermark(), served.n_tokens());
        let mut org_patch = OverlayLayer::new();
        for set in &org {
            org_patch.train_ids(&intern(&interner, set), Label::Ham);
        }
        let registry = TenantRegistry::with_org_patch(Arc::new(served), org_patch, opts);
        let id = TenantId(0);
        registry.add_tenant(id).unwrap();
        for (set, is_spam) in &tenant {
            registry.train(id, &intern(&interner, set), label(*is_spam)).unwrap();
        }
        let mut standalone = TokenDb::new();
        train_all(&mut standalone, &base);
        for set in &org {
            standalone.train(set, Label::Ham);
        }
        train_all(&mut standalone, &tenant);
        for probe in &probes {
            let want = score_token_ids(&intern(standalone.interner(), probe), &standalone, &opts);
            let got = registry.classify_ids(id, &intern(&interner, probe)).unwrap();
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
        prop_assert!(interner.watermark() <= interner.len());
    }

    /// Tenant untrain is exact: training a message into a delta and
    /// untraining it restores every probe verdict bit.
    #[test]
    fn tenant_untrain_restores_verdict_bits(
        base in mail(),
        extra in token_set(),
        extra_spam in any::<bool>(),
        probes in proptest::collection::vec(token_set(), 1..5),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let registry = TenantRegistry::new(Arc::new(shared), opts);
        let id = TenantId(7);
        registry.add_tenant(id).unwrap();
        let probe_ids: Vec<Vec<TokenId>> =
            probes.iter().map(|p| intern(&interner, p)).collect();
        let before: Vec<_> = probe_ids
            .iter()
            .map(|ids| registry.classify_ids(id, ids).unwrap())
            .collect();
        let extra_ids = intern(&interner, &extra);
        registry.train(id, &extra_ids, label(extra_spam)).unwrap();
        registry.untrain(id, &extra_ids, label(extra_spam)).unwrap();
        for (ids, want) in probe_ids.iter().zip(&before) {
            let got = registry.classify_ids(id, ids).unwrap();
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
        // A second identical untrain must fail typed (never trained).
        if !extra_ids.is_empty() {
            prop_assert!(matches!(
                registry.untrain(id, &extra_ids, label(extra_spam)),
                Err(ServeError::Underflow { tenant: 7 })
            ));
        }
    }

    /// Serving raw mail full of never-seen vocabulary leaves the shared
    /// interner exactly as it was, and every verdict's score bits equal
    /// those of interning the message's token set and classifying the
    /// ids.
    #[test]
    fn classify_raw_never_grows_the_interner(
        base in mail(),
        tenant_mail in mail(),
        messages in proptest::collection::vec(
            (
                proptest::collection::vec("([a-c]{3}|[f-z]{3,9}|http://[f-z]{2,6}\\.com/[a-z]{1,5})", 0..12),
                "[A-Za-z ]{0,20}",
            ),
            1..6,
        ),
    ) {
        let opts = FilterOptions::default();
        let interner = Interner::new();
        let mut shared = TokenDb::with_interner(interner.clone());
        train_all(&mut shared, &base);
        let registry = TenantRegistry::new(Arc::new(shared), opts);
        let id = TenantId(3);
        registry.add_tenant(id).unwrap();
        for (set, is_spam) in &tenant_mail {
            registry.train(id, &intern(&interner, set), label(*is_spam)).unwrap();
        }
        let raw: Vec<String> = messages
            .iter()
            .map(|(words, subject)| {
                render_email(&Email::builder().subject(subject.as_str()).body(words.join(" ")).build())
            })
            .collect();

        let len = interner.len();
        let served: Vec<_> = raw.iter().map(|r| registry.classify_raw(id, r).unwrap()).collect();
        prop_assert_eq!(interner.len(), len);

        let tokenizer = Tokenizer::new();
        for (r, got) in raw.iter().zip(&served) {
            let ids = interner.intern_set(&tokenizer.token_set(&parse_email(r)));
            let want = registry.classify_ids(id, &ids).unwrap();
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            prop_assert_eq!(got.verdict, want.verdict);
        }
    }
}
