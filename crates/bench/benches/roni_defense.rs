//! §5.1 reproduction bench: RONI evaluator construction and per-candidate
//! measurement (the defense's steady-state cost is the per-candidate one:
//! every incoming message pays it before being admitted to training).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sb_bench::bench_corpus;
use sb_core::{DictionaryAttack, DictionaryKind, RoniConfig, RoniDefense};
use sb_filter::FilterOptions;
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;

fn bench_roni(c: &mut Criterion) {
    let corpus = bench_corpus(200);
    let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(10_000));
    let attack_tokens = Tokenizer::new().token_set(attack.prototype());
    let normal_tokens = Tokenizer::new().token_set(&corpus.fresh_spam(0));

    let mut g = c.benchmark_group("roni");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("build_evaluator_200pool", |b| {
        b.iter_batched(
            || Xoshiro256pp::new(1),
            |mut rng| {
                RoniDefense::new(
                    RoniConfig::default(),
                    corpus.dataset(),
                    FilterOptions::default(),
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        )
    });

    let roni = RoniDefense::new(
        RoniConfig::default(),
        corpus.dataset(),
        FilterOptions::default(),
        &mut Xoshiro256pp::new(2),
    );
    g.throughput(Throughput::Elements(1));
    let interner = sb_filter::Interner::global();
    let attack_ids = interner.intern_set(&attack_tokens);
    let normal_ids = interner.intern_set(&normal_tokens);
    // One candidate on pre-interned ids, through the trial tables
    // (`&self`, no per-trial threads).
    g.bench_function("measure_attack_email_10k_lexicon", |b| {
        b.iter(|| roni.measure_ids(&attack_ids))
    });
    g.bench_function("measure_ordinary_spam", |b| {
        b.iter(|| roni.measure_ids(&normal_ids))
    });
    // Fresh-vocabulary candidate (focused-attack / foreign-language
    // shape): it shares no token with any trial vocabulary, so every
    // validation message keeps its shift-only score and the measurement
    // reduces to the vocabulary intersection.
    let fresh_ids: Vec<sb_filter::TokenId> = (0..200)
        .map(|i| interner.intern(&format!("zz-fresh-vocab-{i}")))
        .collect();
    g.bench_function("measure_fresh_vocab_spam", |b| {
        b.iter(|| roni.measure_ids(&fresh_ids))
    });
    // Batch screening: 32 distinct candidates. The trial tables are
    // shared read-only and each worker reuses one scratch across its
    // share of the batch.
    let candidates: Vec<Vec<sb_filter::TokenId>> = (0..32)
        .map(|k| interner.intern_set(&Tokenizer::new().token_set(&corpus.fresh_spam(k))))
        .collect();
    g.throughput(Throughput::Elements(candidates.len() as u64));
    g.bench_function("measure_batch_32_candidates", |b| {
        b.iter(|| roni.measure_ids_batch(&candidates))
    });
    g.finish();
}

criterion_group!(benches, bench_roni);
criterion_main!(benches);
