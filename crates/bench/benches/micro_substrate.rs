//! Microbenchmarks of the substrate: tokenization, training, classification,
//! chi-square, corpus generation. These are the per-message costs a mail
//! server integrating the filter would care about.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sb_bench::{bench_corpus, tokenized, trained_filter};
use sb_email::Label;
use sb_filter::SpamBayes;
use sb_stats::chi2::chi2q_even;
use sb_stats::dist::Zipf;
use sb_stats::rng::Xoshiro256pp;
use sb_tokenizer::Tokenizer;
use std::hint::black_box;

fn bench_tokenizer(c: &mut Criterion) {
    let corpus = bench_corpus(200);
    let bytes: usize = corpus.emails().iter().map(|m| m.email.wire_len()).sum();
    let tk = Tokenizer::new();
    let mut g = c.benchmark_group("tokenizer");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("token_set_200_emails", |b| {
        b.iter(|| {
            for m in corpus.emails() {
                black_box(tk.token_set(&m.email));
            }
        })
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let corpus = bench_corpus(200);
    let items = tokenized(&corpus);
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(items.len() as u64));
    g.bench_function("train_200_emails", |b| {
        b.iter_batched(
            SpamBayes::new,
            |mut filter| {
                for (tokens, label) in &items {
                    filter.train_tokens(tokens, *label, 1);
                }
                filter
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_classification(c: &mut Criterion) {
    let corpus = bench_corpus(400);
    let filter = trained_filter(&corpus);
    let probes: Vec<Vec<String>> = (0..50)
        .map(|k| filter.token_set(&corpus.fresh_ham(k)))
        .collect();
    let probe_ids: Vec<Vec<sb_filter::TokenId>> = probes
        .iter()
        .map(|p| filter.interner().intern_set(p))
        .collect();
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(probes.len() as u64));
    // Interning per call (what `classify_tokens` now does).
    g.bench_function("classify_50_fresh_ham", |b| {
        b.iter(|| {
            for p in &probes {
                black_box(filter.classify_tokens(p));
            }
        })
    });
    // The ID fast path: pre-interned sets + generation-stamped score cache.
    g.bench_function("classify_50_fresh_ham_ids", |b| {
        b.iter(|| {
            for p in &probe_ids {
                black_box(filter.classify_ids(p));
            }
        })
    });
    // Parallel batch on the same probes.
    g.bench_function("classify_50_fresh_ham_ids_batch", |b| {
        b.iter(|| black_box(filter.classify_ids_batch(&probe_ids)))
    });
    g.finish();
}

fn bench_training_ids(c: &mut Criterion) {
    let corpus = bench_corpus(200);
    let items = tokenized(&corpus);
    let interner = sb_intern::Interner::global();
    let id_items: Vec<(Vec<sb_filter::TokenId>, Label)> = items
        .iter()
        .map(|(tokens, label)| (interner.intern_set(tokens), *label))
        .collect();
    let mut g = c.benchmark_group("filter");
    g.throughput(Throughput::Elements(id_items.len() as u64));
    g.bench_function("train_ids_200_emails", |b| {
        b.iter_batched(
            SpamBayes::new,
            |mut filter| {
                for (ids, label) in &id_items {
                    filter.train_ids(ids, *label, 1);
                }
                filter
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_untrain(c: &mut Criterion) {
    let corpus = bench_corpus(200);
    let filter = trained_filter(&corpus);
    let extra = filter.token_set(&corpus.fresh_spam(0));
    c.bench_function("filter/train_untrain_roundtrip", |b| {
        b.iter_batched(
            || filter.clone(),
            |mut f| {
                f.train_tokens(&extra, Label::Spam, 1);
                f.untrain_tokens(&extra, Label::Spam, 1).unwrap();
                f
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_chi2(c: &mut Criterion) {
    c.bench_function("stats/chi2q_even_150dof", |b| {
        b.iter(|| {
            for i in 0..100 {
                black_box(chi2q_even(black_box(i as f64 * 3.0), 150));
            }
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(61_000, 1.05);
    let mut rng = Xoshiro256pp::new(1);
    let mut g = c.benchmark_group("stats");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("zipf_sample_10k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..10_000 {
                acc ^= z.sample(&mut rng);
            }
            acc
        })
    });
    g.finish();
}

fn bench_corpus_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("corpus");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("generate_500_emails", |b| {
        b.iter(|| sb_bench::bench_corpus(black_box(500)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_training,
    bench_training_ids,
    bench_classification,
    bench_untrain,
    bench_chi2,
    bench_zipf,
    bench_corpus_generation
);
criterion_main!(benches);
