//! Figure 1 reproduction bench: the dictionary-attack cross-validation
//! sweep, at bench scale. Measures the full pipeline the paper's headline
//! figure needs (corpus → folds → incremental attack training →
//! classification), so regressions in any stage show up here.

use criterion::{criterion_group, criterion_main, Criterion};
use sb_experiments::config::Fig1Config;
use sb_experiments::figures::fig1;

fn bench_fig1(c: &mut Criterion) {
    let cfg = Fig1Config {
        train_size: 600,
        folds: 2,
        fractions: vec![0.01, 0.05],
        ..Fig1Config::quick(0xF1)
    };
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("dictionary_sweep_600x2folds", |b| {
        b.iter(|| fig1::run(&cfg, 2))
    });
    g.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
