//! Figure 5 reproduction bench: dynamic-threshold calibration and
//! evaluation under dictionary attack (dominated by the defense's
//! half-split retrain + validation scoring).

use criterion::{criterion_group, criterion_main, Criterion};
use sb_experiments::config::Fig5Config;
use sb_experiments::figures::fig5;

fn bench_fig5(c: &mut Criterion) {
    let cfg = Fig5Config {
        train_size: 600,
        folds: 2,
        fractions: vec![0.05],
        ..Fig5Config::quick(0xF5)
    };
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("threshold_defense_600x2folds", |b| {
        b.iter(|| fig5::run(&cfg, 2))
    });
    g.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
