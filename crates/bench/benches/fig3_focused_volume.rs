//! Figure 3 reproduction bench: focused attack vs attack volume
//! (exercises the incremental multiplicity-training fast path).

use criterion::{criterion_group, criterion_main, Criterion};
use sb_experiments::config::FocusedConfig;
use sb_experiments::figures::focused;

fn bench_fig3(c: &mut Criterion) {
    let cfg = FocusedConfig {
        inbox_size: 400,
        n_targets: 5,
        repetitions: 2,
        fig3_fractions: vec![0.01, 0.05, 0.10],
        ..FocusedConfig::quick(0xF3)
    };
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("focused_volume_400x5targets", |b| {
        b.iter(|| focused::run_fig3(&cfg, 2))
    });
    g.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
