//! Figure 2 reproduction bench: focused attack vs guess probability.

use criterion::{criterion_group, criterion_main, Criterion};
use sb_experiments::config::FocusedConfig;
use sb_experiments::figures::focused;

fn bench_fig2(c: &mut Criterion) {
    let cfg = FocusedConfig {
        inbox_size: 400,
        n_targets: 5,
        repetitions: 2,
        guess_probs: vec![0.1, 0.5, 0.9],
        fig2_attack_count: 24,
        ..FocusedConfig::quick(0xF2)
    };
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("focused_knowledge_400x5targets", |b| {
        b.iter(|| focused::run_fig2(&cfg, 2))
    });
    g.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
