//! Figure 4 reproduction bench: the token-score shift analysis. Measures
//! the before/after clue extraction across focused-attack targets — the
//! diagnostic pipeline (classify_with_clues twice per target plus the
//! case search) that regenerates the paper's scatter panels.

use criterion::{criterion_group, criterion_main, Criterion};
use sb_experiments::config::FocusedConfig;
use sb_experiments::figures::fig4;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let cfg = FocusedConfig {
        inbox_size: 400,
        n_targets: 6,
        repetitions: 1,
        ..FocusedConfig::quick(0xF4)
    };
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("token_shift_6_targets", |b| {
        b.iter(|| black_box(fig4::run(&cfg, 12).cases.len()))
    });
    g.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
