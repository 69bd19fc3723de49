//! Determinism: every experiment is a pure function of its seed, and
//! parallel execution must not change results.

use spambayes_repro::corpus::{CorpusConfig, TrecCorpus};
use spambayes_repro::experiments::config::{Fig1Config, FocusedConfig};
use spambayes_repro::experiments::figures::{fig1, focused};

#[test]
fn corpora_are_seed_deterministic() {
    let a = TrecCorpus::generate(&CorpusConfig::with_size(300, 0.5), 11);
    let b = TrecCorpus::generate(&CorpusConfig::with_size(300, 0.5), 11);
    assert_eq!(a.emails(), b.emails());
}

#[test]
fn fig1_identical_across_thread_counts() {
    let cfg = Fig1Config {
        train_size: 400,
        folds: 2,
        fractions: vec![0.02],
        ..Fig1Config::quick(13)
    };
    let serial = fig1::run(&cfg, 1);
    let parallel = fig1::run(&cfg, 4);
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.attack, b.attack);
        assert_eq!(a.fraction, b.fraction);
        assert_eq!(a.ham_as_spam.mean, b.ham_as_spam.mean);
        assert_eq!(a.ham_misclassified.mean, b.ham_misclassified.mean);
    }
}

#[test]
fn fig2_identical_across_thread_counts_and_reruns() {
    let cfg = FocusedConfig {
        inbox_size: 300,
        n_targets: 4,
        repetitions: 2,
        guess_probs: vec![0.5],
        fig2_attack_count: 20,
        ..FocusedConfig::quick(17)
    };
    let a = focused::run_fig2(&cfg, 1);
    let b = focused::run_fig2(&cfg, 4);
    let c = focused::run_fig2(&cfg, 4);
    for ((x, y), z) in a.bars.iter().zip(&b.bars).zip(&c.bars) {
        assert_eq!(x.pct_ham, y.pct_ham);
        assert_eq!(x.pct_spam, y.pct_spam);
        assert_eq!(y.pct_ham, z.pct_ham);
        assert_eq!(y.pct_unsure, z.pct_unsure);
    }
}

#[test]
fn different_seeds_differ() {
    let a = TrecCorpus::generate(&CorpusConfig::with_size(100, 0.5), 1);
    let b = TrecCorpus::generate(&CorpusConfig::with_size(100, 0.5), 2);
    assert_ne!(a.emails(), b.emails());
}
