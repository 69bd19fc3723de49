//! The paper's qualitative claims, pinned as executable assertions at
//! reduced scale. EXPERIMENTS.md records the full-scale numbers; these
//! tests guarantee the *orderings and mechanisms* never regress.

use spambayes_repro::core::{attack_count_for_fraction, DictionaryKind, WordKnowledge};
use spambayes_repro::experiments::config::{Fig1Config, FocusedConfig};
use spambayes_repro::experiments::figures::{fig1, focused, tokens};

#[test]
fn claim_attack_size_arithmetic() {
    // §4.2: "101 attack emails (1% of 10,000)"; "204 attack emails (2%)".
    assert_eq!(attack_count_for_fraction(10_000, 0.01), 101);
    assert_eq!(attack_count_for_fraction(10_000, 0.02), 204);
}

#[test]
fn claim_lexicon_sizes() {
    // §3.2: aspell 98,568 words; §4.2: usenet 90,000, overlap ~61,000.
    assert_eq!(DictionaryKind::Aspell.lexicon().len(), 98_568);
    assert_eq!(DictionaryKind::UsenetTop(90_000).lexicon().len(), 90_000);
    let aspell: std::collections::HashSet<String> =
        DictionaryKind::Aspell.lexicon().into_iter().collect();
    let overlap = DictionaryKind::UsenetTop(90_000)
        .lexicon()
        .iter()
        .filter(|w| aspell.contains(*w))
        .count();
    assert_eq!(overlap, 61_000);
}

#[test]
fn claim_fig1_ordering_and_unusability() {
    // §4.2/Fig 1: optimal ≥ usenet ≥ aspell; ~1% control makes the filter
    // unusable (ham overwhelmingly lost to spam/unsure).
    let res = fig1::run(&Fig1Config::quick(101), 2);
    let at = |name: &str, f: f64| res.point(name, f).unwrap();
    let f = 0.01;
    assert!(
        at("optimal", f).ham_misclassified.mean
            >= at("usenet-90k", f).ham_misclassified.mean - 0.05
    );
    assert!(
        at("usenet-90k", f).ham_misclassified.mean
            >= at("aspell", f).ham_misclassified.mean - 0.05
    );
    assert!(
        at("usenet-90k", f).ham_misclassified.mean > 0.8,
        "1% Usenet attack must devastate ham delivery"
    );
    // And spam filtering is *not* the casualty (availability attack).
    assert!(at("usenet-90k", f).spam_correct.mean > 0.9);
}

#[test]
fn claim_fig2_knowledge_monotonicity() {
    // §4.3/Fig 2: "the attack is increasingly effective as p increases."
    let res = focused::run_fig2(&FocusedConfig::quick(102), 2);
    let hams: Vec<f64> = res.bars.iter().map(|b| b.pct_ham).collect();
    for w in hams.windows(2) {
        assert!(w[1] <= w[0] + 0.10, "ham survival must shrink with p: {hams:?}");
    }
    let last = res.bars.last().unwrap();
    assert!(last.pct_spam > last.pct_ham, "high knowledge should filter targets");
}

#[test]
fn claim_tokens_ratio_ordering() {
    // §4.2: the Aspell attack carries more tokens than the Usenet attack
    // (7× vs 6.4× the corpus) because its lexicon is larger.
    let res = tokens::run(600, 0.02, 103);
    let usenet = res.rows.iter().find(|r| r.attack == "usenet-90k").unwrap();
    let aspell = res.rows.iter().find(|r| r.attack == "aspell").unwrap();
    assert!(aspell.ratio > usenet.ratio);
}

#[test]
fn claim_optimal_attack_generalizes_both() {
    // §3.4: uniform knowledge → dictionary attack; point-mass → focused.
    let lexicon: Vec<String> = (0..50).map(|i| format!("w{i:02}")).collect();
    let dict = WordKnowledge::uniform(&lexicon, 0.3).optimal_attack(None);
    assert_eq!(dict.len(), 50);
    let target: Vec<String> = lexicon[..7].to_vec();
    let focused_attack = WordKnowledge::point_mass(&target).optimal_attack(None);
    assert_eq!(focused_attack.len(), 7);
    // Budgeted blend prefers the known-target words.
    let blend = WordKnowledge::uniform(&lexicon, 0.3)
        .interpolate(&WordKnowledge::point_mass(&target), 0.5);
    let budget = blend.optimal_attack(Some(7));
    for w in &budget {
        assert!(target.contains(w), "budget pick {w} not from target");
    }
}
