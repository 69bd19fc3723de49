//! Property tests for the learner's core invariants.

use proptest::prelude::*;
use sb_email::Label;
use sb_filter::{fisher_combine, ln_pair, score, FilterOptions, SpamBayes, TokenCounts, TokenDb};

/// `I(E)` of bare clue scores through the production Fisher combine.
fn fisher_score(scores: &[f64]) -> f64 {
    fisher_combine(scores.iter().map(|&f| ln_pair(f)))
}

/// Small token alphabets keep collisions (shared tokens) likely.
fn token() -> impl Strategy<Value = String> {
    "[a-e]{3,5}"
}

fn token_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(token(), 0..8).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn fisher_score_in_unit_interval(scores in proptest::collection::vec(0.0f64..=1.0, 0..200)) {
        let i = fisher_score(&scores);
        prop_assert!((0.0..=1.0).contains(&i), "I = {i}");
    }

    #[test]
    fn fisher_score_monotone(
        scores in proptest::collection::vec(0.01f64..=0.99, 1..50),
        idx in any::<prop::sample::Index>(),
        bump in 0.0f64..0.5,
    ) {
        let i = idx.index(scores.len());
        let base = fisher_score(&scores);
        let mut up = scores.clone();
        up[i] = (up[i] + bump).min(1.0);
        prop_assert!(fisher_score(&up) >= base - 1e-9);
        let mut down = scores.clone();
        down[i] = (down[i] - bump).max(0.0);
        prop_assert!(fisher_score(&down) <= base + 1e-9);
    }

    #[test]
    fn fisher_score_symmetric_under_complement(scores in proptest::collection::vec(0.01f64..=0.99, 0..30)) {
        // Complementing every clue reflects I around 0.5.
        let i = fisher_score(&scores);
        let comp: Vec<f64> = scores.iter().map(|&f| 1.0 - f).collect();
        let ic = fisher_score(&comp);
        prop_assert!((i + ic - 1.0).abs() < 1e-9, "I = {i}, I~ = {ic}");
    }

    #[test]
    fn token_score_is_bounded_convex_combination(
        n_spam in 1u32..50,
        n_ham in 1u32..50,
        spam_w in 0u32..50,
        ham_w in 0u32..50,
    ) {
        let spam_w = spam_w.min(n_spam);
        let ham_w = ham_w.min(n_ham);
        let opts = FilterOptions::default();
        let c = TokenCounts { spam: spam_w, ham: ham_w };
        let f = score::token_score_from_counts(n_spam, n_ham, c, &opts);
        prop_assert!((0.0..=1.0).contains(&f), "f = {f}");
        if let Some(ps) = score::raw_spam_prob(n_spam, n_ham, c) {
            let (lo, hi) = if ps < opts.unknown_word_prob {
                (ps, opts.unknown_word_prob)
            } else {
                (opts.unknown_word_prob, ps)
            };
            prop_assert!(f >= lo - 1e-12 && f <= hi + 1e-12, "f={f} not in [{lo},{hi}]");
        } else {
            prop_assert_eq!(f, opts.unknown_word_prob);
        }
    }

    #[test]
    fn train_untrain_is_identity(
        base in proptest::collection::vec((token_set(), any::<bool>()), 0..12),
        extra in token_set(),
        extra_label in any::<bool>(),
    ) {
        let mut db = TokenDb::new();
        for (set, is_spam) in &base {
            db.train(set, if *is_spam { Label::Spam } else { Label::Ham });
        }
        let snapshot = db.clone();
        let label = if extra_label { Label::Spam } else { Label::Ham };
        db.train(&extra, label);
        db.untrain(&extra, label).unwrap();
        prop_assert_eq!(db.n_spam(), snapshot.n_spam());
        prop_assert_eq!(db.n_ham(), snapshot.n_ham());
        prop_assert_eq!(db.n_tokens(), snapshot.n_tokens());
        for (tok, c) in snapshot.iter() {
            prop_assert_eq!(db.counts(tok), c);
        }
    }

    #[test]
    fn multiplicity_equals_repetition(
        set in token_set(),
        k in 1u32..20,
        spam in any::<bool>(),
    ) {
        let label = if spam { Label::Spam } else { Label::Ham };
        let mut a = TokenDb::new();
        a.train_many(&set, label, k);
        let mut b = TokenDb::new();
        for _ in 0..k {
            b.train(&set, label);
        }
        prop_assert_eq!(a.n_spam(), b.n_spam());
        prop_assert_eq!(a.n_ham(), b.n_ham());
        for (tok, c) in a.iter() {
            prop_assert_eq!(b.counts(tok), c);
        }
    }

    #[test]
    fn poisoning_never_lowers_included_token_scores(
        base in proptest::collection::vec((token_set(), any::<bool>()), 1..10),
        attack in token_set(),
        k in 1u32..30,
    ) {
        // Core mechanism of §3.4's optimality argument: adding attack
        // emails (trained as spam) containing token w never *decreases*
        // f(w) — scores of attacked tokens are monotone in attack size.
        prop_assume!(!attack.is_empty());
        let opts = FilterOptions::default();
        let mut db = TokenDb::new();
        for (set, is_spam) in &base {
            db.train(set, if *is_spam { Label::Spam } else { Label::Ham });
        }
        let before: Vec<f64> = attack.iter().map(|t| score::token_score(&db, t, &opts)).collect();
        db.train_many(&attack, Label::Spam, k);
        for (tok, &b) in attack.iter().zip(&before) {
            let after = score::token_score(&db, tok, &opts);
            prop_assert!(after >= b - 1e-12, "token {tok:?}: {b} -> {after}");
        }
    }

    #[test]
    fn persistence_roundtrips(
        base in proptest::collection::vec((token_set(), any::<bool>()), 0..10),
    ) {
        let mut db = TokenDb::new();
        for (set, is_spam) in &base {
            db.train(set, if *is_spam { Label::Spam } else { Label::Ham });
        }
        let image = sb_filter::persist::snapshot(&db);
        let back = sb_filter::persist::restore(&image).unwrap();
        prop_assert_eq!(back.n_spam(), db.n_spam());
        prop_assert_eq!(back.n_ham(), db.n_ham());
        prop_assert_eq!(back.n_tokens(), db.n_tokens());
        for (tok, c) in db.iter() {
            prop_assert_eq!(back.counts(tok), c);
        }
        prop_assert_eq!(sb_filter::persist::snapshot(&back), image);
    }

    #[test]
    fn classification_deterministic_across_clones(
        base in proptest::collection::vec((token_set(), any::<bool>()), 1..10),
        probe in token_set(),
    ) {
        let mut filter = SpamBayes::new();
        for (set, is_spam) in &base {
            filter.train_tokens(set, if *is_spam { Label::Spam } else { Label::Ham }, 1);
        }
        let clone = filter.clone();
        prop_assert_eq!(filter.classify_tokens(&probe), clone.classify_tokens(&probe));
    }
}
