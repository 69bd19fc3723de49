//! Property tests pinning the interned-token substrate to a string-keyed
//! reference scorer: ID-based classification must be **bit-identical** —
//! same scores (not approximately; the same f64 bits), same verdicts, same
//! clue lists — and the ID-keyed database must keep the exact
//! untrain-inverse property the RONI defense depends on.

use proptest::prelude::*;
use sb_email::Label;
use sb_filter::{classify, Clue, FilterOptions, Interner, Scored, SpamBayes, TokenDb, TokenId};

/// The string-keyed reference scorer: δ(E) selection over string token
/// scores with a string tie-break, then Fisher's method written out from
/// Equation 3 — no interning, no memo.
mod oracle {
    use sb_filter::classify::verdict_for;
    use sb_filter::score::token_score;
    use sb_filter::{Clue, FilterOptions, Scored, TokenDb};
    use sb_stats::chi2::chi2q_even;

    fn select_delta<'a>(
        token_set: &'a [String],
        db: &TokenDb,
        opts: &FilterOptions,
    ) -> Vec<(&'a str, f64)> {
        let mut candidates: Vec<(&str, f64)> = token_set
            .iter()
            .map(|t| (t.as_str(), token_score(db, t, opts)))
            .filter(|(_, f)| (f - 0.5).abs() >= opts.minimum_prob_strength)
            .collect();
        candidates.sort_unstable_by(|a, b| {
            let da = (a.1 - 0.5).abs();
            let db_ = (b.1 - 0.5).abs();
            db_.partial_cmp(&da)
                .expect("scores are finite")
                .then_with(|| a.0.cmp(b.0))
        });
        candidates.truncate(opts.max_discriminators);
        candidates
    }

    fn fisher_score(clue_scores: &[f64]) -> f64 {
        let n = clue_scores.len();
        if n == 0 {
            return 0.5;
        }
        let mut sum_ln_f = 0.0f64;
        let mut sum_ln_1mf = 0.0f64;
        for &f in clue_scores {
            let f = f.clamp(1e-12, 1.0 - 1e-12);
            sum_ln_f += f.ln();
            sum_ln_1mf += (1.0 - f).ln();
        }
        let h = chi2q_even(-2.0 * sum_ln_f, n as u32);
        let s = chi2q_even(-2.0 * sum_ln_1mf, n as u32);
        (1.0 + h - s) / 2.0
    }

    /// Score a deduplicated token set, returning the clues too.
    pub fn score_token_set(
        token_set: &[String],
        db: &TokenDb,
        opts: &FilterOptions,
    ) -> (Scored, Vec<Clue>) {
        let delta = select_delta(token_set, db, opts);
        let scores: Vec<f64> = delta.iter().map(|&(_, f)| f).collect();
        let score = fisher_score(&scores);
        let clues = delta
            .into_iter()
            .map(|(t, f)| Clue {
                token: t.to_owned(),
                score: f,
            })
            .collect();
        (
            Scored {
                score,
                verdict: verdict_for(score, opts),
                n_clues: scores.len(),
            },
            clues,
        )
    }
}

/// The option sets every filter in the zoo runs the shared engine with:
/// SpamBayes' defaults, BogoFilter's (`robx` 0.52, `robs` 0.0178, no clue
/// cap, cutoffs 0.45 / 0.99) and SpamAssassin Bayes' (`x` 0.538, `s` 0.1,
/// 150 clues, cutoffs 0.05 / 0.95).
fn engine_options() -> impl Strategy<Value = FilterOptions> {
    (0usize..3).prop_map(|k| match k {
        0 => FilterOptions::default(),
        1 => FilterOptions {
            unknown_word_strength: 0.0178,
            unknown_word_prob: 0.52,
            minimum_prob_strength: 0.1,
            max_discriminators: usize::MAX,
            ham_cutoff: 0.45,
            spam_cutoff: 0.99,
        },
        _ => FilterOptions {
            unknown_word_strength: 0.1,
            unknown_word_prob: 0.538,
            minimum_prob_strength: 0.1,
            max_discriminators: 150,
            ham_cutoff: 0.05,
            spam_cutoff: 0.95,
        },
    })
}

/// Small token alphabets keep collisions (shared tokens) likely.
fn token() -> impl Strategy<Value = String> {
    "[a-e]{3,5}"
}

fn token_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(token(), 0..10).prop_map(|s| s.into_iter().collect())
}

/// Train the same corpus into a db twice: once through the string API,
/// once through pre-interned ids on a shared interner.
fn twin_dbs(
    base: &[(Vec<String>, bool)],
    interner: &Interner,
) -> (TokenDb, TokenDb) {
    let mut by_str = TokenDb::with_interner(interner.clone());
    let mut by_id = TokenDb::with_interner(interner.clone());
    for (set, is_spam) in base {
        let label = if *is_spam { Label::Spam } else { Label::Ham };
        by_str.train(set, label);
        by_id.train_ids(&interner.intern_set(set), label);
    }
    (by_str, by_id)
}

proptest! {
    /// The headline equivalence: for any training history, probe and
    /// engine option set, the ID fast path returns bit-identical scores
    /// and verdicts and an identical clue list vs. the string reference.
    /// Probe ids come from the read-only classification lookup, as in
    /// `SpamBayes::classify`; interning the probe instead — unseen tokens
    /// included, as organization delivery does — must give the same bits.
    #[test]
    fn interned_classification_is_bit_identical(
        base in proptest::collection::vec((token_set(), any::<bool>()), 0..14),
        probe in token_set(),
        opts in engine_options(),
    ) {
        let interner = Interner::new();
        let (by_str, by_id) = twin_dbs(&base, &interner);
        let probe_ids = classify::lookup_ids(&interner, &probe, &opts);

        // Same counts in both databases first (sanity for the rest).
        prop_assert_eq!(by_str.n_spam(), by_id.n_spam());
        prop_assert_eq!(by_str.n_ham(), by_id.n_ham());
        prop_assert_eq!(by_str.n_tokens(), by_id.n_tokens());

        // Reference string scoring on the string-trained db…
        let (legacy, legacy_clues): (Scored, Vec<Clue>) =
            oracle::score_token_set(&probe, &by_str, &opts);
        // …vs the cached ID path on the id-trained db.
        let fast = classify::score_token_ids(&probe_ids, &by_id, &opts);
        let (fast_scored, fast_clues) =
            classify::score_token_ids_with_clues(&probe_ids, &by_id, &opts);

        // Bit-identical: f64 equality, not tolerance.
        prop_assert_eq!(
            legacy.score.to_bits(),
            fast.score.to_bits(),
            "score mismatch: {} vs {}",
            legacy.score,
            fast.score
        );
        prop_assert_eq!(legacy.verdict, fast.verdict);
        prop_assert_eq!(legacy.n_clues, fast.n_clues);
        prop_assert_eq!(legacy.score.to_bits(), fast_scored.score.to_bits());
        prop_assert_eq!(legacy_clues.len(), fast_clues.len());
        for (a, b) in legacy_clues.iter().zip(fast_clues.iter()) {
            prop_assert_eq!(&a.token, &b.token, "clue order diverged");
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        // The interned probe: never-trained tokens get ids too, score the
        // prior, and fall outside the δ(E) strength band.
        let interned_ids = interner.intern_set(&probe);
        let interned = classify::score_token_ids(&interned_ids, &by_id, &opts);
        let (interned_scored, interned_clues) =
            classify::score_token_ids_with_clues(&interned_ids, &by_id, &opts);
        prop_assert_eq!(
            fast.score.to_bits(),
            interned.score.to_bits(),
            "interned-set score mismatch: {} vs {}",
            fast.score,
            interned.score
        );
        prop_assert_eq!(fast.verdict, interned.verdict);
        prop_assert_eq!(fast.n_clues, interned.n_clues);
        prop_assert_eq!(fast_scored.score.to_bits(), interned_scored.score.to_bits());
        prop_assert_eq!(fast_clues.len(), interned_clues.len());
        for (a, b) in fast_clues.iter().zip(interned_clues.iter()) {
            prop_assert_eq!(&a.token, &b.token, "interned clue order diverged");
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// The full-filter view of the same property, including repeated
    /// classification (cache warm vs cold must not change results).
    #[test]
    fn spambayes_id_path_matches_string_path(
        base in proptest::collection::vec((token_set(), any::<bool>()), 1..10),
        probe in token_set(),
    ) {
        let interner = Interner::new();
        let mut filter = SpamBayes::with_interner(interner.clone());
        for (set, is_spam) in &base {
            filter.train_tokens(set, if *is_spam { Label::Spam } else { Label::Ham }, 1);
        }
        let ids = interner.intern_set(&probe);
        let (via_strings, _) = oracle::score_token_set(&probe, filter.db(), filter.options());
        let via_ids_cold = filter.classify_ids(&ids);
        let via_ids_warm = filter.classify_ids(&ids);
        prop_assert_eq!(via_strings.score.to_bits(), via_ids_cold.score.to_bits());
        prop_assert_eq!(&via_strings, &via_ids_cold);
        prop_assert_eq!(&via_ids_cold, &via_ids_warm, "cache changed a result");
    }

    /// Batch classification (parallel) is the same function as one-by-one.
    #[test]
    fn batch_classification_matches_sequential(
        base in proptest::collection::vec((token_set(), any::<bool>()), 1..8),
        probes in proptest::collection::vec(token_set(), 0..12),
    ) {
        let interner = Interner::new();
        let mut filter = SpamBayes::with_interner(interner.clone());
        for (set, is_spam) in &base {
            filter.train_tokens(set, if *is_spam { Label::Spam } else { Label::Ham }, 1);
        }
        let id_sets: Vec<Vec<TokenId>> =
            probes.iter().map(|p| interner.intern_set(p)).collect();
        let one_by_one: Vec<_> = id_sets.iter().map(|ids| filter.classify_ids(ids)).collect();
        let batched = filter.classify_ids_batch(&id_sets);
        let batched_seq = filter.classify_ids_batch_with_threads(&id_sets, 1);
        prop_assert_eq!(&one_by_one, &batched);
        prop_assert_eq!(&batched, &batched_seq);
    }

    /// Exact untrain-inverse on the ID-keyed database: train → untrain is
    /// the identity on counts, token membership, and (bit-identical)
    /// scores, for any interleaving base history.
    #[test]
    fn id_untrain_is_exact_inverse(
        base in proptest::collection::vec((token_set(), any::<bool>()), 0..12),
        extra in token_set(),
        extra_label in any::<bool>(),
        probe in token_set(),
    ) {
        let interner = Interner::new();
        let mut db = TokenDb::with_interner(interner.clone());
        for (set, is_spam) in &base {
            db.train_ids(
                &interner.intern_set(set),
                if *is_spam { Label::Spam } else { Label::Ham },
            );
        }
        let snapshot = db.clone();
        let opts = FilterOptions::default();
        let probe_ids = interner.intern_set(&probe);
        let score_before = classify::score_token_ids(&probe_ids, &db, &opts);

        let label = if extra_label { Label::Spam } else { Label::Ham };
        let extra_ids = interner.intern_set(&extra);
        db.train_ids(&extra_ids, label);
        db.untrain_ids(&extra_ids, label).unwrap();

        prop_assert_eq!(db.n_spam(), snapshot.n_spam());
        prop_assert_eq!(db.n_ham(), snapshot.n_ham());
        prop_assert_eq!(db.n_tokens(), snapshot.n_tokens());
        for (id, c) in snapshot.ids() {
            prop_assert_eq!(db.counts_by_id(id), c);
        }
        // Scores recover bit-identically (fresh generation, same counts).
        let score_after = classify::score_token_ids(&probe_ids, &db, &opts);
        prop_assert_eq!(score_before.score.to_bits(), score_after.score.to_bits());
        prop_assert_eq!(score_before, score_after);
    }

    /// Multiplicity fast path on ids equals repetition (the dictionary
    /// attack invariant, ID-keyed).
    #[test]
    fn id_multiplicity_equals_repetition(
        set in token_set(),
        k in 1u32..20,
        spam in any::<bool>(),
    ) {
        let interner = Interner::new();
        let ids = interner.intern_set(&set);
        let label = if spam { Label::Spam } else { Label::Ham };
        let mut a = TokenDb::with_interner(interner.clone());
        a.train_ids_many(&ids, label, k);
        let mut b = TokenDb::with_interner(interner.clone());
        for _ in 0..k {
            b.train_ids(&ids, label);
        }
        prop_assert_eq!(a.n_spam(), b.n_spam());
        prop_assert_eq!(a.n_ham(), b.n_ham());
        for (id, c) in a.ids() {
            prop_assert_eq!(b.counts_by_id(id), c);
        }
        // And untraining the multiplicity in one go empties the db.
        a.untrain_ids_many(&ids, label, k).unwrap();
        prop_assert_eq!(a.n_tokens(), 0);
        prop_assert_eq!(a.n_messages(), 0);
    }
}
