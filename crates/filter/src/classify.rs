//! Message scoring and classification: Equations 3–4 of the paper.
//!
//! The most significant tokens δ(E) — up to `max_discriminators` tokens with
//! `|f(w) − 0.5| ≥ minimum_prob_strength` — are combined with Fisher's
//! method:
//!
//! ```text
//! H(E) = 1 − χ²_{2n}( −2 Σ ln f(w) )          (spam evidence)
//! S(E) = 1 − χ²_{2n}( −2 Σ ln (1 − f(w)) )    (ham evidence)
//! I(E) = (1 + H(E) − S(E)) / 2 ∈ [0, 1]       (Eq. 3)
//! ```
//!
//! where `χ²_{2n}` is the chi-square CDF with `2n` degrees of freedom. A
//! message with no significant tokens scores exactly 0.5 (unsure), matching
//! SpamBayes.

use crate::db::ScoreDb;
use crate::options::FilterOptions;
use sb_email::Email;
use sb_intern::{Interner, TokenId};
use sb_stats::chi2::chi2q_even;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};

/// The three-way decision of the filter (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Score in `[0, θ0]`: delivered to the inbox.
    Ham,
    /// Score in `(θ0, θ1]`: the problematic middle ground (§2.1).
    Unsure,
    /// Score in `(θ1, 1]`: filtered away.
    Spam,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Ham => write!(f, "ham"),
            Verdict::Unsure => write!(f, "unsure"),
            Verdict::Spam => write!(f, "spam"),
        }
    }
}

/// Map a message score to a verdict given thresholds.
pub fn verdict_for(score: f64, opts: &FilterOptions) -> Verdict {
    if score <= opts.ham_cutoff {
        Verdict::Ham
    } else if score > opts.spam_cutoff {
        Verdict::Spam
    } else {
        Verdict::Unsure
    }
}

/// One token's contribution to a classification, for explanations and the
/// Figure 4 token-shift analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clue {
    /// The token.
    pub token: String,
    /// Its smoothed score `f(w)`.
    pub score: f64,
}

/// A scored message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scored {
    /// `I(E)` of Equation 3.
    pub score: f64,
    /// Thresholded decision.
    pub verdict: Verdict,
    /// Number of tokens in δ(E).
    pub n_clues: usize,
}

/// True when never-interned tokens cannot enter δ(E) (see [`lookup_ids`]).
fn unknown_tokens_are_inert(opts: &FilterOptions) -> bool {
    (opts.unknown_word_prob - 0.5).abs() < opts.minimum_prob_strength
}

/// Resolve a token set to ids for *classification*: read-only against
/// the interner whenever dropping never-interned tokens cannot change
/// the result (they score the prior `x`, which the δ(E) strength filter
/// excludes for every sane configuration). Classifying a stream of unseen
/// vocabulary — the dictionary-attack shape — must not permanently grow
/// the append-only interner. [`email_ids`] is the same rule for a whole
/// message.
///
/// `sb_mailflow::MailOrg` does not use this path: it interns each
/// delivered message's full token set at delivery (the same ids then
/// train the weekly retrain) and classifies that set by id, which gives
/// the same result. Its interner growth is unchanged by that, because the
/// organization already interned every delivered message when it
/// retrained on it.
pub fn lookup_ids(interner: &Interner, token_set: &[String], opts: &FilterOptions) -> Vec<TokenId> {
    if unknown_tokens_are_inert(opts) {
        interner.lookup_pieces(token_set)
    } else {
        // Unusual options (e.g. a biased prior with a zero-width
        // exclusion band): unknown tokens would enter δ(E), so they must
        // be representable — intern them.
        interner.intern_set(token_set)
    }
}

/// [`lookup_ids`] of `tokenizer.token_set(email)`, through the tokenizer's
/// fused path: no `String` per token.
pub fn email_ids(
    tokenizer: &Tokenizer,
    email: &Email,
    interner: &Interner,
    opts: &FilterOptions,
) -> Vec<TokenId> {
    if unknown_tokens_are_inert(opts) {
        tokenizer.lookup_ids(email, interner)
    } else {
        tokenizer.intern_ids(email, interner)
    }
}

/// Select δ(E), the strongest-evidence tokens of a (deduplicated) id set
/// per §2.3 footnote 3, against any [`ScoreDb`]. Returns `(id, f(w))`
/// pairs ordered by distance from 0.5 descending, ties broken by the
/// *resolved token string* ascending — never by raw id, which would leak
/// interning order into classification results — so classification is
/// reproducible across platforms, hash-map orders and interning orders.
///
/// The tie-break takes a fast path through the interner's sorted
/// watermark `k` (see `sb_intern::intern`): below `k`, id order is string
/// order. So the candidates sort as primitive `(strength, id)` records,
/// and only a tie run that holds an id at or above `k` and starts inside
/// the kept `max_discriminators` is re-sorted by string. Every id of a
/// served model image is below `k`; when no candidate is at or above it,
/// the selection takes no interner lock.
pub fn select_delta_ids<D: ScoreDb + ?Sized>(
    ids: &[TokenId],
    db: &D,
    opts: &FilterOptions,
) -> Vec<(TokenId, f64)> {
    // Strength as one integer key: |f − 0.5| is finite and ≥ 0 (a NaN
    // fails the filter below), so its bit pattern orders like the value,
    // and inverting the bits sorts strongest first.
    let mut candidates: Vec<(u64, TokenId, f64)> = Vec::with_capacity(ids.len());
    for &id in ids {
        let f = db.score_f(id, opts);
        let strength = (f - 0.5).abs();
        if strength >= opts.minimum_prob_strength {
            candidates.push((!strength.to_bits(), id, f));
        }
    }
    candidates.sort_unstable_by_key(|&(key, id, _)| (key, id));
    let keep = opts.max_discriminators.min(candidates.len());
    let watermark = db.interner().watermark();
    if candidates.iter().any(|c| c.1.index() >= watermark) {
        let mut reader = None;
        let mut start = 0;
        while start < keep {
            let key = candidates[start].0;
            let len = candidates[start..]
                .iter()
                .take_while(|c| c.0 == key)
                .count();
            let run = &mut candidates[start..start + len];
            if run.iter().any(|c| c.1.index() >= watermark) {
                let reader = reader.get_or_insert_with(|| db.interner().reader());
                run.sort_unstable_by(|a, b| reader.cmp_by_str(a.1, b.1));
            }
            start += len;
        }
    }
    candidates.truncate(keep);
    candidates.into_iter().map(|(_, id, f)| (id, f)).collect()
}

/// Fisher-combine δ(E)'s `(ln f, ln(1 − f))` pairs into `I(E)`
/// (Equation 3). The `ln` pairs come from the score source's memo (see
/// [`ScoreDb::score_lns`]), so only δ(E) survivors pay for them.
pub fn fisher_combine(lns: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut n = 0u32;
    let mut sum_ln_f = 0.0f64;
    let mut sum_ln_1mf = 0.0f64;
    for (ln_f, ln_1mf) in lns {
        n += 1;
        sum_ln_f += ln_f;
        sum_ln_1mf += ln_1mf;
    }
    if n == 0 {
        return 0.5;
    }
    let h = chi2q_even(-2.0 * sum_ln_f, n); // spam evidence
    let s = chi2q_even(-2.0 * sum_ln_1mf, n); // ham evidence
    (1.0 + h - s) / 2.0
}

/// Fisher-combine a selected δ(E) and threshold it.
fn scored<D: ScoreDb + ?Sized>(delta: &[(TokenId, f64)], db: &D, opts: &FilterOptions) -> Scored {
    let score = fisher_combine(delta.iter().map(|&(id, f)| db.score_lns(id, f)));
    Scored {
        score,
        verdict: verdict_for(score, opts),
        n_clues: delta.len(),
    }
}

/// Score an interned (deduplicated) id set against any [`ScoreDb`]:
/// δ-selection over the source's scores followed by Fisher combining.
pub fn score_token_ids<D: ScoreDb + ?Sized>(
    ids: &[TokenId],
    db: &D,
    opts: &FilterOptions,
) -> Scored {
    scored(&select_delta_ids(ids, db, opts), db, opts)
}

/// Like [`score_token_ids`] but also returns the clues (resolved back to
/// strings), most significant first (for diagnostics and Figure 4).
pub fn score_token_ids_with_clues<D: ScoreDb + ?Sized>(
    ids: &[TokenId],
    db: &D,
    opts: &FilterOptions,
) -> (Scored, Vec<Clue>) {
    let delta = select_delta_ids(ids, db, opts);
    let interner = db.interner();
    let clues = delta
        .iter()
        .map(|&(id, f)| Clue {
            token: interner.resolve(id),
            score: f,
        })
        .collect();
    (scored(&delta, db, opts), clues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ln_pair, TokenDb};
    use sb_email::Label;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// `I(E)` of bare clue scores through the production combine.
    fn fisher(scores: &[f64]) -> f64 {
        fisher_combine(scores.iter().map(|&f| ln_pair(f)))
    }

    fn score(words: &[String], db: &TokenDb, opts: &FilterOptions) -> Scored {
        score_token_ids(&db.interner().intern_set(words), db, opts)
    }

    /// δ(E) of `words`, resolved back to token strings.
    fn delta_names(words: &[String], db: &TokenDb, opts: &FilterOptions) -> Vec<String> {
        let ids = db.interner().intern_set(words);
        select_delta_ids(&ids, db, opts)
            .into_iter()
            .map(|(id, _)| db.interner().resolve(id))
            .collect()
    }

    #[test]
    fn empty_message_is_unsure_at_half() {
        let db = TokenDb::new();
        let s = score(&[], &db, &FilterOptions::default());
        assert_eq!(s.score, 0.5);
        assert_eq!(s.verdict, Verdict::Unsure);
        assert_eq!(s.n_clues, 0);
    }

    #[test]
    fn single_token_score_equals_token_score() {
        // With one clue, I(E) = (1 + Q(-2 ln f) − Q(-2 ln(1−f)))/2 and
        // Q(x|2dof) = exp(−x/2), so I = (1 + f − (1−f))/2 = f.
        let mut db = TokenDb::new();
        for _ in 0..3 {
            db.train(&toks(&["win"]), Label::Spam);
            db.train(&toks(&["meet"]), Label::Ham);
        }
        let opts = FilterOptions::default();
        let f = crate::score::token_score(&db, "win", &opts);
        let s = score(&toks(&["win"]), &db, &opts);
        assert!((s.score - f).abs() < 1e-12, "I={} f={}", s.score, f);
    }

    #[test]
    fn fisher_score_bounds_and_symmetry() {
        assert_eq!(fisher(&[]), 0.5);
        // Symmetric evidence cancels.
        let i = fisher(&[0.9, 0.1]);
        assert!((i - 0.5).abs() < 1e-9);
        // All-spammy evidence approaches 1, all-hammy approaches 0.
        assert!(fisher(&[0.99; 20]) > 0.99);
        assert!(fisher(&[0.01; 20]) < 0.01);
    }

    #[test]
    fn fisher_score_monotone_in_each_clue() {
        let base = [0.3, 0.6, 0.8, 0.45];
        let i0 = fisher(&base);
        for k in 0..base.len() {
            let mut up = base;
            up[k] = (up[k] + 0.15).min(1.0);
            let i1 = fisher(&up);
            assert!(i1 >= i0 - 1e-12, "raising clue {k} lowered I: {i0} -> {i1}");
        }
    }

    #[test]
    fn delta_excludes_weak_tokens() {
        let mut db = TokenDb::new();
        // "strong" appears in 5 spam / 0 ham → f ≈ 0.96 (distance 0.46).
        // "weak" appears in 6 spam / 5 ham of 10/10 → PS = 6/11 ≈ 0.545,
        // f ≈ 0.543 (distance 0.043 < 0.1): excluded.
        for i in 0..10 {
            let mut spam_tokens = vec!["filler".to_string()];
            if i < 5 {
                spam_tokens.push("strong".to_string());
            }
            if i < 6 {
                spam_tokens.push("weak".to_string());
            }
            db.train(&spam_tokens, Label::Spam);
            let ham_tokens = if i < 5 {
                toks(&["other", "weak"])
            } else {
                toks(&["other"])
            };
            db.train(&ham_tokens, Label::Ham);
        }
        let opts = FilterOptions::default();
        let names = delta_names(&toks(&["strong", "weak", "unknown"]), &db, &opts);
        assert!(names.iter().any(|n| n == "strong"));
        assert!(
            !names.iter().any(|n| n == "weak"),
            "weak token must be excluded: {names:?}"
        );
        assert!(
            !names.iter().any(|n| n == "unknown"),
            "prior-scored token excluded"
        );
    }

    #[test]
    fn delta_boundary_token_included_at_exactly_point_one() {
        // SpamBayes includes a token whose distance from 0.5 equals the
        // strength exactly (>=); check the selection predicate against a
        // directly computed score.
        let mut db = TokenDb::new();
        let opts = FilterOptions::default();
        db.train(&toks(&["t"]), Label::Spam);
        let f = crate::score::token_score(&db, "t", &opts);
        let delta = delta_names(&toks(&["t"]), &db, &opts);
        if (f - 0.5).abs() >= opts.minimum_prob_strength {
            assert_eq!(delta.len(), 1);
        } else {
            assert!(delta.is_empty());
        }
    }

    #[test]
    fn delta_truncates_to_max_discriminators() {
        let mut db = TokenDb::new();
        let many: Vec<String> = (0..300).map(|i| format!("tok{i:03}")).collect();
        db.train(&many, Label::Spam);
        db.train(&toks(&["hamword"]), Label::Ham);
        let opts = FilterOptions::default();
        assert_eq!(
            delta_names(&many, &db, &opts).len(),
            opts.max_discriminators
        );
    }

    #[test]
    fn delta_ordering_is_deterministic() {
        let mut db = TokenDb::new();
        let set = toks(&["aaa", "bbb", "ccc"]);
        db.train(&set, Label::Spam);
        db.train(&toks(&["ddd"]), Label::Ham);
        let opts = FilterOptions::default();
        // All three attack tokens tie in score: order must be lexicographic.
        assert_eq!(delta_names(&set, &db, &opts), set);
    }

    #[test]
    fn delta_ties_across_the_watermark_follow_string_order() {
        // Ids 0..3 load as one sorted batch (the watermark is 3); the
        // later ids sort before, between and after them, and every token
        // ties in strength.
        let interner = Interner::new();
        interner.intern_pieces(&["bbb", "ddd", "fff"]);
        for t in ["eee", "aaa", "ggg", "ccc"] {
            interner.intern(t);
        }
        assert_eq!(interner.watermark(), 3);
        let mut db = TokenDb::with_interner(interner);
        let set = toks(&["aaa", "bbb", "ccc", "ddd", "eee", "fff", "ggg"]);
        db.train(&set, Label::Spam);
        db.train(&toks(&["hhh"]), Label::Ham);
        let opts = FilterOptions::default();
        assert_eq!(delta_names(&set, &db, &opts), set);
        // A truncation inside the tie run keeps the string-smallest.
        let short = FilterOptions {
            max_discriminators: 2,
            ..FilterOptions::default()
        };
        assert_eq!(delta_names(&set, &db, &short), set[..2]);
    }

    #[test]
    fn verdict_thresholds_per_paper() {
        let opts = FilterOptions::default();
        assert_eq!(verdict_for(0.0, &opts), Verdict::Ham);
        assert_eq!(verdict_for(0.15, &opts), Verdict::Ham); // I ∈ [0, θ0]
        assert_eq!(verdict_for(0.150001, &opts), Verdict::Unsure);
        assert_eq!(verdict_for(0.9, &opts), Verdict::Unsure); // I ∈ (θ0, θ1]
        assert_eq!(verdict_for(0.900001, &opts), Verdict::Spam);
        assert_eq!(verdict_for(1.0, &opts), Verdict::Spam);
    }

    #[test]
    fn spammy_message_classified_spam() {
        let mut db = TokenDb::new();
        for _ in 0..20 {
            db.train(&toks(&["viagra", "cheap", "offer"]), Label::Spam);
            db.train(&toks(&["meeting", "agenda", "notes"]), Label::Ham);
        }
        let opts = FilterOptions::default();
        let s = score(&toks(&["viagra", "cheap", "offer"]), &db, &opts);
        assert_eq!(s.verdict, Verdict::Spam, "score {}", s.score);
        let h = score(&toks(&["meeting", "agenda", "notes"]), &db, &opts);
        assert_eq!(h.verdict, Verdict::Ham, "score {}", h.score);
    }

    #[test]
    fn clues_are_most_significant_first() {
        let mut db = TokenDb::new();
        for i in 0..10 {
            let mut s = vec!["sure".to_string()];
            if i < 7 {
                s.push("often".to_string());
            }
            db.train(&s, Label::Spam);
            db.train(&toks(&["hammy"]), Label::Ham);
        }
        let opts = FilterOptions::default();
        let ids = db.interner().intern_set(&toks(&["sure", "often", "hammy"]));
        let (_, clues) = score_token_ids_with_clues(&ids, &db, &opts);
        assert!(clues.len() >= 2);
        for w in clues.windows(2) {
            assert!(
                (w[0].score - 0.5).abs() >= (w[1].score - 0.5).abs() - 1e-12,
                "clues not ordered by significance"
            );
        }
    }
}
