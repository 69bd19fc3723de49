//! Token spam scores: Equations 1 and 2 of the paper.
//!
//! For token `w` with counts `NS(w)`, `NH(w)` out of `NS` spam / `NH` ham
//! training messages:
//!
//! ```text
//! PS(w) = NH·NS(w) / (NH·NS(w) + NS·NH(w))                        (Eq. 1)
//! f(w)  = (s·x + N(w)·PS(w)) / (s + N(w)),  N(w) = NS(w)+NH(w)    (Eq. 2)
//! ```
//!
//! `PS` is the per-class-normalized spam frequency; `f` shrinks it toward
//! the prior `x` with strength `s` so rare tokens don't get extreme scores.

use crate::db::{TokenCounts, TokenDb};
use crate::options::FilterOptions;

/// Equation 1: the raw token spam score `PS(w)`.
///
/// Returns `None` when the token carries no information (`NS(w)=NH(w)=0`, or
/// the respective class has no training messages at all) — Equation 2 then
/// falls back to the prior `x`.
pub fn raw_spam_prob(n_spam: u32, n_ham: u32, counts: TokenCounts) -> Option<f64> {
    // Per-class frequency form (equivalent to Eq. 1, immune to overflow):
    // PS = r_s / (r_s + r_h) with r_s = NS(w)/NS, r_h = NH(w)/NH.
    let spam_ratio = if n_spam > 0 {
        f64::from(counts.spam.min(n_spam)) / f64::from(n_spam)
    } else {
        0.0
    };
    let ham_ratio = if n_ham > 0 {
        f64::from(counts.ham.min(n_ham)) / f64::from(n_ham)
    } else {
        0.0
    };
    let denom = spam_ratio + ham_ratio;
    if denom == 0.0 {
        None
    } else {
        Some(spam_ratio / denom)
    }
}

/// Equation 2: the smoothed token score `f(w)`.
pub fn token_score(db: &TokenDb, token: &str, opts: &FilterOptions) -> f64 {
    token_score_from_counts(db.n_spam(), db.n_ham(), db.counts(token), opts)
}

/// Equation 2 from explicit counts (exposed for the Figure 4 before/after
/// token-shift analysis, which evaluates scores under two databases).
pub fn token_score_from_counts(
    n_spam: u32,
    n_ham: u32,
    counts: TokenCounts,
    opts: &FilterOptions,
) -> f64 {
    let s = opts.unknown_word_strength;
    let x = opts.unknown_word_prob;
    // An unseen token carries no evidence: Eq. 2 is the prior, exactly
    // as the `None` arm below gives, without Eq. 1's two divisions.
    if counts.spam == 0 && counts.ham == 0 {
        return x;
    }
    match raw_spam_prob(n_spam, n_ham, counts) {
        None => x,
        Some(ps) => {
            let n = f64::from(counts.total());
            (s * x + n * ps) / (s + n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Label;

    fn db_with(spam_msgs: &[&[&str]], ham_msgs: &[&[&str]]) -> TokenDb {
        let mut db = TokenDb::new();
        for m in spam_msgs {
            let v: Vec<String> = m.iter().map(|s| s.to_string()).collect();
            db.train(&v, Label::Spam);
        }
        for m in ham_msgs {
            let v: Vec<String> = m.iter().map(|s| s.to_string()).collect();
            db.train(&v, Label::Ham);
        }
        db
    }

    #[test]
    fn eq1_balanced_counts_give_half() {
        // 2 spam, 2 ham; token in 1 of each: PS = (2·1)/(2·1 + 2·1) = 0.5
        let ps = raw_spam_prob(2, 2, TokenCounts { spam: 1, ham: 1 }).unwrap();
        assert!((ps - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq1_class_imbalance_normalized() {
        // 10 spam, 2 ham. Token in 5 spam, 1 ham: ratios 0.5 each → PS = 0.5.
        let ps = raw_spam_prob(10, 2, TokenCounts { spam: 5, ham: 1 }).unwrap();
        assert!((ps - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq1_hand_computed_value() {
        // NS=4, NH=6, NS(w)=2, NH(w)=3:
        // PS = NH·NS(w) / (NH·NS(w)+NS·NH(w)) = 6·2/(6·2+4·3) = 12/24 = 0.5
        let ps = raw_spam_prob(4, 6, TokenCounts { spam: 2, ham: 3 }).unwrap();
        assert!((ps - 0.5).abs() < 1e-12);
        // NS(w)=3, NH(w)=1: PS = 6·3/(6·3 + 4·1) = 18/22
        let ps = raw_spam_prob(4, 6, TokenCounts { spam: 3, ham: 1 }).unwrap();
        assert!((ps - 18.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_pure_tokens() {
        assert_eq!(
            raw_spam_prob(3, 3, TokenCounts { spam: 2, ham: 0 }).unwrap(),
            1.0
        );
        assert_eq!(
            raw_spam_prob(3, 3, TokenCounts { spam: 0, ham: 2 }).unwrap(),
            0.0
        );
    }

    #[test]
    fn eq1_no_information_is_none() {
        assert!(raw_spam_prob(3, 3, TokenCounts::default()).is_none());
        assert!(raw_spam_prob(0, 0, TokenCounts::default()).is_none());
    }

    #[test]
    fn eq2_unseen_token_gets_prior() {
        let db = db_with(&[&["buy"]], &[&["meet"]]);
        let opts = FilterOptions::default();
        assert_eq!(token_score(&db, "never-seen", &opts), 0.5);
    }

    #[test]
    fn eq2_hand_computed_value() {
        // 3 spam each containing "win", 3 ham without it.
        // PS = 1.0, N(w) = 3, s = 0.45, x = 0.5:
        // f = (0.45·0.5 + 3·1.0)/(0.45+3) = 3.225/3.45 = 0.934782608…
        let db = db_with(&[&["win"], &["win"], &["win"]], &[&["a"], &["b"], &["c"]]);
        let f = token_score(&db, "win", &FilterOptions::default());
        assert!((f - 3.225 / 3.45).abs() < 1e-12, "f = {f}");
    }

    #[test]
    fn eq2_is_convex_combination() {
        // f(w) always lies between x and PS(w).
        let opts = FilterOptions::default();
        for (spam, ham) in [(1u32, 0u32), (0, 1), (5, 2), (2, 5), (1, 1)] {
            let c = TokenCounts { spam, ham };
            let ps = raw_spam_prob(10, 10, c).unwrap();
            let f = token_score_from_counts(10, 10, c, &opts);
            let (lo, hi) = if ps < 0.5 { (ps, 0.5) } else { (0.5, ps) };
            assert!(f >= lo - 1e-12 && f <= hi + 1e-12, "f={f} ps={ps}");
        }
    }

    #[test]
    fn eq2_rare_token_shrinks_toward_prior() {
        let opts = FilterOptions::default();
        // Single spam occurrence: PS = 1 but N = 1 → heavy shrinkage.
        let f1 = token_score_from_counts(100, 100, TokenCounts { spam: 1, ham: 0 }, &opts);
        // 50 spam occurrences: nearly raw.
        let f50 = token_score_from_counts(100, 100, TokenCounts { spam: 50, ham: 0 }, &opts);
        assert!(f1 < f50);
        assert!((f1 - (0.225 + 1.0) / 1.45).abs() < 1e-12);
        assert!(f50 > 0.99);
    }

    #[test]
    fn attack_shifts_scores_upward() {
        // The mechanism of the paper's dictionary attack in miniature:
        // a ham-indicative token gains spam count when attack emails
        // containing it are trained as spam; its score must rise.
        let opts = FilterOptions::default();
        let before = token_score_from_counts(5, 5, TokenCounts { spam: 0, ham: 3 }, &opts);
        // 5 attack emails, all containing the token, trained as spam.
        let after = token_score_from_counts(10, 5, TokenCounts { spam: 5, ham: 3 }, &opts);
        assert!(before < 0.1, "before = {before}");
        assert!(after > 0.4, "after = {after}");
    }
}
