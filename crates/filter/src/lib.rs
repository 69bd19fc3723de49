//! # sb-filter — the SpamBayes learner
//!
//! A faithful reimplementation of the statistical core the paper attacks
//! (§2.3): Robinson's smoothed token spam scores combined with Fisher's
//! method, thresholded into **ham / unsure / spam**.
//!
//! | Paper | Here |
//! |---|---|
//! | Eq. 1 `PS(w)` | [`score::raw_spam_prob`] |
//! | Eq. 2 `f(w)` (s = 0.45, x = 0.5) | [`score::token_score`] |
//! | δ(E) (≤150 tokens, outside \[0.4, 0.6\]) | [`classify::select_delta_ids`] |
//! | Eq. 3–4 `I(E)` via χ²₂ₙ | [`classify::fisher_combine`] |
//! | θ0 = 0.15, θ1 = 0.9 | [`FilterOptions`] / [`classify::verdict_for`] |
//!
//! Design notes:
//!
//! * **Set semantics** — a token counts once per message; the database
//!   ([`TokenDb`]) stores message-level presence counts `NS(w)`, `NH(w)`.
//! * **Exact untraining** — [`TokenDb::untrain`] reverses training
//!   message-by-message; the RONI defense (§5.1) depends on cheap
//!   with/without comparisons. Property-tested as an exact inverse.
//! * **Multiplicity training** — `train_many(set, label, k)` trains `k`
//!   identical messages in `O(|set|)`; dictionary attacks (§3.2) produce
//!   exactly such batches.
//! * **Determinism** — δ(E) ordering uses an explicit total order (evidence
//!   strength, then token string), so classification never depends on hash
//!   iteration order *or interning order*.
//! * **Interned substrate** — [`TokenDb`] is keyed by `sb_intern::TokenId`
//!   (dense `Vec<TokenCounts>`) with a generation-stamped `f(w)`/`ln`
//!   score cache ([`memo`]); the string APIs are thin interning wrappers,
//!   and the ID paths ([`SpamBayes::classify_ids`],
//!   [`SpamBayes::classify_ids_batch`]) are property-tested bit-identical
//!   to a string-keyed reference scorer.
//! * **Generic scoring** — ID scoring is generic over [`ScoreDb`], so the
//!   trained database and sb-serve's packed images and tenant stacks share
//!   one δ(E) selection and Fisher combine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod classifier;
pub mod db;
pub mod image;
pub mod memo;
pub mod options;
pub mod persist;
pub mod score;

pub use classify::{
    fisher_combine, score_token_ids, score_token_ids_with_clues, select_delta_ids, verdict_for,
    Clue, Scored, Verdict,
};
pub use classifier::SpamBayes;
pub use db::{ln_pair, CachedScore, ScoreDb, TokenCounts, TokenDb, UntrainError};
pub use image::{ImageError, ImageView};
pub use memo::ScoreMemo;
pub use options::FilterOptions;
pub use sb_intern::{Interner, TokenId};
