//! A SpamAssassin-flavoured pair of filters: the **Bayes component** in
//! isolation, and the **full rule engine** that uses the learner "only as
//! one component of a broader filtering strategy" (the paper's §1 caveat).
//!
//! ## [`SaBayes`] — the Bayes component
//!
//! SpamAssassin 3.x's Bayes subsystem is the same Robinson × chi-square
//! construction the paper attacks, with its own constants and tokenizer:
//! case-preserving tokens up to 15 characters, header-prefixed tokens, and
//! a 0.538 unknown-token probability with a weak 0.1 prior strength. Its
//! verdict surface is the `BAYES_XX` bucket ladder rather than two cutoffs;
//! for the shared tri-state [`Verdict`] scale we map buckets ≥ `BAYES_95`
//! to spam and ≤ `BAYES_05` to ham (documented approximation).
//!
//! ## [`SaFull`] — the broader filtering strategy
//!
//! The full engine sums **static rule points** (invariant to training-set
//! poisoning) with the Bayes bucket's points and compares against
//! `required_score` = 5.0. The static rules here are a representative
//! subset of the stock ruleset's spam indicators (drug spam vocabulary,
//! shouting subjects, raw-IP URLs, …) with scores in the stock range.
//!
//! The attack-relevant consequence, which the transfer experiment verifies:
//! even a fully poisoned Bayes state contributes at most
//! `BAYES_99 + BAYES_999` = **3.7 points** — short of the 5.0 needed — so
//! legitimate mail with no static rule hits *survives* a dictionary attack
//! that renders every pure learner in the zoo unusable. Poisoning degrades
//! SaFull from "ham" to "closer to the line", not to "filtered".

use crate::StatFilter;
use sb_email::{Email, Label};
use sb_filter::classify::{email_ids, score_token_ids};
use sb_filter::{FilterOptions, Scored, TokenDb, TokenId, Verdict};
use sb_tokenizer::{Tokenizer, TokenizerOptions};
use serde::{Deserialize, Serialize};

/// Constants of the SpamAssassin-flavoured Bayes component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaOptions {
    /// Unknown-token probability (`bayes x`; stock 0.538).
    pub unknown_prob: f64,
    /// Prior strength (stock 0.1 — weak, like bogofilter).
    pub prior_strength: f64,
    /// Tokens within this distance of 0.5 are ignored.
    pub min_prob_strength: f64,
    /// Maximum clues combined (stock `bayes` uses 150, like SpamBayes).
    pub max_clues: usize,
    /// Points a message needs to be marked spam by the full engine
    /// (stock `required_score`).
    pub required_score: f64,
    /// Width of the "marginal" band below `required_score` that the full
    /// engine reports as unsure on the tri-state scale (our mapping knob,
    /// not a stock option; stock SA is binary).
    pub marginal_band: f64,
}

impl Default for SaOptions {
    fn default() -> Self {
        Self {
            unknown_prob: 0.538,
            prior_strength: 0.1,
            min_prob_strength: 0.1,
            max_clues: 150,
            required_score: 5.0,
            marginal_band: 1.0,
        }
    }
}

impl SaOptions {
    /// Engine options for the shared Robinson/Fisher core. The Bayes
    /// component's own ham/spam cutoffs on the `[0,1]` scale correspond to
    /// the `BAYES_05` / `BAYES_95` bucket edges.
    pub fn to_filter_options(self) -> FilterOptions {
        FilterOptions {
            unknown_word_strength: self.prior_strength,
            unknown_word_prob: self.unknown_prob,
            minimum_prob_strength: self.min_prob_strength,
            max_discriminators: self.max_clues,
            ham_cutoff: 0.05,
            spam_cutoff: 0.95,
        }
    }
}

/// The SA-flavoured tokenizer profile: case kept, 15-char limit, no skip
/// tokens, headers mined.
fn sa_tokenizer() -> Tokenizer {
    Tokenizer::with_options(TokenizerOptions {
        max_word_size: 15,
        generate_long_skips: false,
        lowercase: false,
        ..TokenizerOptions::default()
    })
}

/// The Bayes component in isolation.
#[derive(Debug, Clone)]
pub struct SaBayes {
    db: TokenDb,
    opts: SaOptions,
    filter_opts: FilterOptions,
    tokenizer: Tokenizer,
}

impl Default for SaBayes {
    fn default() -> Self {
        Self::new()
    }
}

impl SaBayes {
    /// A fresh Bayes component with stock-flavoured constants.
    pub fn new() -> Self {
        Self::with_options(SaOptions::default())
    }

    /// Explicit constants.
    pub fn with_options(opts: SaOptions) -> Self {
        let filter_opts = opts.to_filter_options();
        filter_opts
            .validate()
            .expect("SaOptions must translate to valid engine options");
        Self {
            db: TokenDb::new(),
            opts,
            filter_opts,
            tokenizer: sa_tokenizer(),
        }
    }

    /// The constants in use.
    pub fn options(&self) -> &SaOptions {
        &self.opts
    }

    /// The `BAYES_XX` bucket for a Bayes probability, and its stock score
    /// contribution in points (SA 3.3 scoreset 3 values).
    pub fn bayes_bucket(p: f64) -> (&'static str, f64) {
        debug_assert!((0.0..=1.0).contains(&p));
        match p {
            p if p < 0.01 => ("BAYES_00", -1.9),
            p if p < 0.05 => ("BAYES_05", -0.5),
            p if p < 0.20 => ("BAYES_20", 0.0),
            p if p < 0.40 => ("BAYES_40", 0.0),
            p if p < 0.60 => ("BAYES_50", 0.8),
            p if p < 0.80 => ("BAYES_60", 1.5),
            p if p < 0.95 => ("BAYES_80", 2.0),
            p if p < 0.99 => ("BAYES_95", 3.0),
            p if p < 0.999 => ("BAYES_99", 3.5),
            // BAYES_999 stacks +0.2 on top of BAYES_99 in the stock rules.
            _ => ("BAYES_999", 3.7),
        }
    }

    fn token_ids(&self, email: &Email) -> Vec<TokenId> {
        self.tokenizer.intern_ids(email, self.db.interner())
    }
}

impl StatFilter for SaBayes {
    fn name(&self) -> &'static str {
        "sa-bayes"
    }

    fn train(&mut self, email: &Email, label: Label) {
        let ids = self.token_ids(email);
        self.db.train_ids(&ids, label);
    }

    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        let ids = self.token_ids(email);
        self.db.train_ids_many(&ids, label, n);
    }

    fn classify(&self, email: &Email) -> Scored {
        let ids = email_ids(
            &self.tokenizer,
            email,
            self.db.interner(),
            &self.filter_opts,
        );
        score_token_ids(&ids, &self.db, &self.filter_opts)
    }

    fn training_counts(&self) -> (u32, u32) {
        (self.db.n_spam(), self.db.n_ham())
    }
}

/// One static heuristic rule of the [`SaFull`] engine.
///
/// A representative subset of the stock ruleset: enough shapes (subject,
/// body vocabulary, URL, formatting) to exercise the "broader strategy"
/// behaviour without shipping thousands of regexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StaticRule {
    /// Subject is (almost) all capitals.
    SubjAllCaps,
    /// Three or more exclamation marks in the subject or body.
    ManyExclaims,
    /// Pharmaceutical spam vocabulary in the body.
    DrugVocab,
    /// "free" plus a money/offer word.
    FreeOffer,
    /// "click here" / "click below" call to action.
    ClickHere,
    /// URL with a raw IP address host.
    UrlRawIp,
    /// Currency amounts with many digits (advance-fee shapes).
    BigMoney,
    /// Lottery / prize vocabulary.
    Lottery,
}

impl StaticRule {
    /// Every rule, in evaluation order.
    pub const ALL: [StaticRule; 8] = [
        StaticRule::SubjAllCaps,
        StaticRule::ManyExclaims,
        StaticRule::DrugVocab,
        StaticRule::FreeOffer,
        StaticRule::ClickHere,
        StaticRule::UrlRawIp,
        StaticRule::BigMoney,
        StaticRule::Lottery,
    ];

    /// Stock-flavoured rule name.
    pub fn name(self) -> &'static str {
        match self {
            StaticRule::SubjAllCaps => "SUBJ_ALL_CAPS",
            StaticRule::ManyExclaims => "PLING_PLING",
            StaticRule::DrugVocab => "DRUGS_ERECTILE",
            StaticRule::FreeOffer => "FREE_OFFER",
            StaticRule::ClickHere => "CLICK_BELOW",
            StaticRule::UrlRawIp => "NUMERIC_HTTP_ADDR",
            StaticRule::BigMoney => "ADVANCE_FEE",
            StaticRule::Lottery => "LOTTERY_SCAM",
        }
    }

    /// Points contributed on a hit (stock-range values).
    pub fn points(self) -> f64 {
        match self {
            StaticRule::SubjAllCaps => 1.5,
            StaticRule::ManyExclaims => 1.2,
            StaticRule::DrugVocab => 2.5,
            StaticRule::FreeOffer => 1.0,
            StaticRule::ClickHere => 1.0,
            StaticRule::UrlRawIp => 2.0,
            StaticRule::BigMoney => 1.0,
            StaticRule::Lottery => 2.0,
        }
    }

    /// Evaluate the rule against a message.
    pub fn matches(self, email: &Email) -> bool {
        let subject = email.subject().unwrap_or("");
        let body = email.body();
        match self {
            StaticRule::SubjAllCaps => {
                let letters: Vec<char> = subject.chars().filter(|c| c.is_alphabetic()).collect();
                letters.len() >= 6 && letters.iter().all(|c| c.is_uppercase())
            }
            StaticRule::ManyExclaims => {
                subject.matches('!').count() + body.matches('!').count() >= 3
            }
            StaticRule::DrugVocab => {
                let lower = body.to_lowercase();
                ["viagra", "cialis", "pills", "pharmacy", "prescription"]
                    .iter()
                    .any(|w| lower.contains(w))
            }
            StaticRule::FreeOffer => {
                let lower = body.to_lowercase();
                lower.contains("free")
                    && ["offer", "money", "gift", "trial"].iter().any(|w| lower.contains(w))
            }
            StaticRule::ClickHere => {
                let lower = body.to_lowercase();
                lower.contains("click here") || lower.contains("click below")
            }
            StaticRule::UrlRawIp => {
                // http://<digits>.<digits>... — a raw-IP host.
                body.split("http://").skip(1).any(|rest| {
                    let host: String = rest.chars().take_while(|c| !"/ \n\t".contains(*c)).collect();
                    let parts: Vec<&str> = host.split('.').collect();
                    parts.len() == 4 && parts.iter().all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
                })
            }
            StaticRule::BigMoney => body
                .split(['$', '£'])
                .skip(1)
                .any(|rest| rest.chars().take_while(|c| c.is_ascii_digit() || *c == ',').filter(|c| c.is_ascii_digit()).count() >= 5),
            StaticRule::Lottery => {
                let lower = body.to_lowercase();
                ["lottery", "jackpot", "you have won", "prize claim"]
                    .iter()
                    .any(|w| lower.contains(w))
            }
        }
    }
}

/// One rule hit in a [`SaFull`] report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleHit {
    /// Rule name (`SUBJ_ALL_CAPS`, `BAYES_99`, …).
    pub rule: String,
    /// Points contributed.
    pub points: f64,
}

/// The full engine: static rules + the Bayes bucket.
#[derive(Debug, Clone)]
pub struct SaFull {
    bayes: SaBayes,
}

impl Default for SaFull {
    fn default() -> Self {
        Self::new()
    }
}

impl SaFull {
    /// A fresh engine with stock-flavoured constants.
    pub fn new() -> Self {
        Self::with_options(SaOptions::default())
    }

    /// Explicit constants (shared with the embedded Bayes component).
    pub fn with_options(opts: SaOptions) -> Self {
        Self {
            bayes: SaBayes::with_options(opts),
        }
    }

    /// The embedded Bayes component.
    pub fn bayes(&self) -> &SaBayes {
        &self.bayes
    }

    /// Full scoring: every rule hit plus the Bayes bucket, and the total.
    pub fn score_report(&self, email: &Email) -> (Vec<RuleHit>, f64) {
        let mut hits = Vec::new();
        let mut total = 0.0;
        for rule in StaticRule::ALL {
            if rule.matches(email) {
                let points = rule.points();
                total += points;
                hits.push(RuleHit {
                    rule: rule.name().to_owned(),
                    points,
                });
            }
        }
        // The Bayes component only fires once it has seen both classes
        // (stock SA requires a minimum of trained messages before BAYES_*
        // rules activate).
        let (n_spam, n_ham) = self.bayes.training_counts();
        if n_spam > 0 && n_ham > 0 {
            let p = self.bayes.classify(email).score;
            let (bucket, points) = SaBayes::bayes_bucket(p);
            if points != 0.0 {
                total += points;
                hits.push(RuleHit {
                    rule: bucket.to_owned(),
                    points,
                });
            }
        }
        (hits, total)
    }
}

impl StatFilter for SaFull {
    fn name(&self) -> &'static str {
        "sa-full"
    }

    fn train(&mut self, email: &Email, label: Label) {
        self.bayes.train(email, label);
    }

    fn train_many(&mut self, email: &Email, label: Label, n: u32) {
        self.bayes.train_many(email, label, n);
    }

    fn classify(&self, email: &Email) -> Scored {
        let (hits, points) = self.score_report(email);
        let required = self.bayes.options().required_score;
        let marginal = self.bayes.options().marginal_band;
        let verdict = if points >= required {
            Verdict::Spam
        } else if points >= required - marginal {
            Verdict::Unsure
        } else {
            Verdict::Ham
        };
        // Map points onto [0, 1] for the shared scale: required_score ↦ the
        // conventional 0.9 spam cutoff, linear in between, saturating at 1.
        let score = (points.max(0.0) / required * 0.9).min(1.0);
        Scored {
            score,
            verdict,
            n_clues: hits.len(),
        }
    }

    fn training_counts(&self) -> (u32, u32) {
        self.bayes.training_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(b: &str) -> Email {
        Email::builder().body(b).build()
    }

    fn trained_bayes() -> SaBayes {
        let mut f = SaBayes::new();
        for i in 0..20 {
            f.train(&body(&format!("cheap pills offer blast{i}")), Label::Spam);
            f.train(&body(&format!("meeting agenda notes item{i}")), Label::Ham);
        }
        f
    }

    #[test]
    fn bayes_component_classifies() {
        let f = trained_bayes();
        assert_eq!(f.classify(&body("cheap pills offer")).verdict, Verdict::Spam);
        assert_eq!(f.classify(&body("meeting agenda notes")).verdict, Verdict::Ham);
    }

    #[test]
    fn bucket_ladder_is_monotone() {
        let probs = [0.001, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.995, 0.9999];
        let mut last = f64::NEG_INFINITY;
        for p in probs {
            let (_, pts) = SaBayes::bayes_bucket(p);
            assert!(pts >= last, "bucket points not monotone at p = {p}");
            last = pts;
        }
        assert_eq!(SaBayes::bayes_bucket(0.9999), ("BAYES_999", 3.7));
        assert_eq!(SaBayes::bayes_bucket(0.001), ("BAYES_00", -1.9));
    }

    #[test]
    fn static_rules_fire_on_their_shapes() {
        let caps = Email::builder().subject("BUY THIS NOW").body("x").build();
        assert!(StaticRule::SubjAllCaps.matches(&caps));
        assert!(!StaticRule::SubjAllCaps.matches(&body("quiet")));

        assert!(StaticRule::ManyExclaims.matches(&body("wow!!! amazing")));
        assert!(StaticRule::DrugVocab.matches(&body("generic VIAGRA here")));
        assert!(StaticRule::FreeOffer.matches(&body("free trial offer")));
        assert!(StaticRule::ClickHere.matches(&body("please Click Here now")));
        assert!(StaticRule::UrlRawIp.matches(&body("visit http://10.1.2.3/buy")));
        assert!(!StaticRule::UrlRawIp.matches(&body("visit http://example.org/buy")));
        assert!(StaticRule::BigMoney.matches(&body("claim $1,500,000 today")));
        assert!(StaticRule::Lottery.matches(&body("the national lottery board")));
    }

    #[test]
    fn clean_ham_scores_zero_points() {
        let f = SaFull::new();
        let (hits, points) = f.score_report(&body("quarterly budget review attached"));
        assert!(hits.is_empty(), "unexpected hits: {hits:?}");
        assert_eq!(points, 0.0);
    }

    #[test]
    fn bayes_rule_needs_both_classes() {
        let mut f = SaFull::new();
        f.train(&body("cheap pills offer"), Label::Spam);
        // Only spam trained: the BAYES_* rule must not fire.
        let (hits, _) = f.score_report(&body("cheap pills offer"));
        assert!(hits.iter().all(|h| !h.rule.starts_with("BAYES")));
    }

    #[test]
    fn spam_with_rule_hits_crosses_required_score() {
        let mut f = SaFull::new();
        for i in 0..20 {
            f.train(&body(&format!("cheap pills offer blast{i}")), Label::Spam);
            f.train(&body(&format!("meeting agenda notes item{i}")), Label::Ham);
        }
        let spam = Email::builder()
            .subject("WINNER TODAY")
            .body("free offer! click here! cheap pills from http://10.0.0.1/shop")
            .build();
        let s = f.classify(&spam);
        assert_eq!(s.verdict, Verdict::Spam, "score {}", s.score);
    }

    #[test]
    fn poisoned_bayes_alone_cannot_condemn_clean_ham() {
        // The paper's §1 caveat, in miniature: poison the Bayes state so the
        // Bayes probability of ham vocabulary is high, and verify the full
        // engine still delivers a rule-clean ham message. Mid-frequency
        // vocabulary (each word in 5 of 20 ham) — the shape the dictionary
        // attack actually flips.
        let vocab = ["quarterly", "budget", "forecast", "ledger"];
        let mut f = SaFull::new();
        for i in 0..20 {
            let w = vocab[i % 4];
            f.train(&body(&format!("{w} common filler{i}")), Label::Ham);
            f.train(&body(&format!("cheap pills offer blast{i}")), Label::Spam);
        }
        let target = body("quarterly budget forecast ledger");
        assert_eq!(f.classify(&target).verdict, Verdict::Ham);
        // Dictionary attack over the ham vocabulary, trained as spam.
        f.train_many(&target, Label::Spam, 200);
        // The Bayes component alone is thoroughly poisoned…
        let bayes_p = f.bayes().classify(&target).score;
        assert!(bayes_p > 0.8, "bayes not poisoned: {bayes_p}");
        // …but its bucket contributes at most 3.7 < 5.0 points: the full
        // engine must not mark the rule-clean message spam.
        let s = f.classify(&target);
        assert_ne!(s.verdict, Verdict::Spam, "static rules failed to save ham");
    }

    #[test]
    fn full_engine_scored_scale_is_bounded() {
        let f = SaFull::new();
        let wild = Email::builder()
            .subject("FREE MONEY WINNER")
            .body("free offer!!! click here lottery jackpot $1,000,000 viagra http://1.2.3.4/x")
            .build();
        let s = f.classify(&wild);
        assert!(s.score <= 1.0 && s.score >= 0.0);
        assert_eq!(s.verdict, Verdict::Spam);
    }
}
