//! The periodic-retraining pipeline of §2.1–§2.2.
//!
//! The paper's threat model assumes an organization that "retrains
//! SpamBayes periodically (e.g., weekly)" on received mail, with the
//! attacker's mail arriving alongside legitimate traffic (the contamination
//! assumption). This module implements that loop so attacks and defenses
//! can be evaluated *longitudinally* rather than on a single poisoned
//! snapshot:
//!
//! * each epoch, a batch of arriving messages (ham + spam + attack) is
//!   labeled (ground truth for legitimate mail; attack mail is genuinely
//!   spam, so it is labeled spam — §2.2) and appended to the training pool;
//! * an optional [`ScreeningPolicy`] (e.g. RONI) can veto messages before
//!   they are trained;
//! * the filter is retrained from the surviving pool each epoch, and
//!   held-out performance is recorded.
//!
//! Substrate notes: every message is tokenized and interned **once** on
//! arrival — the pool stores `Arc<Vec<TokenId>>`, so the per-epoch
//! retrain is a pure id-counting loop and held-out probes are classified
//! through the parallel batch API. Screening goes through
//! [`ScreeningPolicy::admit_batch`], so the RONI screen measures an
//! epoch's spam arrivals in one parallel sweep (read-only against the
//! shared trial tables — nothing is cloned or retrained).
//! Pre-intern recurring probe sets with
//! [`RetrainingPipeline::intern_probes`] to avoid re-tokenizing them
//! every epoch.

use crate::roni::RoniDefense;
use sb_email::{Email, Label};
use sb_filter::{SpamBayes, Verdict};
use sb_intern::TokenId;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Decides whether an arriving message may enter the training pool.
///
/// Policies receive the message's interned token set — the same ids the
/// pipeline will train with — so screening never re-tokenizes.
pub trait ScreeningPolicy {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// `true` to admit the message (given its interned token set and
    /// training label).
    fn admit(&mut self, token_ids: &[TokenId], label: Label) -> bool;

    /// Admission decisions for a whole epoch of arrivals, one per item in
    /// order. The default preserves the sequential one-by-one semantics;
    /// policies whose decisions are independent across candidates (RONI:
    /// the trial splits are fixed at construction) override this to
    /// screen the batch in parallel.
    fn admit_batch(&mut self, items: &[(Arc<Vec<TokenId>>, Label)]) -> Vec<bool> {
        items
            .iter()
            .map(|(ids, label)| self.admit(ids, *label))
            .collect()
    }
}

/// Admit everything (the undefended baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl ScreeningPolicy for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }

    fn admit(&mut self, _token_ids: &[TokenId], _label: Label) -> bool {
        true
    }
}

/// Screen spam-labeled messages through RONI (§5.1). Ham-labeled messages
/// are admitted unconditionally — the paper's attack mail is always
/// spam-labeled, and RONI's statistic is calibrated for that direction.
pub struct RoniScreen {
    roni: RoniDefense,
}

impl RoniScreen {
    /// Wrap a prepared RONI evaluator.
    pub fn new(roni: RoniDefense) -> Self {
        Self { roni }
    }
}

impl ScreeningPolicy for RoniScreen {
    fn name(&self) -> &'static str {
        "roni"
    }

    fn admit(&mut self, token_ids: &[TokenId], label: Label) -> bool {
        match label {
            Label::Ham => true,
            Label::Spam => !self.roni.measure_ids(token_ids).rejected,
        }
    }

    /// Screen the spam-labeled arrivals of an epoch in one parallel
    /// sweep (`RoniDefense::measure_ids_batch`): candidate measurement is
    /// read-only, so workers share the trial tables across the batch.
    fn admit_batch(&mut self, items: &[(Arc<Vec<TokenId>>, Label)]) -> Vec<bool> {
        let mut admit = vec![true; items.len()];
        let spam_idx: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, (_, label))| *label == Label::Spam)
            .map(|(i, _)| i)
            .collect();
        let candidates: Vec<Arc<Vec<TokenId>>> = spam_idx
            .iter()
            .map(|&i| Arc::clone(&items[i].0))
            .collect();
        for (k, m) in self.roni.measure_ids_batch(&candidates).into_iter().enumerate() {
            admit[spam_idx[k]] = !m.rejected;
        }
        admit
    }
}

/// Performance snapshot after one epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0 = after first retraining).
    pub epoch: usize,
    /// Messages admitted to the pool this epoch.
    pub admitted: usize,
    /// Messages vetoed by the screening policy this epoch.
    pub vetoed: usize,
    /// Held-out ham delivered correctly.
    pub ham_ok: usize,
    /// Held-out ham lost (unsure or spam).
    pub ham_lost: usize,
    /// Held-out spam caught.
    pub spam_ok: usize,
    /// Size of the held-out probe set per class.
    pub probe_size: usize,
}

impl EpochReport {
    /// Fraction of held-out ham lost.
    pub fn ham_loss_rate(&self) -> f64 {
        if self.probe_size == 0 {
            0.0
        } else {
            self.ham_lost as f64 / self.probe_size as f64
        }
    }
}

/// The retraining loop.
pub struct RetrainingPipeline<P: ScreeningPolicy> {
    tokenizer: Tokenizer,
    pool: Vec<(Arc<Vec<TokenId>>, Label)>,
    policy: P,
    filter: SpamBayes,
    epoch: usize,
}

impl<P: ScreeningPolicy> RetrainingPipeline<P> {
    /// Start from an initial (trusted) pool and a screening policy.
    pub fn new(initial_pool: &[(Email, Label)], policy: P) -> Self {
        let tokenizer = Tokenizer::new();
        let interner = sb_intern::Interner::global();
        let pool: Vec<(Arc<Vec<TokenId>>, Label)> = initial_pool
            .iter()
            .map(|(e, l)| (Arc::new(tokenizer.intern_ids(e, &interner)), *l))
            .collect();
        let mut pipeline = Self {
            tokenizer,
            pool,
            policy,
            filter: SpamBayes::new(),
            epoch: 0,
        };
        pipeline.retrain();
        pipeline
    }

    /// The current filter.
    pub fn filter(&self) -> &SpamBayes {
        &self.filter
    }

    /// Current training-pool size.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Tokenize + intern a probe set once, for reuse across epochs
    /// (never re-tokenize recurring held-out traffic).
    pub fn intern_probes(&self, probes: &[Email]) -> Vec<Arc<Vec<TokenId>>> {
        let interner = self.filter.interner().clone();
        probes
            .iter()
            .map(|e| Arc::new(self.tokenizer.intern_ids(e, &interner)))
            .collect()
    }

    fn retrain(&mut self) {
        let mut filter = SpamBayes::new();
        for (ids, label) in &self.pool {
            filter.train_ids(ids, *label, 1);
        }
        self.filter = filter;
    }

    /// Ingest one epoch of arriving mail given as emails (tokenizes +
    /// interns each arrival once, then defers to
    /// [`RetrainingPipeline::run_epoch_interned`]).
    pub fn run_epoch(
        &mut self,
        arrivals: &[(Email, Label)],
        probe_ham: &[Email],
        probe_spam: &[Email],
    ) -> EpochReport {
        let interner = self.filter.interner().clone();
        let arrivals_ids: Vec<(Arc<Vec<TokenId>>, Label)> = arrivals
            .iter()
            .map(|(e, l)| (Arc::new(self.tokenizer.intern_ids(e, &interner)), *l))
            .collect();
        let probe_ham_ids = self.intern_probes(probe_ham);
        let probe_spam_ids = self.intern_probes(probe_spam);
        self.run_epoch_interned(&arrivals_ids, &probe_ham_ids, &probe_spam_ids)
    }

    /// Ingest one epoch of pre-interned arrivals (already labeled — the
    /// paper's §2.2 argument: attack mail genuinely is spam, so any
    /// labeling process marks it spam), retrain, and probe on held-out
    /// traffic through the parallel batch classifier.
    pub fn run_epoch_interned(
        &mut self,
        arrivals: &[(Arc<Vec<TokenId>>, Label)],
        probe_ham: &[Arc<Vec<TokenId>>],
        probe_spam: &[Arc<Vec<TokenId>>],
    ) -> EpochReport {
        let mut admitted = 0;
        let mut vetoed = 0;
        let admits = self.policy.admit_batch(arrivals);
        for ((ids, label), ok) in arrivals.iter().zip(admits) {
            if ok {
                self.pool.push((Arc::clone(ids), *label));
                admitted += 1;
            } else {
                vetoed += 1;
            }
        }
        self.retrain();

        let ham_verdicts = self.filter.classify_ids_batch(probe_ham);
        let ham_ok = ham_verdicts
            .iter()
            .filter(|s| s.verdict == Verdict::Ham)
            .count();
        let ham_lost = probe_ham.len() - ham_ok;
        let spam_ok = self
            .filter
            .classify_ids_batch(probe_spam)
            .iter()
            .filter(|s| s.verdict == Verdict::Spam)
            .count();

        let report = EpochReport {
            epoch: self.epoch,
            admitted,
            vetoed,
            ham_ok,
            ham_lost,
            spam_ok,
            probe_size: probe_ham.len(),
        };
        self.epoch += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackGenerator;
    use crate::dictionary::{DictionaryAttack, DictionaryKind};
    use crate::roni::RoniConfig;
    use sb_corpus::{CorpusConfig, TrecCorpus};
    use sb_filter::FilterOptions;
    use sb_stats::rng::Xoshiro256pp;

    type World = (TrecCorpus, Vec<(Email, Label)>, Vec<Email>, Vec<Email>);

    fn world() -> World {
        let corpus = TrecCorpus::generate(&CorpusConfig::with_size(300, 0.5), 4242);
        let initial: Vec<(Email, Label)> = corpus
            .emails()
            .iter()
            .map(|m| (m.email.clone(), m.label))
            .collect();
        let probe_ham: Vec<Email> = (500..530).map(|k| corpus.fresh_ham(k)).collect();
        let probe_spam: Vec<Email> = (500..530).map(|k| corpus.fresh_spam(k)).collect();
        (corpus, initial, probe_ham, probe_spam)
    }

    /// One epoch of mixed traffic: `n_benign` fresh ham+spam pairs plus
    /// `n_attack` dictionary-attack emails.
    fn epoch_traffic(
        corpus: &TrecCorpus,
        offset: u64,
        n_benign: u64,
        n_attack: u32,
    ) -> Vec<(Email, Label)> {
        let mut arrivals: Vec<(Email, Label)> = Vec::new();
        for k in 0..n_benign {
            arrivals.push((corpus.fresh_ham(1000 + offset + k), Label::Ham));
            arrivals.push((corpus.fresh_spam(1000 + offset + k), Label::Spam));
        }
        if n_attack > 0 {
            let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(90_000));
            let batch = attack.generate(n_attack, &mut Xoshiro256pp::new(offset));
            for e in batch.materialize() {
                // Attack mail is genuinely spam: labeled spam (§2.2).
                arrivals.push((e, Label::Spam));
            }
        }
        arrivals
    }

    #[test]
    fn undefended_pipeline_degrades_over_epochs() {
        let (corpus, initial, probe_ham, probe_spam) = world();
        let mut pipeline = RetrainingPipeline::new(&initial, AdmitAll);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for epoch in 0..3u64 {
            let arrivals = epoch_traffic(&corpus, epoch * 50, 10, 5);
            let report = pipeline.run_epoch(&arrivals, &probe_ham, &probe_spam);
            assert_eq!(report.vetoed, 0);
            if first_loss.is_none() {
                first_loss = Some(report.ham_loss_rate());
            }
            last_loss = report.ham_loss_rate();
        }
        // Repeated attack epochs accumulate: ham delivery collapses.
        assert!(
            last_loss > 0.8,
            "pipeline should be poisoned after 3 attack epochs: {last_loss}"
        );
    }

    #[test]
    fn roni_screened_pipeline_survives() {
        let (corpus, initial, probe_ham, probe_spam) = world();
        let roni = RoniDefense::new(
            RoniConfig::default(),
            corpus.dataset(),
            FilterOptions::default(),
            &mut Xoshiro256pp::new(1),
        );
        let mut pipeline = RetrainingPipeline::new(&initial, RoniScreen::new(roni));
        // Pre-intern the recurring probes once, as a production pipeline
        // would.
        let probe_ham_ids = pipeline.intern_probes(&probe_ham);
        let probe_spam_ids = pipeline.intern_probes(&probe_spam);
        let interner = pipeline.filter().interner().clone();
        let tokenizer = Tokenizer::new();
        let mut last = None;
        for epoch in 0..3u64 {
            let arrivals: Vec<(Arc<Vec<TokenId>>, Label)> =
                epoch_traffic(&corpus, epoch * 50, 10, 5)
                    .iter()
                    .map(|(e, l)| (Arc::new(tokenizer.intern_ids(e, &interner)), *l))
                    .collect();
            let report =
                pipeline.run_epoch_interned(&arrivals, &probe_ham_ids, &probe_spam_ids);
            // Every attack email is vetoed each epoch.
            assert!(report.vetoed >= 5, "epoch {epoch}: vetoed {}", report.vetoed);
            last = Some(report);
        }
        let last = last.unwrap();
        assert!(
            last.ham_loss_rate() < 0.2,
            "screened pipeline lost {} of ham",
            last.ham_loss_rate()
        );
        // Spam still gets caught (the screen keeps benign spam training).
        assert!(last.spam_ok as f64 / 30.0 > 0.8);
    }

    #[test]
    fn clean_traffic_keeps_baseline_quality() {
        let (corpus, initial, probe_ham, probe_spam) = world();
        let mut pipeline = RetrainingPipeline::new(&initial, AdmitAll);
        let arrivals = epoch_traffic(&corpus, 0, 20, 0);
        let before_pool = pipeline.pool_size();
        let report = pipeline.run_epoch(&arrivals, &probe_ham, &probe_spam);
        assert_eq!(pipeline.pool_size(), before_pool + 40);
        assert!(report.ham_loss_rate() < 0.1, "loss {}", report.ham_loss_rate());
        assert_eq!(report.admitted, 40);
    }
}
