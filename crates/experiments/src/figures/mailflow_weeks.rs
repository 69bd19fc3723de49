//! Extension experiment: the §2.1 deployment story on the wire.
//!
//! Everything else in the evaluation trains filters through an API; this
//! experiment runs the paper's actual threat model end to end — an
//! organization whose SMTP server feeds both the mailboxes *and* the
//! weekly retraining pool, with the dictionary campaign arriving as
//! ordinary mail. Four scenarios share one traffic schedule:
//!
//! * **clean** — no attack: the healthy baseline;
//! * **undefended** — the campaign runs, the organization trains on
//!   everything (the paper's victim);
//! * **roni** — the campaign runs, RONI screens the pool at each retrain;
//! * **threshold** — the campaign runs, thresholds recalibrate at each
//!   retrain.
//!
//! The time axis makes the contamination dynamic visible: week 1 is always
//! healthy (the attack sits in the pool, not the filter); the undefended
//! filter detonates at the week-1 retrain boundary and stays useless.
//!
//! Two second-order effects the timeline surfaces, worth knowing when
//! reading the numbers: (1) in attack weeks the *spam-caught* rate dips
//! below the clean baseline even before the retrain, because the
//! dictionary attack emails are themselves spam that the current filter
//! has never seen (mostly-unknown tokens → unsure); (2) under RONI the
//! dip persists — screening keeps attack mail out of training, so the
//! filter never learns to catch it either. Protecting ham costs the
//! organization unsure-folder churn on the attack mail itself.

use crate::config::MailflowConfig;
use sb_core::{DictionaryAttack, DictionaryKind};
use sb_corpus::CorpusConfig;
use sb_mailflow::{
    AttackPlan, DefensePolicy, FaultConfig, MailOrg, OrgConfig, OrgReport, TrafficMix,
};
use serde::{Deserialize, Serialize};

/// The four scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// No attack, no defense.
    Clean,
    /// Attack, no defense.
    Undefended,
    /// Attack, RONI screening at retrain time.
    Roni,
    /// Attack, dynamic-threshold recalibration at retrain time.
    Threshold,
}

impl Scenario {
    /// All scenarios in display order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Clean,
        Scenario::Undefended,
        Scenario::Roni,
        Scenario::Threshold,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Undefended => "undefended",
            Scenario::Roni => "roni",
            Scenario::Threshold => "threshold-.10",
        }
    }
}

/// Output: one full [`OrgReport`] per scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MailflowResult {
    /// Configuration used.
    pub config: MailflowConfig,
    /// (scenario, report) pairs in [`Scenario::ALL`] order.
    pub reports: Vec<(Scenario, OrgReport)>,
}

impl MailflowResult {
    /// The report for one scenario.
    pub fn report(&self, s: Scenario) -> &OrgReport {
        &self
            .reports
            .iter()
            .find(|(sc, _)| *sc == s)
            .expect("all scenarios present")
            .1
    }
}

fn org_config(cfg: &MailflowConfig, scenario: Scenario) -> OrgConfig {
    let attacks = match scenario {
        Scenario::Clean => Vec::new(),
        _ => vec![AttackPlan::new(
            cfg.attack_start_day,
            cfg.attack_per_day,
            Box::new(DictionaryAttack::new(DictionaryKind::UsenetTop(cfg.usenet_k))),
        )],
    };
    let defense = match scenario {
        Scenario::Roni => DefensePolicy::Roni,
        Scenario::Threshold => DefensePolicy::DynamicThreshold { strict: false },
        _ => DefensePolicy::None,
    };
    OrgConfig {
        users: (0..cfg.users).map(|i| format!("user{i}@corp.example")).collect(),
        days: cfg.days,
        retrain_every: cfg.retrain_every,
        traffic: TrafficMix {
            ham_per_day: cfg.ham_per_day,
            spam_per_day: cfg.spam_per_day,
        },
        user_traffic: Vec::new(),
        faults: FaultConfig {
            drop_chance: cfg.fault_chance,
            corrupt_chance: cfg.fault_chance,
        },
        defense,
        bootstrap_size: cfg.bootstrap_size,
        corpus: CorpusConfig::with_size(cfg.bootstrap_size, 0.5),
        attacks,
        // Sharding is a pure parallelism knob: reports are bit-identical
        // for every shard count, so scenarios stay comparable whatever the
        // host's worker budget.
        shards: cfg.shards,
        fault_plan: sb_mailflow::FaultPlan::default(),
        // Same seed across scenarios: identical traffic, so differences are
        // attributable to the attack/defense alone.
        seed: cfg.seed,
    }
}

/// Run all four scenarios.
pub fn run(cfg: &MailflowConfig) -> MailflowResult {
    let reports = Scenario::ALL
        .iter()
        .map(|&s| (s, MailOrg::new(org_config(cfg, s)).run()))
        .collect();
    MailflowResult {
        config: cfg.clone(),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> MailflowResult {
        run(&MailflowConfig::quick(81))
    }

    #[test]
    fn detonation_timeline() {
        let res = result();
        let clean = res.report(Scenario::Clean);
        let hit = res.report(Scenario::Undefended);
        // Week 1 similar (the attack is in the pool, not the filter).
        assert!(
            (hit.weeks[0].ham_misrouted - clean.weeks[0].ham_misrouted).abs() < 0.15,
            "week 1 should predate the detonation: {} vs {}",
            hit.weeks[0].ham_misrouted,
            clean.weeks[0].ham_misrouted
        );
        // Week 2: the poisoned retrain shows.
        assert!(
            hit.weeks[1].ham_misrouted > clean.weeks[1].ham_misrouted + 0.2,
            "no detonation: {} vs {}",
            hit.weeks[1].ham_misrouted,
            clean.weeks[1].ham_misrouted
        );
    }

    #[test]
    fn roni_scenario_stays_usable() {
        let res = result();
        let hit = res.report(Scenario::Undefended);
        let roni = res.report(Scenario::Roni);
        assert!(
            roni.worst_week_ham_misrouted() < hit.worst_week_ham_misrouted(),
            "RONI did not help: {} vs {}",
            roni.worst_week_ham_misrouted(),
            hit.worst_week_ham_misrouted()
        );
        assert!(
            roni.weeks.iter().any(|w| w.screened_out > 0),
            "RONI never screened anything"
        );
    }

    #[test]
    fn threshold_scenario_keeps_the_filter_usable() {
        let res = result();
        let hit = res.report(Scenario::Undefended);
        let thr = res.report(Scenario::Threshold);
        // The §5.2 claims on the weekly timeline: under the defense, ham
        // stays out of the spam folder (near-zero ham-as-spam)…
        let worst_thr_spam = thr.weeks.iter().map(|w| w.ham_as_spam).fold(0.0, f64::max);
        assert!(
            worst_thr_spam < 0.05,
            "defended ham-as-spam too high: {worst_thr_spam}"
        );
        // …and overall misrouting improves on the undefended detonation.
        // (Comparing misrouted, not ham-as-spam: at small scale the
        // undefended attack parks ham in *unsure*, so its ham-as-spam can
        // be near zero while the filter is thoroughly useless.)
        assert!(
            thr.worst_week_ham_misrouted() < hit.worst_week_ham_misrouted(),
            "threshold did not reduce misrouting: {} vs {}",
            thr.worst_week_ham_misrouted(),
            hit.worst_week_ham_misrouted()
        );
    }
}
