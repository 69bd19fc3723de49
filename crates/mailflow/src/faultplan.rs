//! Declarative, deterministic fault plans for the organization simulation.
//!
//! A [`FaultPlan`] schedules infrastructure failures over the simulated
//! calendar — pipe-fault windows with per-day ramps, a mailstore node
//! crashing mid-period, a mailbox dropping out of the routing table,
//! injected retrain failures, and model-image corruption at load time.
//! Events are *declarative*: the plan names the day (or retrain week) an
//! event fires and the engine applies it at exactly that point, so a plan
//! replays identically on every run.
//!
//! Determinism across shard counts is the design constraint everywhere:
//!
//! * events are keyed by **day / week / user**, never by shard id (a
//!   shard's user set changes with the shard count, a user's does not);
//! * the randomized behaviour an event gates — wire faults inside a
//!   [`FaultEvent::PipeFaults`] window, redelivery of deferred mail —
//!   draws from the same per-day, per-wire-position [`SeedTree`] streams
//!   the fault-free simulation uses (`day/<d>/pipe/<i>` for first
//!   deliveries, `day/<d>/defer/<orig day>/<orig pos>` for retries), so a
//!   fault fires for the *message*, not for whichever worker carried it;
//! * per-day effective fault rates ([`FaultPlan::faults_on`]) are pure
//!   arithmetic over the plan — every shard computes the identical ramp.
//!
//! [`SeedTree`]: sb_stats::rng::SeedTree
//!
//! The plan also carries the graceful-degradation policy knob: the
//! [`FaultPlan::redelivery_budget`] bounds how many extra days a message
//! that exhausted its SMTP retries re-enters the wire plan before it is
//! declared permanently failed.

use crate::transport::{FaultConfig, FaultError};
use serde::{Deserialize, Serialize};

/// One scheduled infrastructure failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Override the wire fault rates for an inclusive day window, linearly
    /// interpolating from `from` on `start_day` to `to` on `end_day` (a
    /// flat window sets `from == to`).
    PipeFaults {
        /// First day (1-based) the override applies.
        start_day: u32,
        /// Last day (inclusive) the override applies.
        end_day: u32,
        /// Fault rates on `start_day`.
        from: FaultConfig,
        /// Fault rates on `end_day`.
        to: FaultConfig,
    },
    /// The mailstore node hosting `user` crashes on `day`: the user's
    /// fresh pool entries for the period up to and including `day` are
    /// quarantined at the retrain barrier and replayed into the *next*
    /// retrain (the node restores from its journal — mail trains late,
    /// never silently vanishes).
    ShardCrash {
        /// Crash day (1-based).
        day: u32,
        /// Index of the user whose hosting node crashes.
        user: usize,
    },
    /// `user`'s mailbox drops out of the routing table on `day` and is
    /// restored at the next retrain boundary; accepted mail for the user
    /// bounces (never classified, never pooled) for the rest of that
    /// period.
    MailboxLoss {
        /// Loss day (1-based).
        day: u32,
        /// Index of the user whose mailbox is lost.
        user: usize,
    },
    /// The retrain job for `week` dies before admitting anything: the
    /// week's fresh pool is quarantined for replay and the organization
    /// keeps serving its installed filter, the last-good model, instead
    /// of fail-closing.
    RetrainFailure {
        /// Retrain week (1-based).
        week: u32,
    },
    /// The retrain for `week` succeeds (the pool is updated), but the new
    /// model is corrupt at load time: it is never installed, and the
    /// last-good model keeps serving until the next retrain rebuilds from
    /// the (intact) pool.
    ModelCorruption {
        /// Retrain week (1-based).
        week: u32,
    },
}

/// A fault-plan validation error, tagged with the 0-based index of the
/// offending event.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A pipe-fault window carries an out-of-range probability.
    Chance {
        /// 0-based event index.
        event: usize,
        /// The underlying probability-range error.
        source: FaultError,
    },
    /// A pipe-fault window ends before it starts, or starts on day 0.
    BadWindow {
        /// 0-based event index.
        event: usize,
        /// Window start.
        start_day: u32,
        /// Window end.
        end_day: u32,
    },
    /// An event names a day outside `1..=days`.
    DayOutOfRange {
        /// 0-based event index.
        event: usize,
        /// The offending day.
        day: u32,
        /// Days the simulation runs.
        days: u32,
    },
    /// An event names a user the organization does not have.
    UserOutOfRange {
        /// 0-based event index.
        event: usize,
        /// The offending user index.
        user: usize,
        /// Number of users.
        users: usize,
    },
    /// An event names a retrain week outside `1..=weeks`.
    WeekOutOfRange {
        /// 0-based event index.
        event: usize,
        /// The offending week.
        week: u32,
        /// Retrain weeks the simulation has.
        weeks: u32,
    },
}

impl FaultPlanError {
    /// The 0-based index of the event the error points at.
    pub fn event_index(&self) -> usize {
        match self {
            FaultPlanError::Chance { event, .. }
            | FaultPlanError::BadWindow { event, .. }
            | FaultPlanError::DayOutOfRange { event, .. }
            | FaultPlanError::UserOutOfRange { event, .. }
            | FaultPlanError::WeekOutOfRange { event, .. } => *event,
        }
    }
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Chance { event, source } => {
                write!(f, "fault event {event}: {source}")
            }
            FaultPlanError::BadWindow { event, start_day, end_day } => write!(
                f,
                "fault event {event}: bad pipe window {start_day}-{end_day} (need 1 <= start <= end)"
            ),
            FaultPlanError::DayOutOfRange { event, day, days } => write!(
                f,
                "fault event {event}: day {day} outside the simulated 1..={days}"
            ),
            FaultPlanError::UserOutOfRange { event, user, users } => write!(
                f,
                "fault event {event}: user {user} out of range (org has {users} users)"
            ),
            FaultPlanError::WeekOutOfRange { event, week, weeks } => write!(
                f,
                "fault event {event}: retrain week {week} outside 1..={weeks}"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic schedule of infrastructure failures plus the
/// degradation policy the organization runs under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled events (applied by day/week/user as documented on
    /// each [`FaultEvent`]; order is irrelevant except that overlapping
    /// pipe windows resolve last-wins).
    pub events: Vec<FaultEvent>,
    /// How many extra days a message that exhausted its SMTP retries
    /// re-enters the wire plan before it is declared permanently failed.
    /// `0` restores the old drop-on-failure behaviour.
    pub redelivery_budget: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            redelivery_budget: 3,
        }
    }
}

impl FaultPlan {
    /// An empty plan with the default redelivery budget.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan schedules no events (the redelivery budget still
    /// applies to ordinary wire failures).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validate every event against the organization's shape.
    pub fn validate(
        &self,
        users: usize,
        days: u32,
        retrain_every: u32,
    ) -> Result<(), FaultPlanError> {
        let weeks = days.div_ceil(retrain_every.max(1));
        for (i, ev) in self.events.iter().enumerate() {
            match *ev {
                FaultEvent::PipeFaults { start_day, end_day, from, to } => {
                    if start_day == 0 || end_day < start_day {
                        return Err(FaultPlanError::BadWindow { event: i, start_day, end_day });
                    }
                    if end_day > days {
                        return Err(FaultPlanError::DayOutOfRange { event: i, day: end_day, days });
                    }
                    for cfg in [from, to] {
                        cfg.validate()
                            .map_err(|source| FaultPlanError::Chance { event: i, source })?;
                    }
                }
                FaultEvent::ShardCrash { day, user } | FaultEvent::MailboxLoss { day, user } => {
                    if day == 0 || day > days {
                        return Err(FaultPlanError::DayOutOfRange { event: i, day, days });
                    }
                    if user >= users {
                        return Err(FaultPlanError::UserOutOfRange { event: i, user, users });
                    }
                }
                FaultEvent::RetrainFailure { week } | FaultEvent::ModelCorruption { week } => {
                    if week == 0 || week > weeks {
                        return Err(FaultPlanError::WeekOutOfRange { event: i, week, weeks });
                    }
                }
            }
        }
        Ok(())
    }

    /// The effective wire fault rates on `day`: the last pipe window
    /// covering the day wins, linearly interpolated across its span; days
    /// outside every window use `base`. Pure arithmetic, so every shard
    /// derives the identical rates.
    pub fn faults_on(&self, day: u32, base: FaultConfig) -> FaultConfig {
        let mut effective = base;
        for ev in &self.events {
            if let FaultEvent::PipeFaults { start_day, end_day, from, to } = *ev {
                if (start_day..=end_day).contains(&day) {
                    let t = if end_day == start_day {
                        0.0
                    } else {
                        f64::from(day - start_day) / f64::from(end_day - start_day)
                    };
                    effective = FaultConfig {
                        drop_chance: from.drop_chance + (to.drop_chance - from.drop_chance) * t,
                        corrupt_chance: from.corrupt_chance
                            + (to.corrupt_chance - from.corrupt_chance) * t,
                    };
                }
            }
        }
        effective
    }

    /// Whether `user`'s mailbox is out of the routing table on `day`: lost
    /// from its [`FaultEvent::MailboxLoss`] day through the end of that
    /// retrain period (the routing table is rebuilt at the boundary).
    pub fn mailbox_lost(&self, user: usize, day: u32, retrain_every: u32) -> bool {
        self.events.iter().any(|ev| match *ev {
            FaultEvent::MailboxLoss { day: lost, user: u } => {
                u == user && (lost..=period_end(lost, retrain_every)).contains(&day)
            }
            _ => false,
        })
    }

    /// Crash events whose day falls inside `first_day..=last_day`, as
    /// `(user, crash day)` pairs — the quarantine set for that period's
    /// retrain barrier.
    pub fn crashes_in(&self, first_day: u32, last_day: u32) -> Vec<(usize, u32)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::ShardCrash { day, user } if (first_day..=last_day).contains(&day) => {
                    Some((user, day))
                }
                _ => None,
            })
            .collect()
    }

    /// Whether the retrain job for `week` is scheduled to fail.
    pub fn retrain_fails(&self, week: u32) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(*ev, FaultEvent::RetrainFailure { week: w } if w == week))
    }

    /// Whether the model built at `week`'s retrain is corrupt at load
    /// time.
    pub fn model_corrupts(&self, week: u32) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(*ev, FaultEvent::ModelCorruption { week: w } if w == week))
    }
}

/// The last day of the retrain period containing `day` (1-based days,
/// periods of `retrain_every` days).
fn period_end(day: u32, retrain_every: u32) -> u32 {
    let re = retrain_every.max(1);
    ((day - 1) / re + 1) * re
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: u32, end: u32, from: (f64, f64), to: (f64, f64)) -> FaultEvent {
        FaultEvent::PipeFaults {
            start_day: start,
            end_day: end,
            from: FaultConfig { drop_chance: from.0, corrupt_chance: from.1 },
            to: FaultConfig { drop_chance: to.0, corrupt_chance: to.1 },
        }
    }

    #[test]
    fn ramp_interpolates_linearly_and_last_window_wins() {
        let plan = FaultPlan {
            events: vec![
                window(2, 6, (0.0, 0.0), (0.4, 0.2)),
                window(5, 5, (0.99, 0.0), (0.99, 0.0)),
            ],
            ..FaultPlan::default()
        };
        let base = FaultConfig::none();
        assert_eq!(plan.faults_on(1, base), base);
        assert_eq!(plan.faults_on(2, base).drop_chance, 0.0);
        assert_eq!(plan.faults_on(4, base).drop_chance, 0.2);
        assert_eq!(plan.faults_on(6, base).drop_chance, 0.4);
        assert_eq!(plan.faults_on(6, base).corrupt_chance, 0.2);
        // Day 5 is covered by both; the later event overrides.
        assert_eq!(plan.faults_on(5, base).drop_chance, 0.99);
        assert_eq!(plan.faults_on(7, base), base);
    }

    #[test]
    fn mailbox_loss_lasts_until_the_period_boundary() {
        let plan = FaultPlan {
            events: vec![FaultEvent::MailboxLoss { day: 3, user: 1 }],
            ..FaultPlan::default()
        };
        assert!(!plan.mailbox_lost(0, 3, 7), "wrong user never loses");
        assert!(!plan.mailbox_lost(1, 2, 7), "not lost before the event");
        for day in 3..=7 {
            assert!(plan.mailbox_lost(1, day, 7), "lost on day {day}");
        }
        assert!(!plan.mailbox_lost(1, 8, 7), "restored at the retrain boundary");
    }

    #[test]
    fn crash_quarantine_is_scoped_to_the_period() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::ShardCrash { day: 4, user: 2 },
                FaultEvent::ShardCrash { day: 9, user: 0 },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crashes_in(1, 7), vec![(2, 4)]);
        assert_eq!(plan.crashes_in(8, 14), vec![(0, 9)]);
        assert!(plan.crashes_in(15, 21).is_empty());
    }

    #[test]
    fn retrain_events_match_their_week() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::RetrainFailure { week: 2 },
                FaultEvent::ModelCorruption { week: 3 },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.retrain_fails(2) && !plan.retrain_fails(3));
        assert!(plan.model_corrupts(3) && !plan.model_corrupts(2));
    }

    #[test]
    fn validation_rejects_bad_events_with_indices() {
        let days = 14;
        let bad = |ev: FaultEvent| {
            FaultPlan { events: vec![ev], ..FaultPlan::default() }
                .validate(3, days, 7)
                .unwrap_err()
        };
        assert!(matches!(
            bad(window(5, 3, (0.0, 0.0), (0.0, 0.0))),
            FaultPlanError::BadWindow { event: 0, .. }
        ));
        assert!(matches!(
            bad(window(1, 20, (0.0, 0.0), (0.0, 0.0))),
            FaultPlanError::DayOutOfRange { event: 0, day: 20, .. }
        ));
        assert!(matches!(
            bad(window(1, 3, (1.5, 0.0), (0.0, 0.0))),
            FaultPlanError::Chance { event: 0, .. }
        ));
        assert!(matches!(
            bad(FaultEvent::ShardCrash { day: 2, user: 3 }),
            FaultPlanError::UserOutOfRange { event: 0, user: 3, users: 3 }
        ));
        assert!(matches!(
            bad(FaultEvent::MailboxLoss { day: 0, user: 0 }),
            FaultPlanError::DayOutOfRange { event: 0, day: 0, .. }
        ));
        assert!(matches!(
            bad(FaultEvent::RetrainFailure { week: 3 }),
            FaultPlanError::WeekOutOfRange { event: 0, week: 3, weeks: 2 }
        ));
        let ok = FaultPlan {
            events: vec![
                window(2, 6, (0.05, 0.0), (0.3, 0.1)),
                FaultEvent::ShardCrash { day: 4, user: 1 },
                FaultEvent::ModelCorruption { week: 2 },
            ],
            redelivery_budget: 2,
        };
        assert!(ok.validate(3, days, 7).is_ok());
        assert_eq!(ok.crashes_in(1, 7), vec![(1, 4)]);
    }
}
