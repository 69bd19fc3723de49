//! The organization simulation: §2.1–§2.2 as a running system, sharded.
//!
//! One shared SpamBayes instance filters all incoming mail for an
//! organization's users. Mail — legitimate, background spam, and attack —
//! arrives over the SMTP-lite wire (one connection per message, faults and
//! all), is classified, routed to per-user mailboxes, and *also* recorded
//! into the training pool. Every `retrain_every` days the organization
//! retrains from the pool, exactly as the paper's contamination assumption
//! requires: attack messages are genuinely spam, so they are trained as
//! spam, and that is precisely what poisons the filter.
//!
//! Traffic is declarative: each user has their own daily ham/spam rates
//! ([`OrgConfig::user_traffic`], defaulting to an equal split of the
//! organization-wide [`OrgConfig::traffic`]), and **any number** of attack
//! campaigns run concurrently ([`OrgConfig::attacks`]) with staggered
//! start/stop windows, per-day intensities, and optional target-user
//! lists. Each day's outbound list composes every user's quota with every
//! active campaign's batch, then one arrival permutation assigns wire
//! positions — the scenario-engine substrate the `sb-experiments` golden
//! suite locks down.
//!
//! # Shard/merge architecture
//!
//! Users are partitioned round-robin across [`OrgConfig::shards`] worker
//! shards. Each shard owns its users' mailboxes, its own SMTP-lite
//! server/pipe instances, and a private fresh pool, and runs the week's
//! day loop independently on a scoped worker thread
//! ([`sb_intern::par::parallel_map_mut`], honoring `SB_THREADS`). The
//! weekly retrain is the only barrier: per-shard fresh pools are combined
//! by a stable merge keyed on `(day, wire position)` — the canonical
//! organization-wide arrival order — and the existing batch RONI screening
//! and threshold recalibration run once over the merged pool.
//!
//! Determinism is seed-path, not schedule, based, so weekly reports are
//! **bit-identical for every shard count, including 1** (property-tested
//! in `tests/prop_mailflow.rs`):
//!
//! * every random stream derives from the [`SeedTree`] by day and
//!   organization-wide wire position (`day/<d>/traffic` for the arrival
//!   permutation, `day/<d>/attack/<p>` for campaign `p`'s batch,
//!   `day/<d>/pipe/<i>` for per-message wire faults) — never from shard
//!   identity or scheduling order;
//! * corpus messages are pure in their global counter
//!   ([`EmailGenerator::ham`]`(i)`), so any shard can materialize exactly
//!   the messages addressed to its users;
//! * each delivered message is tokenized and interned exactly once, on the
//!   shard that delivers it, and classified by id against the shared
//!   filter (read immutably); its id set then rides the fresh pool into
//!   the retrain. Ids are therefore assigned in shard-concurrent order,
//!   but token scoring breaks δ(E) ties by resolved token string (never
//!   raw `TokenId`) and model images sort rows by string, so interning
//!   order cannot leak into a verdict or a digest;
//! * week metrics are sums of per-shard counters — the §2.1 cost model
//!   reads a folder × truth [`FolderCounts`] matrix — so shard-merge order
//!   is immaterial there.
//!
//! Defenses hook into the retraining step: RONI screens merged pool
//! entries against a trusted bootstrap set (§5.1) through the fallible
//! [`RoniDefense::try_screen_ids`] surface — a screening failure degrades
//! the week (admitting nothing, recorded in
//! [`WeekReport::screen_error`]) instead of aborting the simulation — the
//! dynamic threshold recalibrates θ0/θ1 from a held-out split of the pool
//! (§5.2), or both.
//!
//! The output is a week-by-week report of user-visible damage, which is the
//! time-axis view of the paper's Figure 1: the attack lands in the pool
//! during week *n* and detonates at the week-*n* retrain.

use crate::client::{Envelope, SmtpClient};
use crate::faultplan::{FaultPlan, FaultPlanError};
use crate::mailbox::{Folder, FolderCounts, Mailbox, UserCosts, UserModel};
use crate::server::{ServerEvent, SmtpServer};
use crate::transport::{FaultConfig, FaultError, FaultStats, FaultyPipe};
use sb_core::{
    calibrate, AttackGenerator, CampaignEnv, CampaignError, CampaignShape, CampaignSpec,
    Intensity, RoniConfig, RoniDefense, ThresholdConfig, TrainItem,
};
use sb_corpus::{CorpusConfig, EmailGenerator};
use sb_email::{Dataset, Email, Label, LabeledEmail};
use sb_filter::{FilterOptions, SpamBayes, Verdict};
use sb_intern::{par, AsIdSlice, FxHashMap, Interner, TokenId};
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Daily traffic volumes. As [`OrgConfig::traffic`] the counts are
/// organization-wide (split round-robin across users); as an entry of
/// [`OrgConfig::user_traffic`] they are that one user's daily rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Legitimate messages per day.
    pub ham_per_day: u32,
    /// Background (non-attack) spam per day.
    pub spam_per_day: u32,
}

impl Default for TrafficMix {
    fn default() -> Self {
        Self {
            ham_per_day: 30,
            spam_per_day: 30,
        }
    }
}

/// Which defense the organization runs at retraining time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefensePolicy {
    /// Train on everything (the paper's baseline victim).
    None,
    /// RONI-screen new pool entries against the trusted bootstrap (§5.1).
    Roni,
    /// Recalibrate θ0/θ1 from the (contaminated) pool (§5.2). `strict`
    /// selects the g = 0.05 variant, otherwise g = 0.10.
    DynamicThreshold {
        /// Use the 0.05 utility target instead of 0.10.
        strict: bool,
    },
    /// RONI screening followed by threshold recalibration.
    RoniPlusThreshold,
}

/// An attack campaign: when it runs, how its volume is shaped over time,
/// and at whom.
///
/// An [`OrgConfig`] carries *any number* of these; campaigns with
/// overlapping windows compose — each campaign contributes its
/// [`AttackPlan::volume_on`] messages to the day's arrival permutation
/// independently.
pub struct AttackPlan {
    /// First day (1-based) attack mail is sent.
    pub start_day: u32,
    /// Last day (inclusive) attack mail is sent; `None` runs to the end of
    /// the simulation.
    pub end_day: Option<u32>,
    /// The send schedule over the active window (constant, linear ramp, or
    /// burst trains).
    pub intensity: Intensity,
    /// Target users as indices into [`OrgConfig::users`]; `None` spreads
    /// the campaign round-robin over every user.
    pub targets: Option<Vec<usize>>,
    /// The attack email generator (dictionary, focused, ham-chaff, …).
    pub generator: Box<dyn AttackGenerator + Send + Sync>,
}

impl AttackPlan {
    /// The paper's shape: starts on `start_day`, never stops, sends a
    /// constant `per_day`, targets everyone.
    pub fn new(
        start_day: u32,
        per_day: u32,
        generator: Box<dyn AttackGenerator + Send + Sync>,
    ) -> Self {
        Self {
            start_day,
            end_day: None,
            intensity: Intensity::constant(per_day),
            targets: None,
            generator,
        }
    }

    /// Materialize a plan from a declarative [`CampaignSpec`] (the
    /// scenario engine's attack description), building the generator
    /// against the organization's [`CampaignEnv`] — the step that resolves
    /// focused-attack [`sb_core::MessageRef`]s and donor headers, and the
    /// reason plan construction is fallible.
    pub fn from_campaign(
        spec: &CampaignSpec,
        env: &CampaignEnv<'_>,
    ) -> Result<Self, CampaignError> {
        Ok(Self {
            start_day: spec.start_day,
            end_day: spec.end_day,
            intensity: spec.intensity,
            targets: spec.targets.clone(),
            generator: spec.attack.build(env)?,
        })
    }

    /// Attack messages sent on `day` (1-based): 0 outside the inclusive
    /// window, the schedule's volume inside it. Delegates to the same
    /// [`Intensity::volume_on_day`] the declarative spec validates
    /// through, so validation and execution share one window arithmetic.
    pub fn volume_on(&self, day: u32) -> u32 {
        self.intensity.volume_on_day(self.start_day, self.end_day, day)
    }
}

impl std::fmt::Debug for AttackPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackPlan")
            .field("start_day", &self.start_day)
            .field("end_day", &self.end_day)
            .field("intensity", &self.intensity)
            .field("targets", &self.targets)
            .field("generator", &self.generator.name())
            .finish()
    }
}

/// Simulation configuration.
#[derive(Debug)]
pub struct OrgConfig {
    /// Recipient user addresses (mail is spread round-robin).
    pub users: Vec<String>,
    /// Days to simulate.
    pub days: u32,
    /// Retrain every this many days (the paper's "e.g., weekly").
    pub retrain_every: u32,
    /// Daily volumes, organization-wide, split round-robin across users
    /// (ignored when [`OrgConfig::user_traffic`] is non-empty).
    pub traffic: TrafficMix,
    /// Heterogeneous per-user daily volumes: one entry per user, in
    /// [`OrgConfig::users`] order. Empty means every user takes an equal
    /// share of [`OrgConfig::traffic`].
    pub user_traffic: Vec<TrafficMix>,
    /// Wire faults.
    pub faults: FaultConfig,
    /// Defense at retraining time.
    pub defense: DefensePolicy,
    /// Size of the trusted, clean bootstrap training set.
    pub bootstrap_size: usize,
    /// Corpus model for ham/spam generation.
    pub corpus: CorpusConfig,
    /// The attack campaigns (any number; overlapping windows compose).
    pub attacks: Vec<AttackPlan>,
    /// Worker shards the users are partitioned across. `0` means one
    /// shard per available worker thread (`SB_THREADS` honored); any
    /// value is clamped to the user count. Reports are bit-identical for
    /// every shard count.
    pub shards: usize,
    /// Scheduled infrastructure failures plus the redelivery budget (the
    /// graceful-degradation policy). [`FaultPlan::default`] schedules
    /// nothing and allows 3 redelivery days.
    pub fault_plan: FaultPlan,
    /// Master seed.
    pub seed: u64,
}

/// An invalid [`OrgConfig`], from [`OrgConfig::validate`] /
/// [`MailOrg::try_new`].
#[derive(Debug, Clone, PartialEq)]
pub enum OrgConfigError {
    /// The user list is empty.
    NoUsers,
    /// `retrain_every` is 0.
    ZeroRetrain,
    /// `user_traffic` is non-empty but does not match the user count.
    UserTrafficMismatch {
        /// Entries in `user_traffic`.
        entries: usize,
        /// Users in `users`.
        users: usize,
    },
    /// The baseline wire fault rates are out of range.
    BaseFaults(FaultError),
    /// The fault plan references a day, week, user, or probability the
    /// organization does not have.
    Plan(FaultPlanError),
    /// An attack plan's window or target list is invalid.
    Attack {
        /// 0-based plan index.
        plan: usize,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint references a user index outside this configuration's
    /// user list — it was taken from a different organization.
    CheckpointMismatch {
        /// The offending user index.
        user: usize,
        /// Users in this configuration.
        users: usize,
    },
    /// A checkpoint's model image failed validation (see
    /// [`sb_filter::ImageError`]).
    CorruptCheckpoint {
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for OrgConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrgConfigError::NoUsers => write!(f, "need at least one user"),
            OrgConfigError::ZeroRetrain => write!(f, "retrain_every must be >= 1"),
            OrgConfigError::UserTrafficMismatch { entries, users } => write!(
                f,
                "user_traffic must have one entry per user ({entries} entries for {users} users)"
            ),
            OrgConfigError::BaseFaults(e) => write!(f, "invalid wire faults: {e}"),
            OrgConfigError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            OrgConfigError::Attack { plan, reason } => {
                write!(f, "attack plan {plan}: {reason}")
            }
            OrgConfigError::CheckpointMismatch { user, users } => write!(
                f,
                "checkpoint references user {user} but this configuration has {users} users"
            ),
            OrgConfigError::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint model image: {reason}")
            }
        }
    }
}

impl std::error::Error for OrgConfigError {}

impl OrgConfig {
    /// A small default organization: 5 users, 4 weeks, weekly retraining,
    /// reliable wire, no attack, no defense, single shard.
    pub fn small(seed: u64) -> Self {
        Self {
            users: (0..5).map(|i| format!("user{i}@corp.example")).collect(),
            days: 28,
            retrain_every: 7,
            traffic: TrafficMix::default(),
            user_traffic: Vec::new(),
            faults: FaultConfig::none(),
            defense: DefensePolicy::None,
            bootstrap_size: 400,
            corpus: CorpusConfig::with_size(400, 0.5),
            attacks: Vec::new(),
            shards: 1,
            fault_plan: FaultPlan::default(),
            seed,
        }
    }

    /// Validate everything construction depends on: user list, retrain
    /// cadence, traffic shape, baseline fault probabilities, the fault
    /// plan, and every attack plan's window/targets.
    pub fn validate(&self) -> Result<(), OrgConfigError> {
        if self.users.is_empty() {
            return Err(OrgConfigError::NoUsers);
        }
        if self.retrain_every == 0 {
            return Err(OrgConfigError::ZeroRetrain);
        }
        if !self.user_traffic.is_empty() && self.user_traffic.len() != self.users.len() {
            return Err(OrgConfigError::UserTrafficMismatch {
                entries: self.user_traffic.len(),
                users: self.users.len(),
            });
        }
        self.faults.validate().map_err(OrgConfigError::BaseFaults)?;
        self.fault_plan
            .validate(self.users.len(), self.days, self.retrain_every)
            .map_err(OrgConfigError::Plan)?;
        for (p, plan) in self.attacks.iter().enumerate() {
            if let Some(end) = plan.end_day {
                if end < plan.start_day {
                    return Err(OrgConfigError::Attack {
                        plan: p,
                        reason: format!(
                            "empty window (end_day {end} < start_day {})",
                            plan.start_day
                        ),
                    });
                }
            }
            if let Some(targets) = &plan.targets {
                if targets.is_empty() {
                    return Err(OrgConfigError::Attack {
                        plan: p,
                        reason: "empty target list".into(),
                    });
                }
                if let Some(&u) = targets.iter().find(|&&u| u >= self.users.len()) {
                    return Err(OrgConfigError::Attack {
                        plan: p,
                        reason: format!(
                            "target user {u} out of range (org has {} users)",
                            self.users.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The effective per-user daily rates: [`OrgConfig::user_traffic`]
    /// verbatim when set, otherwise [`OrgConfig::traffic`] split
    /// round-robin (user `u` takes `total / n` plus one of the first
    /// `total % n` remainder slots).
    pub fn per_user_rates(&self) -> Vec<TrafficMix> {
        if !self.user_traffic.is_empty() {
            return self.user_traffic.clone();
        }
        let n = self.users.len() as u32;
        let share = |total: u32, u: u32| total / n + u32::from(u < total % n);
        (0..n)
            .map(|u| TrafficMix {
                ham_per_day: share(self.traffic.ham_per_day, u),
                spam_per_day: share(self.traffic.spam_per_day, u),
            })
            .collect()
    }

    /// The organization's indexed corpus generator — the *same* derivation
    /// [`MailOrg::new`] uses, exposed so campaign building
    /// ([`OrgConfig::campaign_env`]) resolves `MessageRef`s against
    /// exactly the messages the simulation will deliver.
    pub fn corpus_generator(&self) -> EmailGenerator {
        let seeds = SeedTree::new(self.seed).child("mailorg");
        EmailGenerator::new(self.corpus.clone(), seeds.child("corpus").seed())
    }

    /// The ham/spam counter split the clean bootstrap consumes: day
    /// traffic starts at these counters.
    pub fn bootstrap_counters(&self) -> (u64, u64) {
        let n_ham = self.bootstrap_size / 2;
        (n_ham as u64, (self.bootstrap_size - n_ham) as u64)
    }

    /// The [`CampaignShape`] campaign validation resolves against.
    pub fn campaign_shape(&self) -> CampaignShape {
        CampaignShape {
            n_users: self.users.len(),
            days: self.days,
            ham_rates: self
                .per_user_rates()
                .iter()
                .map(|r| r.ham_per_day)
                .collect(),
        }
    }

    /// The [`CampaignEnv`] attack kinds build their generators against.
    /// `generator` must come from [`OrgConfig::corpus_generator`] (lent
    /// rather than rebuilt so several plans share one compiled model).
    pub fn campaign_env<'a>(&self, generator: &'a EmailGenerator) -> CampaignEnv<'a> {
        let (ham0, spam0) = self.bootstrap_counters();
        CampaignEnv {
            shape: self.campaign_shape(),
            generator,
            ham0,
            spam0,
            seed: self.seed,
        }
    }

    /// Build [`AttackPlan`]s for a set of declarative campaigns against
    /// this organization. The full declaration is validated first —
    /// schedule shapes, windows, zero-volume checks, target indices,
    /// message refs — so a spec that builds is exactly a spec that runs
    /// as declared. Fails with the 0-based index of the first campaign
    /// whose declaration does not hold.
    pub fn build_campaigns(
        &self,
        specs: &[CampaignSpec],
    ) -> Result<Vec<AttackPlan>, (usize, CampaignError)> {
        sb_core::campaign::validate_campaigns(specs, &self.campaign_shape())?;
        let generator = self.corpus_generator();
        let env = self.campaign_env(&generator);
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| AttackPlan::from_campaign(spec, &env).map_err(|e| (i, e)))
            .collect()
    }
}

/// Tokenize and intern one message: the id set it is classified, screened
/// and trained by. The organization calls this once per delivered message
/// (on the delivering shard) and again only to rebuild ids it does not
/// keep — the bootstrap in `try_new`, the pool and replay in `restore`.
fn intern_email(tokenizer: &Tokenizer, interner: &Interner, email: &Email) -> Arc<Vec<TokenId>> {
    Arc::new(tokenizer.intern_ids(email, interner))
}

/// One week of user-visible outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeekReport {
    /// Week number, 1-based.
    pub week: u32,
    /// Messages offered to SMTP this week.
    pub offered: usize,
    /// Messages accepted by the server.
    pub accepted: usize,
    /// Accepted messages bounced for lack of a local mailbox (never
    /// classified, never pooled).
    pub bounced: usize,
    /// Fraction of this week's ham classified spam.
    pub ham_as_spam: f64,
    /// Fraction of this week's ham classified spam or unsure.
    pub ham_misrouted: f64,
    /// Fraction of this week's true spam classified spam.
    pub spam_caught: f64,
    /// Fraction of this week's true spam classified unsure.
    pub spam_as_unsure: f64,
    /// Pool entries rejected by RONI at this week's retrain (0 when the
    /// defense is off or the week had no retrain).
    pub screened_out: usize,
    /// RONI screening failure at this week's retrain, if any: the week's
    /// fresh mail was *not* admitted to the pool (fail closed) and the
    /// error is recorded here instead of aborting the simulation.
    pub screen_error: Option<String>,
    /// Aggregated §2.1 user costs for the week.
    pub costs: UserCosts,
    /// The §2.1 "no advantage from continued use" predicate (> 20% of ham
    /// misrouted).
    pub filter_useless: bool,
    /// Messages still in the deferred-redelivery queue at week end (they
    /// re-enter the next week's wire plan; at the final week this is mail
    /// the simulation ended without resolving).
    pub deferred: usize,
    /// Previously deferred messages successfully redelivered this week.
    pub redelivered: usize,
    /// Fresh pool entries quarantined at this week's retrain (crashed
    /// mailstore node, or the whole batch after an injected retrain
    /// failure); they replay into the next retrain instead of vanishing.
    pub quarantined: usize,
    /// Previously quarantined entries admitted back at this week's retrain.
    pub replayed: usize,
    /// The week was served by a stale last-good model (the previous
    /// week's retrain failed or its model was corrupt).
    pub degraded: bool,
    /// This week's retrain installed no fresh model: the job failed or
    /// its product was corrupt, so the last-good model, which the
    /// organization was already serving, keeps serving.
    pub recovered_from_checkpoint: bool,
    /// Wire fault counters for this week alone (deterministic shard-merge
    /// of the per-shard counters).
    pub fault_stats: FaultStats,
}

/// Full simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrgReport {
    /// Per-week outcomes.
    pub weeks: Vec<WeekReport>,
    /// Wire fault counters across the whole run.
    pub fault_stats: FaultStats,
    /// Total messages delivered into mailboxes.
    pub total_delivered: usize,
    /// Total SMTP delivery failures (after retries *and* the deferred
    /// queue's redelivery budget).
    pub total_failed: usize,
    /// Total accepted messages bounced for lack of a local mailbox.
    pub total_bounced: usize,
    /// Messages still deferred when the simulation ended (offered but
    /// neither delivered, failed, nor bounced).
    pub total_deferred: usize,
    /// Deferred messages successfully redelivered over the whole run.
    pub total_redelivered: usize,
}

impl OrgReport {
    /// Highest ham-misrouted rate over all weeks (the attack's high-water
    /// mark).
    pub fn worst_week_ham_misrouted(&self) -> f64 {
        self.weeks.iter().map(|w| w.ham_misrouted).fold(0.0, f64::max)
    }
}

/// A delivered-but-unscreened message, tagged with its position in the
/// canonical organization-wide arrival order. `(day, pos)` is unique per
/// message (one wire slot per message per day — a redelivered message
/// keeps its *original* slot, whose first attempt never pooled), so the
/// merge at retrain is a total order independent of shard count and
/// scheduling. `user` keys the crash quarantine: shard ids change with the
/// shard count, the recipient does not. `ids` is the interned token set
/// the delivering shard classified the message by; the retrain screens
/// and trains on it without tokenizing again.
#[derive(Clone)]
struct FreshMail {
    day: u32,
    pos: u64,
    user: usize,
    mail: LabeledEmail,
    ids: Arc<Vec<TokenId>>,
}

impl AsIdSlice for FreshMail {
    fn ids(&self) -> &[TokenId] {
        &self.ids
    }
}

/// A quarantined [`FreshMail`] as an [`OrgCheckpoint`] stores it: the
/// message and its merge key without the ids, so a checkpoint never holds
/// a `TokenId` (ids are only meaningful to the interner that issued them).
/// [`MailOrg::restore`] re-interns it.
#[derive(Clone, Serialize, Deserialize)]
struct ReplayMail {
    day: u32,
    pos: u64,
    user: usize,
    mail: LabeledEmail,
}

/// A message that exhausted its SMTP retries, parked for redelivery on a
/// later day instead of being dropped. Keeps its canonical original slot
/// for the pipe seed path (`day/<today>/defer/<orig day>/<orig pos>`) and
/// the fresh-pool merge key.
#[derive(Clone, Serialize, Deserialize)]
struct DeferredMail {
    orig_day: u32,
    orig_pos: u64,
    user: usize,
    email: Email,
    truth: Label,
    /// Redelivery days already burned.
    attempts: u32,
}

/// Merge per-shard fresh pools into the canonical arrival order. The sort
/// key `(day, pos)` is unique, so the result is identical whatever order
/// the shard pools arrive in — the determinism hinge of the weekly merge.
fn merge_fresh(per_shard: Vec<Vec<FreshMail>>) -> Vec<FreshMail> {
    let mut all: Vec<FreshMail> = per_shard.into_iter().flatten().collect();
    all.sort_unstable_by_key(|f| (f.day, f.pos));
    // Dynamic witness for the lint's static claim: the merged pool must be
    // *strictly* ordered — a duplicate (day, wire position) key means two
    // shards claimed the same wire slot, which breaks shard-invariance.
    debug_assert!(
        all.windows(2).all(|w| (w[0].day, w[0].pos) < (w[1].day, w[1].pos)),
        "fresh-pool merge: duplicate (day, wire position) key — two shards \
         produced the same wire slot"
    );
    all
}

/// Per-shard, per-week accounting, merged by summation at the week
/// boundary. Every field is an order-independent counter, so the merged
/// tally is shard-invariant.
#[derive(Default)]
struct WeekTally {
    offered: usize,
    accepted: usize,
    delivered: usize,
    failed: usize,
    bounced: usize,
    fault_stats: FaultStats,
    redelivered: usize,
    /// The week's classified mail by routed folder × ground truth: the
    /// verdict rates and the §2.1 costs both read it.
    counts: FolderCounts,
}

impl WeekTally {
    fn absorb(&mut self, other: WeekTally) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.delivered += other.delivered;
        self.failed += other.failed;
        self.bounced += other.bounced;
        self.redelivered += other.redelivered;
        self.fault_stats.absorb(other.fault_stats);
        self.counts.absorb(other.counts);
    }

    fn record_verdict(&mut self, truth: Label, verdict: Verdict) {
        self.counts.record(Folder::for_verdict(verdict), truth);
    }
}

/// Read-only context a shard needs to run a day: configuration, seed tree,
/// corpus generator, the tokenizer and interner delivery uses, the shared
/// filter, the per-user traffic rates, the global corpus counters the
/// bootstrap consumed, and the period's attack batches.
struct DayCtx<'a> {
    cfg: &'a OrgConfig,
    seeds: &'a SeedTree,
    generator: &'a EmailGenerator,
    tokenizer: &'a Tokenizer,
    interner: &'a Interner,
    filter: &'a SpamBayes,
    /// Effective per-user daily rates ([`OrgConfig::per_user_rates`]).
    rates: &'a [TrafficMix],
    /// Organization-wide daily totals (sums over `rates`).
    total_ham: u32,
    total_spam: u32,
    ham0: u64,
    spam0: u64,
    n_shards: usize,
    /// First day of the period `attack_batches` covers.
    first_day: u32,
    /// Per-day, per-campaign batches for `first_day..`, materialized once
    /// by the coordinator: each batch comes from one sequential RNG stream
    /// (`day/<d>/attack/<plan>`), so generating it per shard would
    /// duplicate the whole day's attack-generation cost in every worker.
    /// Inactive campaigns contribute an empty batch.
    attack_batches: &'a [Vec<Vec<Email>>],
}

impl DayCtx<'_> {
    /// Campaign `plan`'s emails arriving on `day` (empty outside its
    /// window).
    fn attack_batch(&self, day: u32, plan: usize) -> &[Email] {
        &self.attack_batches[(day - self.first_day) as usize][plan]
    }
}

/// Materialize every campaign's batches for days `first..=last` from their
/// per-day, per-plan seed nodes. The day's volume comes from the plan's
/// [`Intensity`] schedule — evaluated here, once, on the coordinator, so
/// ramps and bursts can never diverge across shards. Days a campaign sends
/// nothing (outside its window, or a burst off-day) contribute an empty
/// batch without touching the campaign's RNG stream.
fn attack_batches_for(cfg: &OrgConfig, seeds: &SeedTree, first: u32, last: u32) -> Vec<Vec<Vec<Email>>> {
    (first..=last)
        .map(|day| {
            let day_seeds = seeds.child("day").index(u64::from(day));
            cfg.attacks
                .iter()
                .enumerate()
                .map(|(p, plan)| {
                    let volume = plan.volume_on(day);
                    if volume > 0 {
                        let mut atk_rng = day_seeds.child("attack").index(p as u64).rng();
                        plan.generator.generate(volume, &mut atk_rng).materialize()
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect()
}

/// What the message at one composition slot of a day is.
#[derive(Debug, Clone, Copy)]
enum EntryKind {
    /// The day's `k`-th ham message (offset into the day's ham counter
    /// block).
    Ham(u64),
    /// The day's `k`-th background spam message.
    Spam(u64),
    /// Message `idx` of campaign `plan`'s batch for the day.
    Attack { plan: usize, idx: usize },
}

/// One composition slot of a day's traffic: what arrives and for whom.
#[derive(Debug, Clone, Copy)]
struct DayEntry {
    user: usize,
    kind: EntryKind,
}

/// The day's composed outbound list, **before** the arrival permutation:
/// each user's ham and spam quota in user order, then each campaign's
/// batch in plan order. Pure in the configuration and the day, so every
/// shard derives the identical list; the `day/<d>/traffic` permutation
/// then assigns wire positions.
fn day_entries(ctx: &DayCtx<'_>, day: u32) -> Vec<DayEntry> {
    let n_attack: usize = ctx
        .cfg
        .attacks
        .iter()
        .enumerate()
        .map(|(p, _)| ctx.attack_batch(day, p).len())
        .sum();
    let mut entries =
        Vec::with_capacity(ctx.total_ham as usize + ctx.total_spam as usize + n_attack);
    let mut k = 0u64;
    for (user, rate) in ctx.rates.iter().enumerate() {
        for _ in 0..rate.ham_per_day {
            entries.push(DayEntry { user, kind: EntryKind::Ham(k) });
            k += 1;
        }
    }
    let mut k = 0u64;
    for (user, rate) in ctx.rates.iter().enumerate() {
        for _ in 0..rate.spam_per_day {
            entries.push(DayEntry { user, kind: EntryKind::Spam(k) });
            k += 1;
        }
    }
    let n_users = ctx.cfg.users.len();
    for (plan, spec) in ctx.cfg.attacks.iter().enumerate() {
        for idx in 0..ctx.attack_batch(day, plan).len() {
            let user = match &spec.targets {
                Some(targets) => targets[idx % targets.len()],
                None => idx % n_users,
            };
            entries.push(DayEntry { user, kind: EntryKind::Attack { plan, idx } });
        }
    }
    entries
}

/// One worker shard: a round-robin slice of the organization's users, with
/// their mailboxes, this retrain period's fresh deliveries, and the
/// shard's slice of the deferred-redelivery queue (a deferred message
/// lives with the shard that owns its recipient).
struct Shard {
    id: usize,
    mailboxes: FxHashMap<String, Mailbox>,
    fresh: Vec<FreshMail>,
    deferred: Vec<DeferredMail>,
}

impl Shard {
    /// Whether this shard owns the user at global index `u`.
    fn owns(&self, u: usize, n_shards: usize) -> bool {
        u % n_shards == self.id
    }

    /// One day of this shard's share of the organization's traffic: the
    /// day plan (per-user composition + arrival permutation) is recomputed
    /// identically on every shard from the configuration and the day's
    /// seed node; the shard then delivers exactly the wire positions
    /// addressed to its users, over its own per-message server/pipe
    /// instances.
    fn run_day(&mut self, ctx: &DayCtx<'_>, day: u32, tally: &mut WeekTally) {
        let day_seeds = ctx.seeds.child("day").index(u64::from(day));
        // The day's effective wire fault rates: the fault plan's pipe
        // windows override (and ramp) the baseline. Pure arithmetic over
        // the plan, so identical on every shard.
        let faults = ctx.cfg.fault_plan.faults_on(day, ctx.cfg.faults);
        // Yesterday's deferred mail re-enters the wire plan first.
        self.retry_deferred(ctx, day, faults, &day_seeds, tally);
        let entries = day_entries(ctx, day);

        // The day's arrival order: the same Fisher–Yates the single-shard
        // loop applies to the composed outbound list, run on indices so
        // every shard derives the identical permutation without
        // materializing messages it does not own. `perm[i]` is the
        // composition index (per-user ham, per-user spam, then campaign
        // batches) of the message at wire position `i`.
        let mut perm: Vec<usize> = (0..entries.len()).collect();
        let mut rng = day_seeds.child("traffic").rng();
        shuffle(&mut perm, &mut rng);

        // Corpus messages are pure in their global counter; day `d`'s ham
        // block starts right after the bootstrap plus `d − 1` full days.
        let ham_base = ctx.ham0 + u64::from(day - 1) * u64::from(ctx.total_ham);
        let spam_base = ctx.spam0 + u64::from(day - 1) * u64::from(ctx.total_spam);

        let client = SmtpClient::new("outside.example");
        for (i, &k) in perm.iter().enumerate() {
            let entry = entries[k];
            let user = entry.user;
            if !self.owns(user, ctx.n_shards) {
                continue;
            }
            tally.offered += 1;

            let (email, truth) = match entry.kind {
                EntryKind::Ham(off) => (ctx.generator.ham(ham_base + off), Label::Ham),
                EntryKind::Spam(off) => (ctx.generator.spam(spam_base + off), Label::Spam),
                // Ground truth: attack mail IS spam (§2.2) — that is the
                // whole point of the contamination assumption.
                EntryKind::Attack { plan, idx } => {
                    (ctx.attack_batch(day, plan)[idx].clone(), Label::Spam)
                }
            };

            // One SMTP connection per message: exact truth↔delivery
            // mapping even when deliveries fail. The pipe's fault stream
            // is keyed by the organization-wide wire position, not by
            // shard, so faults replay identically at any shard count.
            let mut pipe = FaultyPipe::seeded(
                faults,
                day_seeds.child("pipe").index(i as u64).seed(),
            );
            let mut server = SmtpServer::new("mx.corp.example");
            let rcpt = ctx.cfg.users[user].clone();
            let env = Envelope::to_one("sender@outside.example", rcpt, email);
            let report = client.deliver_all(&mut pipe, &mut server, std::slice::from_ref(&env));
            tally.fault_stats.absorb(pipe.stats());

            let mut got = None;
            for ev in server.take_events() {
                if let ServerEvent::MessageAccepted(msg) = ev {
                    got = Some(msg);
                }
            }
            match (report.delivered, got) {
                (1, Some(msg)) => {
                    let mail = LabeledEmail::new(msg.email, truth);
                    self.file_accepted(ctx, day, (day, i as u64), user, mail, tally);
                }
                _ => {
                    // Exhausted retries: park for redelivery on a later
                    // day instead of dropping the message — unless the
                    // plan's budget says drop-on-failure.
                    if ctx.cfg.fault_plan.redelivery_budget > 0 {
                        self.deferred.push(DeferredMail {
                            orig_day: day,
                            orig_pos: i as u64,
                            user,
                            email: env.email,
                            truth,
                            attempts: 0,
                        });
                    } else {
                        tally.failed += 1;
                    }
                }
            }
        }
    }

    /// File one message the server accepted on `day` for `user`. An
    /// accepted message whose recipient has no local mailbox — dropped
    /// from the table, or lost to a scheduled mailbox fault for the rest
    /// of the period — bounces into the day stats; it is never classified
    /// and never reaches the training pool (a stale routing table must
    /// degrade, not abort). Otherwise the
    /// message as received (post-wire) is tokenized and interned — the
    /// only time the organization tokenizes it — classified by id, routed
    /// into the mailbox, and pooled with its ground-truth training label
    /// and ids under its canonical arrival `slot`. Returns whether the
    /// message was delivered.
    fn file_accepted(
        &mut self,
        ctx: &DayCtx<'_>,
        day: u32,
        (slot_day, pos): (u32, u64),
        user: usize,
        mail: LabeledEmail,
        tally: &mut WeekTally,
    ) -> bool {
        tally.accepted += 1;
        if ctx.cfg.fault_plan.mailbox_lost(user, day, ctx.cfg.retrain_every) {
            tally.bounced += 1;
            return false;
        }
        let Some(mbox) = self.mailboxes.get_mut(&ctx.cfg.users[user]) else {
            tally.bounced += 1;
            return false;
        };
        let ids = intern_email(ctx.tokenizer, ctx.interner, &mail.email);
        // Ids interned at delivery may name tokens the model never
        // trained; they score the prior, which the δ(E) strength band
        // excludes, so the verdict equals the read-only lookup path's
        // (property-tested in `sb-filter`'s `tests/prop_intern.rs`).
        let verdict = ctx.filter.classify_ids(&ids).verdict;
        tally.record_verdict(mail.label, verdict);
        mbox.deliver(mail.email.clone(), mail.label, verdict, day);
        tally.delivered += 1;
        self.fresh.push(FreshMail { day: slot_day, pos, user, mail, ids });
        true
    }

    /// Re-run the shard's deferred queue through today's wire plan. Each
    /// message's pipe stream is keyed `day/<today>/defer/<orig day>/<orig
    /// pos>` — the canonical original slot, never the shard or queue
    /// position — so redelivery outcomes are bit-identical at any shard
    /// count. Success pools the message under its original `(day, pos)`
    /// merge key (whose first attempt never pooled, keeping the key
    /// unique); failure burns one of the plan's redelivery days.
    fn retry_deferred(
        &mut self,
        ctx: &DayCtx<'_>,
        day: u32,
        faults: FaultConfig,
        day_seeds: &SeedTree,
        tally: &mut WeekTally,
    ) {
        if self.deferred.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.deferred);
        queue.sort_unstable_by_key(|d| (d.orig_day, d.orig_pos));
        let client = SmtpClient::new("outside.example");
        for d in queue {
            let mut pipe = FaultyPipe::seeded(
                faults,
                day_seeds
                    .child("defer")
                    .index(u64::from(d.orig_day))
                    .index(d.orig_pos)
                    .seed(),
            );
            let mut server = SmtpServer::new("mx.corp.example");
            let rcpt = ctx.cfg.users[d.user].clone();
            let env = Envelope::to_one("sender@outside.example", rcpt, d.email.clone());
            let report = client.deliver_all(&mut pipe, &mut server, std::slice::from_ref(&env));
            tally.fault_stats.absorb(pipe.stats());
            let mut got = None;
            for ev in server.take_events() {
                if let ServerEvent::MessageAccepted(msg) = ev {
                    got = Some(msg);
                }
            }
            match (report.delivered, got) {
                (1, Some(msg)) => {
                    // A recipient who lost their mailbox since the original
                    // attempt bounces terminally, same as a first attempt;
                    // otherwise the redelivered (post-wire) copy is what
                    // gets tokenized, classified and pooled.
                    let mail = LabeledEmail::new(msg.email, d.truth);
                    let slot = (d.orig_day, d.orig_pos);
                    if self.file_accepted(ctx, day, slot, d.user, mail, tally) {
                        tally.redelivered += 1;
                    }
                }
                _ => {
                    let attempts = d.attempts + 1;
                    if attempts >= ctx.cfg.fault_plan.redelivery_budget {
                        tally.failed += 1;
                    } else {
                        self.deferred.push(DeferredMail { attempts, ..d });
                    }
                }
            }
        }
    }
}

/// An opaque, cloneable snapshot of a [`MailOrg`] at a week boundary —
/// enough to [`MailOrg::restore`] a fresh organization that continues the
/// simulation **bit-identically** to the uninterrupted run
/// (property-tested in `tests/prop_mailflow.rs`).
///
/// Valid only at week boundaries ([`MailOrg::step_week`] granularity):
/// mid-period shard state (fresh pools) is deliberately not captured. The
/// serving filter is also the last-good model a retrain fallback keeps,
/// so the one model the checkpoint carries is that filter: a checksummed
/// model image, packed by [`MailOrg::checkpoint`], plus its θ0/θ1
/// cutoffs. That reproduces classification exactly (counts are exact
/// `u32`s and token scoring tie-breaks by resolved string, so interner
/// state is irrelevant). The checkpoint holds no `TokenId`: pool and
/// replay entries are stored as messages and re-interned on restore.
#[derive(Clone, Serialize, Deserialize)]
pub struct OrgCheckpoint {
    next_week: u32,
    weeks: Vec<WeekReport>,
    total_delivered: usize,
    total_failed: usize,
    total_bounced: usize,
    total_redelivered: usize,
    fault_stats: FaultStats,
    filter_image: Vec<u8>,
    filter_cutoffs: (f64, f64),
    serving_stale: bool,
    pool: Dataset,
    /// Canonically ordered by `(day, pos)`.
    replay: Vec<ReplayMail>,
    /// `(user index, mailbox)` — only users that still have one.
    mailboxes: Vec<(usize, Mailbox)>,
    /// Canonically ordered by `(orig_day, orig_pos)`.
    deferred: Vec<DeferredMail>,
}

/// What one week's retrain did, for the week report.
#[derive(Default)]
struct RetrainOutcome {
    screened_out: usize,
    screen_error: Option<String>,
    quarantined: usize,
    replayed: usize,
    recovered: bool,
}

/// The running organization.
pub struct MailOrg {
    cfg: OrgConfig,
    seeds: SeedTree,
    generator: EmailGenerator,
    tokenizer: Tokenizer,
    filter: SpamBayes,
    /// Interned trusted bootstrap messages (never contaminated; RONI's
    /// yardstick), sharing their id sets with the head of `pool_ids`.
    bootstrap_ids: Vec<(Arc<Vec<TokenId>>, Label)>,
    /// Screened, training-eligible pool (starts as the bootstrap).
    pool: Dataset,
    /// Interned token sets parallel to `pool`: tokenized once at delivery
    /// (the bootstrap at construction), retrained by id every week
    /// thereafter.
    pool_ids: Vec<Arc<Vec<TokenId>>>,
    interner: Interner,
    /// Worker shards owning disjoint round-robin slices of the users.
    shards: Vec<Shard>,
    /// Effective per-user daily rates ([`OrgConfig::per_user_rates`]).
    rates: Vec<TrafficMix>,
    /// Corpus counters consumed by the bootstrap (day traffic starts
    /// here).
    ham0: u64,
    spam0: u64,
    /// The next week [`MailOrg::step_week`] will simulate (1-based).
    next_week: u32,
    /// Weeks completed so far.
    weeks: Vec<WeekReport>,
    total_delivered: usize,
    total_failed: usize,
    total_bounced: usize,
    total_redelivered: usize,
    fault_stats: FaultStats,
    /// Quarantined fresh entries awaiting replay at the next retrain.
    replay: Vec<FreshMail>,
    /// The installed filter is the last-good model kept through a
    /// retrain fallback, not this week's retrain product.
    serving_stale: bool,
}

impl MailOrg {
    /// Bootstrap an organization: generate the clean training set, train
    /// the initial filter, and partition users across shards. Panics on an
    /// invalid configuration; [`MailOrg::try_new`] returns the typed error
    /// instead.
    pub fn new(cfg: OrgConfig) -> Self {
        // sb-lint: allow(panic-path, "documented panicking constructor; fault/recovery code uses try_new, the typed-error path")
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid OrgConfig: {e}"))
    }

    /// Fallible construction: [`OrgConfig::validate`] then bootstrap.
    pub fn try_new(cfg: OrgConfig) -> Result<Self, OrgConfigError> {
        cfg.validate()?;
        let rates = cfg.per_user_rates();
        let seeds = SeedTree::new(cfg.seed).child("mailorg");
        let generator = cfg.corpus_generator();

        // Clean bootstrap pool, half ham half spam, generated off-wire (the
        // organization's historical mail archive).
        let mut bootstrap = Dataset::new();
        let n_ham = cfg.bootstrap_size / 2;
        let mut ham_counter = 0u64;
        let mut spam_counter = 0u64;
        for _ in 0..n_ham {
            bootstrap.push(LabeledEmail::ham(generator.ham(ham_counter)));
            ham_counter += 1;
        }
        for _ in 0..(cfg.bootstrap_size - n_ham) {
            bootstrap.push(LabeledEmail::spam(generator.spam(spam_counter)));
            spam_counter += 1;
        }
        debug_assert_eq!(
            (ham_counter, spam_counter),
            cfg.bootstrap_counters(),
            "campaign_env's counter derivation must match the bootstrap"
        );

        let tokenizer = Tokenizer::new();
        let interner = Interner::global();
        let mut filter = SpamBayes::new();
        let mut pool_ids: Vec<Arc<Vec<TokenId>>> = Vec::with_capacity(bootstrap.len());
        let mut bootstrap_ids = Vec::with_capacity(bootstrap.len());
        for m in bootstrap.emails() {
            let ids = intern_email(&tokenizer, &interner, &m.email);
            filter.train_ids(&ids, m.label, 1);
            bootstrap_ids.push((Arc::clone(&ids), m.label));
            pool_ids.push(ids);
        }

        let n_shards = if cfg.shards == 0 {
            par::default_threads()
        } else {
            cfg.shards
        }
        .clamp(1, cfg.users.len());
        let shards: Vec<Shard> = (0..n_shards)
            .map(|id| {
                let mailboxes: FxHashMap<String, Mailbox> = cfg
                    .users
                    .iter()
                    .enumerate()
                    .filter(|(u, _)| u % n_shards == id)
                    .map(|(_, name)| (name.clone(), Mailbox::new()))
                    .collect();
                Shard {
                    id,
                    mailboxes,
                    fresh: Vec::new(),
                    deferred: Vec::new(),
                }
            })
            .collect();

        let pool = bootstrap;

        // The bootstrap-trained filter is the first last-good model: even
        // a retrain failure in week 1 has something to serve.
        Ok(Self {
            cfg,
            seeds,
            generator,
            tokenizer,
            filter,
            bootstrap_ids,
            pool,
            pool_ids,
            interner,
            shards,
            rates,
            ham0: ham_counter,
            spam0: spam_counter,
            next_week: 1,
            weeks: Vec::new(),
            total_delivered: 0,
            total_failed: 0,
            total_bounced: 0,
            total_redelivered: 0,
            fault_stats: FaultStats::default(),
            replay: Vec::new(),
            serving_stale: false,
        })
    }

    /// A user's mailbox (owned by whichever shard holds the user).
    pub fn mailbox(&self, user: &str) -> Option<&Mailbox> {
        self.shards.iter().find_map(|s| s.mailboxes.get(user))
    }

    /// Fault injection: drop `user`'s mailbox from whichever shard owns it
    /// (a stale routing table). Accepted mail for the user then bounces
    /// into the week stats ([`WeekReport::bounced`]) instead of being
    /// classified or pooled — the simulation must degrade, never panic.
    /// Returns whether a mailbox was removed.
    pub fn remove_mailbox(&mut self, user: &str) -> bool {
        self.shards
            .iter_mut()
            .any(|s| s.mailboxes.remove(user).is_some())
    }

    /// The number of worker shards the users are partitioned across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Run the full simulation.
    pub fn run(mut self) -> OrgReport {
        while self.step_week().is_some() {}
        self.into_report()
    }

    /// Simulate one retrain period (days, then the retrain barrier) and
    /// return its report, or `None` when every week has run. The unit of
    /// incremental execution — and the boundary [`MailOrg::checkpoint`] is
    /// valid at.
    pub fn step_week(&mut self) -> Option<&WeekReport> {
        let n_weeks = self.cfg.days.div_ceil(self.cfg.retrain_every);
        if self.next_week > n_weeks {
            return None;
        }
        let week = self.next_week;
        self.next_week += 1;
        // Whether *this* week was served by a stale last-good model is
        // decided by the previous retrain, before any of this week's mail.
        let degraded = self.serving_stale;
        let first_day = (week - 1) * self.cfg.retrain_every + 1;
        let last_day = (week * self.cfg.retrain_every).min(self.cfg.days);
        let tally = self.simulate_days(first_day, last_day);

        self.total_delivered += tally.delivered;
        self.total_failed += tally.failed;
        self.total_bounced += tally.bounced;
        self.total_redelivered += tally.redelivered;
        self.fault_stats.absorb(tally.fault_stats);

        // Retrain at week end (§2.1: periodic retraining) on the
        // stable-order merge of the shards' fresh pools.
        let outcome = self.retrain(week, first_day, last_day);
        let deferred = self.shards.iter().map(|s| s.deferred.len()).sum();

        // Reports merge into the run in canonical week order: week w is
        // always the (w)th entry, whatever shard count produced it.
        debug_assert_eq!(
            week as usize,
            self.weeks.len() + 1,
            "week reports must append in canonical week order"
        );
        let user = UserModel::default();
        let c = &tally.counts;
        let (n_ham, n_spam) = (c.total(Label::Ham), c.total(Label::Spam));
        let ham_as_spam = c.get(Folder::Spam, Label::Ham);
        self.weeks.push(WeekReport {
            week,
            offered: tally.offered,
            accepted: tally.accepted,
            bounced: tally.bounced,
            ham_as_spam: rate(ham_as_spam, n_ham),
            ham_misrouted: rate(ham_as_spam + c.get(Folder::Unsure, Label::Ham), n_ham),
            spam_caught: rate(c.get(Folder::Spam, Label::Spam), n_spam),
            spam_as_unsure: rate(c.get(Folder::Unsure, Label::Spam), n_spam),
            screened_out: outcome.screened_out,
            screen_error: outcome.screen_error,
            costs: user.costs(c),
            filter_useless: user.filter_useless(c, 0.2),
            deferred,
            redelivered: tally.redelivered,
            quarantined: outcome.quarantined,
            replayed: outcome.replayed,
            degraded,
            recovered_from_checkpoint: outcome.recovered,
            fault_stats: tally.fault_stats,
        });
        self.weeks.last()
    }

    /// Finish into the full report. Mail still deferred when the
    /// simulation ends is accounted as [`OrgReport::total_deferred`], so
    /// `delivered + failed + bounced + deferred` equals every message ever
    /// offered — nothing is silently lost.
    pub fn into_report(self) -> OrgReport {
        OrgReport {
            weeks: self.weeks,
            fault_stats: self.fault_stats,
            total_delivered: self.total_delivered,
            total_failed: self.total_failed,
            total_bounced: self.total_bounced,
            total_deferred: self.shards.iter().map(|s| s.deferred.len()).sum(),
            total_redelivered: self.total_redelivered,
        }
    }

    /// Snapshot the organization at the current week boundary. Restoring
    /// the checkpoint into a freshly built org with the same configuration
    /// ([`MailOrg::restore`]) continues bit-identically to never having
    /// stopped.
    pub fn checkpoint(&self) -> OrgCheckpoint {
        debug_assert!(
            self.shards.iter().all(|s| s.fresh.is_empty()),
            "checkpoints are valid only at week boundaries"
        );
        let opts = self.filter.options();
        let mailboxes: Vec<(usize, Mailbox)> = self
            .cfg
            .users
            .iter()
            .enumerate()
            .filter_map(|(u, name)| self.mailbox(name).map(|m| (u, m.clone())))
            .collect();
        let mut deferred: Vec<DeferredMail> = self
            .shards
            .iter()
            .flat_map(|s| s.deferred.iter().cloned())
            .collect();
        deferred.sort_unstable_by_key(|d| (d.orig_day, d.orig_pos));
        let mut replay: Vec<ReplayMail> = self
            .replay
            .iter()
            .map(|f| ReplayMail { day: f.day, pos: f.pos, user: f.user, mail: f.mail.clone() })
            .collect();
        replay.sort_unstable_by_key(|r| (r.day, r.pos));
        OrgCheckpoint {
            next_week: self.next_week,
            weeks: self.weeks.clone(),
            total_delivered: self.total_delivered,
            total_failed: self.total_failed,
            total_bounced: self.total_bounced,
            total_redelivered: self.total_redelivered,
            fault_stats: self.fault_stats,
            filter_image: sb_filter::persist::snapshot(self.filter.db()),
            filter_cutoffs: (opts.ham_cutoff, opts.spam_cutoff),
            serving_stale: self.serving_stale,
            pool: self.pool.clone(),
            replay,
            mailboxes,
            deferred,
        }
    }

    /// Rebuild an organization from a configuration plus a checkpoint
    /// taken from an identically-configured run (any shard count — the
    /// checkpoint is keyed by user, never by shard). The continued run is
    /// bit-identical to the uninterrupted one.
    pub fn restore(cfg: OrgConfig, ckpt: &OrgCheckpoint) -> Result<Self, OrgConfigError> {
        let mut org = Self::try_new(cfg)?;
        // Fail closed on a checkpoint from a different organization: a
        // recovery path must return the mismatch, not abort mid-restore.
        let users = org.cfg.users.len();
        if let Some(bad) = ckpt
            .mailboxes
            .iter()
            .map(|(u, _)| *u)
            .chain(ckpt.deferred.iter().map(|d| d.user))
            .find(|&u| u >= users)
        {
            return Err(OrgConfigError::CheckpointMismatch { user: bad, users });
        }
        org.next_week = ckpt.next_week;
        org.weeks = ckpt.weeks.clone();
        org.total_delivered = ckpt.total_delivered;
        org.total_failed = ckpt.total_failed;
        org.total_bounced = ckpt.total_bounced;
        org.total_redelivered = ckpt.total_redelivered;
        org.fault_stats = ckpt.fault_stats;
        // The image fails closed too. Counts are exact `u32`s and token
        // scoring tie-breaks by resolved string, so the restored filter
        // classifies bit-identically to the captured one.
        let db = sb_filter::persist::restore(&ckpt.filter_image)
            .map_err(|e| OrgConfigError::CorruptCheckpoint { reason: e.to_string() })?;
        let (t0, t1) = ckpt.filter_cutoffs;
        org.filter = SpamBayes::from_db(db);
        org.filter.set_options(FilterOptions::default().with_cutoffs(t0, t1));
        org.serving_stale = ckpt.serving_stale;
        // Pool and replay ids are recomputed by re-tokenizing: the interner
        // is shared process-global state, so the id *values* may differ
        // from the original run's, but screening, training and scoring
        // only ever depend on the resolved token strings.
        org.pool = ckpt.pool.clone();
        org.pool_ids = org
            .pool
            .emails()
            .iter()
            .map(|m| intern_email(&org.tokenizer, &org.interner, &m.email))
            .collect();
        org.replay = ckpt
            .replay
            .iter()
            .map(|r| FreshMail {
                day: r.day,
                pos: r.pos,
                user: r.user,
                mail: r.mail.clone(),
                ids: intern_email(&org.tokenizer, &org.interner, &r.mail.email),
            })
            .collect();
        // Redistribute user-keyed state over this run's shard layout.
        let n = org.shards.len();
        for shard in &mut org.shards {
            shard.mailboxes.clear();
            shard.fresh.clear();
            shard.deferred.clear();
        }
        for (u, mbox) in &ckpt.mailboxes {
            // sb-lint: allow(panic-path, "user indices validated against cfg.users on entry (CheckpointMismatch)")
            let name = org.cfg.users[*u].clone();
            // sb-lint: allow(panic-path, "`% n` keeps the shard index in bounds; try_new guarantees n >= 1")
            org.shards[*u % n].mailboxes.insert(name, mbox.clone());
        }
        for d in &ckpt.deferred {
            // sb-lint: allow(panic-path, "`% n` keeps the shard index in bounds; try_new guarantees n >= 1")
            org.shards[d.user % n].deferred.push(d.clone());
        }
        Ok(org)
    }

    /// Run days `first..=last` across all shards in parallel and merge the
    /// per-shard tallies. Each shard sees every day in the range but
    /// delivers only its own users' wire positions.
    fn simulate_days(&mut self, first_day: u32, last_day: u32) -> WeekTally {
        let attack_batches = attack_batches_for(&self.cfg, &self.seeds, first_day, last_day);
        // Delivery classifies ids from `self.interner` against the filter's
        // counts, so both must resolve ids through the same table.
        debug_assert!(
            self.filter.interner().same_table(&self.interner),
            "delivery interner and serving filter must share one table"
        );
        let ctx = DayCtx {
            cfg: &self.cfg,
            seeds: &self.seeds,
            generator: &self.generator,
            tokenizer: &self.tokenizer,
            interner: &self.interner,
            filter: &self.filter,
            rates: &self.rates,
            total_ham: self.rates.iter().map(|r| r.ham_per_day).sum(),
            total_spam: self.rates.iter().map(|r| r.spam_per_day).sum(),
            ham0: self.ham0,
            spam0: self.spam0,
            n_shards: self.shards.len(),
            first_day,
            attack_batches: &attack_batches,
        };
        let threads = par::default_threads().min(self.shards.len());
        let tallies = par::parallel_map_mut(&mut self.shards, threads, |_, shard| {
            let mut tally = WeekTally::default();
            for day in first_day..=last_day {
                shard.run_day(&ctx, day, &mut tally);
            }
            tally
        });
        // `parallel_map_mut` returns one tally per shard, positionally, so
        // this absorb runs in canonical shard-index order (every WeekTally
        // field is an order-independent sum, but the canonical order is
        // what the FaultStats/report merge's shard-invariance is stated
        // against — assert the positional contract held).
        debug_assert_eq!(
            tallies.len(),
            self.shards.len(),
            "week-tally merge: expected one tally per shard, in shard-index order"
        );
        let mut total = WeekTally::default();
        for t in tallies {
            total.absorb(t);
        }
        total
    }

    /// A retrain fallback: the installed filter is the last-good model,
    /// so it keeps serving until the next retrain.
    fn serve_last_good(&mut self, outcome: &mut RetrainOutcome) {
        self.serving_stale = true;
        outcome.recovered = true;
    }

    /// Retrain from the pool, applying the configured defense and the
    /// fault plan's retrain-time events. Reports what the screen rejected,
    /// what a crash quarantined, what a recovery replayed, and whether the
    /// week kept the last-good model.
    fn retrain(&mut self, week: u32, first_day: u32, last_day: u32) -> RetrainOutcome {
        let week_seeds = self.seeds.child("retrain").index(u64::from(week));
        // The merge barrier: per-shard fresh pools combine into the
        // canonical (day, wire position) arrival order — the same order
        // the single-shard loop pools in.
        let mut fresh = merge_fresh(
            self.shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.fresh))
                .collect(),
        );
        let mut outcome = RetrainOutcome::default();

        // A crashed mailstore node loses its in-memory journal for the
        // period so far: the crashed *user's* entries up to the crash day
        // are quarantined and replay into the next retrain once the node
        // restores. Keyed by user, never shard — shard ids change with the
        // shard count.
        let crashes = self.cfg.fault_plan.crashes_in(first_day, last_day);
        let mut held = Vec::new();
        if !crashes.is_empty() {
            let (h, kept): (Vec<FreshMail>, Vec<FreshMail>) = fresh.into_iter().partition(|f| {
                crashes
                    .iter()
                    .any(|&(user, crash_day)| f.user == user && f.day <= crash_day)
            });
            outcome.quarantined += h.len();
            held = h;
            fresh = kept;
        }

        // Injected retrain failure: the job dies before admitting
        // anything. The whole fresh batch is quarantined for replay (mail
        // trains late, never silently vanishes) and the organization
        // keeps serving the last-good model — a stale-model week, not a
        // fail-closed one.
        if self.cfg.fault_plan.retrain_fails(week) {
            outcome.quarantined += fresh.len();
            self.replay.extend(held);
            self.replay.extend(fresh);
            self.replay.sort_unstable_by_key(|f| (f.day, f.pos));
            self.serve_last_good(&mut outcome);
            return outcome;
        }

        // Quarantined entries from earlier failures rejoin this retrain's
        // batch in canonical arrival order; this period's crash holdback
        // sits out until the *next* retrain (the node is still down).
        if !self.replay.is_empty() {
            let replay = std::mem::take(&mut self.replay);
            outcome.replayed = replay.len();
            fresh.extend(replay);
            fresh.sort_unstable_by_key(|f| (f.day, f.pos));
        }
        self.replay = held;
        // The retrain consumes arrivals in canonical (day, wire position)
        // order — strictly increasing even after the quarantine partition
        // and replay re-merge (a replayed slot can never collide with a
        // live one: each wire slot pools exactly once).
        debug_assert!(
            fresh.windows(2).all(|w| (w[0].day, w[0].pos) < (w[1].day, w[1].pos)),
            "retrain input not in canonical (day, wire position) order after replay merge"
        );

        let mut screened_out = 0usize;
        let mut screen_error = None;

        // Phase 1: admission control on the fresh messages. Each one
        // arrives with the id set its delivering shard interned and
        // classified it by; that set drives screening now and every
        // retrain afterwards, so nothing here tokenizes.
        match self.cfg.defense {
            DefensePolicy::Roni | DefensePolicy::RoniPlusThreshold => {
                let mut rng = week_seeds.child("roni").rng();
                let roni = RoniDefense::from_ids(
                    RoniConfig::default(),
                    &self.bootstrap_ids,
                    FilterOptions::default(),
                    &mut rng,
                );
                // One parallel screening sweep over the merged week's
                // arrivals (read-only against the shared trial tables).
                // A screening failure fails closed: the week's mail stays
                // out of the pool and the error lands in the report.
                match roni.try_screen_ids(&fresh) {
                    Ok((kept, rejected)) => {
                        screened_out += rejected.len();
                        let mut admit = vec![false; fresh.len()];
                        for i in kept {
                            admit[i] = true;
                        }
                        for (f, ok) in fresh.into_iter().zip(admit) {
                            if ok {
                                self.pool.push(f.mail);
                                self.pool_ids.push(f.ids);
                            }
                        }
                    }
                    Err(e) => {
                        screen_error = Some(e.to_string());
                    }
                }
            }
            _ => {
                for f in fresh {
                    self.pool.push(f.mail);
                    self.pool_ids.push(f.ids);
                }
            }
        }

        // Phase 2: rebuild the filter from the (screened) pool.
        let wants_threshold = matches!(
            self.cfg.defense,
            DefensePolicy::DynamicThreshold { .. } | DefensePolicy::RoniPlusThreshold
        );
        let filter = if wants_threshold && self.pool.len() >= 4 {
            let items: Vec<TrainItem> = self
                .pool
                .emails()
                .iter()
                .zip(&self.pool_ids)
                .map(|(m, ids)| TrainItem::from_ids(Arc::clone(ids), m.label))
                .collect();
            // RoniPlusThreshold uses the loose (g = 0.10) variant: RONI has
            // already removed the gross outliers, so the milder threshold
            // costs less spam-as-unsure.
            let cfg = if matches!(self.cfg.defense, DefensePolicy::DynamicThreshold { strict: true })
            {
                ThresholdConfig::strict()
            } else {
                ThresholdConfig::loose()
            };
            let mut rng = week_seeds.child("calibrate").rng();
            calibrate(&items, cfg, FilterOptions::default(), &mut rng)
        } else {
            let mut f = SpamBayes::new();
            for (m, ids) in self.pool.emails().iter().zip(&self.pool_ids) {
                f.train_ids(ids, m.label, 1);
            }
            f
        };
        outcome.screened_out = screened_out;
        outcome.screen_error = screen_error;

        // Model-load corruption: the retrain itself succeeded (the pool
        // keeps this week's admissions), but the freshly built model is
        // corrupt at load time — it is never installed, and the last-good
        // model serves until the next retrain rebuilds from the intact pool.
        if self.cfg.fault_plan.model_corrupts(week) {
            self.serve_last_good(&mut outcome);
        } else {
            self.filter = filter;
            self.serving_stale = false;
        }
        outcome
    }
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fisher–Yates with our own RNG (keeps `rand` out of the non-dev deps).
/// Index draws use [`sb_stats::rng::Xoshiro256pp::next_below`] — Lemire
/// rejection sampling on the full `u64` stream — because the previous
/// `next() as usize % (i + 1)` fold was modulo-biased and truncated the
/// draw to 32 bits on 32-bit targets.
fn shuffle<T>(items: &mut [T], rng: &mut sb_stats::rng::Xoshiro256pp) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::FaultEvent;
    use sb_core::{DictionaryAttack, DictionaryKind};

    fn expect_err(result: Result<MailOrg, OrgConfigError>) -> OrgConfigError {
        match result {
            Ok(_) => panic!("config should have been rejected"),
            Err(e) => e,
        }
    }

    fn base_config(seed: u64) -> OrgConfig {
        let mut cfg = OrgConfig::small(seed);
        // Keep unit-test scale small; integration tests run bigger.
        cfg.days = 14;
        cfg.bootstrap_size = 200;
        cfg.corpus = CorpusConfig::with_size(200, 0.5);
        cfg.traffic = TrafficMix {
            ham_per_day: 10,
            spam_per_day: 10,
        };
        cfg
    }

    fn usenet_plan(start_day: u32, per_day: u32) -> AttackPlan {
        AttackPlan::new(
            start_day,
            per_day,
            Box::new(DictionaryAttack::new(DictionaryKind::UsenetTop(2_000))),
        )
    }

    fn with_attack(mut cfg: OrgConfig, per_day: u32) -> OrgConfig {
        cfg.attacks = vec![usenet_plan(1, per_day)];
        cfg
    }

    #[test]
    fn clean_run_keeps_filter_usable() {
        let report = MailOrg::new(base_config(1)).run();
        assert_eq!(report.weeks.len(), 2);
        for w in &report.weeks {
            assert!(
                w.ham_misrouted < 0.2,
                "week {} misroutes {}",
                w.week,
                w.ham_misrouted
            );
            assert!(!w.filter_useless);
            assert!(w.spam_caught > 0.5, "week {} catches {}", w.week, w.spam_caught);
            assert_eq!(w.bounced, 0);
            assert!(w.screen_error.is_none());
        }
        assert_eq!(report.total_failed, 0);
        assert_eq!(report.total_bounced, 0);
    }

    #[test]
    fn attack_detonates_at_first_retrain() {
        let report = MailOrg::new(with_attack(base_config(2), 8)).run();
        // Week 1: filter still clean (attack mail only sits in the pool).
        // Week 2: the retrained filter is poisoned.
        let w1 = &report.weeks[0];
        let w2 = &report.weeks[1];
        assert!(
            w2.ham_misrouted > w1.ham_misrouted + 0.2,
            "no detonation: week1 {} week2 {}",
            w1.ham_misrouted,
            w2.ham_misrouted
        );
        assert!(w2.filter_useless, "poisoned filter should be useless");
    }

    #[test]
    fn roni_defense_blocks_the_campaign() {
        let undefended = MailOrg::new(with_attack(base_config(3), 8)).run();
        let mut cfg = with_attack(base_config(3), 8);
        cfg.defense = DefensePolicy::Roni;
        let defended = MailOrg::new(cfg).run();
        let w2u = &undefended.weeks[1];
        let w2d = &defended.weeks[1];
        assert!(
            w2d.ham_misrouted < w2u.ham_misrouted / 2.0,
            "RONI ineffective: defended {} vs undefended {}",
            w2d.ham_misrouted,
            w2u.ham_misrouted
        );
        // Both retrains see attack mail in their fresh pools (the campaign
        // runs all 14 days), so both weeks screen some out.
        assert!(
            defended.weeks[0].screened_out > 0,
            "RONI should have screened attack mail at week 1's retrain"
        );
        assert!(
            defended.weeks[1].screened_out > 0,
            "RONI should keep screening at week 2's retrain"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = MailOrg::new(with_attack(base_config(7), 4)).run();
        let b = MailOrg::new(with_attack(base_config(7), 4)).run();
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.ham_misrouted, wb.ham_misrouted);
            assert_eq!(wa.screened_out, wb.screened_out);
        }
    }

    #[test]
    fn sharded_run_matches_single_shard_bitwise() {
        let runs: Vec<OrgReport> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mut cfg = with_attack(base_config(21), 6);
                cfg.defense = DefensePolicy::Roni;
                cfg.shards = shards;
                MailOrg::new(cfg).run()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(
                &runs[0], other,
                "weekly reports must be bit-identical across shard counts"
            );
        }
    }

    #[test]
    fn shard_count_clamps_and_auto_selects() {
        let mut cfg = base_config(5);
        cfg.shards = 64; // more shards than users: clamped to user count
        let org = MailOrg::new(cfg);
        assert_eq!(org.shard_count(), 5);
        let mut cfg = base_config(5);
        cfg.shards = 0; // auto: at least one shard, never more than users
        let org = MailOrg::new(cfg);
        assert!((1..=5).contains(&org.shard_count()));
    }

    #[test]
    fn faulty_wire_degrades_gracefully() {
        let mut cfg = base_config(11);
        cfg.faults = FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.05,
        };
        let report = MailOrg::new(cfg).run();
        // Deliveries mostly succeed; any failures are accounted — retried
        // via the deferred queue, then failed or left deferred, never lost.
        let offered: usize = report.weeks.iter().map(|w| w.offered).sum();
        assert_eq!(
            report.total_delivered
                + report.total_failed
                + report.total_bounced
                + report.total_deferred,
            offered,
            "accounting must balance"
        );
        assert!(report.fault_stats.dropped + report.fault_stats.corrupted > 0);
        assert!(report.total_delivered as f64 / offered as f64 > 0.9);
    }

    /// The satellite accounting-identity gate: under `FaultConfig::harsh()`
    /// every offered message is delivered, failed, bounced, or still
    /// deferred — at every shard count, with bit-identical reports, and
    /// with the deferred queue actually redelivering some of what the
    /// first attempts lost.
    #[test]
    fn accounting_identity_holds_under_harsh_faults_across_shards() {
        let runs: Vec<OrgReport> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mut cfg = base_config(43);
                cfg.faults = FaultConfig::harsh();
                cfg.shards = shards;
                MailOrg::new(cfg).run()
            })
            .collect();
        let baseline = &runs[0];
        let offered: usize = baseline.weeks.iter().map(|w| w.offered).sum();
        assert_eq!(
            baseline.total_delivered
                + baseline.total_failed
                + baseline.total_bounced
                + baseline.total_deferred,
            offered,
            "no message may be silently lost"
        );
        assert!(
            baseline.total_redelivered > 0,
            "a harsh wire must exercise the deferred queue"
        );
        let weekly_redelivered: usize = baseline.weeks.iter().map(|w| w.redelivered).sum();
        assert_eq!(weekly_redelivered, baseline.total_redelivered);
        assert_eq!(
            baseline.total_deferred,
            baseline.weeks.last().unwrap().deferred,
            "end-of-run deferral is the last week's carry-over"
        );
        for other in &runs[1..] {
            assert_eq!(baseline, other, "deferral must be shard-invariant");
        }
    }

    /// An injected retrain failure quarantines the week's fresh mail and
    /// serves the last-good checkpoint: the failure week reports the
    /// recovery, the following week is degraded (stale model) and replays
    /// the quarantined batch, and the filter keeps classifying throughout.
    #[test]
    fn retrain_failure_serves_stale_checkpoint_and_replays() {
        let mut cfg = base_config(47);
        cfg.fault_plan.events = vec![FaultEvent::RetrainFailure { week: 1 }];
        let report = MailOrg::new(cfg).run();
        let w1 = &report.weeks[0];
        let w2 = &report.weeks[1];
        assert!(w1.recovered_from_checkpoint, "week 1 must fall back");
        assert!(!w1.degraded, "week 1 itself ran on the bootstrap model");
        assert!(w1.quarantined > 0, "the fresh batch must be quarantined");
        assert_eq!(w1.screened_out, 0, "a dead retrain screens nothing");
        assert!(w2.degraded, "week 2 serves the stale checkpoint");
        assert_eq!(
            w2.replayed, w1.quarantined,
            "week 2's retrain replays exactly the quarantined batch"
        );
        assert!(!w2.recovered_from_checkpoint);
        assert!(
            w2.spam_caught > 0.5,
            "the stale bootstrap model still filters: {}",
            w2.spam_caught
        );
        // A clean comparison run: identical week-1 traffic (the plan only
        // touches the retrain), so degradation is purely model staleness.
        let clean = MailOrg::new(base_config(47)).run();
        assert_eq!(clean.weeks[0].offered, report.weeks[0].offered);
        assert!(!clean.weeks[1].degraded);
    }

    /// Model-load corruption keeps the pool's admissions but serves the
    /// checkpoint model: nothing is quarantined, the week reports the
    /// recovery, the next week is degraded.
    #[test]
    fn model_corruption_falls_back_without_losing_the_pool() {
        let mut cfg = base_config(53);
        cfg.fault_plan.events = vec![FaultEvent::ModelCorruption { week: 1 }];
        let report = MailOrg::new(cfg).run();
        let w1 = &report.weeks[0];
        let w2 = &report.weeks[1];
        assert!(w1.recovered_from_checkpoint);
        assert_eq!(w1.quarantined, 0, "the retrain itself succeeded");
        assert!(w2.degraded);
        assert_eq!(w2.replayed, 0, "nothing was held back");
    }

    /// A scheduled mailbox loss bounces the user's mail from the loss day
    /// to the end of the retrain period, then the routing table is
    /// rebuilt: week 1 bounces, week 2 is clean again.
    #[test]
    fn mailbox_loss_bounces_until_the_period_boundary() {
        let mut cfg = base_config(59);
        cfg.fault_plan.events = vec![FaultEvent::MailboxLoss { day: 3, user: 0 }];
        let report = MailOrg::new(cfg).run();
        assert!(report.weeks[0].bounced > 0, "loss window must bounce");
        assert_eq!(report.weeks[1].bounced, 0, "restored at the boundary");
        let offered: usize = report.weeks.iter().map(|w| w.offered).sum();
        assert_eq!(
            report.total_delivered
                + report.total_failed
                + report.total_bounced
                + report.total_deferred,
            offered
        );
    }

    /// A mid-period node crash quarantines the crashed user's fresh pool
    /// entries up to the crash day and replays them at the next retrain —
    /// the mail trains a week late instead of vanishing.
    #[test]
    fn shard_crash_quarantines_and_replays_by_user() {
        let mut cfg = base_config(61);
        cfg.fault_plan.events = vec![FaultEvent::ShardCrash { day: 4, user: 2 }];
        let report = MailOrg::new(cfg).run();
        let w1 = &report.weeks[0];
        let w2 = &report.weeks[1];
        assert!(w1.quarantined > 0, "crash must hold back pool entries");
        assert_eq!(w2.replayed, w1.quarantined);
        assert!(!w1.recovered_from_checkpoint, "a node crash is not a model failure");
        assert!(!w2.degraded);
        // Quarantine holds back one user's slice, never the whole pool.
        assert!(w1.quarantined < w1.offered, "{}", w1.quarantined);
    }

    /// The fault-plan events are all keyed by user/day/week, so a chaotic
    /// plan (ramp + crash + mailbox loss + retrain failure) stays
    /// bit-identical across shard counts.
    #[test]
    fn chaotic_plan_is_bit_identical_across_shard_counts() {
        let runs: Vec<OrgReport> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mut cfg = base_config(67);
                cfg.faults = FaultConfig {
                    drop_chance: 0.02,
                    corrupt_chance: 0.02,
                };
                cfg.fault_plan.events = vec![
                    FaultEvent::PipeFaults {
                        start_day: 3,
                        end_day: 8,
                        from: FaultConfig { drop_chance: 0.1, corrupt_chance: 0.05 },
                        to: FaultConfig { drop_chance: 0.35, corrupt_chance: 0.05 },
                    },
                    FaultEvent::ShardCrash { day: 4, user: 1 },
                    FaultEvent::MailboxLoss { day: 6, user: 3 },
                    FaultEvent::RetrainFailure { week: 1 },
                ];
                cfg.shards = shards;
                MailOrg::new(cfg).run()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(&runs[0], other);
        }
        let offered: usize = runs[0].weeks.iter().map(|w| w.offered).sum();
        assert_eq!(
            runs[0].total_delivered
                + runs[0].total_failed
                + runs[0].total_bounced
                + runs[0].total_deferred,
            offered
        );
    }

    /// `try_new` rejects invalid configurations with typed errors instead
    /// of panicking.
    #[test]
    fn try_new_rejects_bad_configs_with_typed_errors() {
        let mut cfg = base_config(71);
        cfg.faults.drop_chance = 2.0;
        assert!(matches!(
            expect_err(MailOrg::try_new(cfg)),
            OrgConfigError::BaseFaults(FaultError::ChanceOutOfRange { .. })
        ));
        let mut cfg = base_config(71);
        cfg.fault_plan.events = vec![FaultEvent::ShardCrash { day: 2, user: 99 }];
        assert!(matches!(
            expect_err(MailOrg::try_new(cfg)),
            OrgConfigError::Plan(FaultPlanError::UserOutOfRange { .. })
        ));
        let mut cfg = base_config(71);
        cfg.users.clear();
        assert_eq!(expect_err(MailOrg::try_new(cfg)), OrgConfigError::NoUsers);
        let mut cfg = base_config(71);
        cfg.retrain_every = 0;
        assert_eq!(expect_err(MailOrg::try_new(cfg)), OrgConfigError::ZeroRetrain);
    }

    /// Checkpoint/restore at a week boundary continues bit-identically —
    /// including under an active fault plan with deferred mail in flight.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let make = || {
            let mut cfg = base_config(73);
            cfg.faults = FaultConfig::harsh();
            cfg.fault_plan.events = vec![FaultEvent::RetrainFailure { week: 1 }];
            cfg.defense = DefensePolicy::Roni;
            cfg
        };
        let uninterrupted = MailOrg::new(make()).run();
        let mut org = MailOrg::new(make());
        org.step_week().expect("week 1");
        let ckpt = org.checkpoint();
        drop(org);
        let resumed = MailOrg::restore(make(), &ckpt).expect("restore");
        assert_eq!(resumed.run(), uninterrupted);
    }

    /// A checkpoint with one byte flipped in its model image is refused
    /// with a typed error: restore neither panics nor loads another model.
    #[test]
    fn corrupt_checkpoint_model_is_a_typed_error() {
        let mut org = MailOrg::new(base_config(79));
        org.step_week().expect("week 1");
        let ckpt = org.checkpoint();
        drop(org);
        let len = ckpt.filter_image.len();
        // Magic, reserved field, class totals, checksum, counts array,
        // mid-file, arena tail.
        for pos in [0, 12, 17, 44, 51, len / 2, len - 1] {
            let mut bad = ckpt.clone();
            bad.filter_image[pos] ^= 0x10;
            match MailOrg::restore(base_config(79), &bad) {
                Err(OrgConfigError::CorruptCheckpoint { .. }) => {}
                Err(other) => panic!("byte {pos}: unexpected error {other}"),
                Ok(_) => panic!("image with byte {pos} flipped was restored"),
            }
        }
    }

    /// Borrow-friendly test harness: run one day across all shards
    /// sequentially against a ctx built from the org's own state.
    fn run_one_day(org: &mut MailOrg, day: u32) -> WeekTally {
        let mut tally = WeekTally::default();
        let batches = attack_batches_for(&org.cfg, &org.seeds, day, day);
        let ctx = DayCtx {
            cfg: &org.cfg,
            seeds: &org.seeds,
            generator: &org.generator,
            tokenizer: &org.tokenizer,
            interner: &org.interner,
            filter: &org.filter,
            rates: &org.rates,
            total_ham: org.rates.iter().map(|r| r.ham_per_day).sum(),
            total_spam: org.rates.iter().map(|r| r.spam_per_day).sum(),
            ham0: org.ham0,
            spam0: org.spam0,
            n_shards: org.shards.len(),
            first_day: day,
            attack_batches: &batches,
        };
        let mut shards = std::mem::take(&mut org.shards);
        for shard in &mut shards {
            shard.run_day(&ctx, day, &mut tally);
        }
        org.shards = shards;
        tally
    }

    #[test]
    fn mailboxes_accumulate_by_user() {
        let mut cfg = base_config(13);
        cfg.shards = 2;
        let mut org = MailOrg::new(cfg);
        let users = org.cfg.users.clone();
        run_one_day(&mut org, 1);
        for u in &users {
            assert!(
                !org.mailbox(u).expect("mailbox").is_empty(),
                "user {u} got no mail"
            );
        }
    }

    /// A delivered message is kept once: the mailbox and the fresh pool
    /// hold two handles to one copy of its text.
    #[test]
    fn mailbox_and_pool_share_each_message() {
        let mut cfg = base_config(17);
        cfg.shards = 2;
        let mut org = MailOrg::new(cfg);
        let tally = run_one_day(&mut org, 1);
        assert!(tally.delivered > 0);
        let mut stored = Vec::new();
        for (u, name) in org.cfg.users.iter().enumerate() {
            let mbox = org.mailbox(name).expect("mailbox");
            for folder in [Folder::Inbox, Folder::Unsure, Folder::Spam] {
                for m in mbox.folder(folder) {
                    stored.push((u, m.email.body().as_ptr()));
                }
            }
        }
        let mut pooled: Vec<_> = org
            .shards
            .iter()
            .flat_map(|s| &s.fresh)
            .map(|f| (f.user, f.mail.email.body().as_ptr()))
            .collect();
        assert_eq!(stored.len(), tally.delivered);
        stored.sort_unstable();
        pooled.sort_unstable();
        assert_eq!(stored, pooled);
    }

    /// Heterogeneous per-user rates are honored exactly: a user with zero
    /// configured traffic and no campaign aimed at them receives nothing,
    /// and the day's offered total is the sum of the per-user rates.
    #[test]
    fn per_user_traffic_controls_volume() {
        let mut cfg = base_config(19);
        cfg.user_traffic = vec![
            TrafficMix { ham_per_day: 8, spam_per_day: 2 },
            TrafficMix { ham_per_day: 2, spam_per_day: 8 },
            TrafficMix { ham_per_day: 5, spam_per_day: 5 },
            TrafficMix { ham_per_day: 0, spam_per_day: 0 },
            TrafficMix { ham_per_day: 1, spam_per_day: 1 },
        ];
        let mut org = MailOrg::new(cfg);
        let users = org.cfg.users.clone();
        let tally = run_one_day(&mut org, 1);
        assert_eq!(tally.offered, 8 + 2 + 2 + 8 + 5 + 5 + 1 + 1);
        assert!(org.mailbox(&users[3]).expect("mailbox").is_empty());
        assert!(!org.mailbox(&users[0]).expect("mailbox").is_empty());
    }

    /// A targeted campaign's mail lands only in the target users'
    /// mailboxes: users with zero organic traffic outside the target list
    /// stay empty.
    #[test]
    fn targeted_campaign_hits_only_targets() {
        let mut cfg = base_config(23);
        // No organic traffic at all: every delivery is campaign mail.
        cfg.user_traffic = vec![TrafficMix { ham_per_day: 0, spam_per_day: 0 }; 5];
        let mut plan = usenet_plan(1, 9);
        plan.targets = Some(vec![1, 3]);
        cfg.attacks = vec![plan];
        let mut org = MailOrg::new(cfg);
        let users = org.cfg.users.clone();
        let tally = run_one_day(&mut org, 1);
        assert_eq!(tally.offered, 9);
        for (u, name) in users.iter().enumerate() {
            let got = !org.mailbox(name).expect("mailbox").is_empty();
            assert_eq!(got, u == 1 || u == 3, "user {u} targeting wrong");
        }
    }

    /// A ramped campaign's day volumes follow the schedule exactly: the
    /// coordinator materializes `volume_on(day)` messages, so the offered
    /// count walks the ramp day by day.
    #[test]
    fn ramped_campaign_volume_follows_the_schedule() {
        let mut cfg = base_config(31);
        let mut plan = usenet_plan(2, 0);
        plan.end_day = Some(6);
        plan.intensity = Intensity::LinearRamp { from: 2, to: 10 };
        cfg.attacks = vec![plan];
        let organic = 20; // 10 ham + 10 spam per day in base_config
        let mut org = MailOrg::new(cfg);
        assert_eq!(run_one_day(&mut org, 1).offered, organic);
        assert_eq!(run_one_day(&mut org, 2).offered, organic + 2);
        assert_eq!(run_one_day(&mut org, 4).offered, organic + 6);
        assert_eq!(run_one_day(&mut org, 6).offered, organic + 10);
        assert_eq!(run_one_day(&mut org, 7).offered, organic);
    }

    /// A burst campaign sends only on its cycle's on-days.
    #[test]
    fn burst_campaign_gates_by_cycle() {
        let mut cfg = base_config(37);
        let mut plan = usenet_plan(1, 0);
        plan.intensity = Intensity::Bursts { period: 3, on_days: 1, per_day: 5 };
        cfg.attacks = vec![plan];
        let organic = 20;
        let mut org = MailOrg::new(cfg);
        assert_eq!(run_one_day(&mut org, 1).offered, organic + 5);
        assert_eq!(run_one_day(&mut org, 2).offered, organic);
        assert_eq!(run_one_day(&mut org, 3).offered, organic);
        assert_eq!(run_one_day(&mut org, 4).offered, organic + 5);
    }

    /// The campaign environment's `MessageRef` resolution mirrors the day
    /// plan: the resolved email is byte-identical to the one the named
    /// user actually receives (the cross-crate contract the focused
    /// campaign depends on).
    #[test]
    fn campaign_env_resolves_the_delivered_ham() {
        let cfg = base_config(41);
        let generator = cfg.corpus_generator();
        let env = cfg.campaign_env(&generator);
        // base_config: traffic 10/10 over 5 users -> 2 ham/user/day.
        let target = sb_core::MessageRef { user: 3, nth_ham: 3 }; // day 2, slot 1
        let expect = env.resolve_ham(target).expect("in range");
        let mut org = MailOrg::new(cfg);
        let user = org.cfg.users[3].clone();
        run_one_day(&mut org, 1);
        run_one_day(&mut org, 2);
        let mbox = org.mailbox(&user).expect("mailbox");
        let delivered: Vec<&Email> = [
            crate::mailbox::Folder::Inbox,
            crate::mailbox::Folder::Unsure,
            crate::mailbox::Folder::Spam,
        ]
        .iter()
        .flat_map(|&f| mbox.folder(f))
        .map(|m| &m.email)
        .collect();
        assert!(
            delivered.iter().any(|e| **e == expect),
            "resolved target must be among user 3's {} deliveries",
            delivered.len()
        );
    }

    /// Campaign windows are inclusive and staggered campaigns compose:
    /// outside every window only organic traffic arrives, inside both the
    /// offered count carries both campaigns' intensities.
    #[test]
    fn staggered_campaign_windows_compose() {
        let mut cfg = base_config(29);
        let mut early = usenet_plan(2, 3);
        early.end_day = Some(4);
        let late = AttackPlan::new(
            4,
            5,
            Box::new(DictionaryAttack::new(DictionaryKind::Aspell)),
        );
        cfg.attacks = vec![early, late];
        let organic = 20; // 10 ham + 10 spam per day in base_config
        let mut org = MailOrg::new(cfg);
        assert_eq!(run_one_day(&mut org, 1).offered, organic);
        assert_eq!(run_one_day(&mut org, 2).offered, organic + 3);
        assert_eq!(run_one_day(&mut org, 4).offered, organic + 3 + 5);
        assert_eq!(run_one_day(&mut org, 5).offered, organic + 5);
    }

    /// Regression: mail accepted for a recipient with no local mailbox
    /// must bounce into the day stats, not panic the simulation (the
    /// pre-shard loop `expect`ed the mailbox).
    #[test]
    fn unknown_recipient_bounces_instead_of_panicking() {
        let mut org = MailOrg::new(base_config(17));
        // Simulate a stale routing table: the shard loses one mailbox.
        let victim = org.cfg.users[0].clone();
        assert!(org.remove_mailbox(&victim), "mailbox should exist");
        assert!(!org.remove_mailbox(&victim), "second removal is a no-op");
        let tally = run_one_day(&mut org, 1);
        assert!(tally.bounced > 0, "missing mailbox must surface as bounces");
        assert_eq!(
            tally.delivered + tally.failed + tally.bounced,
            tally.offered,
            "bounces must stay inside the accounting identity"
        );
        // Bounced mail never reaches the training pool.
        let pooled: usize = org.shards.iter().map(|s| s.fresh.len()).sum();
        assert_eq!(pooled, tally.delivered);
    }

    #[test]
    fn merge_order_is_deterministic_across_shard_orders() {
        let entry = |day: u32, pos: u64| FreshMail {
            day,
            pos,
            user: pos as usize,
            mail: LabeledEmail::ham(
                sb_email::Email::builder().body(format!("d{day}p{pos}")).build(),
            ),
            ids: Arc::new(Vec::new()),
        };
        // Two shards' pools, interleaved arrivals across two days.
        let shard_a = || vec![entry(1, 0), entry(1, 2), entry(2, 1)];
        let shard_b = || vec![entry(1, 1), entry(2, 0), entry(2, 2)];
        let ab = merge_fresh(vec![shard_a(), shard_b()]);
        let ba = merge_fresh(vec![shard_b(), shard_a()]);
        let key = |v: &[FreshMail]| v.iter().map(|f| (f.day, f.pos)).collect::<Vec<_>>();
        assert_eq!(key(&ab), key(&ba));
        assert_eq!(
            key(&ab),
            vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
            "merge must be the canonical (day, position) arrival order"
        );
    }
}
