//! The scenario engine: declarative multi-campaign organization runs with
//! a golden-report regression harness and in-file behavioral assertions.
//!
//! A [`ScenarioSpec`] declares one complete organization simulation — the
//! user population, heterogeneous per-user traffic mixes, the defense, and
//! **any number of concurrent attack campaigns** spanning the full §3.1
//! taxonomy (dictionary floods, focused attacks on declaratively named
//! messages, ham-chaff) with staggered windows, shaped intensities
//! (constant / linear ramp / burst trains), and target users — in a small
//! plain-text format that lives under `scenarios/` in the repository.
//! (The spec types derive the serde markers for the swap-back story, but
//! like every other artifact format in this workspace the file format
//! itself is hand-rolled; see `crates/shims/README.md`.)
//!
//! ## Spec format
//!
//! Line-oriented `key = value` pairs, `#` comments, one `[campaign]`
//! section per attack campaign, and bare `expect` assertion lines:
//!
//! ```text
//! name = overlap-two-campaigns
//! seed = 2008
//! users = 6
//! days = 15
//! retrain_every = 5
//! bootstrap = 160
//! defense = roni            # none | roni | threshold | threshold-strict | roni+threshold
//! traffic = 12/12           # org-wide ham/spam per day (round-robin split)
//! user_traffic = 18/6, 12/12, 12/12, 12/12, 12/12, 6/30   # optional, per user
//! faults = 0.01/0.01        # optional drop/corrupt chances
//! shards = 0                # optional parallelism hint (0 = auto)
//! redelivery = 3            # optional deferred-queue retry budget in days
//! fault = pipe 8-14 drop:0.1->0.3 corrupt:0.05   # see the fault grammar below
//! fault = retrain 2
//!
//! [campaign]
//! attack = usenet:2000      # see the attack grammar below
//! start_day = 1
//! end_day = 10              # optional; inclusive
//! per_day = 5               # constant shorthand; or `intensity = …`
//! targets = 0, 1            # optional user indices
//!
//! [campaign]
//! attack = focused user:3 ham:5 guess:50
//! start_day = 2
//! end_day = 9
//! intensity = ramp:2->10
//!
//! expect 2 ham_misrouted > 0.2
//! expect 1 bounced == 0
//! ```
//!
//! ### Attack grammar (`attack = …`)
//!
//! * `optimal` | `aspell` | `aspell-half` | `usenet:K` — the §3.2
//!   dictionary family;
//! * `focused user:<u> ham:<k> [guess:<pct>]` — the §3.3 focused attack on
//!   user `u`'s `k`-th legitimate email (both 0-based; the
//!   [`sb_core::MessageRef`] resolves deterministically against the
//!   pure-counter corpus, so the attacked message is exactly one the
//!   simulation will deliver). `guess` is the §4.3 token-guessing
//!   probability in percent (default 50);
//! * `ham-chaff:<n>` — §2.2's ham-shift chaff laundering an `n`-word
//!   campaign vocabulary.
//!
//! ### Intensity grammar (`intensity = …`)
//!
//! * `constant:<n>` — `n` messages every active day (`per_day = <n>` is
//!   shorthand for this; a campaign section takes exactly one of the two);
//! * `ramp:<from>-><to>` — linear ramp across the campaign window
//!   (requires `end_day`, so the ramp has a last day to reach `to` on);
//! * `bursts:period=<p>,on=<d>,per_day=<n>` — `n` messages on the first
//!   `d` days of every `p`-day cycle, nothing in between.
//!
//! Schedules that send nothing over their whole active window, campaigns
//! starting after the simulation ends, and `focused` refs naming messages
//! the organization will never receive are rejected at parse time with the
//! offending line number.
//!
//! ### Fault grammar (`fault = …`)
//!
//! Scheduled fault events build a deterministic chaos plan (scenario-level
//! wherever they appear, like `expect` lines):
//!
//! * `pipe <start>-<end> drop:<a>[-><b>] corrupt:<a>[-><b>]` — override
//!   the wire fault chances over an inclusive day window; `a->b` ramps
//!   linearly across the window. The last window covering a day wins.
//! * `crash <day> user:<u>` — mailstore node crash: user `u`'s fresh pool
//!   entries up to `day` are quarantined and replay at the *next* retrain.
//! * `mailbox <day> user:<u>` — mailbox loss: user `u`'s mail bounces from
//!   `day` to the end of that retrain period.
//! * `retrain <week>` — the week's retrain job dies: the whole fresh batch
//!   quarantines for replay and the organization serves the last-good
//!   checkpointed model (the following week reports `degraded`).
//! * `model <week>` — the retrained model is corrupted on load: pool
//!   admissions stand, but the checkpoint model serves.
//!
//! The `redelivery` key sets the deferred-queue budget: a delivery that
//! exhausts its SMTP retries re-enters the next day's wire plan for up to
//! that many days before counting as failed (0 disables deferral). Events
//! are keyed by user/day/week — never by shard — so chaos runs stay
//! bit-identical across shard counts.
//!
//! ### Expectations (`expect <week> <field> <op> <value>`)
//!
//! Bare assertion lines turn a scenario into a readable behavioral test:
//! `expect 2 ham_misrouted > 0.5` requires week 2's ham-misrouted rate to
//! exceed 0.5. Fields: `offered`, `accepted`, `bounced`, `ham_as_spam`,
//! `ham_misrouted`, `spam_caught`, `spam_as_unsure`, `screened_out`,
//! `filter_useless` (0/1), plus the fault-plan surface: `deferred`,
//! `redelivered`, `quarantined`, `replayed`, `degraded` (0/1), `recovered`
//! (0/1), `fault_dropped`, `fault_corrupted`.
//! Operators: `<  <=  >  >=  ==  !=` (exact float
//! comparison — use `==` for the integer-valued fields). Expectations are
//! evaluated by the rig's scenario targets (`repro run --only <stem>`,
//! non-zero exit on failure) and enforced for every committed scenario by
//! the `golden_scenarios` suite.
//!
//! The grammar round-trips: [`ScenarioSpec::format`] renders the canonical
//! text form, and `parse(format(parse(text)))` equals `parse(text)` for
//! every valid spec (checked in CI's lint lane).
//!
//! ## Golden digests
//!
//! [`golden_digest`] renders an [`OrgReport`] as a canonical CSV — every
//! weekly metric printed with exact round-trip float formatting — and
//! seals it with an FNV-1a 64 hash line. The digests for the committed
//! scenarios live under `tests/golden/` and are locked by the
//! `golden_scenarios` integration test: reports must be **bit-identical**
//! across shard counts and across refactors. After an *intentional*
//! behavior change, refresh them with
//!
//! ```text
//! SB_UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! ```

use sb_core::campaign::{validate_campaigns, AttackKind, CampaignShape, CampaignSpec, Intensity};
use sb_corpus::CorpusConfig;
use sb_mailflow::{
    DefensePolicy, FaultConfig, FaultEvent, FaultPlan, MailOrg, OrgConfig, OrgReport, TrafficMix,
    WeekReport,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// A fully declared organization scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (also the golden-digest file stem).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Number of users (addresses are generated as `user<i>@corp.example`).
    pub users: usize,
    /// Days to simulate.
    pub days: u32,
    /// Retrain period in days.
    pub retrain_every: u32,
    /// Clean bootstrap training-set size (also sizes the corpus model).
    pub bootstrap: usize,
    /// Organization-wide daily (ham, spam) volumes, split round-robin
    /// (ignored when `user_traffic` is non-empty).
    pub traffic: (u32, u32),
    /// Optional per-user daily (ham, spam) rates, one entry per user.
    pub user_traffic: Vec<(u32, u32)>,
    /// Wire-fault (drop, corrupt) chances.
    pub faults: (f64, f64),
    /// Defense at retraining time.
    pub defense: DefensePolicy,
    /// Worker-shard hint (0 = auto). Reports are bit-identical for every
    /// value; the golden harness overrides this with its own matrix.
    pub shards: usize,
    /// Redelivery budget: days a failed delivery may retry through the
    /// deferred queue before it counts as failed (0 = fail immediately).
    pub redelivery: u32,
    /// Scheduled fault events — the chaos plan (empty = no injected
    /// faults beyond the base `faults` chances).
    pub fault_events: Vec<FaultEvent>,
    /// The attack campaigns (empty = clean baseline).
    pub campaigns: Vec<CampaignSpec>,
    /// In-file behavioral assertions over the weekly report.
    pub expectations: Vec<Expectation>,
}

/// A scenario-file syntax or validation error, with a 1-based line number
/// where one applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line the error was detected on (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        message: message.into(),
    }
}

/// A weekly-report field an `expect` line can assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpectField {
    /// Messages offered to SMTP.
    Offered,
    /// Messages accepted by the server.
    Accepted,
    /// Accepted messages bounced for lack of a mailbox.
    Bounced,
    /// Fraction of ham classified spam.
    HamAsSpam,
    /// Fraction of ham classified spam or unsure.
    HamMisrouted,
    /// Fraction of true spam classified spam.
    SpamCaught,
    /// Fraction of true spam classified unsure.
    SpamAsUnsure,
    /// Pool entries rejected at the week's retrain.
    ScreenedOut,
    /// The §2.1 "no advantage from continued use" predicate (as 0/1).
    FilterUseless,
    /// Messages still in the deferred queue after the week's retrain.
    Deferred,
    /// Messages delivered via the deferred queue this week.
    Redelivered,
    /// Fresh pool entries quarantined at the week's retrain.
    Quarantined,
    /// Earlier quarantined entries replayed into the week's retrain.
    Replayed,
    /// Week served a stale checkpointed model (as 0/1).
    Degraded,
    /// Week's retrain fell back to the last-good checkpoint (as 0/1).
    Recovered,
    /// Wire chunks dropped by fault injection during the week.
    FaultDropped,
    /// Wire chunks corrupted by fault injection during the week.
    FaultCorrupted,
}

impl ExpectField {
    /// All fields with their grammar names.
    const ALL: [(ExpectField, &'static str); 17] = [
        (ExpectField::Offered, "offered"),
        (ExpectField::Accepted, "accepted"),
        (ExpectField::Bounced, "bounced"),
        (ExpectField::HamAsSpam, "ham_as_spam"),
        (ExpectField::HamMisrouted, "ham_misrouted"),
        (ExpectField::SpamCaught, "spam_caught"),
        (ExpectField::SpamAsUnsure, "spam_as_unsure"),
        (ExpectField::ScreenedOut, "screened_out"),
        (ExpectField::FilterUseless, "filter_useless"),
        (ExpectField::Deferred, "deferred"),
        (ExpectField::Redelivered, "redelivered"),
        (ExpectField::Quarantined, "quarantined"),
        (ExpectField::Replayed, "replayed"),
        (ExpectField::Degraded, "degraded"),
        (ExpectField::Recovered, "recovered"),
        (ExpectField::FaultDropped, "fault_dropped"),
        (ExpectField::FaultCorrupted, "fault_corrupted"),
    ];

    /// Parse a grammar name.
    pub fn parse(s: &str) -> Option<ExpectField> {
        Self::ALL.iter().find(|(_, n)| *n == s).map(|&(f, _)| f)
    }

    /// The grammar name.
    pub fn name(self) -> &'static str {
        Self::ALL.iter().find(|&&(f, _)| f == self).unwrap().1
    }

    /// Read the field out of a weekly report.
    pub fn extract(self, w: &WeekReport) -> f64 {
        match self {
            ExpectField::Offered => w.offered as f64,
            ExpectField::Accepted => w.accepted as f64,
            ExpectField::Bounced => w.bounced as f64,
            ExpectField::HamAsSpam => w.ham_as_spam,
            ExpectField::HamMisrouted => w.ham_misrouted,
            ExpectField::SpamCaught => w.spam_caught,
            ExpectField::SpamAsUnsure => w.spam_as_unsure,
            ExpectField::ScreenedOut => w.screened_out as f64,
            ExpectField::FilterUseless => f64::from(u8::from(w.filter_useless)),
            ExpectField::Deferred => w.deferred as f64,
            ExpectField::Redelivered => w.redelivered as f64,
            ExpectField::Quarantined => w.quarantined as f64,
            ExpectField::Replayed => w.replayed as f64,
            ExpectField::Degraded => f64::from(u8::from(w.degraded)),
            ExpectField::Recovered => f64::from(u8::from(w.recovered_from_checkpoint)),
            ExpectField::FaultDropped => w.fault_stats.dropped as f64,
            ExpectField::FaultCorrupted => w.fault_stats.corrupted as f64,
        }
    }
}

/// A comparison operator in an `expect` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpectOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (exact)
    Eq,
    /// `!=` (exact)
    Ne,
}

impl ExpectOp {
    /// Parse the operator token.
    pub fn parse(s: &str) -> Option<ExpectOp> {
        match s {
            "<" => Some(ExpectOp::Lt),
            "<=" => Some(ExpectOp::Le),
            ">" => Some(ExpectOp::Gt),
            ">=" => Some(ExpectOp::Ge),
            "==" => Some(ExpectOp::Eq),
            "!=" => Some(ExpectOp::Ne),
            _ => None,
        }
    }

    /// The operator token.
    pub fn token(self) -> &'static str {
        match self {
            ExpectOp::Lt => "<",
            ExpectOp::Le => "<=",
            ExpectOp::Gt => ">",
            ExpectOp::Ge => ">=",
            ExpectOp::Eq => "==",
            ExpectOp::Ne => "!=",
        }
    }

    /// Apply the comparison.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            ExpectOp::Lt => lhs < rhs,
            ExpectOp::Le => lhs <= rhs,
            ExpectOp::Gt => lhs > rhs,
            ExpectOp::Ge => lhs >= rhs,
            ExpectOp::Eq => lhs == rhs,
            ExpectOp::Ne => lhs != rhs,
        }
    }
}

/// One `expect <week> <field> <op> <value>` assertion.
///
/// `line` records where the assertion was declared (for failure messages);
/// it is deliberately excluded from equality so that reformatting a
/// scenario (which renumbers lines) round-trips to an equal spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Expectation {
    /// 1-based week the assertion reads.
    pub week: u32,
    /// Which weekly metric.
    pub field: ExpectField,
    /// The comparison.
    pub op: ExpectOp,
    /// The right-hand side.
    pub value: f64,
    /// 1-based source line (0 when constructed programmatically).
    pub line: usize,
}

impl PartialEq for Expectation {
    fn eq(&self, other: &Self) -> bool {
        self.week == other.week
            && self.field == other.field
            && self.op == other.op
            && self.value == other.value
    }
}

impl std::fmt::Display for Expectation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expect {} {} {} {:?}",
            self.week,
            self.field.name(),
            self.op.token(),
            self.value
        )
    }
}

impl Expectation {
    /// Parse the tail of an `expect` line (everything after the keyword).
    fn parse_tail(tail: &str, line: usize) -> Result<Expectation, ScenarioError> {
        let parts: Vec<&str> = tail.split_whitespace().collect();
        let [week, field, op, value] = parts.as_slice() else {
            return Err(err(
                line,
                format!("expect needs `<week> <field> <op> <value>`, got {tail:?}"),
            ));
        };
        Ok(Expectation {
            week: week
                .parse()
                .map_err(|e| err(line, format!("bad expect week {week:?}: {e}")))?,
            field: ExpectField::parse(field).ok_or_else(|| {
                let names: Vec<&str> = ExpectField::ALL.iter().map(|&(_, n)| n).collect();
                err(
                    line,
                    format!("unknown expect field {field:?} (expected one of {})", names.join(" | ")),
                )
            })?,
            op: ExpectOp::parse(op)
                .ok_or_else(|| err(line, format!("unknown expect operator {op:?} (expected < | <= | > | >= | == | !=)")))?,
            value: value
                .parse()
                .map_err(|e| err(line, format!("bad expect value {value:?}: {e}")))?,
            line,
        })
    }

    /// Evaluate against a report. `Ok(())` when the assertion holds.
    pub fn check(&self, report: &OrgReport) -> Result<(), ExpectFailure> {
        let Some(week) = report.weeks.iter().find(|w| w.week == self.week) else {
            return Err(ExpectFailure {
                expectation: self.clone(),
                got: None,
            });
        };
        let got = self.field.extract(week);
        if self.op.eval(got, self.value) {
            Ok(())
        } else {
            Err(ExpectFailure {
                expectation: self.clone(),
                got: Some(got),
            })
        }
    }
}

/// A failed `expect` assertion: what was required and what the report
/// actually said (`None` when the referenced week does not exist).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectFailure {
    /// The assertion that failed.
    pub expectation: Expectation,
    /// The observed value, if the week existed.
    pub got: Option<f64>,
}

impl std::fmt::Display for ExpectFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.got {
            Some(got) => write!(
                f,
                "line {}: `{}` failed (got {got:?})",
                self.expectation.line, self.expectation
            ),
            None => write!(
                f,
                "line {}: `{}` references a week the report does not have",
                self.expectation.line, self.expectation
            ),
        }
    }
}

/// Parse `"a/b"` into a pair.
fn parse_pair<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<(T, T), ScenarioError>
where
    T::Err: std::fmt::Display,
{
    let (a, b) = s
        .split_once('/')
        .ok_or_else(|| err(line, format!("{what} must be <a>/<b>, got {s:?}")))?;
    let parse = |v: &str| {
        v.trim()
            .parse::<T>()
            .map_err(|e| err(line, format!("bad {what} component {v:?}: {e}")))
    };
    Ok((parse(a)?, parse(b)?))
}

fn parse_defense(s: &str, line: usize) -> Result<DefensePolicy, ScenarioError> {
    match s {
        "none" => Ok(DefensePolicy::None),
        "roni" => Ok(DefensePolicy::Roni),
        "threshold" => Ok(DefensePolicy::DynamicThreshold { strict: false }),
        "threshold-strict" => Ok(DefensePolicy::DynamicThreshold { strict: true }),
        "roni+threshold" => Ok(DefensePolicy::RoniPlusThreshold),
        other => Err(err(
            line,
            format!(
                "unknown defense {other:?} (expected none | roni | threshold | threshold-strict | roni+threshold)"
            ),
        )),
    }
}

/// The grammar name of a defense (inverse of [`parse_defense`]).
fn defense_name(policy: DefensePolicy) -> &'static str {
    match policy {
        DefensePolicy::None => "none",
        DefensePolicy::Roni => "roni",
        DefensePolicy::DynamicThreshold { strict: false } => "threshold",
        DefensePolicy::DynamicThreshold { strict: true } => "threshold-strict",
        DefensePolicy::RoniPlusThreshold => "roni+threshold",
    }
}

/// An under-construction campaign section.
#[derive(Default)]
struct CampaignDraft {
    first_line: usize,
    attack: Option<AttackKind>,
    start_day: Option<u32>,
    end_day: Option<u32>,
    intensity: Option<Intensity>,
    targets: Option<Vec<usize>>,
}

impl CampaignDraft {
    fn finish(self) -> Result<(CampaignSpec, usize), ScenarioError> {
        let line = self.first_line;
        Ok((
            CampaignSpec {
                attack: self
                    .attack
                    .ok_or_else(|| err(line, "campaign section is missing `attack = …`"))?,
                start_day: self
                    .start_day
                    .ok_or_else(|| err(line, "campaign section is missing `start_day = …`"))?,
                end_day: self.end_day,
                intensity: self.intensity.ok_or_else(|| {
                    err(line, "campaign section is missing `per_day = …` or `intensity = …`")
                })?,
                targets: self.targets,
            },
            line,
        ))
    }
}

impl ScenarioSpec {
    /// Parse a scenario from its text form. Every declaration is validated
    /// here — schedule shapes, zero-volume windows, target indices,
    /// focused-attack message refs, expectation weeks — and failures carry
    /// the offending 1-based line number.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let mut name = None;
        let mut seed = None;
        let mut users = None;
        let mut days = None;
        let mut retrain_every = None;
        let mut bootstrap = None;
        let mut traffic = None;
        let mut user_traffic = Vec::new();
        let mut faults = (0.0f64, 0.0f64);
        let mut defense = DefensePolicy::None;
        let mut shards = 0usize;
        let mut redelivery = FaultPlan::default().redelivery_budget;
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let mut fault_lines: Vec<usize> = Vec::new();
        let mut campaigns: Vec<CampaignSpec> = Vec::new();
        let mut campaign_lines: Vec<usize> = Vec::new();
        let mut expectations: Vec<Expectation> = Vec::new();
        let mut draft: Option<CampaignDraft> = None;

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[campaign]" {
                if let Some(d) = draft.take() {
                    let (spec, first_line) = d.finish()?;
                    campaigns.push(spec);
                    campaign_lines.push(first_line);
                }
                draft = Some(CampaignDraft {
                    first_line: lineno,
                    ..CampaignDraft::default()
                });
                continue;
            }
            // `expect` assertions are scenario-level wherever they appear
            // (conventionally at the end, after the campaign sections).
            if let Some(tail) = line.strip_prefix("expect ") {
                expectations.push(Expectation::parse_tail(tail, lineno)?);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(err(lineno, format!("key {key:?} has no value")));
            }
            let parse_u32 = |v: &str| {
                v.parse::<u32>()
                    .map_err(|e| err(lineno, format!("bad {key} value {v:?}: {e}")))
            };
            // `fault` events are scenario-level wherever they appear (like
            // `expect` lines), so a chaos plan can sit after the campaigns.
            if key == "fault" {
                fault_events.push(parse_fault_event(value, lineno)?);
                fault_lines.push(lineno);
                continue;
            }
            if let Some(d) = draft.as_mut() {
                // Inside a campaign section.
                match key {
                    "attack" => d.attack = Some(AttackKind::parse(value).map_err(|e| err(lineno, e))?),
                    "start_day" => d.start_day = Some(parse_u32(value)?),
                    "end_day" => d.end_day = Some(parse_u32(value)?),
                    "per_day" => {
                        if d.intensity.is_some() {
                            return Err(err(
                                lineno,
                                "campaign has both `per_day` and `intensity` (use one)",
                            ));
                        }
                        d.intensity = Some(Intensity::constant(parse_u32(value)?));
                    }
                    "intensity" => {
                        if d.intensity.is_some() {
                            return Err(err(
                                lineno,
                                "campaign has both `per_day` and `intensity` (use one)",
                            ));
                        }
                        d.intensity =
                            Some(Intensity::parse(value).map_err(|e| err(lineno, e))?);
                    }
                    "targets" => {
                        let targets = value
                            .split(',')
                            .map(|t| {
                                t.trim().parse::<usize>().map_err(|e| {
                                    err(lineno, format!("bad target user {t:?}: {e}"))
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        d.targets = Some(targets);
                    }
                    other => {
                        return Err(err(lineno, format!("unknown campaign key {other:?}")))
                    }
                }
                continue;
            }
            match key {
                "name" => name = Some(value.to_string()),
                "seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| {
                        err(lineno, format!("bad seed {value:?}: {e}"))
                    })?)
                }
                "users" => {
                    users = Some(value.parse::<usize>().map_err(|e| {
                        err(lineno, format!("bad users {value:?}: {e}"))
                    })?)
                }
                "days" => days = Some(parse_u32(value)?),
                "retrain_every" => retrain_every = Some(parse_u32(value)?),
                "bootstrap" => {
                    bootstrap = Some(value.parse::<usize>().map_err(|e| {
                        err(lineno, format!("bad bootstrap {value:?}: {e}"))
                    })?)
                }
                "traffic" => traffic = Some(parse_pair::<u32>(value, lineno, "traffic")?),
                "user_traffic" => {
                    user_traffic = value
                        .split(',')
                        .map(|p| parse_pair::<u32>(p.trim(), lineno, "user_traffic entry"))
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "faults" => faults = parse_pair::<f64>(value, lineno, "faults")?,
                "defense" => defense = parse_defense(value, lineno)?,
                "shards" => {
                    shards = value.parse::<usize>().map_err(|e| {
                        err(lineno, format!("bad shards {value:?}: {e}"))
                    })?
                }
                "redelivery" => redelivery = parse_u32(value)?,
                other => return Err(err(lineno, format!("unknown key {other:?}"))),
            }
        }
        if let Some(d) = draft.take() {
            let (spec, first_line) = d.finish()?;
            campaigns.push(spec);
            campaign_lines.push(first_line);
        }

        let spec = ScenarioSpec {
            name: name.ok_or_else(|| err(0, "missing `name = …`"))?,
            seed: seed.ok_or_else(|| err(0, "missing `seed = …`"))?,
            users: users.ok_or_else(|| err(0, "missing `users = …`"))?,
            days: days.ok_or_else(|| err(0, "missing `days = …`"))?,
            retrain_every: retrain_every.ok_or_else(|| err(0, "missing `retrain_every = …`"))?,
            bootstrap: bootstrap.ok_or_else(|| err(0, "missing `bootstrap = …`"))?,
            traffic: traffic.ok_or_else(|| err(0, "missing `traffic = …`"))?,
            user_traffic,
            faults,
            defense,
            shards,
            redelivery,
            fault_events,
            campaigns,
            expectations,
        };
        spec.validate_scalars()
            .map_err(|message| ScenarioError { line: 0, message })?;
        // Campaign, fault, and expectation validation with source locations.
        spec.validate_declarations(&campaign_lines, &fault_lines)?;
        Ok(spec)
    }

    /// Campaign and expectation validation — the one implementation behind
    /// both `parse` (which passes each campaign's section line) and
    /// [`ScenarioSpec::validate`] (which passes no lines). Expectation
    /// failures use the expectation's own recorded line.
    fn validate_declarations(
        &self,
        campaign_lines: &[usize],
        fault_lines: &[usize],
    ) -> Result<(), ScenarioError> {
        if let Err((i, e)) = validate_campaigns(&self.campaigns, &self.campaign_shape()) {
            return Err(err(
                campaign_lines.get(i).copied().unwrap_or(0),
                format!("campaign {i} ({}): {e}", self.campaigns[i].attack.name()),
            ));
        }
        if let Err(e) = self
            .fault_plan()
            .validate(self.users, self.days, self.retrain_every)
        {
            return Err(err(
                fault_lines.get(e.event_index()).copied().unwrap_or(0),
                e.to_string(),
            ));
        }
        let n_weeks = self.days.div_ceil(self.retrain_every);
        for exp in &self.expectations {
            if exp.week == 0 || exp.week > n_weeks {
                return Err(err(
                    exp.line,
                    format!(
                        "`{exp}` references week {}, but the scenario runs {n_weeks} week(s)",
                        exp.week
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Load and parse a scenario file.
    pub fn load(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
        ScenarioSpec::parse(&text).map_err(|mut e| {
            e.message = format!("{}: {}", path.display(), e.message);
            e
        })
    }

    /// Render the canonical text form. `parse(format(spec)) == spec` for
    /// every valid spec (modulo comments and source line numbers) — the
    /// round-trip identity the lint lane checks for all committed files.
    pub fn format(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "users = {}", self.users);
        let _ = writeln!(out, "days = {}", self.days);
        let _ = writeln!(out, "retrain_every = {}", self.retrain_every);
        let _ = writeln!(out, "bootstrap = {}", self.bootstrap);
        let _ = writeln!(out, "traffic = {}/{}", self.traffic.0, self.traffic.1);
        if !self.user_traffic.is_empty() {
            let entries: Vec<String> = self
                .user_traffic
                .iter()
                .map(|&(h, s)| format!("{h}/{s}"))
                .collect();
            let _ = writeln!(out, "user_traffic = {}", entries.join(", "));
        }
        let _ = writeln!(out, "faults = {:?}/{:?}", self.faults.0, self.faults.1);
        let _ = writeln!(out, "defense = {}", defense_name(self.defense));
        let _ = writeln!(out, "shards = {}", self.shards);
        let _ = writeln!(out, "redelivery = {}", self.redelivery);
        for ev in &self.fault_events {
            let _ = writeln!(out, "fault = {}", format_fault_event(ev));
        }
        for campaign in &self.campaigns {
            let _ = writeln!(out);
            let _ = writeln!(out, "[campaign]");
            let _ = writeln!(out, "attack = {}", campaign.attack);
            let _ = writeln!(out, "start_day = {}", campaign.start_day);
            if let Some(end) = campaign.end_day {
                let _ = writeln!(out, "end_day = {end}");
            }
            let _ = writeln!(out, "intensity = {}", campaign.intensity);
            if let Some(targets) = &campaign.targets {
                let list: Vec<String> = targets.iter().map(usize::to_string).collect();
                let _ = writeln!(out, "targets = {}", list.join(", "));
            }
        }
        if !self.expectations.is_empty() {
            let _ = writeln!(out);
            for exp in &self.expectations {
                let _ = writeln!(out, "{exp}");
            }
        }
        out
    }

    /// Scalar (non-campaign) cross-field validation.
    fn validate_scalars(&self) -> Result<(), String> {
        if self.name.is_empty() || !self.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            return Err(format!(
                "scenario name {:?} must be a nonempty [A-Za-z0-9_-]+ token (it names the golden file)",
                self.name
            ));
        }
        if self.users == 0 {
            return Err("need at least one user".into());
        }
        if self.days == 0 || self.retrain_every == 0 {
            return Err("days and retrain_every must be >= 1".into());
        }
        if self.bootstrap < 4 {
            return Err("bootstrap must be >= 4 messages".into());
        }
        if !self.user_traffic.is_empty() && self.user_traffic.len() != self.users {
            return Err(format!(
                "user_traffic has {} entries for {} users",
                self.user_traffic.len(),
                self.users
            ));
        }
        let (drop, corrupt) = self.faults;
        if !(0.0..=1.0).contains(&drop) || !(0.0..=1.0).contains(&corrupt) {
            return Err("fault chances must be in [0, 1]".into());
        }
        Ok(())
    }

    /// Full cross-field validation (campaign shapes and message refs
    /// included), for specs constructed programmatically; `parse` performs
    /// the same checks with source line numbers.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_scalars()?;
        self.validate_declarations(&[], &[]).map_err(|e| e.to_string())
    }

    /// The scheduled fault plan (events plus the redelivery budget).
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            events: self.fault_events.clone(),
            redelivery_budget: self.redelivery,
        }
    }

    /// The [`CampaignShape`] this scenario's campaigns are validated
    /// against (derived through the same round-robin traffic split the
    /// organization applies).
    pub fn campaign_shape(&self) -> CampaignShape {
        self.base_org_config(0).campaign_shape()
    }

    /// The organization configuration minus the attack plans (which need
    /// the fallible build step).
    fn base_org_config(&self, shards: usize) -> OrgConfig {
        OrgConfig {
            users: (0..self.users).map(|i| format!("user{i}@corp.example")).collect(),
            days: self.days,
            retrain_every: self.retrain_every,
            traffic: TrafficMix {
                ham_per_day: self.traffic.0,
                spam_per_day: self.traffic.1,
            },
            user_traffic: self
                .user_traffic
                .iter()
                .map(|&(ham_per_day, spam_per_day)| TrafficMix { ham_per_day, spam_per_day })
                .collect(),
            faults: FaultConfig {
                drop_chance: self.faults.0,
                corrupt_chance: self.faults.1,
            },
            defense: self.defense,
            bootstrap_size: self.bootstrap,
            corpus: CorpusConfig::with_size(self.bootstrap, 0.5),
            attacks: Vec::new(),
            shards,
            fault_plan: self.fault_plan(),
            seed: self.seed,
        }
    }

    /// Materialize the [`OrgConfig`], overriding the shard hint (the
    /// golden harness runs the same spec at several shard counts).
    /// Fallible: this is where declarative campaigns build their
    /// generators — resolving focused-attack targets and donor headers
    /// against the organization's corpus.
    pub fn org_config_with_shards(&self, shards: usize) -> Result<OrgConfig, ScenarioError> {
        let mut cfg = self.base_org_config(shards);
        cfg.attacks = cfg.build_campaigns(&self.campaigns).map_err(|(i, e)| {
            err(0, format!("campaign {i} ({}): {e}", self.campaigns[i].attack.name()))
        })?;
        Ok(cfg)
    }

    /// Materialize the [`OrgConfig`] with the spec's own shard hint.
    pub fn org_config(&self) -> Result<OrgConfig, ScenarioError> {
        self.org_config_with_shards(self.shards)
    }

    /// Run the scenario at an explicit shard count.
    pub fn run_with_shards(&self, shards: usize) -> Result<OrgReport, ScenarioError> {
        let org = MailOrg::try_new(self.org_config_with_shards(shards)?)
            .map_err(|e| err(0, e.to_string()))?;
        Ok(org.run())
    }

    /// Run the scenario with its own shard hint capped by `threads` (a hint
    /// of 0 means one shard per thread). Capping shards caps parallelism
    /// without changing a single report number.
    pub fn run_with_threads(&self, threads: usize) -> Result<OrgReport, ScenarioError> {
        let shards = match self.shards {
            0 => threads,
            s => s.min(threads),
        };
        self.run_with_shards(shards)
    }

    /// Run with the spec's shard hint and the host's default worker count.
    pub fn run(&self) -> Result<OrgReport, ScenarioError> {
        self.run_with_threads(sb_intern::par::default_threads())
    }

    /// Evaluate every `expect` assertion against a report. The returned
    /// list is empty when the scenario's behavioral contract holds.
    pub fn check_expectations(&self, report: &OrgReport) -> Vec<ExpectFailure> {
        self.expectations
            .iter()
            .filter_map(|e| e.check(report).err())
            .collect()
    }
}

/// Parse one `fault = …` event value. Grammar:
///
/// * `pipe <start>-<end> drop:<a>[-><b>] corrupt:<a>[-><b>]` — override
///   the wire fault chances across an inclusive day window, linearly
///   interpolating any `a->b` ramps;
/// * `crash <day> user:<u>` — a mailstore node crash: user `u`'s fresh
///   pool entries up to `day` quarantine and replay at the *next* retrain;
/// * `mailbox <day> user:<u>` — mailbox loss: user `u`'s mail bounces
///   from `day` to the end of that retrain period;
/// * `retrain <week>` — the week's retrain job dies; the organization
///   serves the last-good checkpoint and replays the batch a week late;
/// * `model <week>` — the retrained model is corrupted on load; pool
///   admissions stand but the checkpoint model serves.
fn parse_fault_event(s: &str, line: usize) -> Result<FaultEvent, ScenarioError> {
    let mut parts = s.split_whitespace();
    let kind = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let parse_u32 = |v: &str, what: &str| {
        v.parse::<u32>()
            .map_err(|e| err(line, format!("bad fault {what} {v:?}: {e}")))
    };
    let parse_user = |tok: &str| {
        tok.strip_prefix("user:")
            .ok_or_else(|| err(line, format!("expected `user:<u>`, got {tok:?}")))?
            .parse::<usize>()
            .map_err(|e| err(line, format!("bad fault user {tok:?}: {e}")))
    };
    match kind {
        "pipe" => {
            let [window, drop, corrupt] = rest.as_slice() else {
                return Err(err(
                    line,
                    format!(
                        "`pipe` needs `<start>-<end> drop:<a>[-><b>] corrupt:<a>[-><b>]`, got {s:?}"
                    ),
                ));
            };
            let (start_day, end_day) = match window.split_once('-') {
                Some((a, b)) => (parse_u32(a, "day")?, parse_u32(b, "day")?),
                None => {
                    let d = parse_u32(window, "day")?;
                    (d, d)
                }
            };
            let parse_ramp = |tok: &str, name: &str| -> Result<(f64, f64), ScenarioError> {
                let v = tok
                    .strip_prefix(name)
                    .and_then(|t| t.strip_prefix(':'))
                    .ok_or_else(|| {
                        err(line, format!("expected `{name}:<a>[-><b>]`, got {tok:?}"))
                    })?;
                let parse_f = |x: &str| {
                    x.parse::<f64>()
                        .map_err(|e| err(line, format!("bad fault chance {x:?}: {e}")))
                };
                match v.split_once("->") {
                    Some((a, b)) => Ok((parse_f(a)?, parse_f(b)?)),
                    None => {
                        let c = parse_f(v)?;
                        Ok((c, c))
                    }
                }
            };
            let (d0, d1) = parse_ramp(drop, "drop")?;
            let (c0, c1) = parse_ramp(corrupt, "corrupt")?;
            Ok(FaultEvent::PipeFaults {
                start_day,
                end_day,
                from: FaultConfig { drop_chance: d0, corrupt_chance: c0 },
                to: FaultConfig { drop_chance: d1, corrupt_chance: c1 },
            })
        }
        "crash" | "mailbox" => {
            let [day, user] = rest.as_slice() else {
                return Err(err(line, format!("`{kind}` needs `<day> user:<u>`, got {s:?}")));
            };
            let day = parse_u32(day, "day")?;
            let user = parse_user(user)?;
            Ok(if kind == "crash" {
                FaultEvent::ShardCrash { day, user }
            } else {
                FaultEvent::MailboxLoss { day, user }
            })
        }
        "retrain" | "model" => {
            let [week] = rest.as_slice() else {
                return Err(err(line, format!("`{kind}` needs `<week>`, got {s:?}")));
            };
            let week = parse_u32(week, "week")?;
            Ok(if kind == "retrain" {
                FaultEvent::RetrainFailure { week }
            } else {
                FaultEvent::ModelCorruption { week }
            })
        }
        other => Err(err(
            line,
            format!("unknown fault kind {other:?} (expected pipe | crash | mailbox | retrain | model)"),
        )),
    }
}

/// Render a fault event in the grammar (inverse of [`parse_fault_event`];
/// flat chances collapse to the single-value form).
fn format_fault_event(ev: &FaultEvent) -> String {
    let ramp = |a: f64, b: f64| {
        if a == b {
            fx(a)
        } else {
            format!("{}->{}", fx(a), fx(b))
        }
    };
    match ev {
        FaultEvent::PipeFaults { start_day, end_day, from, to } => format!(
            "pipe {start_day}-{end_day} drop:{} corrupt:{}",
            ramp(from.drop_chance, to.drop_chance),
            ramp(from.corrupt_chance, to.corrupt_chance),
        ),
        FaultEvent::ShardCrash { day, user } => format!("crash {day} user:{user}"),
        FaultEvent::MailboxLoss { day, user } => format!("mailbox {day} user:{user}"),
        FaultEvent::RetrainFailure { week } => format!("retrain {week}"),
        FaultEvent::ModelCorruption { week } => format!("model {week}"),
    }
}

/// FNV-1a 64 over raw bytes — the digest seal, the same function that
/// checksums model images. Byte-exact: any change to the canonical CSV
/// changes the hash.
pub use sb_filter::image::fnv1a64;

/// Exact `f64` rendering: Rust's `{:?}` prints the shortest string that
/// round-trips, so equal digests imply bit-equal rates.
fn fx(x: f64) -> String {
    format!("{x:?}")
}

/// Render a report as the canonical golden digest: a CSV of every weekly
/// metric and the run totals, sealed with an FNV-1a 64 hash line.
pub fn golden_digest(name: &str, report: &OrgReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario,{name}");
    let _ = writeln!(
        out,
        "week,offered,accepted,bounced,ham_as_spam,ham_misrouted,spam_caught,spam_as_unsure,\
         screened_out,screen_error,ham_lost,ham_delayed,spam_faced,unsure_burden,filter_useless,\
         deferred,redelivered,quarantined,replayed,degraded,recovered,dropped,corrupted"
    );
    for w in &report.weeks {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            w.week,
            w.offered,
            w.accepted,
            w.bounced,
            fx(w.ham_as_spam),
            fx(w.ham_misrouted),
            fx(w.spam_caught),
            fx(w.spam_as_unsure),
            w.screened_out,
            w.screen_error.as_deref().unwrap_or(""),
            w.costs.ham_lost,
            w.costs.ham_delayed,
            w.costs.spam_faced,
            w.costs.unsure_burden,
            w.filter_useless,
            w.deferred,
            w.redelivered,
            w.quarantined,
            w.replayed,
            w.degraded,
            w.recovered_from_checkpoint,
            w.fault_stats.dropped,
            w.fault_stats.corrupted,
        );
    }
    let _ = writeln!(
        out,
        "totals,delivered,{},failed,{},bounced,{},dropped,{},corrupted,{},passed,{},deferred,{},redelivered,{}",
        report.total_delivered,
        report.total_failed,
        report.total_bounced,
        report.fault_stats.dropped,
        report.fault_stats.corrupted,
        report.fault_stats.passed,
        report.total_deferred,
        report.total_redelivered,
    );
    let _ = writeln!(out, "fnv1a64,{:#018x}", fnv1a64(out.as_bytes()));
    out
}

/// Point out the first line where two digests diverge (for golden-test
/// failure messages).
pub fn first_divergence(golden: &str, fresh: &str) -> Option<(usize, String, String)> {
    let mut golden_lines = golden.lines();
    let mut fresh_lines = fresh.lines();
    let mut lineno = 0;
    loop {
        lineno += 1;
        match (golden_lines.next(), fresh_lines.next()) {
            (None, None) => return None,
            (g, f) if g == f => {}
            (g, f) => {
                return Some((
                    lineno,
                    g.unwrap_or("<end of file>").to_string(),
                    f.unwrap_or("<end of file>").to_string(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::campaign::MessageRef;

    const SPEC: &str = "\
# A two-campaign scenario.
name = demo
seed = 7
users = 4
days = 10
retrain_every = 5
bootstrap = 120
traffic = 8/8
defense = roni
faults = 0.01/0.02

[campaign]
attack = usenet:1000
start_day = 1
end_day = 6
per_day = 3
targets = 0, 2

[campaign]
attack = aspell-half
start_day = 4
per_day = 2

expect 1 bounced == 0
expect 2 spam_caught >= 0.1
";

    #[test]
    fn parses_a_full_spec() {
        let spec = ScenarioSpec::parse(SPEC).expect("valid spec");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.users, 4);
        assert_eq!(spec.traffic, (8, 8));
        assert_eq!(spec.faults, (0.01, 0.02));
        assert_eq!(spec.defense, DefensePolicy::Roni);
        assert_eq!(spec.campaigns.len(), 2);
        assert_eq!(spec.campaigns[0].end_day, Some(6));
        assert_eq!(spec.campaigns[0].intensity, Intensity::constant(3));
        assert_eq!(spec.campaigns[0].targets, Some(vec![0, 2]));
        assert_eq!(spec.campaigns[1].end_day, None);
        assert_eq!(spec.campaigns[1].targets, None);
        assert!(spec.campaigns[0].overlaps(&spec.campaigns[1]));
        assert_eq!(spec.expectations.len(), 2);
        assert_eq!(spec.expectations[0].field, ExpectField::Bounced);
        assert_eq!(spec.expectations[0].op, ExpectOp::Eq);
        assert_eq!(spec.expectations[1].week, 2);
    }

    #[test]
    fn parses_the_new_attack_and_intensity_forms() {
        let spec = SPEC
            .replace("attack = usenet:1000", "attack = focused user:2 ham:5 guess:80")
            .replace("per_day = 3\ntargets = 0, 2", "intensity = ramp:1->5")
            .replace("per_day = 2", "intensity = bursts:period=3,on=1,per_day=4");
        let spec = ScenarioSpec::parse(&spec).expect("valid spec");
        assert_eq!(
            spec.campaigns[0].attack,
            AttackKind::Focused {
                target: MessageRef { user: 2, nth_ham: 5 },
                guess_pct: 80,
            }
        );
        assert_eq!(spec.campaigns[0].intensity, Intensity::LinearRamp { from: 1, to: 5 });
        assert_eq!(
            spec.campaigns[1].intensity,
            Intensity::Bursts { period: 3, on_days: 1, per_day: 4 }
        );
        let chaff = SPEC.replace("attack = aspell-half", "attack = ham-chaff:12");
        let chaff = ScenarioSpec::parse(&chaff).expect("valid spec");
        assert_eq!(chaff.campaigns[1].attack, AttackKind::HamChaff { campaign_words: 12 });
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = SPEC.replace("per_day = 3", "per_day = lots");
        let e = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(e.line > 0, "line missing in {e}");
        assert!(e.to_string().contains("per_day"), "{e}");

        let unknown = SPEC.replace("defense = roni", "defence = roni");
        let e = ScenarioSpec::parse(&unknown).unwrap_err();
        assert!(e.to_string().contains("defence"), "{e}");

        let missing = SPEC.replace("name = demo", "");
        let e = ScenarioSpec::parse(&missing).unwrap_err();
        assert!(e.to_string().contains("name"), "{e}");

        let both = SPEC.replace("per_day = 3", "per_day = 3\nintensity = constant:3");
        let e = ScenarioSpec::parse(&both).unwrap_err();
        assert!(e.to_string().contains("both"), "{e}");

        let bad_expect = SPEC.replace("expect 1 bounced == 0", "expect 1 bounced ~ 0");
        let e = ScenarioSpec::parse(&bad_expect).unwrap_err();
        assert!(e.line > 0 && e.to_string().contains("operator"), "{e}");

        let bad_field = SPEC.replace("expect 1 bounced == 0", "expect 1 dropped == 0");
        let e = ScenarioSpec::parse(&bad_field).unwrap_err();
        assert!(e.to_string().contains("dropped"), "{e}");
    }

    #[test]
    fn validation_crosses_fields() {
        let bad_targets = SPEC.replace("targets = 0, 2", "targets = 0, 9");
        let e = ScenarioSpec::parse(&bad_targets).unwrap_err();
        assert!(e.to_string().contains("4 users"), "{e}");
        assert!(e.line > 0, "campaign errors must carry the section line: {e}");

        let bad_mix = format!("{SPEC}\nuser_traffic = 1/1, 2/2\n");
        // A key line after the campaign sections lands in campaign 2.
        let e = ScenarioSpec::parse(&bad_mix).unwrap_err();
        assert!(e.to_string().contains("unknown campaign key"), "{e}");

        let with_mix = SPEC.replace(
            "traffic = 8/8",
            "traffic = 8/8\nuser_traffic = 1/1, 2/2",
        );
        let e = ScenarioSpec::parse(&with_mix).unwrap_err();
        assert!(e.to_string().contains("2 entries"), "{e}");
    }

    #[test]
    fn validation_rejects_zero_volume_and_bad_refs_with_lines() {
        // Satellite checks: zero-volume schedules and out-of-range message
        // refs fail at parse time, pointing at the campaign's line.
        let zero = SPEC.replace("per_day = 2", "per_day = 0");
        let e = ScenarioSpec::parse(&zero).unwrap_err();
        assert!(e.to_string().contains("sends nothing"), "{e}");
        assert!(e.line > 0, "{e}");

        // users = 4, traffic 8/8 -> 2 ham/user/day × 10 days = 20 hams.
        let bad_ref = SPEC.replace("attack = aspell-half", "attack = focused user:1 ham:20");
        let e = ScenarioSpec::parse(&bad_ref).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        assert!(e.line > 0, "{e}");
        let ok_ref = SPEC.replace("attack = aspell-half", "attack = focused user:1 ham:19");
        assert!(ScenarioSpec::parse(&ok_ref).is_ok());

        let bad_user = SPEC.replace("attack = aspell-half", "attack = focused user:4 ham:0");
        let e = ScenarioSpec::parse(&bad_user).unwrap_err();
        assert!(e.to_string().contains("only 4 users"), "{e}");

        let bad_week = SPEC.replace("expect 2 spam_caught >= 0.1", "expect 3 spam_caught >= 0.1");
        let e = ScenarioSpec::parse(&bad_week).unwrap_err();
        assert!(e.to_string().contains("2 week(s)"), "{e}");
        assert!(e.line > 0, "{e}");
    }

    #[test]
    fn parses_fault_events_and_redelivery() {
        let spec = SPEC.replace(
            "faults = 0.01/0.02",
            "faults = 0.01/0.02\nredelivery = 2\n\
             fault = pipe 3-8 drop:0.1->0.35 corrupt:0.05\n\
             fault = crash 4 user:1\n\
             fault = mailbox 6 user:3\n\
             fault = retrain 1\n\
             fault = model 2",
        );
        let spec = ScenarioSpec::parse(&spec).expect("valid spec");
        assert_eq!(spec.redelivery, 2);
        assert_eq!(spec.fault_events.len(), 5);
        assert_eq!(
            spec.fault_events[0],
            FaultEvent::PipeFaults {
                start_day: 3,
                end_day: 8,
                from: FaultConfig { drop_chance: 0.1, corrupt_chance: 0.05 },
                to: FaultConfig { drop_chance: 0.35, corrupt_chance: 0.05 },
            }
        );
        assert_eq!(spec.fault_events[1], FaultEvent::ShardCrash { day: 4, user: 1 });
        assert_eq!(spec.fault_events[2], FaultEvent::MailboxLoss { day: 6, user: 3 });
        assert_eq!(spec.fault_events[3], FaultEvent::RetrainFailure { week: 1 });
        assert_eq!(spec.fault_events[4], FaultEvent::ModelCorruption { week: 2 });
        let plan = spec.fault_plan();
        assert_eq!(plan.redelivery_budget, 2);
        assert_eq!(plan.events, spec.fault_events);
        // The fault grammar round-trips through format like everything else.
        let formatted = spec.format();
        let reparsed = ScenarioSpec::parse(&formatted).expect("canonical form parses");
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.format(), formatted);
    }

    #[test]
    fn fault_errors_carry_line_numbers() {
        let inject = |fault: &str| {
            SPEC.replace(
                "faults = 0.01/0.02",
                &format!("faults = 0.01/0.02\nfault = {fault}"),
            )
        };
        // Unknown kind.
        let e = ScenarioSpec::parse(&inject("quake 3")).unwrap_err();
        assert!(e.to_string().contains("unknown fault kind"), "{e}");
        assert!(e.line > 0, "{e}");
        // Syntax: missing user tag.
        let e = ScenarioSpec::parse(&inject("crash 4 1")).unwrap_err();
        assert!(e.to_string().contains("user:"), "{e}");
        // Validation: user out of range (spec has 4 users).
        let e = ScenarioSpec::parse(&inject("crash 4 user:9")).unwrap_err();
        assert!(e.to_string().contains("user 9"), "{e}");
        assert!(e.line > 0, "fault validation must carry the line: {e}");
        // Validation: week out of range (10 days / 5 = 2 weeks).
        let e = ScenarioSpec::parse(&inject("retrain 7")).unwrap_err();
        assert!(e.line > 0, "{e}");
        // Validation: bad ramp chance.
        let e = ScenarioSpec::parse(&inject("pipe 1-5 drop:1.5 corrupt:0.0")).unwrap_err();
        assert!(e.line > 0, "{e}");
    }

    #[test]
    fn fault_expect_fields_parse_and_extract() {
        for name in [
            "deferred",
            "redelivered",
            "quarantined",
            "replayed",
            "degraded",
            "recovered",
            "fault_dropped",
            "fault_corrupted",
        ] {
            let field = ExpectField::parse(name)
                .unwrap_or_else(|| panic!("{name} must be a valid expect field"));
            assert_eq!(field.name(), name);
        }
        let spec = SPEC.replace(
            "expect 1 bounced == 0",
            "expect 1 degraded == 0\nexpect 2 deferred >= 0",
        );
        let spec = ScenarioSpec::parse(&spec).expect("valid spec");
        assert_eq!(spec.expectations[0].field, ExpectField::Degraded);
    }

    #[test]
    fn grammar_round_trips_through_format() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let formatted = spec.format();
        let reparsed = ScenarioSpec::parse(&formatted)
            .unwrap_or_else(|e| panic!("canonical form must parse: {e}\n{formatted}"));
        assert_eq!(reparsed, spec, "parse -> format -> parse must be identity");
        // The canonical form is a fixed point.
        assert_eq!(reparsed.format(), formatted);
    }

    #[test]
    fn org_config_reflects_the_spec() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let cfg = spec.org_config_with_shards(3).expect("buildable");
        assert_eq!(cfg.users.len(), 4);
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.attacks.len(), 2);
        assert_eq!(cfg.attacks[0].end_day, Some(6));
        assert_eq!(cfg.attacks[0].intensity, Intensity::constant(3));
        assert_eq!(cfg.attacks[0].targets, Some(vec![0, 2]));
        assert_eq!(cfg.faults.drop_chance, 0.01);
        assert_eq!(cfg.defense, DefensePolicy::Roni);
    }

    #[test]
    fn expectations_evaluate_against_reports() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        // Shrink for test speed: no campaigns, tiny window, no faults (so
        // `bounced == 0` holds deterministically).
        let mut small = spec.clone();
        small.campaigns.clear();
        small.days = 5;
        small.faults = (0.0, 0.0);
        small.defense = DefensePolicy::None;
        small.expectations = vec![
            Expectation { week: 1, field: ExpectField::Bounced, op: ExpectOp::Eq, value: 0.0, line: 0 },
            Expectation { week: 1, field: ExpectField::Offered, op: ExpectOp::Eq, value: 80.0, line: 0 },
        ];
        let report = small.run_with_shards(1).expect("runs");
        assert!(small.check_expectations(&report).is_empty());
        // A failing assertion reports the observed value.
        small.expectations = vec![Expectation {
            week: 1,
            field: ExpectField::Offered,
            op: ExpectOp::Lt,
            value: 10.0,
            line: 42,
        }];
        let failures = small.check_expectations(&report);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].got, Some(80.0));
        assert!(failures[0].to_string().contains("line 42"), "{}", failures[0]);
    }

    #[test]
    fn digest_is_stable_and_sealed() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        // Shrink for test speed: no campaigns, tiny window.
        let mut small = spec.clone();
        small.campaigns.clear();
        small.days = 5;
        small.defense = DefensePolicy::None;
        let report = small.run_with_shards(1).expect("runs");
        let a = golden_digest(&small.name, &report);
        let b = golden_digest(&small.name, &small.run_with_shards(2).expect("runs"));
        assert_eq!(a, b, "digest must be shard-invariant");
        // The hash line seals everything above it.
        let body = a.rsplit_once("fnv1a64,").unwrap().0;
        let expect = format!("fnv1a64,{:#018x}\n", fnv1a64(body.as_bytes()));
        assert!(a.ends_with(&expect), "hash line mismatch in {a}");
        // Tampering is caught by first_divergence.
        let tampered = a.replace("totals,delivered", "totals,delivred");
        let (line, g, f) = first_divergence(&a, &tampered).expect("divergence");
        assert!(g.contains("delivered") && f.contains("delivred"), "line {line}");
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }
}
