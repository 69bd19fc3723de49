//! # sb-mailflow — the deployment substrate
//!
//! The paper's deployment story (§2.1–§2.2): an organization filters all of
//! its users' incoming mail with one shared SpamBayes instance and retrains
//! it periodically (e.g. weekly) on everything received; the attacker's only
//! capability is to *send mail* that ends up in that training pool (the
//! contamination assumption). This crate builds that story as a system:
//!
//! * [`wire`] — CRLF line framing and SMTP dot-stuffing (the attack enters
//!   over a real wire format, not via an API call);
//! * [`smtp`] — command/reply grammar of the SMTP-lite dialect;
//! * [`transport`] — in-memory byte pipes with deterministic fault
//!   injection (drop/corrupt), in the spirit of smoltcp's example harness;
//! * [`faultplan`] — declarative per-day fault schedules (pipe-fault ramps,
//!   node crashes, mailbox loss, retrain/model failures) that degrade the
//!   simulation gracefully while keeping it bit-identical across shards;
//! * [`server`] / [`client`] — minimal SMTP state machines;
//! * [`mailbox`] — per-user folders driven by filter verdicts (§2.1's
//!   spam-high / spam-low / inbox reading model);
//! * [`org`] — the organization simulation: days tick, mail flows across
//!   user shards on worker threads, the filter retrains weekly on the
//!   deterministic shard-merge of the fresh pools, attacks ramp, defenses
//!   screen. Weekly reports are bit-identical for every shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faultplan;
pub mod mailbox;
pub mod org;
pub mod server;
pub mod smtp;
pub mod transport;
pub mod wire;

pub use client::{BackoffSchedule, ClientError, DeliveryReport, Envelope, SmtpClient};
pub use faultplan::{FaultEvent, FaultPlan, FaultPlanError};
pub use mailbox::{Folder, FolderCounts, Mailbox, StoredMessage, UserCosts, UserModel};
pub use org::{
    AttackPlan, DefensePolicy, MailOrg, OrgCheckpoint, OrgConfig, OrgConfigError, OrgReport,
    TrafficMix, WeekReport,
};
pub use server::{ReceivedMessage, ServerConfig, ServerEvent, SmtpServer};
pub use smtp::{Command, CommandError, Reply, ReplyCode};
pub use transport::{End, FaultConfig, FaultError, FaultStats, FaultyPipe, Pipe};
pub use wire::{dot_stuff, dot_unstuff, LineCodec, LineError, MAX_LINE_LEN};
