//! # sb-experiments — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4–§5) on
//! the synthetic substrate:
//!
//! * [`config`] — experiment parameters; `config::table1()` is the paper's
//!   Table 1 verbatim, and every `full(…)` config is test-pinned to it.
//! * [`metrics`] — three-way confusion tables and the ham-as-spam /
//!   ham-as-unsure rates the paper plots.
//! * [`runner`] — datasets tokenized and interned once up front.
//! * [`figures`] — one generator per paper artifact (Fig. 1–5, the §5.1
//!   RONI experiment, the §4.2 token-volume claim).
//! * [`report`] — ASCII/CSV rendering.
//! * [`scenario`] — the declarative multi-campaign scenario engine and
//!   the golden-digest regression format (the rig's scenario targets, the
//!   `golden_scenarios` integration test, `SB_UPDATE_GOLDEN=1`).
//! * [`rig`] — the tiered reproduction rig (`repro run --tier lite|full`):
//!   one registry of every figure/scenario target with per-tier goldens
//!   under `tests/golden/<tier>/`, paper-claim assertions at full scale
//!   (the §7 headlines among them), and each target's human tables.
//!
//! The `repro` binary drives everything through the rig:
//!
//! ```text
//! cargo run --release -p sb-experiments --bin repro -- run --tier full
//! cargo run --release -p sb-experiments --bin repro -- run --tier lite --only fig1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod rig;
pub mod runner;
pub mod scenario;

pub use config::{
    ConstrainedConfig, DefenseMatrixConfig, Fig1Config, Fig5Config, FocusedConfig,
    HamAttackConfig, MailflowConfig, RoniExperimentConfig, ScenarioSuiteConfig, TransferConfig,
};
pub use metrics::{Confusion, RateSummary};
pub use report::Table;
pub use runner::TokenizedDataset;
pub use scenario::{fnv1a64, golden_digest, ScenarioError, ScenarioSpec};
