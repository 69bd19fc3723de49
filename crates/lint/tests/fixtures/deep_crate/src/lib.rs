//! Deliberately buggy fixture for the deep (call-graph) passes.
//!
//! Two seeded defects, each invisible to the line-local lexical rules:
//!
//! * `seeding::shard_seed_for` launders a shard index through a local and
//!   two helper calls before it reaches `SeedTree::new` — the two-hop
//!   leak `taint-path` must report with a full flow trace;
//! * `recover::restore_counter` reaches an `unwrap()` three frames down
//!   its helper chain — the recovery path `panic-path` must report with
//!   the full call chain.
//!
//! `loader::load` reads the environment only to pick a mechanism, in an
//! `if` before its tail expression; `taint-path` must not report the
//! sort over what it returns.

pub mod loader;
pub mod recover;
pub mod seeding;
