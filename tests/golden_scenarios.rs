//! The golden-report regression suite: every committed scenario under
//! `scenarios/` must produce a weekly report that is (a) bit-identical
//! across shard counts, (b) byte-identical to its committed digest under
//! `tests/golden/lite/` (the lite tier of the reproduction rig shares
//! these digests), and (c) compliant with every in-file `expect`
//! assertion.
//!
//! The digests lock the full simulation stack — corpus generation, the
//! SMTP-lite wire, classification, multi-campaign day plans with shaped
//! intensities, RONI / threshold retrains — so any future perf or refactor
//! PR that changes a single rate, counter, or screening decision fails
//! here with a line-level diff.
//!
//! After an *intentional* behavior change, refresh the digests:
//!
//! ```text
//! SB_UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! ```
//!
//! and commit the updated `tests/golden/lite/*.golden.csv` files together
//! with the change that moved them (equivalently: `repro run --tier lite
//! --update-golden`). See `tests/README.md` for the digest format.

use spambayes_repro::core::campaign::{AttackKind, Intensity};
use spambayes_repro::experiments::config::ScenarioSuiteConfig;
use spambayes_repro::experiments::scenario::{first_divergence, golden_digest, ScenarioSpec};
use spambayes_repro::mailflow::{FaultEvent, OrgReport};
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn update_requested() -> bool {
    std::env::var("SB_UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Load the committed suite. The suite floor is *derived from the
/// directory listing itself* — every `scenarios/*.scenario` file must
/// parse and (see `every_scenario_has_a_registered_golden_digest`) carry a
/// committed digest — so adding a scenario without registering it in the
/// golden tree fails with a pointed message rather than passing silently.
fn committed_specs() -> Vec<(PathBuf, ScenarioSpec)> {
    let suite = ScenarioSuiteConfig {
        dir: repo_path("scenarios"),
        ..ScenarioSuiteConfig::default()
    };
    let files = suite.scenario_files().expect("scenarios/ must be listable");
    assert!(
        !files.is_empty(),
        "scenarios/ contains no *.scenario files — the golden suite would be vacuous"
    );
    let specs: Vec<(PathBuf, ScenarioSpec)> = files
        .into_iter()
        .map(|path| {
            let spec = ScenarioSpec::load(&path)
                .unwrap_or_else(|e| panic!("scenario {} does not parse: {e}", path.display()));
            (path, spec)
        })
        .collect();
    // Golden files and the rig's scenario tables are keyed by spec name,
    // not file name: duplicates would silently share one digest.
    for (i, (path, spec)) in specs.iter().enumerate() {
        if let Some((other, _)) = specs[..i].iter().find(|(_, s)| s.name == spec.name) {
            panic!(
                "scenario name {:?} declared by both {} and {}",
                spec.name,
                other.display(),
                path.display()
            );
        }
    }
    specs
}

/// The golden-suite floor, auto-derived from the `scenarios/` listing:
/// every committed scenario must have a digest under `tests/golden/lite/`
/// keyed by its spec name, its file stem must match that name (digests and
/// `repro` artifacts are name-keyed), and — in the other direction — every
/// scenario-shaped digest in the golden tree must belong to a committed
/// scenario, so deleting a scenario cannot leave a stale digest that still
/// looks authoritative.
#[test]
fn every_scenario_has_a_registered_golden_digest() {
    let specs = committed_specs();
    let golden_dir = repo_path("tests/golden/lite");
    for (path, spec) in &specs {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        assert_eq!(
            stem, spec.name,
            "{}: file stem and `name = {}` must agree — digests are keyed by name",
            path.display(),
            spec.name
        );
        let golden = golden_dir.join(format!("{}.golden.csv", spec.name));
        assert!(
            golden.is_file(),
            "scenario {} has no committed digest at {} — generate it with \
             SB_UPDATE_GOLDEN=1 cargo test --test golden_scenarios (or \
             `repro run --tier lite --update-golden`) and commit the result",
            path.display(),
            golden.display()
        );
    }
    // Reverse direction: no orphaned digests. Rig figure targets and the
    // built-in org-scale scenario also keep digests in this directory, so
    // the authoritative owner set is the rig registry plus the committed
    // scenario names.
    let registry = spambayes_repro::experiments::rig::registry(&repo_path("scenarios"))
        .expect("rig registry must build");
    for entry in std::fs::read_dir(&golden_dir).expect("tests/golden/lite must be listable") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or_default();
        let Some(stem) = name.strip_suffix(".golden.csv") else {
            continue;
        };
        assert!(
            specs.iter().any(|(_, s)| s.name == stem)
                || registry.iter().any(|t| t.stem == stem),
            "orphaned golden digest {} — neither a committed scenario nor a rig \
             registry target claims stem {stem:?}; delete the digest or restore its owner",
            path.display()
        );
    }
}

/// The committed suite covers the required scenario shapes — including the
/// Campaign-API-v2 acceptance set: every new attack kind and a
/// non-constant intensity schedule must be exercised by a committed,
/// golden-locked scenario.
#[test]
fn suite_covers_the_required_scenario_shapes() {
    let specs = committed_specs();
    assert!(
        specs
            .iter()
            .any(|(_, s)| s.campaigns.len() == 1 && s.user_traffic.is_empty()),
        "suite needs a single-campaign baseline"
    );
    assert!(
        specs.iter().any(|(_, s)| {
            s.campaigns.len() >= 2
                && s.campaigns
                    .iter()
                    .enumerate()
                    .any(|(i, a)| s.campaigns[i + 1..].iter().any(|b| a.overlaps(b)))
        }),
        "suite needs two overlapping campaigns"
    );
    assert!(
        specs.iter().any(|(_, s)| {
            !s.user_traffic.is_empty()
                && s.user_traffic.iter().any(|mix| mix != &s.user_traffic[0])
        }),
        "suite needs a heterogeneous per-user traffic mix"
    );
    let campaigns = || specs.iter().flat_map(|(_, s)| &s.campaigns);
    assert!(
        campaigns().any(|c| matches!(c.attack, AttackKind::Focused { .. })),
        "suite needs a focused campaign"
    );
    assert!(
        campaigns().any(|c| matches!(c.attack, AttackKind::HamChaff { .. })),
        "suite needs a ham-chaff campaign"
    );
    assert!(
        campaigns().any(|c| matches!(c.intensity, Intensity::LinearRamp { .. })),
        "suite needs a linear-ramp intensity"
    );
    assert!(
        campaigns().any(|c| matches!(c.intensity, Intensity::Bursts { .. })),
        "suite needs a burst-train intensity"
    );
    assert!(
        specs.iter().any(|(_, s)| !s.expectations.is_empty()),
        "suite needs a scenario with expect assertions"
    );
    // The robustness acceptance set: the fault plan's degraded-week story
    // (retrain failure -> stale-model week with non-zero deferred
    // redelivery) and the crash/replay + mailbox-loss story must each be
    // locked by a committed chaos scenario.
    let faults = || specs.iter().flat_map(|(_, s)| &s.fault_events);
    assert!(
        faults().any(|e| matches!(e, FaultEvent::PipeFaults { .. })),
        "suite needs a pipe-fault window"
    );
    assert!(
        faults().any(|e| matches!(e, FaultEvent::ShardCrash { .. })),
        "suite needs a node-crash event"
    );
    assert!(
        faults().any(|e| matches!(e, FaultEvent::MailboxLoss { .. })),
        "suite needs a mailbox-loss event"
    );
    assert!(
        faults().any(|e| matches!(
            e,
            FaultEvent::RetrainFailure { .. } | FaultEvent::ModelCorruption { .. }
        )),
        "suite needs a retrain/model failure"
    );
    let expects = |name: &str| {
        specs
            .iter()
            .flat_map(|(_, s)| &s.expectations)
            .any(|e| e.field.name() == name)
    };
    for field in ["degraded", "recovered", "deferred", "redelivered", "replayed"] {
        assert!(
            expects(field),
            "suite needs an expect locking the {field} surface"
        );
    }
}

/// The scenario grammar round-trips: parse -> format -> parse is the
/// identity on every committed file, and the canonical form is a fixed
/// point of format. (CI runs it in build-test's `cargo test -q` and in
/// both `SB_THREADS` columns of mailflow-threads.)
#[test]
fn scenario_grammar_roundtrips_on_committed_files() {
    for (path, spec) in committed_specs() {
        let formatted = spec.format();
        let reparsed = ScenarioSpec::parse(&formatted).unwrap_or_else(|e| {
            panic!(
                "canonical form of {} must reparse: {e}\n{formatted}",
                path.display()
            )
        });
        assert_eq!(
            reparsed,
            spec,
            "{}: parse -> format -> parse must be identity",
            path.display()
        );
        assert_eq!(
            reparsed.format(),
            formatted,
            "{}: canonical form must be a fixed point",
            path.display()
        );
    }
}

/// The tentpole gate: run every scenario at shard counts 1/2/4, require
/// bit-identical reports, compare the canonical digest against the
/// committed golden file (or rewrite it under SB_UPDATE_GOLDEN=1), and
/// enforce the scenario's own `expect` assertions.
#[test]
fn golden_digests_are_bit_identical_across_shards_and_match_committed() {
    let shard_matrix = ScenarioSuiteConfig::default().shard_matrix;
    let golden_dir = repo_path("tests/golden/lite");
    let mut updated = Vec::new();

    for (path, spec) in committed_specs() {
        let reports: Vec<OrgReport> = shard_matrix
            .iter()
            .map(|&shards| {
                spec.run_with_shards(shards).unwrap_or_else(|e| {
                    panic!("scenario {} does not build at shards={shards}: {e}", spec.name)
                })
            })
            .collect();
        for (report, &shards) in reports.iter().zip(&shard_matrix).skip(1) {
            assert_eq!(
                &reports[0], report,
                "scenario {} diverged between shards={} and shards={}",
                spec.name, shard_matrix[0], shards
            );
        }

        // Behavioral contract: every committed expect line must hold.
        let failures = spec.check_expectations(&reports[0]);
        assert!(
            failures.is_empty(),
            "scenario {}: {} expect assertion(s) failed:\n  {}",
            spec.name,
            failures.len(),
            failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n  ")
        );

        let digest = golden_digest(&spec.name, &reports[0]);
        let golden_path = golden_dir.join(format!("{}.golden.csv", spec.name));
        if update_requested() {
            std::fs::create_dir_all(&golden_dir).expect("create tests/golden/lite");
            std::fs::write(&golden_path, &digest)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", golden_path.display()));
            updated.push(golden_path);
            continue;
        }

        let committed = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden digest {} for scenario {} ({e}); generate it with \
                 SB_UPDATE_GOLDEN=1 cargo test --test golden_scenarios",
                golden_path.display(),
                path.display()
            )
        });
        if committed != digest {
            let (line, want, got) = first_divergence(&committed, &digest)
                .expect("unequal digests must diverge somewhere");
            panic!(
                "scenario {}: fresh report diverges from {} at line {line}:\n  \
                 committed: {want}\n  fresh:     {got}\n\
                 If this change is intentional, refresh the digests with \
                 SB_UPDATE_GOLDEN=1 cargo test --test golden_scenarios and commit them.",
                spec.name,
                golden_path.display()
            );
        }
    }

    for p in updated {
        eprintln!("updated {}", p.display());
    }
}
