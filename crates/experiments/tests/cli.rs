//! Drives the `repro` binary end to end: `repro run` is the one experiment
//! front-end, so a target's digest and tables land under `--out`, nothing
//! in the committed tree is touched, and the retired commands (the
//! per-figure ones and `serve-bench`) and flags (`--scale`, `--tenants`)
//! are usage errors. `repro model inspect` validates a model image —
//! the one model format — and `repro model pack` is gone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("repro runs")
}

#[test]
fn run_only_tokens_writes_digest_and_table_without_touching_the_tree() {
    let root = workspace_root();
    let bench_before = std::fs::read(root.join("BENCH_pr9.json")).expect("BENCH_pr9.json");
    let out = std::env::temp_dir().join(format!("sb-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);

    let run = repro(&[
        "run",
        "--tier",
        "lite",
        "--only",
        "tokens",
        "--out",
        out.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(
        run.status.success(),
        "repro run failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let fresh = std::fs::read(out.join("lite/tokens.golden.csv")).expect("digest written");
    let golden = std::fs::read(root.join("tests/golden/lite/tokens.golden.csv")).expect("golden");
    assert_eq!(fresh, golden, "tokens digest differs from the committed golden");

    let txt = std::fs::read_to_string(out.join("lite/tokens.txt")).expect("table .txt written");
    assert!(txt.contains("§4.2 token volume"), "unexpected table: {txt}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains(&txt), "the table is printed as written");

    // The run summary carries no timings, so it is as deterministic as
    // the digests it lists.
    let summary =
        std::fs::read_to_string(out.join("lite/rig_summary.csv")).expect("rig_summary.csv");
    let mut lines = summary.lines();
    assert_eq!(
        lines.next(),
        Some("stem,status,messages,claims_passed,claims_failed,seal")
    );
    let row = lines.next().expect("one row for the selected target");
    let seal = String::from_utf8_lossy(&golden).lines().last().unwrap_or("").to_string();
    assert!(
        row.starts_with("tokens,ok,") && row.ends_with(&format!(",\"{seal}\"")),
        "unexpected summary row: {row}"
    );
    assert_eq!(lines.next(), None);

    let bench_after = std::fs::read(root.join("BENCH_pr9.json")).expect("BENCH_pr9.json");
    assert!(bench_before == bench_after, "repro run modified BENCH_pr9.json");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn retired_commands_and_scale_flag_are_usage_errors() {
    for args in [
        &["fig1"][..],
        &["serve-bench"],
        &["run", "--scale", "quick"],
        &["run", "--tenants", "8"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    }
}

#[test]
fn model_inspect_validates_an_image_and_pack_is_gone() {
    use sb_email::Label;
    let mut db = sb_filter::TokenDb::new();
    db.train(&["cheap".into(), "pills".into(), "now".into()], Label::Spam);
    db.train(&["agenda".into(), "now".into()], Label::Ham);
    let image = sb_filter::image::pack(&db);
    let dir = std::env::temp_dir().join(format!("sb-repro-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.img");
    std::fs::write(&good, &image).expect("write image");
    let mut flipped = image.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let bad = dir.join("bad.img");
    std::fs::write(&bad, &flipped).expect("write image");
    let path = |p: &Path| p.to_str().expect("utf-8 temp dir").to_string();

    let ok = repro(&["model", "inspect", &path(&good)]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    let stderr = String::from_utf8_lossy(&ok.stderr);
    assert!(ok.status.success(), "inspect failed: {stderr}");
    assert!(
        stdout.contains("tokens       4"),
        "unexpected output: {stdout}"
    );

    let corrupt = repro(&["model", "inspect", &path(&bad)]);
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(!corrupt.status.success(), "a flipped byte was accepted");
    let mismatch = stderr.contains("checksum mismatch");
    assert!(mismatch, "unexpected error: {stderr}");

    let pack = repro(&["model", "pack", &path(&good), &path(&dir.join("out.img"))]);
    assert!(!pack.status.success(), "repro model pack still runs");
    assert!(!dir.join("out.img").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
