//! Drives the `repro` binary end to end: `repro run` is the one experiment
//! front-end, so a target's digest and tables land under `--out`, nothing
//! in the committed tree is touched, and the retired per-figure commands
//! and `--scale` flag are usage errors.

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

    let bench_after = std::fs::read(root.join("BENCH_pr9.json")).expect("BENCH_pr9.json");
    assert!(bench_before == bench_after, "repro run modified BENCH_pr9.json");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn retired_commands_and_scale_flag_are_usage_errors() {
    for args in [&["fig1"][..], &["run", "--scale", "quick"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    }
}
