//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro run [--tier lite|full] [--only STEM] [--update-golden]
//!           [--seed N] [--threads N] [--out DIR] [--scenarios DIR]
//! repro model inspect <img>
//! repro lint [--deep]
//!
//! commands:
//!   run       the tiered reproduction rig: every registered target — the
//!             paper's Figures 1–5, the §4.2 token volume, the §5.1 RONI
//!             study, the Table 1 variations, the extension experiments
//!             (transfer, constrained, hamattack, matrix, weeks), every
//!             committed scenario and the `org-scale` organization — at a
//!             tier (`--tier lite` = CI-sized, byte-exact goldens under
//!             `tests/golden/lite/`; `--tier full` = paper scale with
//!             typed paper-claim assertions, digest drift is a warning).
//!             Each target prints its table(s) — scenario targets their
//!             per-week table — and writes them, with its digest, under
//!             `<out>/<tier>/`, next to the paper's Table 1 and
//!             `rig_summary.csv`. `--only STEM` selects one target;
//!             `--update-golden` rewrites the tier's committed digests.
//!   model inspect <img>       print a model image's header, checksum
//!             verdict, and load mechanism (mmap vs read); a corrupt
//!             image is an error naming the defect
//!   lint      run the workspace determinism/invariant linter in deny
//!             mode (same gate as CI's `cargo run -p sb-lint -- --deny`);
//!             non-zero exit on any deny-severity finding; `--deep` adds
//!             the call-graph taint/panic-reachability passes
//! ```
//!
//! ASCII tables go to stdout; CSVs and `.txt` renderings go to `--out`
//! (default `reports/`). Nothing here measures performance: the one
//! performance harness is `perfbench/` (`python3 perfbench/run.py`).

use sb_experiments::config::ScenarioSuiteConfig;
use sb_experiments::report::Table;
use sb_experiments::rig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    command: String,
    seed: u64,
    out: PathBuf,
    threads: usize,
    /// Directory of `*.scenario` files the rig registers as targets.
    scenarios_dir: PathBuf,
    /// `lint --deep`: also run the call-graph passes (taint/reach).
    deep: bool,
    /// `run --tier`: which rig tier (default lite).
    tier: rig::Tier,
    /// `run --only STEM`: select a single rig target.
    only: Option<String>,
    /// `run --update-golden`: rewrite the tier's committed digests.
    update_golden: bool,
    /// Positional operands (`model inspect <img>`).
    positional: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro run [--tier lite|full] [--only STEM] [--update-golden]\n\
         \x20                [--seed N] [--threads N] [--out DIR] [--scenarios DIR]\n\
         \x20      repro model inspect <img>\n\
         \x20      repro lint [--deep]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    if !matches!(command.as_str(), "run" | "model" | "lint") {
        return Err(format!("unknown command {command:?}"));
    }
    let mut args = Args {
        command,
        seed: 2008,
        out: PathBuf::from("reports"),
        threads: sb_intern::par::default_threads(),
        scenarios_dir: ScenarioSuiteConfig::default().dir,
        deep: false,
        tier: rig::Tier::Lite,
        only: None,
        update_golden: false,
        positional: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let mut take = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = take()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--out" => args.out = PathBuf::from(take()?),
            "--threads" => {
                args.threads = take()?.parse().map_err(|e| format!("bad threads: {e}"))?
            }
            "--scenarios" => args.scenarios_dir = PathBuf::from(take()?),
            "--deep" => args.deep = true,
            "--tier" => {
                let v = take()?;
                args.tier = rig::Tier::parse(&v).ok_or(format!("bad tier {v:?} (lite|full)"))?;
            }
            "--only" => args.only = Some(take()?),
            "--update-golden" => args.update_golden = true,
            other if !other.starts_with("--") => args.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    Ok(args)
}

/// Print a table already written as `dir/name.{csv,txt}`.
fn print_table(table: &Table, dir: &Path, name: &str) {
    println!("{}", table.to_ascii());
    println!("  -> {}\n", dir.join(format!("{name}.{{csv,txt}}")).display());
}

/// `repro run` — the rig: every target's tables, then the run summary
/// and every claim. Non-zero exit if any target failed.
fn cmd_run(args: &Args) -> Result<(), String> {
    let opts = rig::RigOptions {
        seed: args.seed,
        threads: args.threads,
        only: args.only.clone(),
        update_golden: args.update_golden,
        reports_root: args.out.clone(),
        scenarios_dir: args.scenarios_dir.clone(),
        ..rig::RigOptions::new(args.tier)
    };
    let summary = rig::run_rig(&opts)?;
    let report_dir = args.out.join(summary.tier.name());
    let mut t = Table::new(
        format!("Reproduction rig — {} tier", summary.tier.name()),
        &["target", "status", "messages", "claims"],
    );
    for r in &summary.targets {
        for (name, table) in &r.tables {
            print_table(table, &report_dir, name);
        }
        let passed = r.claims.iter().filter(|c| c.passed()).count();
        t.row(vec![
            r.stem.clone(),
            r.status.name().to_string(),
            r.messages.to_string(),
            format!("{passed}/{}", r.claims.len()),
        ]);
    }
    println!("{}", t.to_ascii());
    for r in &summary.targets {
        for c in &r.claims {
            println!("  {}", c.render());
        }
    }
    let failures = summary.failures();
    println!(
        "rig: {} target(s), {} claim(s) evaluated, {} failure(s)",
        summary.targets.len(),
        summary.claims_evaluated(),
        failures
    );
    if failures > 0 {
        return Err(format!("{failures} rig target(s) failed"));
    }
    Ok(())
}

/// `repro model inspect` — validate and describe a model image.
fn cmd_model(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        Some("inspect") => {
            let [input] = &args.positional[1..] else {
                return Err("usage: repro model inspect <img>".into());
            };
            let bytes = sb_serve::ImageBytes::load(std::path::Path::new(input))
                .map_err(|e| format!("{input}: {e}"))?;
            let view = sb_filter::ImageView::parse(&bytes)
                .map_err(|e| format!("{input}: {e}"))?;
            println!("{input}: model image v1");
            println!("  bytes        {}", bytes.len());
            println!("  served via   {}", if bytes.is_mapped() { "mmap" } else { "read" });
            println!("  n_spam msgs  {}", view.n_spam());
            println!("  n_ham msgs   {}", view.n_ham());
            println!("  tokens       {}", view.n_tokens());
            println!("  checksum     ok (validated on parse)");
            Ok(())
        }
        Some(other) => Err(format!("unknown model subcommand {other:?} (inspect)")),
        None => Err("usage: repro model inspect <img>".into()),
    }
}

/// `repro lint` — the workspace determinism linter, deny mode. A thin
/// wrapper over the sb-lint library so the lint lane is reachable from
/// the same binary that produces the reports it protects.
fn cmd_lint(deep: bool) -> ExitCode {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = sb_lint::discover_root(&cwd) else {
        eprintln!("error: no sb-lint.toml found walking up from {}", cwd.display());
        return ExitCode::from(2);
    };
    let cfg_text = match std::fs::read_to_string(root.join("sb-lint.toml")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read sb-lint.toml: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match sb_lint::Config::parse(&cfg_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if deep {
        sb_lint::lint_workspace_deep(&root, &cfg)
    } else {
        sb_lint::lint_workspace(&root, &cfg)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "sb-lint: {} finding(s) ({} deny, {} warn) in {} file(s); {} suppressed",
        report.findings.len(),
        report.deny_count(),
        report.warn_count(),
        report.files_scanned,
        report.suppressed,
    );
    if report.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // sb-lint: allow(wall-clock, "operator-facing elapsed-time display on the CLI; never feeds simulation state or reports")
    let started = std::time::Instant::now();
    let result = match args.command.as_str() {
        "run" => cmd_run(&args),
        "model" => cmd_model(&args),
        "lint" => return cmd_lint(args.deep),
        _ => return usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
