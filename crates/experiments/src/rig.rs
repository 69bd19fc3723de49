//! Tiered reproduction rig: one registry of every reproduction target,
//! runnable at a CI-sized `lite` tier on every push and a paper-scale
//! `full` tier nightly (`repro run --tier lite|full`).
//!
//! Each target produces a canonical CSV *digest* (full-precision `{:?}`
//! floats, sealed with an FNV-1a line like the golden scenario suite) and
//! is compared against the committed digest under `tests/golden/<tier>/`.
//! The two tiers differ in how strictly digests are held:
//!
//! - **lite** — digests are byte-exact regression anchors. Any drift fails
//!   the run, scenario targets are additionally executed across the shard
//!   matrix `{1, 2, 4}` and must be bit-identical, and in-file `expect`
//!   assertions are enforced.
//! - **full** — paper-scale parameters (≥ 1k-user organization, full
//!   corpus/vocabulary). Floats here are perf-tuned and may legitimately
//!   drift, so digest mismatches are *warnings*; what gates the run are
//!   typed **paper-claim invariants** ([`ClaimResult`]) re-asserting the
//!   NSDI'08 headline numbers (dictionary-attack knee, focused-attack
//!   flip rates, RONI separability, organization-level detonation).
//!
//! Each target also renders its human-readable table(s) from the same
//! result value it digests. Artifacts land under `reports/<tier>/`: per
//! target the digest `<stem>.golden.csv` and each table as `<name>.csv`
//! plus its ASCII rendering `<name>.txt`; per run the paper's Table 1
//! (`table1.csv`/`.txt`) and `rig_summary.csv` (status, message count,
//! claim tallies and seal per target). The rig reads no clock, so every
//! file it writes is deterministic; `perfbench/` does the timing.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::config::{
    table1, ConstrainedConfig, DefenseMatrixConfig, Fig1Config, Fig5Config, FocusedConfig,
    HamAttackConfig, MailflowConfig, RoniExperimentConfig, ScenarioSuiteConfig, TransferConfig,
};
use crate::figures::{
    constrained_exp, defense_matrix, fig1, fig4, fig5, focused, ham_attack_exp, mailflow_weeks,
    roni_exp, tokens, transfer, variations,
};
use crate::metrics::RateSummary;
use crate::report::{f, pct, Table};
use crate::scenario::{first_divergence, fnv1a64, golden_digest, ExpectOp, ScenarioSpec};
use sb_mailflow::OrgReport;

/// Which tier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized: today's scenario/figure quick parameters, byte-exact goldens.
    Lite,
    /// Paper-scale: full configs, ≥ 1k-user organization, claim assertions.
    Full,
}

impl Tier {
    /// Parse a `--tier` argument.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "lite" => Some(Tier::Lite),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// Directory / display name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Lite => "lite",
            Tier::Full => "full",
        }
    }

    /// `lite` at the lite tier, `full` at the full tier: how every figure
    /// target picks between its config's `quick(seed)` and `full(seed)`.
    fn pick<T>(self, lite: T, full: T) -> T {
        match self {
            Tier::Lite => lite,
            Tier::Full => full,
        }
    }
}

/// Per-tier organization size for a scenario target.
///
/// Both tiers share one deterministic parameterization path: the per-user
/// traffic rates come from [`user_rate`] regardless of tier, so a lite day
/// plan is exactly the `(users, days)` prefix of the full-parameterized
/// plan (property-tested in `tests/rig_tiers.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierParams {
    /// Organization size (mailboxes).
    pub users: usize,
    /// Simulated days.
    pub days: u32,
}

/// The lite tier reuses the committed scenario's own size.
pub fn lite_params(spec: &ScenarioSpec) -> TierParams {
    TierParams {
        users: spec.users,
        days: spec.days,
    }
}

/// The full tier scales a committed scenario up: 4× the users, one extra
/// week of days (so late-week dynamics that CI never reaches get exercised).
pub fn full_params(spec: &ScenarioSpec) -> TierParams {
    TierParams {
        users: spec.users * 4,
        days: spec.days + 7,
    }
}

/// Daily (ham, spam) rate for user index `u` under `spec`'s traffic model,
/// extended periodically beyond `spec.users`.
///
/// This is the single code path both tiers draw rates from: explicit
/// `user_traffic` entries repeat in order; an org-wide `traffic` total is
/// split evenly with the remainder going to the lowest-indexed users
/// (matching how a scenario run splits org traffic).
pub fn user_rate(spec: &ScenarioSpec, u: usize) -> (u32, u32) {
    let base = u % spec.users.max(1);
    if !spec.user_traffic.is_empty() {
        return spec.user_traffic[base % spec.user_traffic.len()];
    }
    let (ham, spam) = spec.traffic;
    let n = spec.users.max(1) as u32;
    let i = base as u32;
    (
        ham / n + u32::from(i < ham % n),
        spam / n + u32::from(i < spam % n),
    )
}

/// The deterministic day plan at `params`: one `(ham, spam)` rate per
/// (day, user) cell. Purely a function of `spec`'s rates and the tier's
/// `(users, days)` — never of the tier label — which is what makes the
/// lite plan a bit-identical prefix of the full plan.
pub fn day_plan(spec: &ScenarioSpec, params: TierParams) -> Vec<Vec<(u32, u32)>> {
    (0..params.days)
        .map(|_| (0..params.users).map(|u| user_rate(spec, u)).collect())
        .collect()
}

/// Re-parameterize a committed scenario for `params`.
///
/// At the spec's own (lite) size this is the identity — the returned spec
/// runs byte-identically to today's golden suite. At any other size the
/// per-user rates are materialized from [`user_rate`] and the in-file
/// `expect` assertions are dropped (they are calibrated for lite sizes;
/// the full tier is gated by rig-level claims instead).
pub fn scale_spec(spec: &ScenarioSpec, params: TierParams) -> ScenarioSpec {
    if params == lite_params(spec) {
        return spec.clone();
    }
    let mut scaled = spec.clone();
    scaled.user_traffic = (0..params.users).map(|u| user_rate(spec, u)).collect();
    scaled.users = params.users;
    scaled.days = params.days;
    scaled.expectations.clear();
    scaled
}

/// One paper-claim invariant evaluated at the full tier.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Stable identifier, e.g. `fig1.usenet-1pct.ham-as-spam`.
    pub id: String,
    /// What the paper says, in one line.
    pub description: String,
    /// Comparison applied as `observed op required`.
    pub op: ExpectOp,
    /// Threshold (calibrated with slack below the measured full-scale value
    /// so legitimate float drift passes but a broken attack/defense fails).
    pub required: f64,
    /// Value measured by this run.
    pub observed: f64,
}

impl ClaimResult {
    /// Did the run uphold the claim?
    pub fn passed(&self) -> bool {
        self.op.eval(self.observed, self.required)
    }

    /// One-line rendering for logs and the summary CSV.
    pub fn render(&self) -> String {
        format!(
            "{} [{}] observed {} {} {} — {}",
            self.id,
            if self.passed() { "pass" } else { "FAIL" },
            fx(self.observed),
            self.op.token(),
            fx(self.required),
            self.description
        )
    }
}

fn claim(id: &str, description: &str, observed: f64, op: ExpectOp, required: f64) -> ClaimResult {
    ClaimResult {
        id: id.to_string(),
        description: description.to_string(),
        op,
        required,
        observed,
    }
}

/// What a registered target is.
#[derive(Debug, Clone)]
pub enum TargetKind {
    /// Figure 1: dictionary attacks vs training fraction.
    Fig1,
    /// §4.2 token-volume table.
    Tokens,
    /// Figure 2: focused attack vs guess probability.
    Fig2,
    /// Figure 3: focused attack vs volume.
    Fig3,
    /// Figure 4: token-score shift cases.
    Fig4,
    /// Figure 5: dynamic threshold defense.
    Fig5,
    /// §5.1 RONI experiment.
    Roni,
    /// Table 1 size/prevalence variations.
    Variations,
    /// Cross-filter transfer extension.
    Transfer,
    /// Constrained-attack budget sweep.
    Constrained,
    /// Ham-chaff integrity attack.
    HamAttack,
    /// Attack × defense matrix.
    Matrix,
    /// Week-by-week 4-scenario mailflow comparison.
    Weeks,
    /// A committed `scenarios/*.scenario` file, tier-scaled.
    Scenario(PathBuf),
    /// The built-in paper-scale organization scenario (1.2k users at full).
    OrgScale,
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct Target {
    /// File stem used for golden/report paths and `--only`.
    pub stem: String,
    /// What to run.
    pub kind: TargetKind,
}

/// The declarative target registry: every paper figure/table, every
/// committed scenario (discovered from `scenarios_dir`), and the built-in
/// paper-scale organization scenario.
pub fn registry(scenarios_dir: &Path) -> Result<Vec<Target>, String> {
    let mut targets: Vec<Target> = [
        ("fig1", TargetKind::Fig1),
        ("tokens", TargetKind::Tokens),
        ("fig2", TargetKind::Fig2),
        ("fig3", TargetKind::Fig3),
        ("fig4", TargetKind::Fig4),
        ("fig5", TargetKind::Fig5),
        ("roni", TargetKind::Roni),
        ("variations", TargetKind::Variations),
        ("transfer", TargetKind::Transfer),
        ("constrained", TargetKind::Constrained),
        ("hamattack", TargetKind::HamAttack),
        ("matrix", TargetKind::Matrix),
        ("weeks", TargetKind::Weeks),
    ]
    .into_iter()
    .map(|(stem, kind)| Target {
        stem: stem.to_string(),
        kind,
    })
    .collect();

    let suite = ScenarioSuiteConfig {
        dir: scenarios_dir.to_path_buf(),
        ..ScenarioSuiteConfig::default()
    };
    let files = suite
        .scenario_files()
        .map_err(|e| format!("listing {}: {e}", scenarios_dir.display()))?;
    for path in files {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("unutterable scenario file name: {}", path.display()))?
            .to_string();
        // The stem is the bare file stem: at the lite tier a scenario
        // target's digest is byte-for-byte the same file the golden
        // scenario suite locks, so the two gates can never disagree.
        targets.push(Target {
            stem,
            kind: TargetKind::Scenario(path),
        });
    }

    targets.push(Target {
        stem: "org-scale".to_string(),
        kind: TargetKind::OrgScale,
    });

    let mut stems: Vec<&str> = targets.iter().map(|t| t.stem.as_str()).collect();
    stems.sort_unstable();
    stems.dedup();
    if stems.len() != targets.len() {
        return Err("duplicate target stems in registry".to_string());
    }
    Ok(targets)
}

/// Source text of the built-in paper-scale organization scenario. The two
/// tiers are the same scenario shape at different magnitudes; the full tier
/// is the paper's setting (≥ 1k users, a 5k-word Usenet dictionary blast).
pub fn org_scale_source(tier: Tier) -> String {
    let (users, ham, spam, boot, lex, per_day) = match tier {
        Tier::Lite => (40usize, 160u32, 160u32, 200usize, 2_000usize, 16u32),
        Tier::Full => (1_200, 4_800, 4_800, 400, 5_000, 480),
    };
    format!(
        "name = org-scale\n\
         seed = 2008\n\
         users = {users}\n\
         days = 14\n\
         retrain_every = 7\n\
         bootstrap = {boot}\n\
         traffic = {ham}/{spam}\n\
         defense = none\n\
         \n\
         [campaign]\n\
         attack = usenet:{lex}\n\
         start_day = 1\n\
         per_day = {per_day}\n"
    )
}

/// Output of running one target.
pub struct TargetOutput {
    /// Canonical sealed CSV digest.
    pub digest: String,
    /// Paper-claim results (full tier only for figures; lite scenario
    /// targets surface their in-file `expect` lines here as claims).
    pub claims: Vec<ClaimResult>,
    /// Messages processed — exact for scenario targets (sum of weekly
    /// `offered` over every run, one per lite-tier shard count), a
    /// documented coarse workload estimate for figures. Reported in
    /// `rig_summary.csv` and the summary table.
    pub messages: u64,
    /// Human-readable tables rendered from the digested result, each with
    /// the file name (no extension) it is written under.
    pub tables: Vec<(String, Table)>,
}

/// Options for one rig invocation.
pub struct RigOptions {
    /// Tier to run.
    pub tier: Tier,
    /// Base seed (threaded into every figure config and scenario).
    pub seed: u64,
    /// Worker threads for figure experiments.
    pub threads: usize,
    /// Run only the target with this stem.
    pub only: Option<String>,
    /// Rewrite `tests/golden/<tier>/` from this run instead of comparing.
    pub update_golden: bool,
    /// Root of the artifact tree (digests land in `<reports_root>/<tier>/`).
    pub reports_root: PathBuf,
    /// Root of the committed goldens (`<golden_root>/<tier>/<stem>.golden.csv`).
    pub golden_root: PathBuf,
    /// Directory of committed `*.scenario` files.
    pub scenarios_dir: PathBuf,
    /// Shard counts lite scenario targets must be bit-identical across.
    pub shard_matrix: Vec<usize>,
}

impl RigOptions {
    /// Defaults rooted at the repository layout.
    pub fn new(tier: Tier) -> Self {
        RigOptions {
            tier,
            seed: 2008,
            threads: 1,
            only: None,
            update_golden: false,
            reports_root: PathBuf::from("reports"),
            golden_root: PathBuf::from("tests/golden"),
            scenarios_dir: PathBuf::from("scenarios"),
            shard_matrix: ScenarioSuiteConfig::default().shard_matrix,
        }
    }
}

/// Outcome status of one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetStatus {
    /// Digest matched the committed golden and all claims passed.
    Ok,
    /// Golden rewritten (`--update-golden`).
    Updated,
    /// Full tier only: digest drifted or golden missing (non-fatal).
    Drifted,
    /// Something gating failed: lite digest mismatch, shard divergence,
    /// expect/claim failure, or the target errored.
    Failed,
}

impl TargetStatus {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            TargetStatus::Ok => "ok",
            TargetStatus::Updated => "updated",
            TargetStatus::Drifted => "drifted",
            TargetStatus::Failed => "FAILED",
        }
    }
}

/// Per-target record in the run summary.
pub struct TargetReport {
    /// Registry stem.
    pub stem: String,
    /// Outcome.
    pub status: TargetStatus,
    /// Workload proxy (see [`TargetOutput::messages`]).
    pub messages: u64,
    /// FNV seal line of the fresh digest (empty if the target errored).
    pub seal: String,
    /// Claim results.
    pub claims: Vec<ClaimResult>,
    /// Gating errors (empty unless `status == Failed`).
    pub errors: Vec<String>,
    /// Non-gating notes (full-tier drift details and the like).
    pub warnings: Vec<String>,
    /// The target's tables (see [`TargetOutput::tables`]).
    pub tables: Vec<(String, Table)>,
}

/// Whole-run summary.
pub struct RigSummary {
    /// Tier that ran.
    pub tier: Tier,
    /// Per-target records in registry order.
    pub targets: Vec<TargetReport>,
}

impl RigSummary {
    /// Number of failed targets.
    pub fn failures(&self) -> usize {
        self.targets
            .iter()
            .filter(|t| t.status == TargetStatus::Failed)
            .count()
    }

    /// Total claims evaluated across targets.
    pub fn claims_evaluated(&self) -> usize {
        self.targets.iter().map(|t| t.claims.len()).sum()
    }
}

fn fx(x: f64) -> String {
    format!("{x:?}")
}

fn rate(r: &RateSummary) -> String {
    format!("{},{}", fx(r.mean), fx(r.std_dev))
}

/// Seal a canonical CSV with the same FNV-1a line format the golden
/// scenario suite uses, so every digest file is self-checking.
fn seal(mut csv: String) -> String {
    let h = fnv1a64(csv.as_bytes());
    let _ = writeln!(csv, "fnv1a64,{h:#018x}");
    csv
}

fn last_line(digest: &str) -> String {
    digest.lines().last().unwrap_or("").to_string()
}

// ---------------------------------------------------------------------------
// Per-target runners. Each returns a sealed canonical digest plus (at the
// full tier) the paper-claim invariants that target is responsible for.
// ---------------------------------------------------------------------------

/// One table under the file name `name`.
fn table(name: &str, t: Table) -> Vec<(String, Table)> {
    vec![(name.to_string(), t)]
}

fn fig1_table(res: &fig1::Fig1Result) -> Table {
    let mut t = Table::new(
        "Figure 1: % test ham misclassified vs attack fraction (10-fold CV)",
        &[
            "attack",
            "fraction",
            "n_attack",
            "ham_as_spam%",
            "ham_spam_or_unsure%",
            "spam_correct%",
            "ham_as_spam_sd",
        ],
    );
    for p in &res.points {
        t.row(vec![
            p.attack.clone(),
            f(p.fraction, 3),
            p.n_attack.to_string(),
            f(p.ham_as_spam.pct(), 1),
            f(p.ham_misclassified.pct(), 1),
            f(p.spam_correct.pct(), 1),
            f(p.ham_as_spam.std_dev * 100.0, 2),
        ]);
    }
    t
}

fn run_fig1(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(Fig1Config::quick(seed), Fig1Config::full(seed));
    let res = fig1::run(&cfg, threads);
    let mut csv = String::from("target,fig1\n");
    csv.push_str(
        "attack,fraction,n_attack,ham_as_spam,ham_as_spam_sd,ham_misclassified,ham_misclassified_sd,spam_correct,spam_correct_sd\n",
    );
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            p.attack,
            fx(p.fraction),
            p.n_attack,
            rate(&p.ham_as_spam),
            rate(&p.ham_misclassified),
            rate(&p.spam_correct)
        );
    }
    let mut claims = Vec::new();
    if tier == Tier::Full {
        if let Some(p) = res.point("usenet-90k", 0.01) {
            claims.push(claim(
                "fig1.usenet-1pct.ham-as-spam",
                "§4.2: a 1% Usenet dictionary attack drives ~36% of ham to spam",
                p.ham_as_spam.mean,
                ExpectOp::Ge,
                0.20,
            ));
            claims.push(claim(
                "fig1.usenet-1pct.unusable",
                "§4.2: at 1% contamination the filter is unusable (ham spam-or-unsure)",
                p.ham_misclassified.mean,
                ExpectOp::Ge,
                0.80,
            ));
        }
        if let Some(p) = res.point("optimal", 0.01) {
            claims.push(claim(
                "fig1.optimal-dominates-usenet",
                "§4.2: the optimal attack misfiles at least as much ham as Usenet",
                p.ham_misclassified.mean
                    - res
                        .point("usenet-90k", 0.01)
                        .map(|q| q.ham_misclassified.mean)
                        .unwrap_or(0.0),
                ExpectOp::Ge,
                -0.05,
            ));
        }
        // Control: the clean baseline stays usable, so the knee is the
        // attack's doing and not a broken filter.
        if let Some(p) = res
            .points
            .iter()
            .find(|p| p.attack == "usenet-90k" && p.fraction == 0.0)
        {
            claims.push(claim(
                "fig1.clean-baseline.ham-as-spam",
                "§2.3 control: without attack, ham-as-spam stays below 5%",
                p.ham_as_spam.mean,
                ExpectOp::Le,
                0.05,
            ));
        }
    }
    let folds = res.config.folds as u64;
    let train = res.config.train_size as u64;
    TargetOutput {
        digest: seal(csv),
        claims,
        messages: train * folds * (res.points.len() as u64).max(1),
        tables: table("fig1", fig1_table(&res)),
    }
}

fn tokens_table(res: &tokens::TokenVolumeResult) -> Table {
    let mut t = Table::new(
        format!(
            "§4.2 token volume at 2% contamination ({} msgs, {} corpus tokens)",
            res.corpus_size, res.corpus_tokens
        ),
        &[
            "attack",
            "attack_emails",
            "tokens_per_email",
            "attack_tokens",
            "ratio_vs_corpus",
            "message_fraction%",
        ],
    );
    for r in &res.rows {
        t.row(vec![
            r.attack.clone(),
            r.n_attack_emails.to_string(),
            r.tokens_per_email.to_string(),
            r.attack_tokens.to_string(),
            f(r.ratio, 2),
            pct(r.message_fraction),
        ]);
    }
    t
}

fn run_tokens(tier: Tier, seed: u64) -> TargetOutput {
    let size = tier.pick(1_000, 10_000);
    let res = tokens::run(size, 0.02, seed);
    let mut csv = String::from("target,tokens\n");
    let _ = writeln!(csv, "corpus_size,{}", res.corpus_size);
    let _ = writeln!(csv, "corpus_tokens,{}", res.corpus_tokens);
    csv.push_str("attack,n_attack_emails,tokens_per_email,attack_tokens,ratio,message_fraction\n");
    for r in &res.rows {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            r.attack,
            r.n_attack_emails,
            r.tokens_per_email,
            r.attack_tokens,
            fx(r.ratio),
            fx(r.message_fraction)
        );
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: res.corpus_size as u64,
        tables: table("tokens", tokens_table(&res)),
    }
}

fn fig2_table(res: &focused::Fig2Result) -> Table {
    let mut t = Table::new(
        "Figure 2: target classification vs guess probability",
        &["guess_prob", "ham%", "unsure%", "spam%", "n"],
    );
    for b in &res.bars {
        t.row(vec![
            f(b.guess_prob, 2),
            pct(b.pct_ham),
            pct(b.pct_unsure),
            pct(b.pct_spam),
            b.n.to_string(),
        ]);
    }
    t
}

fn run_fig2(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(FocusedConfig::quick(seed), FocusedConfig::full(seed));
    let res = focused::run_fig2(&cfg, threads);
    let mut csv = String::from("target,fig2\n");
    csv.push_str("guess_prob,pct_ham,pct_unsure,pct_spam,n\n");
    for b in &res.bars {
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            fx(b.guess_prob),
            fx(b.pct_ham),
            fx(b.pct_unsure),
            fx(b.pct_spam),
            b.n
        );
    }
    let mut claims = Vec::new();
    if tier == Tier::Full {
        if let Some(b) = res
            .bars
            .iter()
            .min_by(|a, b| (a.guess_prob - 0.3).abs().total_cmp(&(b.guess_prob - 0.3).abs()))
        {
            claims.push(claim(
                "fig2.p30.target-flipped",
                "§4.3: knowing ~30% of target tokens flips ~60% of targets out of ham",
                b.pct_unsure + b.pct_spam,
                ExpectOp::Ge,
                0.50,
            ));
        }
    }
    let n: u64 = res.bars.iter().map(|b| b.n as u64).sum();
    TargetOutput {
        digest: seal(csv),
        claims,
        messages: n,
        tables: table("fig2", fig2_table(&res)),
    }
}

fn fig3_table(res: &focused::Fig3Result) -> Table {
    let mut t = Table::new(
        "Figure 3: target misclassification vs attack volume (p=0.5)",
        &["fraction", "n_attack", "target_as_spam%", "target_spam_or_unsure%"],
    );
    for p in &res.points {
        t.row(vec![
            f(p.fraction, 3),
            p.n_attack.to_string(),
            pct(p.pct_spam),
            pct(p.pct_misclassified),
        ]);
    }
    t
}

fn run_fig3(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(FocusedConfig::quick(seed), FocusedConfig::full(seed));
    let res = focused::run_fig3(&cfg, threads);
    let mut csv = String::from("target,fig3\n");
    csv.push_str("fraction,n_attack,pct_spam,pct_misclassified\n");
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            fx(p.fraction),
            p.n_attack,
            fx(p.pct_spam),
            fx(p.pct_misclassified)
        );
    }
    let mut claims = Vec::new();
    if tier == Tier::Full {
        if let Some(p) = res
            .points
            .iter()
            .min_by(|a, b| (a.fraction - 0.02).abs().total_cmp(&(b.fraction - 0.02).abs()))
        {
            claims.push(claim(
                "fig3.2pct.target-misclassified",
                "§4.3: ~100 focused attack emails push the target out of the inbox",
                p.pct_misclassified,
                ExpectOp::Ge,
                0.60,
            ));
        }
    }
    let n: u64 = res.points.iter().map(|p| p.n_attack as u64).sum();
    TargetOutput {
        digest: seal(csv),
        claims,
        messages: n.max(1),
        tables: table("fig3", fig3_table(&res)),
    }
}

/// Figure 4's per-case summary and its token-score shift scatter.
fn fig4_tables(res: &fig4::Fig4Result) -> Vec<(String, Table)> {
    let mut summary = Table::new(
        "Figure 4: representative focused-attack targets",
        &[
            "outcome",
            "score_before",
            "score_after",
            "tokens",
            "attacked_tokens",
            "mean_shift_attacked",
            "mean_shift_other",
        ],
    );
    let mut scatter = Table::new(
        "Figure 4 scatter: token scores before/after",
        &["case_outcome", "token", "before", "after", "in_attack"],
    );
    for case in &res.cases {
        let (inc, exc): (Vec<_>, Vec<_>) = case.points.iter().partition(|p| p.in_attack);
        let mean = |v: &[&fig4::TokenShift]| -> f64 {
            if v.is_empty() {
                0.0
            } else {
                v.iter().map(|p| p.after - p.before).sum::<f64>() / v.len() as f64
            }
        };
        summary.row(vec![
            case.outcome.to_string(),
            f(case.score_before, 3),
            f(case.score_after, 3),
            case.points.len().to_string(),
            inc.len().to_string(),
            f(mean(&inc), 3),
            f(mean(&exc), 3),
        ]);
        for p in &case.points {
            scatter.row(vec![
                case.outcome.to_string(),
                p.token.clone(),
                f(p.before, 4),
                f(p.after, 4),
                p.in_attack.to_string(),
            ]);
        }
    }
    vec![
        ("fig4".to_string(), summary),
        ("fig4_token_shift".to_string(), scatter),
    ]
}

fn run_fig4(tier: Tier, seed: u64) -> TargetOutput {
    let cfg = tier.pick(FocusedConfig::quick(seed), FocusedConfig::full(seed));
    let res = fig4::run(&cfg, 60);
    let mut csv = String::from("target,fig4\n");
    let _ = writeln!(csv, "targets_examined,{}", res.targets_examined);
    csv.push_str("outcome,score_before,score_after,n_points,n_in_attack,hist_before,hist_after\n");
    for c in &res.cases {
        let in_attack = c.points.iter().filter(|p| p.in_attack).count();
        let hist = |h: &[u64]| {
            h.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(
            csv,
            "{:?},{},{},{},{},{},{}",
            c.outcome,
            fx(c.score_before),
            fx(c.score_after),
            c.points.len(),
            in_attack,
            hist(&c.hist_before),
            hist(&c.hist_after)
        );
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: res.targets_examined as u64,
        tables: fig4_tables(&res),
    }
}

fn fig5_table(res: &fig5::Fig5Result) -> Table {
    let mut t = Table::new(
        "Figure 5: dynamic threshold defense vs dictionary attack",
        &[
            "defense",
            "fraction",
            "ham_as_spam%",
            "ham_spam_or_unsure%",
            "spam_as_unsure%",
            "spam_correct%",
        ],
    );
    for p in &res.points {
        t.row(vec![
            p.defense.name().into(),
            f(p.fraction, 3),
            f(p.ham_as_spam.pct(), 1),
            f(p.ham_misclassified.pct(), 1),
            f(p.spam_as_unsure.pct(), 1),
            f(p.spam_correct.pct(), 1),
        ]);
    }
    t
}

fn run_fig5(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(Fig5Config::quick(seed), Fig5Config::full(seed));
    let res = fig5::run(&cfg, threads);
    let mut csv = String::from("target,fig5\n");
    csv.push_str(
        "defense,fraction,ham_as_spam,ham_as_spam_sd,ham_misclassified,ham_misclassified_sd,spam_as_unsure,spam_as_unsure_sd,spam_correct,spam_correct_sd\n",
    );
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            p.defense.name(),
            fx(p.fraction),
            rate(&p.ham_as_spam),
            rate(&p.ham_misclassified),
            rate(&p.spam_as_unsure),
            rate(&p.spam_correct)
        );
    }
    let mut claims = Vec::new();
    if tier == Tier::Full {
        let last_frac = res
            .points
            .iter()
            .map(|p| p.fraction)
            .fold(f64::NEG_INFINITY, f64::max);
        if let (Some(plain), Some(defended)) = (
            res.point(fig5::Fig5Defense::NoDefense, last_frac),
            res.point(fig5::Fig5Defense::Threshold10, last_frac),
        ) {
            claims.push(claim(
                "fig5.threshold-recovers-ham",
                "§5.2: the dynamic-threshold defense misfiles less ham than no defense",
                plain.ham_as_spam.mean - defended.ham_as_spam.mean,
                ExpectOp::Ge,
                0.0,
            ));
        }
    }
    TargetOutput {
        digest: seal(csv),
        claims,
        messages: (res.config.train_size as u64) * (res.points.len() as u64).max(1),
        tables: table("fig5", fig5_table(&res)),
    }
}

fn roni_table(res: &roni_exp::RoniResult) -> Table {
    let mut t = Table::new(
        format!(
            "§5.1 RONI: incremental impact (ham-as-ham lost, of 25 validation ham); \
             separable: {} (threshold in force: {})",
            res.separable, res.threshold
        ),
        &["candidate", "lexicon", "mean_impact", "min/max_impact", "rejected%"],
    );
    for v in &res.variants {
        t.row(vec![
            v.variant.clone(),
            v.lexicon_len.to_string(),
            f(v.mean_impact, 2),
            format!("min {}", f(v.min_impact, 2)),
            pct(v.detection_rate),
        ]);
    }
    t.row(vec![
        format!("non-attack spam (n={})", res.non_attack.n),
        "-".into(),
        f(res.non_attack.mean_impact, 2),
        format!("max {}", f(res.non_attack.max_impact, 2)),
        pct(res.non_attack.false_positive_rate),
    ]);
    t
}

fn run_roni(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(
        RoniExperimentConfig::quick(seed),
        RoniExperimentConfig::full(seed),
    );
    let res = roni_exp::run(&cfg, threads);
    let mut csv = String::from("target,roni\n");
    let _ = writeln!(csv, "threshold,{}", fx(res.threshold));
    csv.push_str("variant,lexicon_len,mean_impact,min_impact,detection_rate\n");
    for v in &res.variants {
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            v.variant,
            v.lexicon_len,
            fx(v.mean_impact),
            fx(v.min_impact),
            fx(v.detection_rate)
        );
    }
    let _ = writeln!(
        csv,
        "non_attack,{},{},{},{}",
        res.non_attack.n,
        fx(res.non_attack.mean_impact),
        fx(res.non_attack.max_impact),
        fx(res.non_attack.false_positive_rate)
    );
    let _ = writeln!(csv, "separable,{}", res.separable);
    let mut claims = Vec::new();
    if tier == Tier::Full {
        let min_detection = res
            .variants
            .iter()
            .map(|v| v.detection_rate)
            .fold(f64::INFINITY, f64::min);
        claims.push(claim(
            "roni.detects-every-dictionary",
            "§5.1: RONI rejects every dictionary-attack variant",
            min_detection,
            ExpectOp::Ge,
            1.0,
        ));
        claims.push(claim(
            "roni.non-attack-fp",
            "§5.1: RONI rarely rejects legitimate training mail",
            res.non_attack.false_positive_rate,
            ExpectOp::Le,
            0.05,
        ));
        claims.push(claim(
            "roni.separable",
            "§5.1: one threshold separates attack from non-attack impact",
            if res.separable { 1.0 } else { 0.0 },
            ExpectOp::Eq,
            1.0,
        ));
    }
    TargetOutput {
        digest: seal(csv),
        claims,
        messages: (res.config.reps_per_variant as u64)
            * (res.variants.len() as u64 + res.non_attack.n as u64).max(1),
        tables: table("roni", roni_table(&res)),
    }
}

fn variations_table(res: &variations::VariationsResult) -> Table {
    let mut t = Table::new(
        "Table 1 variations: dictionary sweep across training size / prevalence",
        &[
            "train_size",
            "prevalence",
            "attack",
            "fraction",
            "ham_as_spam%",
            "ham_spam_or_unsure%",
        ],
    );
    for cell in &res.cells {
        for p in &cell.result.points {
            t.row(vec![
                cell.train_size.to_string(),
                f(cell.spam_prevalence, 2),
                p.attack.clone(),
                f(p.fraction, 3),
                f(p.ham_as_spam.pct(), 1),
                f(p.ham_misclassified.pct(), 1),
            ]);
        }
    }
    t
}

fn run_variations(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(Fig1Config::quick(seed), Fig1Config::full(seed));
    let res = variations::run(&cfg, tier == Tier::Full, threads);
    let mut csv = String::from("target,variations\n");
    csv.push_str("train_size,spam_prevalence,attack,fraction,ham_misclassified,ham_misclassified_sd\n");
    let mut messages = 0u64;
    for cell in &res.cells {
        messages += cell.train_size as u64;
        for p in &cell.result.points {
            let _ = writeln!(
                csv,
                "{},{},{},{},{}",
                cell.train_size,
                fx(cell.spam_prevalence),
                p.attack,
                fx(p.fraction),
                rate(&p.ham_misclassified)
            );
        }
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: messages.max(1),
        tables: table("variations", variations_table(&res)),
    }
}

fn transfer_table(res: &transfer::TransferResult) -> Table {
    let mut t = Table::new(
        "Extension: Usenet dictionary attack across the filter zoo",
        &[
            "filter",
            "fraction",
            "ham_as_spam%",
            "ham_spam_or_unsure%",
            "spam_correct%",
        ],
    );
    for p in &res.points {
        t.row(vec![
            p.filter.clone(),
            f(p.fraction, 3),
            pct(p.ham_as_spam),
            pct(p.ham_misclassified),
            pct(p.spam_caught),
        ]);
    }
    t
}

fn run_transfer(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(TransferConfig::quick(seed), TransferConfig::full(seed));
    let res = transfer::run(&cfg, threads);
    let mut csv = String::from("target,transfer\n");
    csv.push_str("filter,fraction,ham_as_spam,ham_misclassified,spam_caught\n");
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            p.filter,
            fx(p.fraction),
            fx(p.ham_as_spam),
            fx(p.ham_misclassified),
            fx(p.spam_caught)
        );
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: (res.points.len() as u64).max(1) * res.config.train_size as u64,
        tables: table("transfer", transfer_table(&res)),
    }
}

fn constrained_table(res: &constrained_exp::ConstrainedResult) -> Table {
    let mut t = Table::new(
        "Extension: optimal constrained attack — damage vs token budget",
        &[
            "source",
            "budget",
            "words_used",
            "ham_spam_or_unsure%",
            "sd",
        ],
    );
    for p in &res.points {
        t.row(vec![
            p.source.name().into(),
            p.budget.to_string(),
            p.words_used.to_string(),
            f(p.ham_misclassified.pct(), 1),
            f(p.ham_misclassified.std_dev * 100.0, 2),
        ]);
    }
    t
}

fn run_constrained(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(ConstrainedConfig::quick(seed), ConstrainedConfig::full(seed));
    let res = constrained_exp::run(&cfg, threads);
    let mut csv = String::from("target,constrained\n");
    csv.push_str("source,budget,words_used,ham_misclassified,ham_misclassified_sd\n");
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            p.source.name(),
            p.budget,
            p.words_used,
            rate(&p.ham_misclassified)
        );
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: (res.points.len() as u64).max(1) * res.config.train_size as u64,
        tables: table("constrained", constrained_table(&res)),
    }
}

fn hamattack_table(res: &ham_attack_exp::HamAttackResult) -> Table {
    let mut t = Table::new(
        "Extension: ham-labeled integrity attack — campaign deliverability vs chaff",
        &[
            "chaff",
            "campaign_to_inbox%",
            "campaign_caught%",
            "chaff_delivered%",
            "clean_spam_caught%",
        ],
    );
    for p in &res.points {
        t.row(vec![
            p.chaff_count.to_string(),
            f(p.campaign_to_inbox.pct(), 1),
            f(p.campaign_caught.pct(), 1),
            f(p.chaff_delivered.pct(), 1),
            f(p.clean_spam_caught.pct(), 1),
        ]);
    }
    t
}

fn run_hamattack(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(HamAttackConfig::quick(seed), HamAttackConfig::full(seed));
    let res = ham_attack_exp::run(&cfg, threads);
    let mut csv = String::from("target,hamattack\n");
    csv.push_str(
        "chaff_count,campaign_to_inbox,campaign_to_inbox_sd,campaign_caught,campaign_caught_sd,chaff_delivered,chaff_delivered_sd,clean_spam_caught,clean_spam_caught_sd\n",
    );
    for p in &res.points {
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            p.chaff_count,
            rate(&p.campaign_to_inbox),
            rate(&p.campaign_caught),
            rate(&p.chaff_delivered),
            rate(&p.clean_spam_caught)
        );
    }
    let chaff: u64 = res.points.iter().map(|p| p.chaff_count as u64).sum();
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: chaff.max(1),
        tables: table("hamattack", hamattack_table(&res)),
    }
}

fn matrix_table(res: &defense_matrix::MatrixResult) -> Table {
    let mut t = Table::new(
        "Extension: attack × defense matrix",
        &[
            "attack",
            "defense",
            "ham_spam_or_unsure%",
            "ham_as_spam%",
            "spam_correct%",
            "spam_as_unsure%",
            "screened(attack)",
            "target_flips%",
        ],
    );
    for c in &res.cells {
        t.row(vec![
            c.attack.name(),
            c.defense.name().into(),
            pct(c.ham_misclassified),
            pct(c.ham_as_spam),
            pct(c.spam_caught),
            pct(c.spam_as_unsure),
            format!("{}({})", c.screened_out, c.screened_attack),
            c.target_flips.map(pct).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

fn run_matrix(tier: Tier, seed: u64, threads: usize) -> TargetOutput {
    let cfg = tier.pick(
        DefenseMatrixConfig::quick(seed),
        DefenseMatrixConfig::full(seed),
    );
    let res = defense_matrix::run(&cfg, threads);
    let mut csv = String::from("target,matrix\n");
    csv.push_str(
        "attack,defense,ham_misclassified,ham_as_spam,spam_caught,spam_as_unsure,screened_out,screened_attack,target_flips\n",
    );
    for c in &res.cells {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{}",
            c.attack.name(),
            c.defense.name(),
            fx(c.ham_misclassified),
            fx(c.ham_as_spam),
            fx(c.spam_caught),
            fx(c.spam_as_unsure),
            c.screened_out,
            c.screened_attack,
            c.target_flips.map(fx).unwrap_or_else(|| "-".to_string())
        );
    }
    TargetOutput {
        digest: seal(csv),
        claims: Vec::new(),
        messages: (res.cells.len() as u64).max(1) * res.config.trusted_size as u64,
        tables: table("matrix", matrix_table(&res)),
    }
}

fn weeks_table(res: &mailflow_weeks::MailflowResult) -> Table {
    let mut t = Table::new(
        "Extension: week-by-week organization simulation (SMTP substrate)",
        &[
            "scenario",
            "week",
            "ham_misrouted%",
            "ham_as_spam%",
            "spam_caught%",
            "screened_out",
            "useless",
        ],
    );
    for (scenario, report) in &res.reports {
        for w in &report.weeks {
            t.row(vec![
                scenario.name().into(),
                w.week.to_string(),
                pct(w.ham_misrouted),
                pct(w.ham_as_spam),
                pct(w.spam_caught),
                w.screened_out.to_string(),
                w.filter_useless.to_string(),
            ]);
        }
    }
    t
}

fn weeks_digest(res: &mailflow_weeks::MailflowResult) -> String {
    let mut csv = String::from("target,weeks\n");
    csv.push_str(
        "scenario,week,ham_as_spam,ham_misrouted,spam_caught,spam_as_unsure,screened_out,filter_useless\n",
    );
    for (s, report) in &res.reports {
        for w in &report.weeks {
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{}",
                s.name(),
                w.week,
                fx(w.ham_as_spam),
                fx(w.ham_misrouted),
                fx(w.spam_caught),
                fx(w.spam_as_unsure),
                w.screened_out,
                w.filter_useless
            );
        }
    }
    seal(csv)
}

fn run_weeks(tier: Tier, seed: u64) -> TargetOutput {
    let cfg = tier.pick(MailflowConfig::quick(seed), MailflowConfig::full(seed));
    let res = mailflow_weeks::run(&cfg);
    let mut claims = Vec::new();
    if tier == Tier::Full {
        use mailflow_weeks::Scenario;
        let undefended = res.report(Scenario::Undefended);
        let roni = res.report(Scenario::Roni);
        let threshold = res.report(Scenario::Threshold);
        claims.push(claim(
            "weeks.dictionary-detonates",
            "§2.1: the undefended org loses a large share of ham post-retrain",
            undefended.worst_week_ham_misrouted(),
            ExpectOp::Ge,
            0.20,
        ));
        claims.push(claim(
            "weeks.roni-recovers",
            "§5.1: RONI screening keeps the worst week below the undefended org's",
            undefended.worst_week_ham_misrouted() - roni.worst_week_ham_misrouted(),
            ExpectOp::Gt,
            0.0,
        ));
        let max_ham_as_spam = threshold
            .weeks
            .iter()
            .map(|w| w.ham_as_spam)
            .fold(0.0f64, f64::max);
        claims.push(claim(
            "weeks.threshold-caps-ham-as-spam",
            "§5.2: under the threshold defense no week misfiles over 5% of ham to spam",
            max_ham_as_spam,
            ExpectOp::Le,
            0.05,
        ));
    }
    let messages: u64 = res
        .reports
        .iter()
        .flat_map(|(_, r)| r.weeks.iter())
        .map(|w| w.offered as u64)
        .sum();
    TargetOutput {
        digest: weeks_digest(&res),
        claims,
        messages: messages.max(1),
        tables: table("weeks", weeks_table(&res)),
    }
}

/// The per-week table of one organization scenario run.
fn scenario_table(name: &str, report: &OrgReport) -> Table {
    let mut t = Table::new(
        format!("Scenario {name}: per-week organization report"),
        &[
            "week",
            "offered",
            "ham_misrouted%",
            "ham_as_spam%",
            "spam_caught%",
            "screened_out",
            "bounced",
            "deferred",
            "degraded",
            "useless",
        ],
    );
    for w in &report.weeks {
        t.row(vec![
            w.week.to_string(),
            w.offered.to_string(),
            pct(w.ham_misrouted),
            pct(w.ham_as_spam),
            pct(w.spam_caught),
            w.screened_out.to_string(),
            w.bounced.to_string(),
            w.deferred.to_string(),
            w.degraded.to_string(),
            w.filter_useless.to_string(),
        ]);
    }
    t
}

fn org_messages(report: &OrgReport) -> u64 {
    report
        .weeks
        .iter()
        .map(|w| w.offered as u64)
        .sum::<u64>()
        .max(1)
}

/// Run a scenario spec for the rig. At the lite tier the spec is executed
/// across every shard count in `shard_matrix` and the reports must be
/// bit-identical; in-file `expect` lines are surfaced as claims. At the
/// full tier a single run suffices (shard invariance is proven at lite on
/// the same code path). The output counts every message of every run;
/// the report handed back is the (shared) report itself, for targets that
/// derive further claims from it.
fn run_scenario_spec(
    spec: &ScenarioSpec,
    tier: Tier,
    shard_matrix: &[usize],
) -> Result<(TargetOutput, OrgReport), String> {
    let (digest, report, runs) = match tier {
        Tier::Lite => {
            let mut first: Option<(usize, String, OrgReport)> = None;
            for &shards in shard_matrix {
                let report = spec
                    .run_with_shards(shards)
                    .map_err(|e| format!("shards={shards}: {e}"))?;
                let digest = golden_digest(&spec.name, &report);
                match &first {
                    None => first = Some((shards, digest, report)),
                    Some((s0, d0, _)) => {
                        if *d0 != digest {
                            let (line, want, got) = first_divergence(d0, &digest)
                                .unwrap_or((0, String::new(), String::new()));
                            return Err(format!(
                                "shard divergence: shards={s0} vs shards={shards} differ at digest line {line}: `{want}` vs `{got}`"
                            ));
                        }
                    }
                }
            }
            let (_, digest, report) =
                first.ok_or_else(|| "empty shard matrix".to_string())?;
            (digest, report, shard_matrix.len() as u64)
        }
        Tier::Full => {
            let report = spec.run().map_err(|e| e.to_string())?;
            (golden_digest(&spec.name, &report), report, 1)
        }
    };

    // In-file expectations become claims so the summary shows them
    // uniformly; extraction reuses the scenario engine's own field logic.
    let mut claims = Vec::new();
    for failure in spec.check_expectations(&report) {
        claims.push(claim(
            &format!("{}.expect-line-{}", spec.name, failure.expectation.line),
            "in-file scenario expectation",
            failure.got.unwrap_or(f64::NAN),
            failure.expectation.op,
            failure.expectation.value,
        ));
    }
    let passing = spec
        .expectations
        .iter()
        .filter(|e| !claims.iter().any(|c| {
            c.id == format!("{}.expect-line-{}", spec.name, e.line)
        }))
        .count();
    if passing > 0 {
        // Represent satisfied expectations as one aggregate pass claim so
        // the evaluated-claims count reflects them without re-extracting.
        claims.push(claim(
            &format!("{}.expects-satisfied", spec.name),
            "all remaining in-file scenario expectations held",
            passing as f64,
            ExpectOp::Ge,
            passing as f64,
        ));
    }

    let out = TargetOutput {
        digest,
        claims,
        messages: org_messages(&report) * runs,
        tables: table(&spec.name, scenario_table(&spec.name, &report)),
    };
    Ok((out, report))
}

fn run_org_scale(tier: Tier, shard_matrix: &[usize]) -> Result<TargetOutput, String> {
    let spec = ScenarioSpec::parse(&org_scale_source(tier)).map_err(|e| e.to_string())?;
    let (mut out, report) = run_scenario_spec(&spec, tier, shard_matrix)?;
    if tier == Tier::Full {
        let week = |i: usize| report.weeks.get(i);
        if let (Some(w1), Some(w2)) = (week(0), week(1)) {
            out.claims.push(claim(
                "org-scale.healthy-before-retrain",
                "§2.1 control: pre-retrain week misroutes under 10% of ham",
                w1.ham_misrouted,
                ExpectOp::Le,
                0.10,
            ));
            out.claims.push(claim(
                "org-scale.detonates-after-retrain",
                "§2.1 at 1.2k users: post-retrain week misroutes over 20% of ham",
                w2.ham_misrouted,
                ExpectOp::Ge,
                0.20,
            ));
            out.claims.push(claim(
                "org-scale.filter-useless",
                "§4.2: the week-2 filter is flagged unusable",
                if w2.filter_useless { 1.0 } else { 0.0 },
                ExpectOp::Eq,
                1.0,
            ));
        }
    }
    Ok(out)
}

fn run_target(t: &Target, opts: &RigOptions) -> Result<TargetOutput, String> {
    let tier = opts.tier;
    match &t.kind {
        TargetKind::Fig1 => Ok(run_fig1(tier, opts.seed, opts.threads)),
        TargetKind::Tokens => Ok(run_tokens(tier, opts.seed)),
        TargetKind::Fig2 => Ok(run_fig2(tier, opts.seed, opts.threads)),
        TargetKind::Fig3 => Ok(run_fig3(tier, opts.seed, opts.threads)),
        TargetKind::Fig4 => Ok(run_fig4(tier, opts.seed)),
        TargetKind::Fig5 => Ok(run_fig5(tier, opts.seed, opts.threads)),
        TargetKind::Roni => Ok(run_roni(tier, opts.seed, opts.threads)),
        TargetKind::Variations => Ok(run_variations(tier, opts.seed, opts.threads)),
        TargetKind::Transfer => Ok(run_transfer(tier, opts.seed, opts.threads)),
        TargetKind::Constrained => Ok(run_constrained(tier, opts.seed, opts.threads)),
        TargetKind::HamAttack => Ok(run_hamattack(tier, opts.seed, opts.threads)),
        TargetKind::Matrix => Ok(run_matrix(tier, opts.seed, opts.threads)),
        TargetKind::Weeks => Ok(run_weeks(tier, opts.seed)),
        TargetKind::Scenario(path) => {
            let spec = ScenarioSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let params = match tier {
                Tier::Lite => lite_params(&spec),
                Tier::Full => full_params(&spec),
            };
            let scaled = scale_spec(&spec, params);
            run_scenario_spec(&scaled, tier, &opts.shard_matrix).map(|(out, _)| out)
        }
        TargetKind::OrgScale => run_org_scale(tier, &opts.shard_matrix),
    }
}

// ---------------------------------------------------------------------------
// Golden comparison, artifacts, telemetry.
// ---------------------------------------------------------------------------

fn compare_golden(
    golden_path: &Path,
    fresh: &str,
    tier: Tier,
    update: bool,
) -> (TargetStatus, Vec<String>, Vec<String>) {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();
    if update {
        if let Some(dir) = golden_path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                errors.push(format!("creating {}: {e}", dir.display()));
                return (TargetStatus::Failed, errors, warnings);
            }
        }
        return match fs::write(golden_path, fresh) {
            Ok(()) => (TargetStatus::Updated, errors, warnings),
            Err(e) => {
                errors.push(format!("writing {}: {e}", golden_path.display()));
                (TargetStatus::Failed, errors, warnings)
            }
        };
    }
    match fs::read_to_string(golden_path) {
        Err(_) => {
            let msg = format!(
                "no committed golden at {} — run `repro run --tier {} --update-golden` and commit the result",
                golden_path.display(),
                tier.name()
            );
            match tier {
                Tier::Lite => {
                    errors.push(msg);
                    (TargetStatus::Failed, errors, warnings)
                }
                Tier::Full => {
                    warnings.push(msg);
                    (TargetStatus::Drifted, errors, warnings)
                }
            }
        }
        Ok(golden) => {
            if golden == fresh {
                (TargetStatus::Ok, errors, warnings)
            } else {
                let (line, want, got) = first_divergence(&golden, fresh)
                    .unwrap_or((0, String::new(), String::new()));
                let msg = format!(
                    "digest drift vs {} at line {line}: committed `{want}` vs fresh `{got}`",
                    golden_path.display()
                );
                match tier {
                    Tier::Lite => {
                        errors.push(msg);
                        (TargetStatus::Failed, errors, warnings)
                    }
                    Tier::Full => {
                        warnings.push(msg);
                        (TargetStatus::Drifted, errors, warnings)
                    }
                }
            }
        }
    }
}

/// `rig_summary.csv`: one row per target. The seal cell is the digest's
/// `fnv1a64,0x…` line, which the CSV writer quotes.
fn summary_table(summary: &RigSummary) -> Table {
    let mut table = Table::new(
        "Reproduction rig summary",
        &["stem", "status", "messages", "claims_passed", "claims_failed", "seal"],
    );
    for t in &summary.targets {
        let passed = t.claims.iter().filter(|c| c.passed()).count();
        table.row(vec![
            t.stem.clone(),
            t.status.name().to_string(),
            t.messages.to_string(),
            passed.to_string(),
            (t.claims.len() - passed).to_string(),
            t.seal.clone(),
        ]);
    }
    table
}

/// The paper's Table 1, verbatim from [`table1`].
fn table1_table() -> Table {
    let mut t = Table::new(
        "Table 1: parameters used in our experiments",
        &["Parameter", "Dictionary attack", "Focused attack", "RONI", "Threshold"],
    );
    for row in table1() {
        t.row(vec![
            row.parameter.into(),
            row.dictionary.into(),
            row.focused.into(),
            row.roni.into(),
            row.threshold.into(),
        ]);
    }
    t
}

/// Run the rig. Per-target failures are collected in the summary rather
/// than aborting the sweep; only setup problems (unreadable registry,
/// unwritable artifact tree) error out of this function.
pub fn run_rig(opts: &RigOptions) -> Result<RigSummary, String> {
    let targets = registry(&opts.scenarios_dir)?;
    let selected: Vec<&Target> = match &opts.only {
        None => targets.iter().collect(),
        Some(stem) => {
            let hit: Vec<&Target> = targets.iter().filter(|t| &t.stem == stem).collect();
            if hit.is_empty() {
                let known: Vec<&str> = targets.iter().map(|t| t.stem.as_str()).collect();
                return Err(format!(
                    "--only {stem}: no such target; known stems: {}",
                    known.join(", ")
                ));
            }
            hit
        }
    };

    let report_dir = opts.reports_root.join(opts.tier.name());
    fs::create_dir_all(&report_dir).map_err(|e| format!("creating {}: {e}", report_dir.display()))?;
    let golden_dir = opts.golden_root.join(opts.tier.name());

    let mut summary = RigSummary {
        tier: opts.tier,
        targets: Vec::new(),
    };

    for target in selected {
        let mut record = match run_target(target, opts) {
            Err(e) => TargetReport {
                stem: target.stem.clone(),
                status: TargetStatus::Failed,
                messages: 0,
                seal: String::new(),
                claims: Vec::new(),
                errors: vec![e],
                warnings: Vec::new(),
                tables: Vec::new(),
            },
            Ok(out) => {
                let artifact = report_dir.join(format!("{}.golden.csv", target.stem));
                let mut errors = Vec::new();
                if let Err(e) = fs::write(&artifact, &out.digest) {
                    errors.push(format!("writing {}: {e}", artifact.display()));
                }
                for (name, t) in &out.tables {
                    if let Err(e) = t.write_files(&report_dir, name) {
                        errors.push(format!("writing table {name}: {e}"));
                    }
                }
                let golden_path = golden_dir.join(format!("{}.golden.csv", target.stem));
                let (mut status, mut golden_errors, warnings) =
                    compare_golden(&golden_path, &out.digest, opts.tier, opts.update_golden);
                errors.append(&mut golden_errors);
                for c in out.claims.iter().filter(|c| !c.passed()) {
                    errors.push(format!("claim failed: {}", c.render()));
                }
                if !errors.is_empty() {
                    status = TargetStatus::Failed;
                }
                TargetReport {
                    stem: target.stem.clone(),
                    status,
                    messages: out.messages,
                    seal: last_line(&out.digest),
                    claims: out.claims,
                    errors,
                    warnings,
                    tables: out.tables,
                }
            }
        };
        // Surface progress as we go; the CLI prints the final table too.
        let claims_note = if record.claims.is_empty() {
            String::new()
        } else {
            let passed = record.claims.iter().filter(|c| c.passed()).count();
            format!(", claims {passed}/{}", record.claims.len())
        };
        eprintln!(
            "rig[{}] {} — {}{claims_note}",
            opts.tier.name(),
            record.stem,
            record.status.name()
        );
        for w in &record.warnings {
            eprintln!("  warning: {w}");
        }
        for e in &record.errors {
            eprintln!("  error: {e}");
        }
        record.warnings.shrink_to_fit();
        summary.targets.push(record);
    }

    table1_table()
        .write_files(&report_dir, "table1")
        .map_err(|e| format!("writing table1 under {}: {e}", report_dir.display()))?;
    summary_table(&summary)
        .write_csv(&report_dir, "rig_summary")
        .map_err(|e| format!("writing rig_summary under {}: {e}", report_dir.display()))?;

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec(user_traffic: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "name = toy\nseed = 7\nusers = 3\ndays = 4\nretrain_every = 2\nbootstrap = 10\n{user_traffic}\n"
        ))
        .expect("toy spec parses")
    }

    #[test]
    fn even_split_assigns_remainder_to_lowest_users() {
        let spec = toy_spec("traffic = 7/4");
        assert_eq!(user_rate(&spec, 0), (3, 2));
        assert_eq!(user_rate(&spec, 1), (2, 1));
        assert_eq!(user_rate(&spec, 2), (2, 1));
        // Extended users repeat the base pattern periodically.
        assert_eq!(user_rate(&spec, 3), (3, 2));
        assert_eq!(user_rate(&spec, 5), (2, 1));
    }

    #[test]
    fn scale_spec_is_identity_at_lite_params() {
        let spec = toy_spec("traffic = 7/4");
        let same = scale_spec(&spec, lite_params(&spec));
        assert_eq!(spec, same);
    }

    #[test]
    fn lite_day_plan_is_a_prefix_of_the_full_plan() {
        // `traffic` stays the required org-wide total; the explicit mix
        // (summing to it) overrides how it is distributed.
        let spec = toy_spec("traffic = 8/6\nuser_traffic = 5/1, 2/2, 1/3");
        let lite = day_plan(&spec, lite_params(&spec));
        let full = day_plan(&spec, full_params(&spec));
        assert!(full.len() > lite.len());
        for (d, row) in lite.iter().enumerate() {
            assert_eq!(&full[d][..row.len()], &row[..]);
        }
    }

    #[test]
    fn org_scale_sources_parse_and_scale_with_tier() {
        let lite = ScenarioSpec::parse(&org_scale_source(Tier::Lite)).unwrap();
        let full = ScenarioSpec::parse(&org_scale_source(Tier::Full)).unwrap();
        assert!(lite.users < full.users);
        assert!(full.users >= 1_000, "full tier must be paper-scale");
        assert_eq!(lite.days, full.days);
    }

    #[test]
    fn digest_seal_matches_golden_suite_format() {
        let sealed = seal("target,example\na,1\n".to_string());
        let last = sealed.lines().last().unwrap();
        assert!(last.starts_with("fnv1a64,0x"), "seal line: {last}");
        let body: String = sealed
            .lines()
            .take(sealed.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let expect = format!("fnv1a64,{:#018x}", fnv1a64(body.as_bytes()));
        assert_eq!(last, expect);
    }

    #[test]
    fn claim_eval_follows_expect_op_semantics() {
        let c = claim("x", "d", 0.3, ExpectOp::Ge, 0.2);
        assert!(c.passed());
        let c = claim("x", "d", 0.1, ExpectOp::Ge, 0.2);
        assert!(!c.passed());
        assert!(c.render().contains("FAIL"));
    }

    #[test]
    fn registry_rejects_nothing_and_orders_figures_first() {
        let dir = std::env::temp_dir().join("sb-rig-empty-scenarios");
        let _ = fs::create_dir_all(&dir);
        let targets = registry(&dir).expect("registry builds");
        assert_eq!(targets.first().map(|t| t.stem.as_str()), Some("fig1"));
        assert_eq!(targets.last().map(|t| t.stem.as_str()), Some("org-scale"));
    }
}
