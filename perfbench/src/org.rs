//! The org workloads: the lite `org-scale` scenario shape run through
//! `MailOrg`, timed from outside, and its layer replay.
//!
//! * No `--trace`: `MailOrg::try_new`, then `step_week` until done. Prints
//!   the set-up time, every week's wall time, the accounting totals, the
//!   golden-digest seal and the weekly verdict tallies. `--setup-only`
//!   stops after `try_new`.
//! * `--trace outside`: the same, plus a span around a `checkpoint()`
//!   after every week.
//! * `--trace replay`: `MailOrg`'s day loop is private, so this runs the
//!   same work again through each layer's public functions, in the
//!   `MailOrg`'s call order, with a span around every call. It attributes
//!   cost within the current code; it does not follow a restructuring of
//!   the loop itself.
//! * `--trace replay-bare`: the same replay without spans. Its week wall
//!   time against the spanned replay's is the tracing overhead.

use crate::out::{flag, nums, object, opt, peak_rss_kib, req, texts, Json};
use crate::trace::Trace;
use sb_core::{RoniConfig, RoniDefense};
use sb_corpus::EmailGenerator;
use sb_email::{Dataset, Email, Label, LabeledEmail};
use sb_experiments::rig::{org_scale_source, Tier};
use sb_experiments::{golden_digest, ScenarioSpec};
use sb_filter::{persist, FilterOptions, SpamBayes, Verdict};
use sb_intern::{Interner, TokenId};
use sb_mailflow::{
    DefensePolicy, Envelope, FaultConfig, FaultyPipe, MailOrg, OrgConfig, ServerEvent, SmtpClient,
    SmtpServer, TrafficMix, WeekReport,
};
use sb_stats::rng::SeedTree;
use sb_tokenizer::Tokenizer;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn run(args: &[String]) -> Result<String, String> {
    let defense = match opt(args, "--defense") {
        Some("none") => DefensePolicy::None,
        Some("roni") => DefensePolicy::Roni,
        other => return Err(format!("--defense must be none or roni, got {other:?}")),
    };
    let mut spec = ScenarioSpec::parse(&org_scale_source(Tier::Lite)).map_err(|e| e.to_string())?;
    spec.seed = req(args, "--seed")?;
    spec.shards = req(args, "--shards")?;
    spec.defense = defense;
    let cfg = spec.org_config().map_err(|e| e.to_string())?;
    if flag(args, "--setup-only") {
        let t0 = Instant::now();
        MailOrg::try_new(cfg).map_err(|e| e.to_string())?;
        return Ok(Json::new()
            .num("setup_s", t0.elapsed().as_secs_f64())
            .finish());
    }
    match opt(args, "--trace") {
        None => measured(cfg, false),
        Some("outside") => measured(cfg, true),
        Some("replay") => replay(&cfg, true, opt(args, "--spans")),
        Some("replay-bare") => replay(&cfg, false, None),
        Some(other) => Err(format!("unknown --trace mode {other:?}")),
    }
}

/// One week's verdict tallies as one comparable line; the replay's must
/// equal the `WeekReport`'s exactly.
fn tally_line(
    week: u32,
    offered: usize,
    accepted: usize,
    rates: [f64; 4],
    screened_out: usize,
) -> String {
    format!(
        "week {week} offered {offered} accepted {accepted} ham_as_spam {:?} \
         ham_misrouted {:?} spam_caught {:?} spam_as_unsure {:?} screened_out {screened_out}",
        rates[0], rates[1], rates[2], rates[3]
    )
}

fn report_line(w: &WeekReport) -> String {
    tally_line(
        w.week,
        w.offered,
        w.accepted,
        [
            w.ham_as_spam,
            w.ham_misrouted,
            w.spam_caught,
            w.spam_as_unsure,
        ],
        w.screened_out,
    )
}

fn measured(cfg: OrgConfig, checkpoints: bool) -> Result<String, String> {
    let t0 = Instant::now();
    let mut org = MailOrg::try_new(cfg).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut week_s, mut checkpoint_s) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        if org.step_week().is_none() {
            break;
        }
        week_s.push(t.elapsed().as_secs_f64());
        if checkpoints {
            let t = Instant::now();
            std::hint::black_box(org.checkpoint());
            checkpoint_s.push(t.elapsed().as_secs_f64());
        }
    }
    let report = org.into_report();
    let digest = golden_digest("org-scale", &report);
    let seal = digest
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("fnv1a64,"))
        .unwrap_or_default();
    let weeks: Vec<String> = report.weeks.iter().map(report_line).collect();
    let screen_errors: Vec<String> = report
        .weeks
        .iter()
        .filter_map(|w| w.screen_error.clone())
        .collect();
    Ok(Json::new()
        .num("setup_s", setup_s)
        .raw("week_s", &nums(&week_s))
        .raw("checkpoint_s", &nums(&checkpoint_s))
        .int("offered", report.weeks.iter().map(|w| w.offered).sum())
        .int("delivered", report.total_delivered)
        .int("failed", report.total_failed)
        .int("bounced", report.total_bounced)
        .int("deferred", report.total_deferred)
        .raw("screen_errors", &texts(&screen_errors))
        .text("seal", seal)
        .raw("weeks", &texts(&weeks))
        .int("peak_rss_kib", peak_rss_kib())
        .finish())
}

/// One week's verdict counts, kept the way `MailOrg` keeps them.
#[derive(Default)]
struct Tally {
    offered: usize,
    accepted: usize,
    n_ham: usize,
    n_spam: usize,
    ham_as_spam: usize,
    ham_as_unsure: usize,
    spam_as_spam: usize,
    spam_as_unsure: usize,
}

impl Tally {
    fn record(&mut self, truth: Label, verdict: Verdict) {
        let (n, as_spam, as_unsure) = match truth {
            Label::Ham => (
                &mut self.n_ham,
                &mut self.ham_as_spam,
                &mut self.ham_as_unsure,
            ),
            Label::Spam => (
                &mut self.n_spam,
                &mut self.spam_as_spam,
                &mut self.spam_as_unsure,
            ),
        };
        *n += 1;
        match verdict {
            Verdict::Spam => *as_spam += 1,
            Verdict::Unsure => *as_unsure += 1,
            Verdict::Ham => {}
        }
    }

    fn line(&self, week: u32, screened_out: usize) -> String {
        let rate = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        tally_line(
            week,
            self.offered,
            self.accepted,
            [
                rate(self.ham_as_spam, self.n_ham),
                rate(self.ham_as_spam + self.ham_as_unsure, self.n_ham),
                rate(self.spam_as_spam, self.n_spam),
                rate(self.spam_as_unsure, self.n_spam),
            ],
            screened_out,
        )
    }
}

/// The organization's inputs and the layer objects the replay calls.
struct Replay<'a> {
    cfg: &'a OrgConfig,
    seeds: SeedTree,
    generator: EmailGenerator,
    rates: Vec<TrafficMix>,
    total_ham: u64,
    total_spam: u64,
    tokenizer: Tokenizer,
    interner: Interner,
    client: SmtpClient,
}

impl Replay<'_> {
    /// Corpus: generate one message.
    fn generate(&self, t: &mut Trace, f: impl FnOnce(&EmailGenerator) -> Email) -> Email {
        t.add("corpus.msgs", 1.0);
        t.leaf("corpus.busy_s", || f(&self.generator))
    }

    /// One day's arrivals as `MailOrg` composes them before its wire
    /// permutation: every user's ham quota, every user's spam quota, then
    /// each active campaign's batch. The model is fixed within a week, so
    /// the weekly tallies do not depend on arrival order and the replay
    /// delivers in this composition order.
    fn arrivals(&self, t: &mut Trace, day: u32) -> Vec<(usize, Email, Label)> {
        let (ham0, spam0) = self.cfg.bootstrap_counters();
        let ham_base = ham0 + u64::from(day - 1) * self.total_ham;
        let spam_base = spam0 + u64::from(day - 1) * self.total_spam;
        let mut out = Vec::new();
        let mut k = 0;
        for (user, r) in self.rates.iter().enumerate() {
            for _ in 0..r.ham_per_day {
                out.push((user, self.generate(t, |g| g.ham(ham_base + k)), Label::Ham));
                k += 1;
            }
        }
        k = 0;
        for (user, r) in self.rates.iter().enumerate() {
            for _ in 0..r.spam_per_day {
                out.push((
                    user,
                    self.generate(t, |g| g.spam(spam_base + k)),
                    Label::Spam,
                ));
                k += 1;
            }
        }
        let day_seeds = self.seeds.child("day").index(u64::from(day));
        for (p, plan) in self.cfg.attacks.iter().enumerate() {
            let volume = plan.volume_on(day);
            if volume == 0 {
                continue;
            }
            let mut rng = day_seeds.child("attack").index(p as u64).rng();
            let batch = t.leaf("corpus.busy_s", || {
                plan.generator.generate(volume, &mut rng).materialize()
            });
            t.add("corpus.msgs", batch.len() as f64);
            for (idx, email) in batch.into_iter().enumerate() {
                let user = match &plan.targets {
                    Some(targets) => targets[idx % targets.len()],
                    None => idx % self.cfg.users.len(),
                };
                out.push((user, email, Label::Spam));
            }
        }
        out
    }

    /// SMTP: one connection per message, as the day loop opens them.
    fn deliver(
        &self,
        t: &mut Trace,
        faults: FaultConfig,
        seed: u64,
        user: usize,
        email: Email,
    ) -> Option<Email> {
        let (got, wire) = t.leaf("smtp.busy_s", || {
            let mut pipe = FaultyPipe::seeded(faults, seed);
            let mut server = SmtpServer::new("mx.corp.example");
            let rcpt = self.cfg.users[user].clone();
            let env = Envelope::to_one("sender@outside.example", rcpt, email);
            let report =
                self.client
                    .deliver_all(&mut pipe, &mut server, std::slice::from_ref(&env));
            let mut got = None;
            for ev in server.take_events() {
                if let ServerEvent::MessageAccepted(msg) = ev {
                    got = Some(msg.email);
                }
            }
            let wire = pipe.pipe().bytes_to_server + pipe.pipe().bytes_to_client;
            (got.filter(|_| report.delivered == 1), wire)
        });
        t.add("smtp.msgs", 1.0);
        t.add("smtp.wire_bytes", wire as f64);
        got
    }

    /// Tokenizer, then interner: what every classify and retrain does.
    fn ids(&self, t: &mut Trace, email: &Email) -> Arc<Vec<TokenId>> {
        let set = t.leaf("tokenizer.busy_s", || self.tokenizer.token_set(email));
        t.add("tokenizer.calls", 1.0);
        t.add("tokenizer.tokens", set.len() as f64);
        t.add("intern.lookups", set.len() as f64);
        let before = self.interner.len();
        let ids = t.leaf("intern.busy_s", || self.interner.intern_set(&set));
        t.add("intern.new_ids", (self.interner.len() - before) as f64);
        Arc::new(ids)
    }

    /// Rebuild a fresh filter from the whole pool, then snapshot it as the
    /// new last-good checkpoint.
    fn rebuild(&self, t: &mut Trace, pool: &[(Arc<Vec<TokenId>>, Label)]) -> SpamBayes {
        let filter = t.leaf("rebuild.busy_s", || {
            let mut f = SpamBayes::new();
            for (ids, label) in pool {
                f.train_ids(ids, *label, 1);
            }
            f
        });
        t.add("rebuild.msgs", pool.len() as f64);
        let image = t.leaf("checkpoint.busy_s", || persist::snapshot(filter.db()));
        t.add("checkpoint.calls", 1.0);
        t.add("checkpoint.bytes", image.len() as f64);
        filter
    }
}

fn replay(cfg: &OrgConfig, spanned: bool, spans: Option<&str>) -> Result<String, String> {
    let rates = cfg.per_user_rates();
    let r = Replay {
        cfg,
        seeds: SeedTree::new(cfg.seed).child("mailorg"),
        generator: cfg.corpus_generator(),
        total_ham: rates.iter().map(|m| u64::from(m.ham_per_day)).sum(),
        total_spam: rates.iter().map(|m| u64::from(m.spam_per_day)).sum(),
        rates,
        tokenizer: Tokenizer::new(),
        interner: Interner::global(),
        client: SmtpClient::new("outside.example"),
    };
    let mut t = if spanned {
        Trace::new(Instant::now())
    } else {
        Trace::counters_only(Instant::now())
    };

    // `MailOrg::try_new`: the clean bootstrap, its model, the first checkpoint.
    let setup = t.begin("org.setup_s");
    let (n_ham, n_spam) = cfg.bootstrap_counters();
    let mut bootstrap = Dataset::new();
    for i in 0..n_ham {
        bootstrap.push(LabeledEmail::ham(r.generate(&mut t, |g| g.ham(i))));
    }
    for i in 0..n_spam {
        bootstrap.push(LabeledEmail::spam(r.generate(&mut t, |g| g.spam(i))));
    }
    let mut pool: Vec<(Arc<Vec<TokenId>>, Label)> = bootstrap
        .emails()
        .iter()
        .map(|m| (r.ids(&mut t, &m.email), m.label))
        .collect();
    let mut filter = r.rebuild(&mut t, &pool);
    t.end(setup);

    // `step_week`: deliver and classify every day's mail, then retrain.
    let mut weeks = Vec::new();
    let mut week_s = 0.0;
    for week in 1..=cfg.days.div_ceil(cfg.retrain_every) {
        let wall = Instant::now();
        let span = t.begin("org.week_s");
        let first = (week - 1) * cfg.retrain_every + 1;
        let last = (week * cfg.retrain_every).min(cfg.days);
        let mut tally = Tally::default();
        let mut fresh = Vec::new();
        for day in first..=last {
            let faults = cfg.fault_plan.faults_on(day, cfg.faults);
            let pipes = r.seeds.child("day").index(u64::from(day)).child("pipe");
            for (i, (user, email, truth)) in r.arrivals(&mut t, day).into_iter().enumerate() {
                tally.offered += 1;
                let seed = pipes.index(i as u64).seed();
                let Some(email) = r.deliver(&mut t, faults, seed, user, email) else {
                    continue;
                };
                tally.accepted += 1;
                let ids = r.ids(&mut t, &email);
                let verdict = t.leaf("score.busy_s", || filter.classify_ids(&ids)).verdict;
                t.add("score.calls", 1.0);
                tally.record(truth, verdict);
                fresh.push(LabeledEmail::new(email, truth));
            }
        }
        // The retrain tokenizes and interns the fresh mail again, screens
        // it (RONI), rebuilds and checkpoints.
        let fresh_ids: Vec<Arc<Vec<TokenId>>> =
            fresh.iter().map(|m| r.ids(&mut t, &m.email)).collect();
        let mut admit = vec![true; fresh.len()];
        if cfg.defense == DefensePolicy::Roni {
            let mut rng = r
                .seeds
                .child("retrain")
                .index(u64::from(week))
                .child("roni")
                .rng();
            let roni = t.leaf("screen.setup_s", || {
                RoniDefense::new(
                    RoniConfig::default(),
                    &bootstrap,
                    FilterOptions::default(),
                    &mut rng,
                )
            });
            let (_, rejected) = t
                .leaf("screen.busy_s", || roni.try_screen_ids(&fresh_ids))
                .map_err(|e| format!("week {week}: screening failed: {e}"))?;
            t.add("screen.candidates", fresh_ids.len() as f64);
            t.add("screen.rejected", rejected.len() as f64);
            for i in rejected {
                admit[i] = false;
            }
        }
        let screened_out = admit.iter().filter(|ok| !**ok).count();
        pool.extend(
            fresh
                .iter()
                .zip(fresh_ids)
                .zip(admit)
                .filter(|(_, ok)| *ok)
                .map(|((m, ids), _)| (ids, m.label)),
        );
        filter = r.rebuild(&mut t, &pool);
        t.end(span);
        week_s += wall.elapsed().as_secs_f64();
        weeks.push(tally.line(week, screened_out));
    }

    if let Some(path) = spans {
        t.write_csv(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let (_, covered_s) = t.coverage("org.week_s");
    let layers = t.layers();
    Ok(Json::new()
        .raw("weeks", &texts(&weeks))
        .num("week_s", week_s)
        .num("covered_week_s", covered_s)
        .raw("layers", &object(layers.iter().map(|(k, v)| (*k, *v))))
        .finish())
}
