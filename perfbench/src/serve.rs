//! The serve-raw workload: tenants over an mmap'd paper-scale model image,
//! driven by a closed loop of raw RFC 822 requests.
//!
//! Set-up, timed `SETUPS` times, half before the loop (the last of these
//! serves) and half after it, so the samples spread over the whole run:
//! train the 10k-message base, `image::pack` it to disk, `MmapDb::open`
//! it, train the org patch, register the tenants and train their deltas.
//! The corpus and the rendered requests are load-generator work, untimed.
//!
//! Closed loop: `--clients` threads with no think time, each owning
//! `TENANTS / clients` tenants, so every tenant's operation sequence is
//! deterministic. Requests alternate ham and spam, as `repro serve-bench`
//! sends them. A request is raw bytes → `parse_email` → `token_set` →
//! `intern_set` → `TenantRegistry::classify_ids`; every 16th operation on
//! a tenant also `train`s it with the message's true label. Latency runs
//! from issuing a request to its verdict (and train) returning.
//!
//! Each client cycles through a pool of `POOL` rendered messages, which
//! bounds the load generator's memory. The loop first makes one unmeasured
//! pass over every client's pool, which interns the pool's tokens, so the
//! measured requests bring no unseen tokens: the workload is a warm
//! serving process. The output counts the new token ids of both phases.
//! The warm pass is left out of the latency and rate figures, though not
//! out of the correctness check.
//!
//! Correctness, after the timed phase: every tenant's verdicts are
//! replayed against a standalone `TokenDb` (base, org patch and tenant
//! mail, then the loop's trains in order) and must match bit for bit.

use crate::out::{flag, nums, object, opt, peak_rss_kib, req, Json};
use crate::trace::Trace;
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::{parse_email, render_email, Email, Label};
use sb_filter::classify::score_token_ids;
use sb_filter::{image, FilterOptions, Scored, TokenDb, Verdict};
use sb_intern::{Interner, TokenId};
use sb_serve::{MmapDb, OverlayLayer, ServeError, TenantId, TenantRegistry};
use sb_tokenizer::Tokenizer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages trained into the shared base (the paper's corpus size).
const BASE_MESSAGES: usize = 10_000;
const ORG_MESSAGES: u64 = 32;
const TENANT_MESSAGES: u64 = 40;
const TENANTS: u32 = 8;
/// Distinct rendered requests per client, cycled through by the loop.
const POOL: usize = 4096;
/// Every this-many operations on a tenant, the request also trains it.
const TRAIN_EVERY: usize = 16;
/// Timed set-ups per process; `setup_s` is their median.
const SETUPS: usize = 10;

struct Request {
    raw: String,
    label: Label,
}

/// The mail behind the base, the org patch and the tenant deltas.
struct Mail {
    corpus: TrecCorpus,
    org: Vec<Email>,
    tenants: Vec<Vec<(Email, Label)>>,
}

/// One set-up's serving state and its timings.
struct Served {
    registry: TenantRegistry<MmapDb>,
    base: TokenDb,
    setup_s: f64,
    base_train_s: f64,
    pack_s: f64,
    load_s: f64,
    image_bytes: usize,
}

fn set_up(mail: &Mail, tokenizer: &Tokenizer, image_path: &Path) -> Result<Served, String> {
    let opts = FilterOptions::default();
    let t0 = Instant::now();
    let mut base = TokenDb::with_interner(Interner::new());
    for m in mail.corpus.emails() {
        base.train(&tokenizer.token_set(&m.email), m.label);
    }
    let base_train_s = t0.elapsed().as_secs_f64();

    let t = Instant::now();
    let img = image::pack(&base);
    std::fs::write(image_path, &img).map_err(|e| format!("{}: {e}", image_path.display()))?;
    let pack_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let db = MmapDb::open(image_path, opts).map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    // The mapping (or the read fallback's copy) keeps the bytes alive.
    std::fs::remove_file(image_path).map_err(|e| format!("{}: {e}", image_path.display()))?;

    let interner = db.interner().clone();
    let ids = |e: &Email| interner.intern_set(&tokenizer.token_set(e));
    let mut patch = OverlayLayer::new();
    for e in &mail.org {
        patch.train_ids(&ids(e), Label::Ham);
    }
    let registry = TenantRegistry::with_org_patch(Arc::new(db), patch, opts);
    for (t, tenant_mail) in mail.tenants.iter().enumerate() {
        let id = TenantId(t as u32);
        registry.add_tenant(id).map_err(|e| e.to_string())?;
        for (e, label) in tenant_mail {
            registry
                .train(id, &ids(e), *label)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(Served {
        registry,
        base,
        setup_s: t0.elapsed().as_secs_f64(),
        base_train_s,
        pack_s,
        load_s,
        image_bytes: img.len(),
    })
}

/// Every set-up's timings, in order.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    base_train_s: Vec<f64>,
    pack_s: Vec<f64>,
    load_s: Vec<f64>,
}

impl SetupTimes {
    fn record(&mut self, s: &Served) {
        self.setup_s.push(s.setup_s);
        self.base_train_s.push(s.base_train_s);
        self.pack_s.push(s.pack_s);
        self.load_s.push(s.load_s);
    }
}

fn tenants_of(client: usize, clients: usize) -> Vec<TenantId> {
    (client as u32..TENANTS)
        .step_by(clients)
        .map(TenantId)
        .collect()
}

/// Run `f`, inside a span when tracing.
fn timed<R>(trace: &mut Option<Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.leaf(name, f),
        None => f(),
    }
}

/// One request: parse the raw bytes, tokenize, intern, classify, and
/// train when due.
fn request(
    served: &Served,
    tokenizer: &Tokenizer,
    tenant: TenantId,
    req: &Request,
    train: bool,
    trace: &mut Option<Trace>,
) -> Result<Scored, ServeError> {
    let reg = &served.registry;
    let root = trace.as_mut().map(|t| t.begin("request"));
    let email = timed(trace, "email.parse_busy_s", || parse_email(&req.raw));
    let set = timed(trace, "tokenizer.busy_s", || tokenizer.token_set(&email));
    let ids = timed(trace, "intern.busy_s", || reg.interner().intern_set(&set));
    let scored = timed(trace, "serve.classify_busy_s", || {
        reg.classify_ids(tenant, &ids)
    });
    let trained = match (&scored, train) {
        (Ok(_), true) => Some(timed(trace, "serve.train_busy_s", || {
            reg.train(tenant, &ids, req.label)
        })),
        _ => None,
    };
    if let (Some(t), Some(root)) = (trace.as_mut(), root) {
        t.end(root);
        t.add("email.parse_calls", 1.0);
        t.add("email.bytes", req.raw.len() as f64);
        t.add("tokenizer.calls", 1.0);
        t.add("tokenizer.tokens", set.len() as f64);
        t.add("intern.lookups", set.len() as f64);
        t.add("serve.classify_calls", 1.0);
        if trained.is_some() {
            t.add("serve.train_calls", 1.0);
        }
    }
    trained.transpose()?;
    scored
}

/// What one client saw.
struct ClientLog {
    /// Operations issued so far, warm pass included.
    ops: usize,
    latency_ns: Vec<u64>,
    /// Per owned tenant, in operation order: score bits and verdict, or
    /// `None` for a failed request.
    verdicts: Vec<Vec<Option<(u64, Verdict)>>>,
    /// Requests completed in each whole second of the measured phase.
    per_second: Vec<usize>,
    /// Failed requests of the measured phase (the check sees the rest).
    failed: usize,
    trace: Option<Trace>,
}

/// The closed loop's shared, read-only context.
struct Loop<'a> {
    served: &'a Served,
    tokenizer: &'a Tokenizer,
    clients: usize,
    /// The spans' time origin.
    epoch: Instant,
    traced: bool,
}

#[derive(Clone, Copy)]
enum Phase {
    /// One pass over the client's pool, not measured.
    Warm,
    /// Measured from `start` until `deadline`.
    Measured { start: Instant, deadline: Instant },
}

fn client(l: &Loop<'_>, c: usize, pool: &[Request], log: &mut ClientLog, phase: Phase) {
    let own = tenants_of(c, l.clients);
    if let Phase::Measured { .. } = phase {
        log.trace = l.traced.then(|| Trace::new(l.epoch));
    }
    loop {
        let j = log.ops;
        let issued = Instant::now();
        match phase {
            Phase::Warm if j == pool.len() => break,
            Phase::Measured { deadline, .. } if issued >= deadline => break,
            _ => {}
        }
        let slot = j % own.len();
        let req = &pool[j % pool.len()];
        let train = log.verdicts[slot].len() % TRAIN_EVERY == TRAIN_EVERY - 1;
        let result = request(l.served, l.tokenizer, own[slot], req, train, &mut log.trace);
        let done = Instant::now();
        if let Phase::Measured { start, .. } = phase {
            log.latency_ns.push((done - issued).as_nanos() as u64);
            let second = (done - start).as_secs() as usize;
            if log.per_second.len() <= second {
                log.per_second.resize(second + 1, 0);
            }
            log.per_second[second] += 1;
            log.failed += usize::from(result.is_err());
        }
        log.verdicts[slot].push(result.ok().map(|s| (s.score.to_bits(), s.verdict)));
        log.ops += 1;
    }
}

/// Run one phase of the loop on every client at once.
fn run_phase(
    l: &Loop<'_>,
    pools: &[Vec<Request>],
    logs: &mut [ClientLog],
    phase: Phase,
) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .zip(logs.iter_mut())
            .enumerate()
            .map(|(c, (pool, log))| s.spawn(move || client(l, c, pool, log, phase)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join())
            .map_err(|_| "a client thread panicked".to_string())
    })
}

/// Replay every tenant's operations against a standalone `TokenDb` and
/// count the verdicts that differ in any bit.
fn verify(
    served: &Served,
    tokenizer: &Tokenizer,
    mail: &Mail,
    pools: &[Vec<Request>],
    pools_ids: &[Vec<Vec<TokenId>>],
    logs: &[ClientLog],
) -> usize {
    let opts = FilterOptions::default();
    let mut mismatches = 0;
    for (c, ((pool, pool_ids), log)) in pools.iter().zip(pools_ids).zip(logs).enumerate() {
        let own = tenants_of(c, pools.len());
        for (slot, tenant) in own.iter().enumerate() {
            let mut db = served.base.clone();
            for e in &mail.org {
                db.train(&tokenizer.token_set(e), Label::Ham);
            }
            for (e, label) in &mail.tenants[tenant.0 as usize] {
                db.train(&tokenizer.token_set(e), *label);
            }
            for (k, got) in log.verdicts[slot].iter().enumerate() {
                let m = (k * own.len() + slot) % pool.len();
                let want = score_token_ids(&pool_ids[m], &db, &opts);
                if *got != Some((want.score.to_bits(), want.verdict)) {
                    mismatches += 1;
                }
                if k % TRAIN_EVERY == TRAIN_EVERY - 1 {
                    db.train_ids(&pool_ids[m], pool[m].label);
                }
            }
        }
    }
    mismatches
}

pub fn run(args: &[String]) -> Result<String, String> {
    let seed: u64 = req(args, "--seed")?;
    let seconds: f64 = req(args, "--seconds")?;
    let clients: usize = req(args, "--clients")?;
    let work: PathBuf = req(args, "--work")?;
    let traced = flag(args, "--trace");
    if clients == 0 || !(TENANTS as usize).is_multiple_of(clients) {
        return Err(format!("--clients must divide {TENANTS}"));
    }
    if seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let image_path = work.join(format!("serve-{}.img", std::process::id()));
    let tokenizer = Tokenizer::new();

    // Load generator: the corpus, the patch and delta mail, and every
    // client's requests rendered to CRLF wire form.
    let corpus = TrecCorpus::generate(&CorpusConfig::with_size(BASE_MESSAGES, 0.5), seed);
    let org = (0..ORG_MESSAGES).map(|k| corpus.fresh_ham(k)).collect();
    let tenants = (0..u64::from(TENANTS))
        .map(|t| {
            (0..TENANT_MESSAGES)
                .map(|j| {
                    let k = 1_000_000 + t * TENANT_MESSAGES + j;
                    if (j + t) % 3 == 0 {
                        (corpus.fresh_spam(k), Label::Spam)
                    } else {
                        (corpus.fresh_ham(k), Label::Ham)
                    }
                })
                .collect()
        })
        .collect();
    let pools: Vec<Vec<Request>> = (0..clients)
        .map(|c| {
            (0..POOL)
                .map(|j| {
                    let k = 2_000_000 + (c * POOL + j) as u64;
                    let (email, label) = if j % 2 == 0 {
                        (corpus.fresh_ham(k), Label::Ham)
                    } else {
                        (corpus.fresh_spam(k), Label::Spam)
                    };
                    let raw = render_email(&email).replace('\n', "\r\n");
                    Request { raw, label }
                })
                .collect()
        })
        .collect();
    let mail = Mail {
        corpus,
        org,
        tenants,
    };

    let mut times = SetupTimes::default();
    let mut served = None;
    for _ in 0..SETUPS / 2 {
        drop(served.take());
        let s = set_up(&mail, &tokenizer, &image_path)?;
        times.record(&s);
        served = Some(s);
    }
    let served = served.ok_or("no set-up ran")?;

    let l = Loop {
        served: &served,
        tokenizer: &tokenizer,
        clients,
        epoch: Instant::now(),
        traced,
    };
    let mut logs: Vec<ClientLog> = (0..clients)
        .map(|c| ClientLog {
            ops: 0,
            latency_ns: Vec::new(),
            verdicts: vec![Vec::new(); tenants_of(c, clients).len()],
            per_second: Vec::new(),
            failed: 0,
            trace: None,
        })
        .collect();
    let interner = served.registry.interner();
    let interned_before = interner.len();
    run_phase(&l, &pools, &mut logs, Phase::Warm)?;
    let warm_new_ids = interner.len() - interned_before;
    let interned_warm = interner.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    run_phase(&l, &pools, &mut logs, Phase::Measured { start, deadline })?;
    let wall_s = start.elapsed().as_secs_f64();
    let new_ids = interner.len() - interned_warm;

    let mut latency: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.latency_ns.iter().copied())
        .collect();
    latency.sort_unstable();
    if latency.is_empty() {
        return Err("the loop completed no request".to_string());
    }
    let pct = |q: f64| {
        let rank = ((latency.len() as f64 * q).ceil() as usize).clamp(1, latency.len());
        latency[rank - 1] as f64 / 1e3
    };
    let mut per_second = Vec::new();
    for l in &logs {
        if per_second.len() < l.per_second.len() {
            per_second.resize(l.per_second.len(), 0.0);
        }
        for (i, n) in l.per_second.iter().enumerate() {
            per_second[i] += *n as f64;
        }
    }
    let failed: usize = logs.iter().map(|l| l.failed).sum();
    let verified: usize = logs.iter().flat_map(|l| &l.verdicts).map(Vec::len).sum();
    // The same messages interned into the standalone model's interner, for
    // the check and for counting token lookups.
    let pools_ids: Vec<Vec<Vec<TokenId>>> = pools
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|r| {
                    let set = tokenizer.token_set(&parse_email(&r.raw));
                    served.base.interner().intern_set(&set)
                })
                .collect()
        })
        .collect();
    let lookups = |first: usize, last: usize| -> usize {
        pools_ids
            .iter()
            .zip(&logs)
            .map(|(ids, log)| {
                (first..last.min(log.ops))
                    .map(|j| ids[j % ids.len()].len())
                    .sum::<usize>()
            })
            .sum()
    };
    let warm_lookups = lookups(0, POOL);
    let measured_lookups = lookups(POOL, usize::MAX);
    let mismatches = verify(&served, &tokenizer, &mail, &pools, &pools_ids, &logs);

    let mut trace = Trace::new(l.epoch);
    for l in &mut logs {
        if let Some(t) = l.trace.take() {
            trace.absorb(t);
        }
    }
    if let Some(path) = opt(args, "--spans") {
        trace
            .write_csv(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let (request_s, covered_s) = trace.coverage("request");
    let mut layers = trace.layers();
    if traced {
        layers.insert("intern.new_ids", new_ids as f64);
    }
    let image_bytes = served.image_bytes;
    drop(served);
    for _ in SETUPS / 2..SETUPS {
        times.record(&set_up(&mail, &tokenizer, &image_path)?);
    }

    Ok(Json::new()
        .raw("setup_s", &nums(&times.setup_s))
        .raw("base_train_s", &nums(&times.base_train_s))
        .raw("pack_s", &nums(&times.pack_s))
        .raw("load_s", &nums(&times.load_s))
        .int("image_bytes", image_bytes)
        .int("base_messages", BASE_MESSAGES)
        .int("requests", latency.len())
        .int("failed", failed)
        .int("warm_lookups", warm_lookups)
        .int("warm_new_ids", warm_new_ids)
        .int("lookups", measured_lookups)
        .int("new_ids", new_ids)
        .num("wall_s", wall_s)
        .num("latency_p25_us", pct(0.25))
        .num("latency_p50_us", pct(0.50))
        .num("latency_p75_us", pct(0.75))
        .num("latency_p99_us", pct(0.99))
        .raw("per_second", &nums(&per_second))
        .int("verified", verified)
        .int("mismatches", mismatches)
        .num("request_s", request_s)
        .num("covered_s", covered_s)
        .raw("layers", &object(layers.iter().map(|(k, v)| (*k, *v))))
        .int("peak_rss_kib", peak_rss_kib())
        .finish())
}
