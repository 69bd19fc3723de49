//! `repro serve-bench`: the end-to-end serving benchmark and its
//! bit-identity audit.
//!
//! One run demonstrates the whole PR-10 architecture on one machine:
//!
//! 1. **Pack** — train a paper-scale base [`TokenDb`] from the synthetic
//!    TREC corpus and pack it to a model image on disk.
//! 2. **Load** — time the legacy text-dump parse against the `mmap`
//!    image load ([`MmapDb::open`]): the headline "one warm image, not a
//!    parse per process" number.
//! 3. **Serve** — register N tenants over the shared image (plus a
//!    frozen org patch, so every stack is 2 layers deep), train each
//!    tenant's private delta, and drive M-threaded raw-message probe
//!    traffic through every tenant with [`TenantRegistry::classify_raw`]
//!    (parse → tokenize → read-only id lookup → classify), so the probes
//!    never grow the serving interner.
//! 4. **Audit** — before timing, every tenant's verdicts over the probe
//!    set are compared bit-for-bit against a standalone `TokenDb`
//!    trained with the same mail (base → org patch → tenant delta,
//!    sequentially). A mismatch count other than zero fails the run.
//!
//! Telemetry (load times, aggregate messages/sec, the audit tally) is
//! appended as one JSON line to `BENCH_pr10.json`. All wall-clock reads
//! here are operator telemetry — nothing feeds a verdict, a digest, or
//! simulation state.

use crate::model::MmapDb;
use crate::registry::{TenantId, TenantRegistry};
use crate::tenant::OverlayLayer;
use crate::ServeError;
use sb_corpus::{CorpusConfig, TrecCorpus};
use sb_email::{render_email, Label};
use sb_filter::classify::score_token_ids;
use sb_filter::{image, load_db, save_db, FilterOptions, Scored, TokenDb};
use sb_intern::{par, Interner, TokenId};
use sb_tokenizer::Tokenizer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for one serve-bench run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Corpus / traffic seed (everything derives from it).
    pub seed: u64,
    /// Number of tenants registered over the shared image (≥ 1; the
    /// acceptance floor is 4).
    pub tenants: u32,
    /// Worker threads driving each tenant's probe batch.
    pub threads: usize,
    /// Messages trained into the shared base (paper-scale default
    /// 10,000 — the corpus size of the paper's dictionary experiments).
    pub base_messages: usize,
    /// Messages in the frozen org patch layer.
    pub org_messages: usize,
    /// Messages trained into each tenant's private delta.
    pub tenant_messages: usize,
    /// Probe messages classified per tenant (the same traffic for every
    /// tenant — org-wide vocabulary, per-tenant verdicts).
    pub probe_messages: usize,
    /// Directory the packed image (and nothing else) is written to.
    pub out: PathBuf,
    /// Telemetry sink (`None` = don't write).
    pub bench_path: Option<PathBuf>,
}

impl ServeBenchConfig {
    /// Paper-scale defaults at `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            tenants: 8,
            threads: par::default_threads(),
            base_messages: 10_000,
            org_messages: 32,
            tenant_messages: 40,
            probe_messages: 1_500,
            out: PathBuf::from("reports"),
            bench_path: Some(PathBuf::from("BENCH_pr10.json")),
        }
    }
}

/// What one serve-bench run measured.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Distinct tokens in the packed base.
    pub base_tokens: usize,
    /// Packed image size in bytes.
    pub image_bytes: usize,
    /// Whether the image was served by a live mapping.
    pub mapped: bool,
    /// Wall time of the legacy text-dump parse (`load_db`).
    pub text_load_ms: f64,
    /// Wall time of the image load (`MmapDb::open`, validation and
    /// serving-interner build included).
    pub image_load_ms: f64,
    /// Tenants served.
    pub tenants: u32,
    /// Worker threads per batch.
    pub threads: usize,
    /// Total probe messages classified in the timed pass.
    pub messages: usize,
    /// Wall time of the timed serving pass.
    pub serve_ms: f64,
    /// `messages / serve_ms`, scaled to per-second.
    pub msgs_per_sec: f64,
    /// Per-tenant verdicts compared against the standalone databases.
    pub verdicts_checked: usize,
    /// Bit-level disagreements (must be 0; non-zero fails the caller).
    pub mismatches: usize,
}

impl ServeBenchReport {
    /// The `BENCH_pr10.json` line (newline-terminated).
    pub fn json_line(&self, cfg: &ServeBenchConfig) -> String {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"bench\":\"serve\",\"seed\":{},\"tenants\":{},\"threads\":{},\
             \"base_messages\":{},\"base_tokens\":{},\"image_bytes\":{},\"mapped\":{},\
             \"text_load_ms\":{:.1},\"image_load_ms\":{:.1},\"load_speedup\":{:.1},\
             \"messages\":{},\"serve_ms\":{:.1},\"msgs_per_sec\":{:.1},\
             \"verdicts_checked\":{},\"mismatches\":{}}}",
            cfg.seed,
            self.tenants,
            self.threads,
            cfg.base_messages,
            self.base_tokens,
            self.image_bytes,
            self.mapped,
            self.text_load_ms,
            self.image_load_ms,
            if self.image_load_ms > 0.0 {
                self.text_load_ms / self.image_load_ms
            } else {
                0.0
            },
            self.messages,
            self.serve_ms,
            self.msgs_per_sec,
            self.verdicts_checked,
            self.mismatches
        );
        line.push('\n');
        line
    }
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1000.0
}

/// Tokenize an email and intern the set against `interner`.
fn intern_email(
    tokenizer: &Tokenizer,
    interner: &Interner,
    email: &sb_email::Email,
) -> Vec<TokenId> {
    tokenizer.intern_ids(email, interner)
}

/// Classify raw messages through `tenant`'s stack on `threads` workers,
/// results in input order.
fn classify_raw_batch(
    registry: &TenantRegistry<MmapDb>,
    tenant: TenantId,
    raw: &[String],
    threads: usize,
) -> Result<Vec<Scored>, ServeError> {
    par::parallel_chunks(raw, threads, |_, chunk| {
        chunk
            .iter()
            .map(|m| registry.classify_raw(tenant, m))
            .collect()
    })
    .into_iter()
    .collect()
}

/// Run the benchmark (see module docs). Bit-identity mismatches are
/// reported, not panicked on; I/O and image problems surface as typed
/// [`ServeError`]s.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> Result<ServeBenchReport, ServeError> {
    let opts = FilterOptions::default();
    let tokenizer = Tokenizer::new();

    // ---- pack: paper-scale base model --------------------------------
    let corpus = TrecCorpus::generate(&CorpusConfig::with_size(cfg.base_messages, 0.5), cfg.seed);
    let base_interner = Interner::new();
    let mut base_db = TokenDb::with_interner(base_interner.clone());
    for msg in corpus.emails() {
        base_db.train(&tokenizer.token_set(&msg.email), msg.label);
    }

    // ---- load: text parse vs image map -------------------------------
    let mut dump = Vec::new();
    save_db(&base_db, &mut dump).map_err(|e| match e {
        sb_filter::PersistError::Io(io) => ServeError::Io(io),
        other => ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            other.to_string(),
        )),
    })?;
    // sb-lint: allow(wall-clock, "load-time telemetry for BENCH_pr10.json; never feeds verdicts or simulation state")
    let t0 = Instant::now();
    let reparsed = load_db(std::io::Cursor::new(dump)).map_err(|e| {
        ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            e.to_string(),
        ))
    })?;
    let text_load_ms = ms(t0);
    drop(reparsed);

    std::fs::create_dir_all(&cfg.out)?;
    let image_path = cfg.out.join("serve_base.img");
    let img = image::pack(&base_db);
    let image_bytes = img.len();
    std::fs::write(&image_path, &img)?;
    drop(img);

    // sb-lint: allow(wall-clock, "load-time telemetry for BENCH_pr10.json; never feeds verdicts or simulation state")
    let t0 = Instant::now();
    let mmap_db = MmapDb::open(&image_path, opts)?;
    let image_load_ms = ms(t0);
    let base_tokens = mmap_db.n_tokens();
    let mapped = mmap_db.is_mapped();
    let serve_interner = mmap_db.interner().clone();

    // ---- serve: org patch + per-tenant deltas over the shared image --
    // Fresh-mail counters partition deterministically: org patch takes
    // k ∈ [0, org), tenant t takes [1e6 + t·n, 1e6 + (t+1)·n), probes
    // take [2e6, 2e6 + probes) — disjoint by construction, keyed only on
    // logical ids (never threads), so reruns are bit-identical.
    let org_mail: Vec<sb_email::Email> = (0..cfg.org_messages as u64)
        .map(|k| corpus.fresh_ham(k))
        .collect();
    let mut org_patch = OverlayLayer::new();
    for email in &org_mail {
        org_patch.train_ids(&intern_email(&tokenizer, &serve_interner, email), Label::Ham);
    }
    let registry = TenantRegistry::with_org_patch(Arc::new(mmap_db), org_patch, opts);

    let tenant_mail: Vec<Vec<(sb_email::Email, Label)>> = (0..cfg.tenants)
        .map(|t| {
            (0..cfg.tenant_messages as u64)
                .map(|j| {
                    let k = 1_000_000 + u64::from(t) * cfg.tenant_messages as u64 + j;
                    // Odd tenants skew spammy, even tenants hammy, so the
                    // audit sees genuinely different per-tenant models.
                    if (j + u64::from(t)) % 3 == 0 {
                        (corpus.fresh_spam(k), Label::Spam)
                    } else {
                        (corpus.fresh_ham(k), Label::Ham)
                    }
                })
                .collect()
        })
        .collect();
    for (t, mail) in tenant_mail.iter().enumerate() {
        let id = TenantId(t as u32);
        registry.add_tenant(id)?;
        for (email, label) in mail {
            registry.train(id, &intern_email(&tokenizer, &serve_interner, email), *label)?;
        }
    }

    let probe_mail: Vec<sb_email::Email> = (0..cfg.probe_messages as u64)
        .map(|k| {
            if k % 2 == 0 {
                corpus.fresh_ham(2_000_000 + k)
            } else {
                corpus.fresh_spam(2_000_000 + k)
            }
        })
        .collect();
    let probe_raw: Vec<String> = probe_mail.iter().map(render_email).collect();

    // ---- audit: bit-identity vs standalone per-tenant TokenDbs -------
    let mut verdicts_checked = 0usize;
    let mut mismatches = 0usize;
    for (t, mail) in tenant_mail.iter().enumerate() {
        let mut standalone = base_db.clone();
        for email in &org_mail {
            standalone.train(&tokenizer.token_set(email), Label::Ham);
        }
        for (email, label) in mail {
            standalone.train(&tokenizer.token_set(email), *label);
        }
        let standalone_probe: Vec<Vec<TokenId>> = probe_mail
            .iter()
            .map(|e| intern_email(&tokenizer, &base_interner, e))
            .collect();
        let got = classify_raw_batch(&registry, TenantId(t as u32), &probe_raw, cfg.threads)?;
        for (ids, scored) in standalone_probe.iter().zip(&got) {
            let want = score_token_ids(ids, &standalone, &opts);
            verdicts_checked += 1;
            if scored.score.to_bits() != want.score.to_bits() || scored.verdict != want.verdict {
                mismatches += 1;
            }
        }
    }

    // ---- throughput: the timed serving pass --------------------------
    // sb-lint: allow(wall-clock, "throughput telemetry for BENCH_pr10.json; never feeds verdicts or simulation state")
    let t0 = Instant::now();
    for t in 0..cfg.tenants {
        classify_raw_batch(&registry, TenantId(t), &probe_raw, cfg.threads)?;
    }
    let serve_ms = ms(t0);
    let messages = cfg.tenants as usize * probe_raw.len();
    let msgs_per_sec = if serve_ms > 0.0 {
        messages as f64 * 1000.0 / serve_ms
    } else {
        0.0
    };

    let report = ServeBenchReport {
        base_tokens,
        image_bytes,
        mapped,
        text_load_ms,
        image_load_ms,
        tenants: cfg.tenants,
        threads: cfg.threads,
        messages,
        serve_ms,
        msgs_per_sec,
        verdicts_checked,
        mismatches,
    };

    if let Some(bench) = &cfg.bench_path {
        use std::io::Write as _;
        let line = report.json_line(cfg);
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(bench)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = res {
            eprintln!("warning: could not append {}: {e}", bench.display());
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: 4 tenants over one packed image, zero
    /// bit-identity mismatches, sane telemetry. (CI-sized; the CLI runs
    /// the paper-scale defaults.)
    #[test]
    fn mini_serve_bench_round_trips() {
        let out = std::env::temp_dir().join(format!("sb-serve-bench-{}", std::process::id()));
        let cfg = ServeBenchConfig {
            tenants: 4,
            threads: 2,
            base_messages: 200,
            org_messages: 4,
            tenant_messages: 6,
            probe_messages: 40,
            out: out.clone(),
            bench_path: None,
            ..ServeBenchConfig::new(42)
        };
        let report = run_serve_bench(&cfg).unwrap();
        assert_eq!(report.mismatches, 0, "bit-identity audit failed");
        assert_eq!(report.verdicts_checked, 4 * 40);
        assert_eq!(report.messages, 4 * 40);
        assert!(report.base_tokens > 0);
        assert!(report.image_bytes > image::HEADER_LEN);
        let line = report.json_line(&cfg);
        assert!(line.starts_with("{\"bench\":\"serve\""));
        assert!(line.ends_with("}\n"));
        std::fs::remove_dir_all(out).ok();
    }
}
