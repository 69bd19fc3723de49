#!/usr/bin/env python3
"""The repository benchmark: workloads org-plain, org-roni and serve-raw.

Run from the repository root:

    python3 perfbench/run.py --workload org-plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --write-reference

The script builds perfbench/ (a Cargo package of its own) in release
mode, then starts the `perfbench` binary once per repetition. Every
repetition is a fresh process: the token interner is process-wide, and a
warm one would hide interning cost. Every run checks its own output (see
README.md). It prints a table (median, quartiles and sample count per
metric), writes the full record under perfbench/results/, and ends
standard output with one JSON line: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("org-plain", "org-roni", "serve-raw")
DEFENSE = {"org-plain": "none", "org-roni": "roni"}
# Benchmark seed n runs the org scenario at seed 2008 + n % 16. Seed 2008
# is the committed lite org-scale golden (tests/golden/lite/).
SCENARIO_SEED = 2008
SCENARIO_SEEDS = 16
GOLDEN_SEAL = "0xcab3bd2f41b1f4c6"
THREADS = 2
MIN_ORG_REPS = 3
# `MailOrg::try_new` takes tens of milliseconds, so before each org
# repetition this many set-up-only processes time it alone. Their samples
# spread over the whole run, which evens out host noise.
ORG_SETUPS_PER_REP = 4
# Pairs of org replays with and without spans, run alternately; the
# tracing overhead compares their median week times.
REPLAY_PAIRS = 3
# Every run ends within 180 s once the binary is built.
BUDGET_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("org.setup_s", "s"),
    ("org.week_s", "s"),
    ("org.checkpoint_s", "s"),
    ("corpus.msgs", "count"),
    ("corpus.busy_s", "s"),
    ("smtp.msgs", "count"),
    ("smtp.wire_bytes", "bytes"),
    ("smtp.busy_s", "s"),
    ("email.parse_calls", "count"),
    ("email.bytes", "bytes"),
    ("email.parse_busy_s", "s"),
    ("tokenizer.calls", "count"),
    ("tokenizer.tokens", "count"),
    ("tokenizer.busy_s", "s"),
    ("intern.lookups", "count"),
    ("intern.new_ids", "count"),
    ("intern.hit_ratio", "ratio"),
    ("intern.busy_s", "s"),
    ("score.calls", "count"),
    ("score.busy_s", "s"),
    ("screen.setup_s", "s"),
    ("screen.candidates", "count"),
    ("screen.rejected", "count"),
    ("screen.busy_s", "s"),
    ("rebuild.msgs", "count"),
    ("rebuild.busy_s", "s"),
    ("checkpoint.calls", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.busy_s", "s"),
    ("serve.load_s", "s"),
    ("serve.image_bytes", "bytes"),
    ("serve.classify_calls", "count"),
    ("serve.classify_busy_s", "s"),
    ("serve.train_calls", "count"),
    ("serve.train_busy_s", "s"),
    ("replay.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; any failure (such as missing sources) ends the run."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}")
    if built.returncode != 0:
        raise BenchError(f"build failed with exit code {built.returncode}")
    return target / "release" / "perfbench"


class Runner:
    """Starts one perfbench process at a time and waits for it to end."""

    def __init__(self, binary, threads, deadline):
        self.binary = binary
        self.threads = threads
        self.deadline = deadline

    def remaining(self):
        return self.deadline - time.monotonic()

    def __call__(self, *args):
        remaining = self.remaining()
        if remaining <= 0:
            raise BenchError("time budget spent")
        argv = [str(self.binary), *map(str, args)]
        env = dict(os.environ, SB_THREADS=str(self.threads))
        try:
            done = subprocess.run(argv, capture_output=True, text=True, env=env,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv[1:])}: out of time budget")
        if done.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])}: exit {done.returncode}: "
                             f"{done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def summary(samples):
    """Median, quartiles and count of a sample list."""
    xs = sorted(samples)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def scenario_seed(seed):
    return SCENARIO_SEED + seed % SCENARIO_SEEDS


def reference_seal(workload, seed):
    seals = json.loads(REFERENCE.read_text())
    return seals[workload][str(scenario_seed(seed))]


# ---- org workloads --------------------------------------------------------

def org_args(workload, seed, threads):
    return ["org", "--defense", DEFENSE[workload], "--seed", scenario_seed(seed),
            "--shards", threads]


def org_problems(rep, seal):
    problems = []
    if rep["seal"] != seal:
        problems.append(f"golden-digest seal {rep['seal']} != reference {seal}")
    settled = rep["delivered"] + rep["failed"] + rep["bounced"] + rep["deferred"]
    if settled != rep["offered"]:
        problems.append(f"delivered+failed+bounced+deferred = {settled} != offered "
                        f"{rep['offered']}")
    if rep["screen_errors"]:
        problems.append(f"screening failed: {rep['screen_errors']}")
    return problems


def org_reps(run, args, seconds, seal, extra=(), min_reps=MIN_ORG_REPS, setups_each=0):
    """Fresh processes until `seconds` have passed (at least `min_reps`).

    Before each repetition, `setups_each` set-up-only processes are timed.
    Returns the repetitions, the set-up-only times and the problems found.
    """
    reps, setups, problems = [], [], []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        t = time.monotonic()
        setups += [run(*args, "--setup-only")["setup_s"] for _ in range(setups_each)]
        rep = run(*args, *extra)
        reps.append(rep)
        problems += org_problems(rep, seal)
        took = time.monotonic() - t
        if len(reps) >= min_reps and run.remaining() < 2 * took + 30:
            break
    if len({json.dumps(r["weeks"]) for r in reps}) != 1:
        problems.append("weekly tallies differ between repetitions")
    return reps, setups, problems


def org_rate(rep):
    return rep["offered"] / sum(rep["week_s"])


def measure_org(run, workload, seed, seconds, threads):
    args = org_args(workload, seed, threads)
    run(*args, "--setup-only")  # warms the binary and page cache; not counted
    reps, setups, problems = org_reps(run, args, seconds, reference_seal(workload, seed),
                                      setups_each=ORG_SETUPS_PER_REP)
    # A batch job has no per-request boundary visible from outside, but
    # every workload must report every metric. The org latencies are
    # amortized proxies that restate throughput: per-message time over
    # step_week for the whole run (p50) and for the slowest retrain period
    # (p99). They are not independent evidence beside msgs_per_s.
    weeks = len(reps[0]["week_s"])
    samples = {
        "setup_s": setups + [r["setup_s"] for r in reps],
        "msgs_per_s": [org_rate(r) for r in reps],
        "latency_p50_us": [1e6 / org_rate(r) for r in reps],
        "latency_p99_us": [1e6 * max(r["week_s"]) * weeks / r["offered"] for r in reps],
        "peak_rss_mb": [r["peak_rss_kib"] / 1024 for r in reps],
    }
    attempted = sum(r["offered"] for r in reps)
    failed = sum(r["failed"] + r["bounced"] + r["deferred"] for r in reps)
    facts = {"weeks": reps[0]["weeks"], "seal": reps[0]["seal"],
             "repetitions": [{"setup_s": r["setup_s"], "week_s": r["week_s"],
                              "peak_rss_kib": r["peak_rss_kib"]} for r in reps]}
    return samples, {}, attempted, failed, problems, facts


def trace_org(run, workload, seed, seconds, threads):
    args = org_args(workload, seed, threads)
    seal = reference_seal(workload, seed)
    outside, _, problems = org_reps(run, args, seconds / 2, seal, ("--trace", "outside"), 1)
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload}-seed{seed}.csv"
    bare, spanned = [], []
    for i in range(REPLAY_PAIRS):
        bare.append(run(*args, "--trace", "replay-bare"))
        spanned.append(run(*args, "--trace", "replay", *(("--spans", spans) if i == 0 else ())))
    for r in bare + spanned:
        if r["weeks"] != outside[0]["weeks"]:
            problems.append(f"replay tallies {r['weeks']} != WeekReports {outside[0]['weeks']}")
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update({k: statistics.median(r["layers"][k] for r in spanned)
                   for k in spanned[0]["layers"] if k in layers and not k.startswith("org.")})
    layers["org.setup_s"] = statistics.median(r["setup_s"] for r in outside)
    layers["org.week_s"] = statistics.median(sum(r["week_s"]) for r in outside)
    layers["org.checkpoint_s"] = statistics.median(sum(r["checkpoint_s"]) for r in outside)
    # Both against the replay's own week wall: the share of it the layer
    # spans explain, and the cost of recording them.
    layers["replay.coverage"] = statistics.median(r["covered_week_s"] / r["week_s"]
                                                  for r in spanned)
    layers["trace.overhead_ratio"] = (statistics.median(r["week_s"] for r in spanned)
                                      / statistics.median(r["week_s"] for r in bare) - 1)
    attempted = sum(r["offered"] for r in outside)
    failed = sum(r["failed"] + r["bounced"] + r["deferred"] for r in outside)
    facts = {"spans": str(spans.relative_to(ROOT)), "weeks": spanned[0]["weeks"],
             "replay_week_s": [r["week_s"] for r in spanned],
             "bare_replay_week_s": [r["week_s"] for r in bare]}
    return layers, attempted, failed, problems, facts


# ---- serve workload -------------------------------------------------------

def serve_args(seed, seconds, threads):
    return ["serve", "--seed", seed, "--seconds", seconds, "--clients", threads,
            "--work", WORK]


def unseen(rep):
    """New token ids as a share of lookups, in the warm pass and in the measured phase."""
    return {"warm_unseen_share": rep["warm_new_ids"] / rep["warm_lookups"],
            "measured_unseen_share": rep["new_ids"] / rep["lookups"]}


def serve_problems(rep):
    problems = []
    if rep["mismatches"]:
        problems.append(f"{rep['mismatches']} of {rep['verified']} verdicts differ from "
                        "the standalone TokenDb replay")
    if rep["requests"] < 1000:
        problems.append(f"only {rep['requests']} requests: too few for p99")
    return problems


def measure_serve(run, seed, seconds, threads):
    rep = run(*serve_args(seed, seconds, threads))
    whole = rep["per_second"][:int(seconds)]
    samples = {
        "setup_s": rep["setup_s"],
        "msgs_per_s": whole,
        "peak_rss_mb": [rep["peak_rss_kib"] / 1024],
    }
    values = {
        "msgs_per_s": (rep["requests"] - rep["failed"]) / rep["wall_s"],
        "latency_p50_us": rep["latency_p50_us"],
        "latency_p99_us": rep["latency_p99_us"],
    }
    # The latency figures come from every request's sample.
    latency = {"q1": rep["latency_p25_us"], "q3": rep["latency_p75_us"], "n": rep["requests"]}
    facts = {"latency": latency, "verified": rep["verified"],
             "image_bytes": rep["image_bytes"], **unseen(rep)}
    return samples, values, rep["requests"], rep["failed"], serve_problems(rep), facts


def trace_serve(run, seed, seconds, threads):
    plain = run(*serve_args(seed, seconds / 2, threads))
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-serve-raw-seed{seed}.csv"
    traced = run(*serve_args(seed, seconds / 2, threads), "--trace", "--spans", spans)
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update({k: v for k, v in traced["layers"].items() if k in layers})
    layers["serve.load_s"] = statistics.median(traced["load_s"])
    layers["serve.image_bytes"] = traced["image_bytes"]
    # Set-up: the base is trained (tokenize, intern, count) and packed.
    layers["rebuild.msgs"] = traced["base_messages"]
    layers["rebuild.busy_s"] = statistics.median(traced["base_train_s"])
    layers["checkpoint.calls"] = 1
    layers["checkpoint.bytes"] = traced["image_bytes"]
    layers["checkpoint.busy_s"] = statistics.median(traced["pack_s"])
    layers["replay.coverage"] = traced["covered_s"] / traced["request_s"]
    rate = lambda r: (r["requests"] - r["failed"]) / r["wall_s"]
    layers["trace.overhead_ratio"] = rate(plain) / rate(traced) - 1
    problems = serve_problems(plain) + serve_problems(traced)
    attempted = plain["requests"] + traced["requests"]
    failed = plain["failed"] + traced["failed"]
    facts = {"spans": str(spans.relative_to(ROOT)), **unseen(traced)}
    return layers, attempted, failed, problems, facts


# ---- reporting ------------------------------------------------------------

def intern_hit_ratio(layers):
    if layers["intern.lookups"]:
        layers["intern.hit_ratio"] = 1 - layers["intern.new_ids"] / layers["intern.lookups"]


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(run, workload, seed, seconds, trace, threads):
    org = workload in DEFENSE
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host_cores": len(os.sched_getaffinity(0)), "threads": threads,
        "shards" if org else "clients": threads,
        "scenario_seed": scenario_seed(seed) if org else None,
        "git_rev": git_rev(), "rustc": rustc_version(),
    }
    if trace:
        layers, attempted, failed, problems, facts = (
            trace_org(run, workload, seed, seconds, threads) if org
            else trace_serve(run, seed, seconds, threads))
        intern_hit_ratio(layers)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        table = {name: {"median": layers[name], "n": 1} for name, _ in PER_LAYER}
    else:
        samples, values, attempted, failed, problems, facts = (
            measure_org(run, workload, seed, seconds, threads) if org
            else measure_serve(run, seed, seconds, threads))
        table = {name: summary(xs) for name, xs in samples.items()}
        if not org:
            table["latency_p50_us"] = dict(facts["latency"], median=values["latency_p50_us"])
            table["latency_p99_us"] = {"median": values["latency_p99_us"],
                                       "n": facts["latency"]["n"]}
        for name, v in values.items():
            table.setdefault(name, {"n": 1})["median"] = v
        metrics = {name: {"value": table[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    correct = not problems
    if not correct:
        failed = attempted
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"# {workload} seed {seed}: {'correct' if correct else 'INCORRECT'}, "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1):.6g})")
    for p in problems:
        print(f"#   problem: {p}")
    print(f"#   {'metric':<24} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>8}")
    for name, row in table.items():
        if name not in units:
            continue
        cell = lambda k: f"{row[k]:>14.6g}" if k in row else f"{'':>14}"
        print(f"#   {name:<24} {units[name]:<6} {cell('median')} {cell('q1')} {cell('q3')} "
              f"{row.get('n', 1):>8}")
    for key in ("warm_unseen_share", "measured_unseen_share"):
        if key in facts:
            print(f"#   {key}: {facts[key]:.6g}")
    print(f"#   provenance: {json.dumps(provenance)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": provenance, "result": result, "table": table,
              "problems": problems, "facts": facts}
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def write_reference(binary):
    """Record every scenario seed's org digest seal at one shard."""
    run = Runner(binary, THREADS, time.monotonic() + 3600)
    seals = {}
    for workload, defense in DEFENSE.items():
        seals[workload] = {}
        for s in range(SCENARIO_SEED, SCENARIO_SEED + SCENARIO_SEEDS):
            rep = run("org", "--defense", defense, "--seed", s, "--shards", 1)
            seals[workload][str(s)] = rep["seal"]
            log(f"{workload} scenario seed {s}: {rep['seal']}")
    if seals["org-plain"][str(SCENARIO_SEED)] != GOLDEN_SEAL:
        raise BenchError(f"org-plain at seed {SCENARIO_SEED} does not reproduce the committed "
                         f"golden seal {GOLDEN_SEAL}")
    REFERENCE.write_text(json.dumps(seals, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute perfbench/reference.json (the org digest seals)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        binary = build()
        if args.write_reference:
            write_reference(binary)
            return 0
        threads = min(THREADS, len(os.sched_getaffinity(0)))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            run = Runner(binary, threads, time.monotonic() + BUDGET_S)
            results[w] = run_workload(run, w, args.seed, args.seconds, bool(args.trace),
                                      threads)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
