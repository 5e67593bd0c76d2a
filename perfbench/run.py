#!/usr/bin/env python3
"""End-to-end benchmark of MA-Opt: builds perfbench_bin from the
checkout's sources, runs one workload, checks its outputs and prints the
metrics named in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_ota --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object; the line before it
holds the per-run details (provenance, sample counts, digests, checks).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import stats  # noqa: E402

WORKLOADS = ("paper_ota", "yield_mc", "daemon_jobs")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures and builds perfbench_bin; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench_bin"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_bin"


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root, args, binary_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    sources = sorted(p.relative_to(root) for p in (root / "src").rglob("*") if p.is_file())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": binary_info["compiler"],
        "build_type": binary_info["build_type"],
        "git_commit": commit,
        "source_sha256": file_digest([root / p for p in sources]),
    }


def steal_seconds():
    """CPU time the hypervisor gave to others, summed over CPUs (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def rep_summary(values):
    """Median and quartiles of per-repetition values."""
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "median": stats.median(values)}
    q1, q3 = stats.quartiles(values)
    return {"n": len(values), "median": stats.median(values), "q1": q1, "q3": q3,
            "spread": stats.spread(values)}


def latency_summary(seconds):
    """Median, p90 and the highest percentile with ten samples beyond it."""
    n = len(seconds)
    top = stats.highest_percentile(n)
    return {
        "n": n,
        "p50_ms": stats.percentile(seconds, 50) * 1e3,
        "p90_ms": stats.percentile(seconds, 90) * 1e3,
        "highest_supported_percentile": top,
        "highest_supported_ms": stats.percentile(seconds, top) * 1e3 if top else None,
    }


class Run:
    """Collects metrics, correctness checks and digests of one run."""

    def __init__(self, data):
        self.samples = data["samples"]
        self.plain = [s for s in self.samples if not s["traced"]]
        self.traced = [s for s in self.samples if s["traced"]]
        self.end_to_end = {}
        self.per_layer = {}
        self.checks = []
        self.digests = {}
        self.latency = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok):
        self.checks.append({"check": name, "ok": bool(ok)})

    def digest(self, name, samples, series="trajectory"):
        values = {stats.trajectory_digest(s["series"][series]) for s in samples}
        self.check(f"{name}: one trajectory digest over {len(samples)} repetitions", len(values) == 1)
        self.digests[name] = sorted(values)[0]

    def med(self, samples, key):
        return stats.median(s["values"][key] for s in samples)

    def sim_layer(self, samples):
        """circuits.* simulator-call metrics of the traced repetitions, and
        the busy share of the worker pool where there is one."""
        calls = [s["series"]["sim_s"] for s in samples]
        pooled = [x for c in calls for x in c]
        busy = [sum(c) for c in calls]
        self.per_layer.update({
            "circuits.sim_calls": stats.median(len(c) for c in calls),
            "circuits.sim_failed": self.med(samples, "sim_failed"),
            "circuits.sim_busy_s": stats.median(busy),
            "circuits.sim_p50_us": stats.percentile(pooled, 50) * 1e6,
            "circuits.sim_p90_us": stats.percentile(pooled, 90) * 1e6,
        })
        if "workers" in samples[0]["values"]:
            self.per_layer["eval.pool_busy_frac"] = stats.median(
                stats.pool_busy_frac(b, s["values"]["workers"], s["values"]["timed_s"])
                for b, s in zip(busy, samples))

    def core_layer(self, totals, flops):
        """core.* and nn.* metrics from per-repetition iteration totals."""
        def m(key):
            return stats.median(t[key] for t in totals)
        pooled = [x for t in totals for x in t["iteration_s"]]
        self.per_layer.update({
            "core.critic_train_s": m("critic_train_s"),
            "core.actor_train_critical_s": m("actor_train_critical_s"),
            "core.actor_train_lane_s": m("actor_train_lane_s"),
            "core.near_sample_s": m("near_sample_s"),
            "core.elite_update_s": m("elite_update_s"),
            "core.iter_p50_ms": stats.percentile(pooled, 50) * 1e3,
            "core.iter_p90_ms": stats.percentile(pooled, 90) * 1e3,
            "core.iterations": m("iterations"),
            "core.ns_iterations": m("ns_iterations"),
            "nn.critic_gflops_computed": stats.median(
                f["critic_flops_per_round"] * t["critic_rounds"] / t["critic_train_s"] / 1e9
                for t, f in zip(totals, flops)),
            "nn.actor_gflops_computed": stats.median(
                f["actor_flops_per_round"] * t["actor_rounds"] / t["actor_train_lane_s"] / 1e9
                for t, f in zip(totals, flops)),
        })

    def eval_layer(self):
        """eval.* counters of the traced repetitions; invariants on all."""
        for s in self.samples:
            v = s["values"]
            self.check("eval: hits + misses == requested",
                       v["eval_hits"] + v["eval_misses"] == v["eval_requested"])
            self.check("eval: simulations == misses - coalesced",
                       v["eval_simulations"] == v["eval_misses"] - v["eval_coalesced"])
        if not self.traced:
            return

        def m(key):
            return self.med(self.traced, key)
        self.per_layer.update({
            "eval.requested": m("eval_requested"),
            "eval.hits": m("eval_hits"),
            "eval.misses": m("eval_misses"),
            "eval.coalesced": m("eval_coalesced"),
            "eval.simulations": m("eval_simulations"),
            "eval.hit_ratio": m("eval_hits") / m("eval_requested"),
        })

    def overhead(self, plain, traced):
        rate = lambda ss: stats.median(s["values"]["sims"] / s["values"]["timed_s"] for s in ss)
        if traced:
            self.per_layer["obs.trace_overhead_frac"] = 1.0 - rate(traced) / rate(plain)


def reduce_paper_ota(run):
    seed_reps = [s for s in run.plain if not s["values"]["reference"]]
    ref_reps = [s for s in run.plain if s["values"]["reference"]]
    iterations = [x for s in run.plain for x in s["series"]["iteration_s"]]
    run.latency["iteration"] = latency_summary(iterations)
    run.end_to_end.update({
        "sims_per_s": stats.median(s["values"]["sims"] / s["values"]["timed_s"] for s in run.plain),
        "makespan_s": run.med(run.plain, "timed_s"),
        "sweep_p50_ms": stats.percentile(iterations, 50) * 1e3,
        "sweep_p90_ms": stats.percentile(iterations, 90) * 1e3,
        "time_to_feasible_s": run.med(ref_reps, "time_to_feasible_s"),
        "best_fom": run.med(ref_reps, "best_fom"),
        "warm_job_s": run.med(ref_reps, "timed_s"),
    })
    for s in run.samples:
        v = s["values"]
        run.attempted += int(v["sims"])
        run.failed += int(v["failed"]) + (1 if v["reference"] and not v["feasible"] else 0)
        run.check("paper_ota: 200 budgeted simulations, none failed", v["sims"] == 200 and v["failed"] == 0)
        if v["reference"]:
            run.check("paper_ota: the reference instance finds a feasible design", v["feasible"] == 1)
    run.digest("seed_instance", [s for s in run.samples if not s["values"]["reference"]])
    run.digest("reference_instance", [s for s in run.samples if s["values"]["reference"]])

    traced_seed = [s for s in run.traced if not s["values"]["reference"]]
    if traced_seed:
        run.core_layer([stats.core_totals(stats.read_events(s["notes"]["jsonl"])) for s in traced_seed],
                       [s["values"] for s in traced_seed])
        run.sim_layer(traced_seed)
        run.overhead(seed_reps, traced_seed)


def reduce_yield_mc(run):
    checks = [x for s in run.plain for x in s["series"]["sweep_s"]]
    run.latency["yield_check"] = latency_summary(checks)
    run.end_to_end.update({
        "sims_per_s": stats.median(s["values"]["sims"] / s["values"]["timed_s"] for s in run.plain),
        "makespan_s": run.med(run.plain, "timed_s"),
        "sweep_p50_ms": stats.percentile(checks, 50) * 1e3,
        "sweep_p90_ms": stats.percentile(checks, 90) * 1e3,
        "time_to_feasible_s": stats.median(s["series"]["sweep_s"][0] for s in run.plain),
        "best_fom": run.med(run.plain, "best_fom"),
        "warm_job_s": stats.median(x for s in run.plain for x in s["series"]["warm_pass_s"]),
    })
    for s in run.samples:
        v = s["values"]
        warm_missed = v["warm_requested"] - v["warm_hits"]
        run.attempted += int(v["checks"])
        run.failed += int(v["failed"])
        run.check("yield_mc: every cold check simulation_ok over 64 variants, every warm one all hits",
                  v["failed"] == 0)
        run.check("yield_mc: no variant failed", v["variants_failed"] == 0)
        run.check("yield_mc: the warm pass is served from the cache",
                  warm_missed == 0 and v["warm_requested"] == v["warm_passes"] * 100 * 64)
    run.digest("candidates", run.samples)
    run.digest("candidates_warm", run.samples, series="warm_trajectory")
    run.check("yield_mc: warm results are bit-identical to cold ones",
              run.digests["candidates"] == run.digests["candidates_warm"])
    run.eval_layer()
    if run.traced:
        run.sim_layer(run.traced)
        run.per_layer.update({
            "circuits.sweeps": run.med(run.traced, "sweeps"),
            "circuits.variants_ok": run.med(run.traced, "variants_ok"),
            "circuits.variants_failed": run.med(run.traced, "variants_failed"),
        })
        run.overhead(run.plain, run.traced)


JOBS = ("ma_deck", "de_ota", "random_ldo", "ma_deck_warm")
TENANTS = ("analog", "baseline", "power")


def reduce_daemon_jobs(run):
    events = [stats.read_events(s["notes"]["jsonl.ma_deck"]) for s in run.plain]
    iterations = [x for e in events for x in stats.core_totals(e)["iteration_s"]]
    feasible_t = [stats.first_feasible_t(e) for e in events]
    run.latency["ma_iteration"] = latency_summary(iterations)
    run.check("daemon_jobs: the MA-Opt job finds a feasible design", None not in feasible_t)
    run.end_to_end.update({
        "sims_per_s": stats.median(s["values"]["sims"] / s["values"]["timed_s"] for s in run.plain),
        "makespan_s": run.med(run.plain, "timed_s"),
        "sweep_p50_ms": stats.percentile(iterations, 50) * 1e3,
        "sweep_p90_ms": stats.percentile(iterations, 90) * 1e3,
        "time_to_feasible_s": stats.median(t for t in feasible_t if t is not None),
        "best_fom": run.med(run.plain, "best_fom"),
        "warm_job_s": run.med(run.plain, "warm_job_s"),
    })
    for s in run.samples:
        v = s["values"]
        warm_ok = (v["warm_hits"] == v["warm_requested"] > 0
                   and v["best_fom.ma_deck_warm"] == v["best_fom.ma_deck"])
        run.attempted += int(v["jobs"])
        run.failed += int(v["failed"]) + (0 if warm_ok else 1)
        run.check("daemon_jobs: every job done", v["failed"] == 0)
        run.check("daemon_jobs: the set-up probe simulations succeed", "probe_failed" not in v)
        run.check("daemon_jobs: the warm re-submit is all hits with a bit-identical best FoM", warm_ok)
    run.digest("jobs", run.samples)
    run.eval_layer()
    if run.traced:
        t = run.traced
        run.core_layer([stats.core_totals(stats.read_events(s["notes"]["jsonl.ma_deck"])) for s in t],
                       [s["values"] for s in t])
        run.sim_layer(t)
        run.per_layer.update({
            "eval.journal_bytes": run.med(t, "journal_bytes"),
            "serve.submit_ms": stats.median(x for s in t for x in s["series"]["submit_s"]) * 1e3,
            "deck.compile_ms": run.med(t, "compile_s") * 1e3,
        })
        for job in JOBS:
            run.per_layer[f"serve.job_run_s.{job}"] = run.med(t, f"job_run_s.{job}")
            run.per_layer[f"serve.job_idle_s.{job}"] = run.med(t, f"job_idle_s.{job}")
        for tenant in TENANTS:
            run.per_layer[f"serve.granted_sims.{tenant}"] = run.med(t, f"granted_sims.{tenant}")
        run.overhead(run.plain, t)


REDUCERS = {"paper_ota": reduce_paper_ota, "yield_mc": reduce_yield_mc,
            "daemon_jobs": reduce_daemon_jobs}


def check_determinism(run, build_dir, binary, args):
    """Digests of one seed must match across every run of the same build."""
    key = f"{args.workload}-{args.seed}-{file_digest([binary])[:16]}"
    store = build_dir / "digests" / f"{key}.json"
    if store.exists():
        previous = json.loads(store.read_text())
        run.check("determinism: digests match earlier runs of this seed", previous == run.digests)
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(run.digests, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        fail("no MA-Opt sources under ./src; run from the root of a checkout", 2)
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)

    work = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.monotonic()
    steal_before = steal_seconds()
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work), "--inputs", str(HERE / "inputs")],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"perfbench_bin exited with {done.returncode}")
        data = json.loads(done.stdout.strip().splitlines()[-1])
        run = Run(data)
        REDUCERS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.end_to_end["setup_s"] = stats.median(
        x for s in run.plain for x in s["series"].get("setup_s", []))
    run.end_to_end["peak_rss_mb"] = data["peak_rss_mb"]
    check_determinism(run, build_dir, binary, args)

    group, measured = ("per_layer", run.per_layer) if args.trace else ("end_to_end", run.end_to_end)
    metrics = {}
    for metric in manifest[group]:
        # A layer the workload never reaches reports what was measured there: 0.
        value = measured.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            fail(f"{args.workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    failed_checks = [c["check"] for c in run.checks if not c["ok"]]
    detail = {
        "provenance": provenance(root, args, data),
        "wall_s": time.monotonic() - started,
        "host_steal_s": None if steal_before is None else steal_seconds() - steal_before,
        "repetitions": {"untraced": len(run.plain), "traced": len(run.traced)},
        "latency": run.latency,
        "sims_per_s_repetitions": rep_summary(
            s["values"]["sims"] / s["values"]["timed_s"] for s in run.plain),
        "digests": run.digests,
        "failed_checks": sorted(set(failed_checks)),
        "checks_run": len(run.checks),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
