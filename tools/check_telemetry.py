#!/usr/bin/env python3
"""Validate a MA-Opt telemetry JSONL stream (see README "Observability").

Checks, per run bracket (run_started .. run_finished):
  * every line is a standalone JSON object with an "event" and a "t" key;
  * event kinds are from the documented set;
  * simulation_completed count equals the run_finished "simulations" field
    and the counters agree with the events observed;
  * iteration numbers are strictly increasing;
  * span phases are from the documented set and non-negative;
  * critic_loss is a finite number or null, and every MA-Opt training
    iteration (not near-sampling, with actor-train spans on per-actor
    lanes) carries a finite one.

Checks, per sweep bracket (sweep_started .. sweep_completed, emitted by
corner / Monte Carlo sweep problems — see "Robust & yield workloads"):
  * brackets never interleave: at most one sweep is open at a time, and
    every sweep_variant / sweep_completed carries the open sweep_id;
  * a bracket holds exactly the declared number of sweep_variant events;
  * sweep_completed tallies are consistent: ok + failed equals the
    declared variant count and matches the per-variant events;
  * a degraded sweep has both lost variants and survivors (whole-sweep failures report their losses
    with degraded = false).
Non-sweep events may appear inside a sweep bracket (evaluating threads
emit concurrently with the optimizer), but sweep events may not.

Checks, per job (job_submitted .. job_finished, emitted by serve::OptDaemon):
  * jobs MAY interleave freely in one stream (unlike run brackets — the
    daemon multiplexes many jobs); events are correlated by job_id;
  * every job_state_changed chains (its "from" equals the job's previous
    "to"), starting from "pending" at job_submitted;
  * job_finished carries a terminal state (done / failed / killed) matching
    the job's last transition, and arrives at most once per job;
  * at EOF no job is left in an active state (pending / running / pausing /
    killing) — paused and terminal are the only valid resting states.

Usage: tools/check_telemetry.py run.jsonl [--expect-runs N] [--min-sweeps N]
                                          [--min-jobs N]
Exit code 0 = valid, 1 = violations found (printed to stderr).
"""

import argparse
import json
import math
import sys

EVENT_KINDS = {
    "run_started",
    "simulation_completed",
    "iteration_completed",
    "checkpoint_written",
    "run_finished",
    "sweep_started",
    "sweep_variant",
    "sweep_completed",
    "job_submitted",
    "job_state_changed",
    "job_finished",
}
JOB_STATES = {"pending", "running", "pausing", "paused", "killing", "done", "failed", "killed"}
JOB_ACTIVE_STATES = {"pending", "running", "pausing", "killing"}
JOB_TERMINAL_STATES = {"done", "failed", "killed"}
PHASES = {"critic-train", "actor-train", "simulate", "near-sample", "elite-update"}
SWEEP_KINDS = {"corners", "monte-carlo"}
AGGREGATIONS = {"worst-case", "k-sigma", "yield-quantile"}
POLICIES = {"fail-fast", "penalize-failed", "conservative-bound"}

REQUIRED_KEYS = {
    "run_started": {"algorithm", "problem", "seed", "budget", "num_initial", "dim", "t"},
    "simulation_completed": {
        "index", "iteration", "lane", "ok", "feasible", "fom", "seconds",
        "retries", "failure_kind", "cache_hit", "coalesced", "t",
    },
    "iteration_completed": {
        "iteration", "simulations", "best_fom", "feasible_found", "near_sampling",
        "wall_seconds", "critic_loss", "spans", "t",
    },
    "checkpoint_written": {"path", "iteration", "simulations", "bytes", "t"},
    "run_finished": {
        "algorithm", "simulations", "best_fom", "feasible", "aborted",
        "abort_reason", "wall_seconds", "counters", "t",
    },
    "sweep_started": {"sweep_id", "kind", "aggregation", "variants", "t"},
    "sweep_variant": {"sweep_id", "variant", "label", "ok", "fom0", "seconds", "t"},
    "sweep_completed": {"sweep_id", "ok", "failed", "degraded", "policy", "seconds", "t"},
    "job_submitted": {
        "job_id", "name", "tenant", "problem", "algorithm", "seed", "simulation_budget", "t",
    },
    "job_state_changed": {"job_id", "name", "from", "to", "reason", "t"},
    "job_finished": {
        "job_id", "name", "tenant", "state", "simulations", "best_fom", "feasible",
        "wall_seconds", "counters", "t",
    },
}


class Checker:
    def __init__(self):
        self.errors = []
        self.runs = 0
        self.in_run = False
        self.sims = 0
        self.iterations = 0
        self.last_iteration = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_coalesced = 0
        self.total_cache_hits = 0  # across all runs, for --min-cache-hits
        # Open sweep bracket state (None when no sweep is open).
        self.sweep = None
        self.sweeps = 0  # completed brackets, for --min-sweeps
        # Per-job state: job_id -> {"state": str, "finished": bool}.
        self.jobs = {}
        self.jobs_finished = 0  # job_finished events, for --min-jobs

    def error(self, lineno, msg):
        self.errors.append(f"line {lineno}: {msg}")

    def check_line(self, lineno, line):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            self.error(lineno, f"not valid JSON: {exc}")
            return
        if not isinstance(event, dict):
            self.error(lineno, "line is not a JSON object")
            return
        kind = event.get("event")
        if kind not in EVENT_KINDS:
            self.error(lineno, f"unknown event kind {kind!r}")
            return
        missing = REQUIRED_KEYS[kind] - event.keys()
        if missing:
            self.error(lineno, f"{kind} missing keys {sorted(missing)}")
        getattr(self, "on_" + kind)(lineno, event)

    def on_run_started(self, lineno, event):
        if self.in_run:
            self.error(lineno, "run_started before previous run_finished")
        self.in_run = True
        self.sims = 0
        self.iterations = 0
        self.last_iteration = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_coalesced = 0

    def on_simulation_completed(self, lineno, event):
        if not self.in_run:
            self.error(lineno, "simulation_completed outside a run bracket")
        self.sims += 1
        if event.get("seconds", 0) < 0:
            self.error(lineno, "negative simulation seconds")
        if event.get("cache_hit"):
            self.cache_hits += 1
            self.total_cache_hits += 1
        if event.get("coalesced"):
            self.cache_coalesced += 1
        if event.get("cache_hit") and event.get("coalesced"):
            self.error(lineno, "simulation both cache_hit and coalesced")

    def on_iteration_completed(self, lineno, event):
        if not self.in_run:
            self.error(lineno, "iteration_completed outside a run bracket")
        self.iterations += 1
        iteration = event.get("iteration", 0)
        if iteration <= self.last_iteration:
            self.error(lineno, f"iteration {iteration} not increasing")
        self.last_iteration = iteration
        spans = event.get("spans", [])
        for span in spans:
            if span.get("phase") not in PHASES:
                self.error(lineno, f"unknown span phase {span.get('phase')!r}")
            if span.get("seconds", 0) < 0:
                self.error(lineno, "negative span seconds")
        loss = event.get("critic_loss")
        finite_loss = (isinstance(loss, (int, float)) and not isinstance(loss, bool)
                       and math.isfinite(loss))
        if loss is not None and not finite_loss:
            self.error(lineno, f"critic_loss {loss!r} is neither a finite number nor null")
        # Only MA-Opt trains actors on per-actor lanes; other optimizers
        # report candidate selection on lane -1.
        trains_actors = any(span.get("phase") == "actor-train" and span.get("lane", -1) >= 0
                            for span in spans)
        if trains_actors and not event.get("near_sampling") and not finite_loss:
            self.error(lineno, "training iteration without a finite critic_loss")

    def on_checkpoint_written(self, lineno, event):
        if not self.in_run:
            self.error(lineno, "checkpoint_written outside a run bracket")

    def on_sweep_started(self, lineno, event):
        if self.sweep is not None:
            self.error(lineno, "sweep_started while a sweep bracket is still open "
                               f"(sweep_id {self.sweep['id']})")
        if event.get("kind") not in SWEEP_KINDS:
            self.error(lineno, f"unknown sweep kind {event.get('kind')!r}")
        if event.get("aggregation") not in AGGREGATIONS:
            self.error(lineno, f"unknown sweep aggregation {event.get('aggregation')!r}")
        variants = event.get("variants", 0)
        if not isinstance(variants, int) or variants < 1:
            self.error(lineno, f"sweep_started declares {variants!r} variants")
            variants = 0
        self.sweep = {
            "id": event.get("sweep_id"),
            "variants": variants,
            "ok": 0,
            "failed": 0,
        }

    def on_sweep_variant(self, lineno, event):
        if self.sweep is None:
            self.error(lineno, "sweep_variant outside a sweep bracket")
            return
        if event.get("sweep_id") != self.sweep["id"]:
            self.error(lineno, f"sweep_variant sweep_id {event.get('sweep_id')} does not "
                               f"match the open bracket ({self.sweep['id']})")
        if event.get("seconds", 0) < 0:
            self.error(lineno, "negative sweep variant seconds")
        if event.get("ok"):
            self.sweep["ok"] += 1
        else:
            self.sweep["failed"] += 1
        total = self.sweep["ok"] + self.sweep["failed"]
        if total > self.sweep["variants"]:
            self.error(lineno, f"more sweep_variant events than the declared "
                               f"{self.sweep['variants']} variants")

    def on_sweep_completed(self, lineno, event):
        if self.sweep is None:
            self.error(lineno, "sweep_completed without sweep_started")
            return
        sweep, self.sweep = self.sweep, None
        self.sweeps += 1
        if event.get("sweep_id") != sweep["id"]:
            self.error(lineno, f"sweep_completed sweep_id {event.get('sweep_id')} does not "
                               f"match the open bracket ({sweep['id']})")
        if event.get("policy") not in POLICIES:
            self.error(lineno, f"unknown sweep policy {event.get('policy')!r}")
        if event.get("seconds", 0) < 0:
            self.error(lineno, "negative sweep seconds")
        ok = event.get("ok", 0)
        failed = event.get("failed", 0)
        for name, expected, got in (
            ("ok", sweep["ok"], ok),
            ("failed", sweep["failed"], failed),
        ):
            if expected != got:
                self.error(lineno, f"sweep_completed {name}={got} but the bracket has "
                                   f"{expected} such sweep_variant events")
        if ok + failed != sweep["variants"]:
            self.error(lineno, f"sweep tallies ({ok} + {failed}) do not cover "
                               f"the declared {sweep['variants']} variants")
        # degraded marks a *partial* loss that was absorbed into the
        # aggregate: it requires lost variants AND survivors. Whole-sweep
        # failures (fail-fast, every variant down, below min_ok_fraction)
        # report their losses with degraded = false.
        if event.get("degraded"):
            if failed == 0:
                self.error(lineno, "sweep marked degraded but no variant failed")
            if ok == 0:
                self.error(lineno, "sweep marked degraded but no variant succeeded "
                                   "(should be a whole-sweep failure)")

    def on_job_submitted(self, lineno, event):
        job_id = event.get("job_id")
        if job_id in self.jobs:
            self.error(lineno, f"duplicate job_submitted for job_id {job_id}")
            return
        self.jobs[job_id] = {"state": "pending", "finished": False, "name": event.get("name")}

    def on_job_state_changed(self, lineno, event):
        job_id = event.get("job_id")
        job = self.jobs.get(job_id)
        if job is None:
            self.error(lineno, f"job_state_changed for unsubmitted job_id {job_id}")
            return
        if job["finished"]:
            self.error(lineno, f"job_state_changed after job_finished (job_id {job_id})")
        src, dst = event.get("from"), event.get("to")
        if src not in JOB_STATES:
            self.error(lineno, f"unknown job state {src!r}")
        if dst not in JOB_STATES:
            self.error(lineno, f"unknown job state {dst!r}")
        if src != job["state"]:
            self.error(lineno, f"job {job_id} transition from {src!r} but its previous "
                               f"state is {job['state']!r}")
        job["state"] = dst

    def on_job_finished(self, lineno, event):
        job_id = event.get("job_id")
        job = self.jobs.get(job_id)
        if job is None:
            self.error(lineno, f"job_finished for unsubmitted job_id {job_id}")
            return
        if job["finished"]:
            self.error(lineno, f"second job_finished for job_id {job_id}")
            return
        job["finished"] = True
        self.jobs_finished += 1
        state = event.get("state")
        if state not in JOB_TERMINAL_STATES:
            self.error(lineno, f"job_finished with non-terminal state {state!r}")
        if state != job["state"]:
            self.error(lineno, f"job_finished state {state!r} does not match the job's "
                               f"last transition ({job['state']!r})")
        counters = event.get("counters", {})
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        coalesced = counters.get("cache_coalesced", 0)
        if coalesced > misses:
            self.error(lineno, f"job cache_coalesced ({coalesced}) exceeds cache_misses "
                               f"({misses})")
        if hits + misses not in (0, event.get("simulations")):
            self.error(lineno, f"job cache_hits + cache_misses ({hits} + {misses}) must "
                               f"equal simulations ({event.get('simulations')}) or be zero")

    def on_run_finished(self, lineno, event):
        if not self.in_run:
            self.error(lineno, "run_finished without run_started")
        self.in_run = False
        self.runs += 1
        if event.get("simulations") != self.sims:
            self.error(
                lineno,
                f"run_finished says {event.get('simulations')} simulations, "
                f"stream has {self.sims} simulation_completed events",
            )
        counters = event.get("counters", {})
        if counters.get("simulations") != self.sims:
            self.error(lineno, "counters.simulations disagrees with the event stream")
        if counters.get("iterations") != self.iterations:
            self.error(lineno, "counters.iterations disagrees with the event stream")
        # Evaluation-service cache invariants. All-zero counters mean the run
        # was not routed through an EvalService; otherwise every budgeted
        # simulation is exactly one of hit / miss, and only misses coalesce.
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        coalesced = counters.get("cache_coalesced", 0)
        if hits != self.cache_hits:
            self.error(lineno, "counters.cache_hits disagrees with the event stream")
        if coalesced != self.cache_coalesced:
            self.error(lineno, "counters.cache_coalesced disagrees with the event stream")
        if hits + misses not in (0, self.sims):
            self.error(
                lineno,
                f"cache_hits + cache_misses ({hits} + {misses}) must equal "
                f"simulations ({self.sims}) or be zero",
            )
        if coalesced > misses:
            self.error(lineno, f"cache_coalesced ({coalesced}) exceeds cache_misses ({misses})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jsonl", help="telemetry stream to validate")
    parser.add_argument("--expect-runs", type=int, default=None,
                        help="require exactly N run brackets")
    parser.add_argument("--min-cache-hits", type=int, default=None,
                        help="require at least N cache-hit simulations across all runs")
    parser.add_argument("--min-sweeps", type=int, default=None,
                        help="require at least N complete sweep brackets")
    parser.add_argument("--min-jobs", type=int, default=None,
                        help="require at least N finished daemon jobs")
    args = parser.parse_args()

    checker = Checker()
    with open(args.jsonl, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if line:
                checker.check_line(lineno, line)
    if checker.in_run:
        checker.error("EOF", "stream ends inside a run bracket (no run_finished)")
    if checker.sweep is not None:
        checker.error("EOF", "stream ends inside a sweep bracket (no sweep_completed)")
    for job_id, job in sorted(checker.jobs.items(), key=str):
        if job["state"] in JOB_ACTIVE_STATES:
            checker.error("EOF", f"job {job_id} ({job['name']}) left in active state "
                                 f"{job['state']!r}")
    if args.min_jobs is not None and checker.jobs_finished < args.min_jobs:
        checker.error("EOF", f"expected >= {args.min_jobs} finished jobs, "
                             f"found {checker.jobs_finished}")
    if args.expect_runs is not None and checker.runs != args.expect_runs:
        checker.error("EOF", f"expected {args.expect_runs} runs, found {checker.runs}")
    if args.min_sweeps is not None and checker.sweeps < args.min_sweeps:
        checker.error("EOF", f"expected >= {args.min_sweeps} sweep brackets, found {checker.sweeps}")
    if args.min_cache_hits is not None and checker.total_cache_hits < args.min_cache_hits:
        checker.error(
            "EOF",
            f"expected >= {args.min_cache_hits} cache hits, found {checker.total_cache_hits}",
        )

    if checker.errors:
        for err in checker.errors:
            print(err, file=sys.stderr)
        print(f"FAIL: {len(checker.errors)} violation(s) in {args.jsonl}", file=sys.stderr)
        return 1
    print(f"OK: {checker.runs} run(s), {checker.sweeps} sweep(s), "
          f"{checker.jobs_finished} finished job(s) valid in {args.jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
