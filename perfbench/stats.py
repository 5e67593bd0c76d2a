"""Statistics helpers of the benchmark, kept free of I/O so they can be
unit-tested (perfbench/test_stats.py)."""

import hashlib
import json
import math
import statistics
import struct

# Percentiles considered when reporting the tail of a latency sample.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(list(values), n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def percentile(values, p):
    """p-th percentile (0..100), linear between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest percentile of `ladder` that has at least ten of `n`
    samples beyond it, or None when not even the median has."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def pool_busy_frac(busy_s, workers, wall_s):
    """Share of the worker pool's capacity spent inside the simulator."""
    if workers <= 0 or wall_s <= 0:
        raise ValueError("pool_busy_frac needs workers > 0 and wall_s > 0")
    return busy_s / (workers * wall_s)


def trajectory_digest(values):
    """SHA-256 over the exact IEEE-754 bits of a FoM trajectory."""
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack("<d", float(v)))
    return h.hexdigest()


def read_events(path):
    """Events of a JSONL run stream (obs::JsonlObserver format)."""
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def core_totals(events):
    """Per-layer totals of one optimizer run from its iteration events:
    critic training, actor training summed over lanes (busy time) and along
    the slowest lane of each iteration (critical path), near-sampling, elite
    update, round counts and iteration wall times."""
    totals = {
        "critic_train_s": 0.0,
        "actor_train_lane_s": 0.0,
        "actor_train_critical_s": 0.0,
        "near_sample_s": 0.0,
        "elite_update_s": 0.0,
        "critic_rounds": 0,
        "actor_rounds": 0,
        "iterations": 0,
        "ns_iterations": 0,
        "iteration_s": [],
    }
    for event in events:
        if event.get("event") != "iteration_completed":
            continue
        totals["iterations"] += 1
        totals["ns_iterations"] += 1 if event["near_sampling"] else 0
        totals["iteration_s"].append(event["wall_seconds"])
        lanes = {}
        for span in event["spans"]:
            phase, seconds = span["phase"], span["seconds"]
            if phase == "critic-train":
                totals["critic_train_s"] += seconds
                totals["critic_rounds"] += 1
            elif phase == "actor-train":
                totals["actor_train_lane_s"] += seconds
                totals["actor_rounds"] += 1
                lanes[span["lane"]] = lanes.get(span["lane"], 0.0) + seconds
            elif phase == "near-sample":
                totals["near_sample_s"] += seconds
            elif phase == "elite-update":
                totals["elite_update_s"] += seconds
        if lanes:
            totals["actor_train_critical_s"] += max(lanes.values())
    return totals


def first_feasible_t(events):
    """Stream time of the first spec-meeting budgeted simulation, or None."""
    for event in events:
        if event.get("event") == "simulation_completed" and event["feasible"]:
            return event["t"]
    return None
