#!/usr/bin/env python3
"""Compares two sets of lifecycle-benchmark results.

    python3 lifebench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON record per run, as `run.py --record FILE` appends
them. Runs of the same workload and seed on both sides form a pair. For
every workload x metric the tool prints each side's median and quartiles,
how many pairs the change won, and a verdict by the rule of
choosing-metrics section 8: "improved" (or "worse") needs at least ten
pairs, the change winning (or losing) at least nine tenths of them, ties
counting for neither, and medians that differ by more than the parent's
interquartile distance; anything else is "unresolved". A gain does not
count on a workload where the change's runs failed more operations (wrong
answers included) than the parent's: its verdict is "unresolved". The
direction of each metric comes from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """Returns {(workload, metric): [(seed, value), ...]} in file order and
    {workload: failed operations over all its runs}."""
    runs, failed = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            meta, result = record["meta"], record["result"]
            workload = meta["workload"]
            failed[workload] = failed.get(workload, 0) + result["failed"]
            for name, metric in result["metrics"].items():
                runs.setdefault((workload, name), []).append(
                    (meta["seed"], metric["value"]))
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    """Pairs runs with the same seed, in order of appearance."""
    pending = {}
    for seed, value in parent:
        pending.setdefault(seed, []).append(value)
    out = []
    for seed, value in change:
        if pending.get(seed):
            out.append((pending[seed].pop(0), value))
    return out


def verdict(parent, change, better, more_failures=False):
    """Returns (wins, pairs, verdict) for one workload x metric.

    more_failures: the change's runs of this workload failed more operations
    than the parent's, so a gain is not claimed."""
    paired = pairs(parent, change)
    if better not in ("higher", "lower"):
        return 0, len(paired), "n/a"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    losses = sum(1 for p, c in paired if sign * (c - p) < 0)
    q1, p_med, q3 = quartiles([v for _, v in parent])
    c_med = statistics.median([v for _, v in change])
    beyond_noise = abs(c_med - p_med) > q3 - q1
    if len(paired) >= MIN_PAIRS and beyond_noise:
        if (wins >= WIN_SHARE * len(paired) and sign * (c_med - p_med) > 0
                and not more_failures):
            return wins, len(paired), "improved"
        if losses >= WIN_SHARE * len(paired) and sign * (c_med - p_med) < 0:
            return wins, len(paired), "worse"
    return wins, len(paired), "unresolved"


def directions(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="results of the parent (JSONL)")
    parser.add_argument("change", help="results of the change (JSONL)")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json giving each metric's direction")
    args = parser.parse_args()
    better = directions(args.benchmark)
    (parent, parent_failed), (change, change_failed) = (
        load(args.parent), load(args.change))
    for workload in sorted(set(parent_failed) | set(change_failed)):
        print("%s: failed operations: parent %d, change %d" % (
            workload, parent_failed.get(workload, 0),
            change_failed.get(workload, 0)))
    print("%-14s %-34s %-36s %-36s %7s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        p, c = parent[key], change[key]
        more_failures = (change_failed.get(workload, 0) >
                         parent_failed.get(workload, 0))
        wins, n, v = verdict(p, c, better.get(metric), more_failures)
        fmt = lambda vals: "%.6g [%.6g, %.6g]" % tuple(
            quartiles([x for _, x in vals])[i] for i in (1, 0, 2))
        print("%-14s %-34s %-36s %-36s %3d/%-3d %s" % (
            workload, metric, fmt(p), fmt(c), wins, n, v))
    missing = sorted(set(parent) ^ set(change))
    for workload, metric in missing:
        print("%-14s %-34s only on one side" % (workload, metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
