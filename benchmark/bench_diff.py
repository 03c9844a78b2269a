#!/usr/bin/env python3
"""Compares two sets of benchmark records, workload by workload.

  python3 benchmark/bench_diff.py BASE CHANGE [--spec BENCHMARK.json]

BASE and CHANGE are each a directory of records (the JSON files run.py
writes with --out) or a list of record files separated by commas. Only
untraced records count, and every one must have the same run length
(`seconds`); records of different lengths do not compare, and the script
exits 2. For every workload and end-to-end metric the report gives each
side's median and quartiles (statistics.quantiles, n=4), the change's move
against the base median, and a verdict:

  within    the change's median is no worse than the base's by more than
            the metric's bound
  worse     it is worse by more than the bound
  better    a gain: at least 10 pairs of runs (paired by seed), the change
            wins at least 9 of every 10 of them (ties count for neither),
            the medians differ by more than the base's own quartile spread,
            and the change fails no larger share of its operations
  unresolved  either side's quartile spread exceeds the bound, and the
            runs do not separate (not every change run better, or worse,
            than every base run)

Each workload also gets a line with each side's failed operations over
attempted ones, summed over its runs, and the number of runs whose
correctness checks failed. Those runs count for no metric.

Exits 1 when any pairing is worse, when the change fails a larger share of
a workload's operations than the base, or when any change run failed its
checks; else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


class Side:
    """The untraced records of one side, by workload."""

    def __init__(self, spec):
        self.runs = {}       # workload -> records whose checks passed
        self.incorrect = {}  # workload -> count of records whose checks failed
        self.attempted = {}  # workload -> operations attempted, every record
        self.failed = {}     # workload -> operations failed, every record
        self.seconds = set()
        paths = []
        for part in spec.split(","):
            if os.path.isdir(part):
                paths += sorted(glob.glob(os.path.join(part, "*.json")))
            elif part:
                paths.append(part)
        for path in paths:
            with open(path) as f:
                try:
                    rec = json.load(f)
                except ValueError:
                    continue
            if not isinstance(rec, dict) or rec.get("benchmark") != "graphgen":
                continue
            if rec.get("traced"):
                continue
            w = rec["workload"]
            self.seconds.add(rec["seconds"])
            self.attempted[w] = self.attempted.get(w, 0) + rec["attempted"]
            self.failed[w] = self.failed.get(w, 0) + rec["failed"]
            if rec.get("correct"):
                self.runs.setdefault(w, []).append(rec)
            else:
                self.incorrect[w] = self.incorrect.get(w, 0) + 1

    def failed_share(self, w):
        return self.failed.get(w, 0) / max(self.attempted.get(w, 0), 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, lower_better, bound, more_failures):
    """base/change: lists of (seed, value). Returns (verdict, move, wins, pairs)."""
    bv = [v for _, v in base]
    cv = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(bv)
    cq1, cmed, cq3 = quartiles(cv)
    sign = 1.0 if lower_better else -1.0
    # Positive move = the change is worse.
    move = sign * (cmed - bmed) / bmed if bmed else 0.0
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    all_better = all(sign * (c - b) < 0 for b in bv for c in cv)
    all_worse = all(sign * (c - b) > 0 for b in bv for c in cv)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", move, wins, len(pairs)
    if move > bound or (spread > bound and all_worse):
        return "worse", move, wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(cmed - bmed) > (bq3 - bq1) and not more_failures):
        return "better", move, wins, len(pairs)
    return "within", move, wins, len(pairs)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                  "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, change = Side(args.base), Side(args.change)
    lengths = base.seconds | change.seconds
    if len(lengths) > 1:
        print(f"records differ in run length (seconds: {sorted(lengths)}); "
              "they do not compare", file=sys.stderr)
        return 2
    bad = False
    header = (f"{'workload':<18} {'metric':<18} {'base median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'move':>7} {'bound':>6} "
              f"{'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    for w in spec["workloads"]:
        name = w["name"]
        more_failures = change.failed_share(name) > base.failed_share(name)
        bad = bad or more_failures or change.incorrect.get(name, 0) > 0
        print(f"{name:<18} {'failed ops':<18} "
              f"{base.failed.get(name, 0)}/{base.attempted.get(name, 0):<27} "
              f"{change.failed.get(name, 0)}/{change.attempted.get(name, 0):<27} "
              f"checks failed in {base.incorrect.get(name, 0)} base, "
              f"{change.incorrect.get(name, 0)} change runs"
              f"{'  MORE FAILURES' if more_failures else ''}")
        if name not in base.runs or name not in change.runs:
            print(f"{name:<18} (no passing untraced records on "
                  f"{'both sides' if name not in base.runs and name not in change.runs else 'one side'})")
            continue
        for m in spec["end_to_end"]:
            metric = m["name"]
            bs = [(r["seed"], r["metrics"][metric]["value"])
                  for r in base.runs[name] if metric in r["metrics"]]
            cs = [(r["seed"], r["metrics"][metric]["value"])
                  for r in change.runs[name] if metric in r["metrics"]]
            if not bs or not cs:
                continue
            v, move, wins, pairs = verdict(bs, cs, m["better"] == "lower",
                                           m["bound"], more_failures)
            bad = bad or v == "worse"
            bq = quartiles([x for _, x in bs])
            cq = quartiles([x for _, x in cs])
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{name:<18} {metric:<18} {fmt(bq):<34} {fmt(cq):<34} "
                  f"{move * 100:>+6.1f}% {m['bound'] * 100:>5.0f}% "
                  f"{wins:>3}/{pairs:<2}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
