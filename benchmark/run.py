#!/usr/bin/env python3
"""Builds and runs the graphgen benchmark of record.

Run from the repository root:

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  python3 benchmark/run.py --smoke

--seconds defaults to BENCHMARK.json's run_seconds, so records of runs
started without it compare with the benchmark's own.

Every call configures and builds the library and the harness into
.bench_build/graphgen; only the first compiles everything. Build output
goes to stderr; the harness's stdout is passed through, so the last stdout
line is the run's one-line JSON result. A traced run writes its spans to
.bench_build/spans-<workload>-<seed>.json. The full record of every run
(environment, dataset identity, every metric with its sample count) goes to
--out, by default .bench_build/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "graphgen")
BINARY = os.path.join(BUILD, "bench_graphgen")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "bench_graphgen",
              "-j", jobs]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    if args.smoke:
        return subprocess.run([BINARY, "--smoke", f"--seed={args.seed}"],
                              timeout=RUN_TIMEOUT_S).returncode

    out = args.out or os.path.join(
        BUILD_ROOT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}",
           f"--git-sha={git_sha()}"]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            BUILD_ROOT, f"spans-{args.workload}-{args.seed}.json"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("harness printed no result line", file=sys.stderr)
        return 1
    expected = declared_metrics(spec, args.trace)
    if set(result["metrics"]) != expected:
        sys.stderr.write(proc.stdout)
        print("harness metrics do not match BENCHMARK.json: missing "
              f"{sorted(expected - set(result['metrics']))}, extra "
              f"{sorted(set(result['metrics']) - expected)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
