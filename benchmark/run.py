#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; compares two sets of runs.

One run of one workload (what BENCHMARK.json's command is given):
  python3 benchmark/run.py --workload adhoc --seed 1 --seconds 20 --trace 0
Every workload, optionally several seeds and the traced runs too:
  python3 benchmark/run.py [--seed N] [--runs K] [--seconds S] [--trace]
                           [--smoke] [--out DIR]
Two sets of runs (directories written by the form above), judged
against the bounds in BENCHMARK.json:
  python3 benchmark/run.py compare A/ B/

The program is built from this checkout's sources into build-bench/
(Release). A single run prints the result JSON as its last stdout line.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "adj_bench")
WORKLOADS = ["adhoc", "prepared", "serve-rw", "restart"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds adj_bench; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("run.py: no engine sources next to benchmark/; nothing to build")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", BUILD, "--target", "adj_bench",
                           "--parallel", jobs],
                          stdout=sys.stderr).returncode == 0


def run_one(workload, seed, seconds, trace, out, capture):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s seed %d timed out" % (workload, seed))
        return 1, ""
    return p.returncode, p.stdout or ""


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(args):
    seconds = 0.5 if args.smoke else args.seconds
    out = args.out or os.path.join(BUILD, "results")
    os.makedirs(out, exist_ok=True)
    ok = True
    for seed in range(args.seed, args.seed + args.runs):
        for trace in ([False, True] if args.trace else [False]):
            for workload in WORKLOADS:
                code, stdout = run_one(workload, seed, seconds, trace, out,
                                       True)
                lines = stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                if code != 0 or result is None or not result["correct"]:
                    log("FAILED: %s seed %d trace %d (exit %d)"
                        % (workload, seed, trace, code))
                    ok = False
                    continue
                name = "%s-seed%d-trace%d.json" % (workload, seed, int(trace))
                with open(os.path.join(out, name), "w") as f:
                    json.dump({"workload": workload, "seed": seed,
                               "trace": int(trace), "result": result}, f)
    log("results in %s" % out)
    return 0 if ok else 1


def load_runs(directory):
    """(workload, metric) -> list of values over the runs in `directory`."""
    values = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".spans.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            run = json.load(f)
        for metric, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(m["value"])
    return values


def summary(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, spec):
    """better | same | worse | unresolved for B against A, per the bound."""
    if len(a) < 5 or len(b) < 5:
        return "too-few-runs"
    if spec is None or "bound" not in spec:
        return "info"
    bound, lower = spec["bound"], spec["better"] == "lower"
    qa, qb = summary(a), summary(b)
    if qa[1] == 0:
        return "info"
    change = (qb[1] - qa[1]) / qa[1]
    gain = -change if lower else change
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if spread > bound:
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(dir_a, dir_b):
    bench = bench_spec()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_runs(dir_a), load_runs(dir_b)
    print("%-9s %-36s %12s %12s %25s %25s  %s" % (
        "workload", "metric", "median A", "median B", "quartiles A",
        "quartiles B", "verdict"))
    worse = False
    for key in sorted(set(a) & set(b)):
        qa, qb = summary(a[key]), summary(b[key])
        v = verdict(a[key], b[key], specs.get(key[1]))
        worse |= v == "worse"
        print("%-9s %-36s %12.6g %12.6g %12.6g..%-12.6g %12.6g..%-12.6g  %s"
              % (key[0], key[1], qa[1], qb[1], qa[0], qa[2], qb[0], qb[2], v))
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare A/ B/")
            return 2
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench_spec()["run_seconds"])
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    args.trace = args.trace == "1"
    if not build():
        log("run.py: build failed")
        return 1
    if args.workload:
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                          os.path.join(BUILD, "results"), False)
        return code
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
