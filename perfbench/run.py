#!/usr/bin/env python3
"""End-to-end benchmark of the RowHammer reproduction (see DESIGN.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build perfbench/ (CMake, Release) if needed, run one workload and
      print its result JSON as the last line of stdout.
  python3 perfbench/run.py --aa RUNS --workload NAME --seconds S [--seed N]
      Steadiness (A/A) mode: RUNS untraced runs on seeds N, N+1, ...;
      prints each metric's median, quartiles and IQR/median.
  python3 perfbench/run.py --self-test
      Build and run the benchmark's own self-tests.
  python3 perfbench/run.py --update-reference
      Rewrite reference_digests.txt from every input set of every
      workload at the default seed (an explicit act: say why in the
      change).

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the working directory.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_digests.txt")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175
INPUT_SETS = 8  # kInputRotation in src/workloads.hh


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configure (once) and build; build output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out


def run_workload(binary_dir, workload, seed, seconds, trace, echo=True,
                 extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    scratch = os.path.join(binary_dir, "run-%d" % os.getpid())
    traces = os.path.join(binary_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(binary_dir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE, "--scratch", scratch,
           "--trace-out",
           os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, []
    shutil.rmtree(scratch, ignore_errors=True)
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def steadiness(binary_dir, args):
    values = {}
    units = {}
    failed = 0
    for i in range(args.aa):
        seed = args.seed + i
        code, lines = run_workload(binary_dir, args.workload, seed,
                                   args.seconds, 0, echo=False)
        if code != 0 or not lines:
            sys.exit("perfbench: run on seed %d failed" % seed)
        result = json.loads(lines[-1])
        failed += result["failed"]
        summary = " ".join("%s=%.6g" % (k, v["value"])
                           for k, v in sorted(result["metrics"].items()))
        print("seed %d correct=%s %s" % (seed, result["correct"], summary))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("\n%-14s %12s %12s %12s %10s  (%d runs, %d failed ops)" %
          ("metric", "median", "q1", "q3", "iqr/med", args.aa, failed))
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-14s %12.6g %12.6g %12.6g %10.4f  %s" %
              (name, med, q1, q3, spread, units[name]))


def check_benchmark_names():
    """Every name in BENCHMARK.json is a legal metric/workload name."""
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]] + [
        m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in names if not re.fullmatch(r"[A-Za-z0-9_.-]+", n)]
    dup = sorted({n for n in names if names.count(n) > 1})
    if bad or dup:
        print("BENCHMARK.json: bad names %s, duplicates %s" % (bad, dup),
              file=sys.stderr)
        return 1
    print("BENCHMARK.json names ok (%d)" % len(names))
    return 0


def update_reference(binary_dir):
    lines = ["# Reference digests at seed %d: '<workload> <key> <fnv1a64>'."
             % DEFAULT_SEED,
             "# Regenerate with: python3 perfbench/run.py --update-reference"]
    workloads = [w["name"] for w in json.load(
        open(os.path.join(HERE, "..", "BENCHMARK.json")))["workloads"]]
    for w in workloads:
        code, out = run_workload(binary_dir, w, DEFAULT_SEED, 0, 0,
                                 echo=False,
                                 extra=["--min-batches", str(INPUT_SETS),
                                        "--digests", "1"])
        if code != 0:
            sys.exit("perfbench: %s failed" % w)
        lines += [l[len("digest "):] for l in out if l.startswith("digest ")]
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d digests to %s" % (len(lines) - 2, REFERENCE))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--aa", type=int, default=0,
                        help="steadiness mode: number of runs")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    binary_dir = build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(binary_dir, "perfbench_selftest")]).returncode
                 or check_benchmark_names())
    if args.update_reference:
        update_reference(binary_dir)
        return
    if not args.workload:
        parser.error("--workload is required")
    if args.aa:
        steadiness(binary_dir, args)
        return
    code, _ = run_workload(binary_dir, args.workload, args.seed,
                           args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
