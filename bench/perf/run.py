#!/usr/bin/env python3
"""Build gisbench from source and run it.

Run from the root of the repository:

  python3 bench/perf/run.py --workload W --seed S --seconds T --trace 0|1
      Build, then run one workload; the last line of standard output is
      the result JSON (correct, attempted, failed, metrics).

  python3 bench/perf/run.py --repeat N --workload W --seed S [...]
      Run N times with seeds S, S+1, ... and print each metric's median,
      quartiles and spread (interquartile range over median) beside its
      bound in BENCHMARK.json.

  python3 bench/perf/run.py --smoke
      Run every workload in smoke mode, traced and untraced, and check
      that each prints exactly the metrics BENCHMARK.json declares, with
      their units, and that every output is correct.

Any other argument is passed to gisbench (see bench/perf/gisbench.ml).
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXE = os.path.join(ROOT, "_build", "default", "bench", "perf", "gisbench.exe")


def build():
    """Build gisbench with dune; exit 2, printing no result, if that fails."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./bench/perf/gisbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        print("run.py: building gisbench failed", file=sys.stderr)
        sys.exit(2)


def commit():
    # Only this checkout's own history; never a repository around it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    """Run gisbench, return (result JSON, wall seconds)."""
    start = time.monotonic()
    done = subprocess.run([EXE, "--commit", commit()] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run.py: gisbench {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1]), wall


def option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def without(args, name):
    """args minus option [name] and its value."""
    if name not in args:
        return args
    i = args.index(name)
    return args[:i] + args[i + 2:]


def repeat(n, args):
    bounds = {m["name"]: m.get("bound") for m in
              benchmark()["end_to_end"] + benchmark()["per_layer"]}
    seed = int(option(args, "--seed", "1"))
    args = without(args, "--seed")
    runs = []
    for i in range(n):
        result, wall = run_once(args + ["--seed", str(seed + i)])
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed + i}: correct={result['correct']} "
              f"failed={result['failed']} wall={wall:.1f}s {values}", file=sys.stderr)
        runs.append(result)
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  unit")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6}  {first['unit']}")
    if not all(r["correct"] for r in runs):
        sys.exit(1)


def smoke():
    spec = benchmark()
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "1", "--smoke",
                    "--trace", str(trace)]
            result, wall = run_once(args)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{w['name']} trace={trace}"
            if got != declared[trace]:
                problems.append(f"{label}: metrics {sorted(set(got.items()) ^ set(declared[trace].items()))}"
                                " differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
            print(f"{label}: {result['attempted']} ops, {wall:.2f}s", file=sys.stderr)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    build()
    if "--smoke" in args and "--workload" not in args:
        smoke()
    elif "--repeat" in args:
        repeat(int(option(args, "--repeat")), without(args, "--repeat"))
    else:
        sys.stdout.flush()
        sys.stderr.flush()
        os.execv(EXE, [EXE, "--commit", commit()] + args)


if __name__ == "__main__":
    main()
