#!/usr/bin/env python3
"""Builds the store benchmark from source and runs it.

One workload, as a comparison harness calls it:

    python3 perfbench/run.py --workload cold_lookup --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result; the exit code is
non-zero when an answer was wrong, a checked property failed, or the build
failed.

Steadiness mode repeats each workload with seeds seed, seed+1, ... and
prints, per metric, the median, the quartiles and the spread (interquartile
distance over the median):

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --repeat 10

Run from the root of the repository; the build goes to .bench_build/ and the
stores to .perfbench_run/, both under the working directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold_lookup", "warm_analytics", "served_lookup", "ingest_age"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def spread_report(workload, runs, trace):
    """Median, quartiles and relative spread of every metric over runs."""
    print(f"== {workload}: {len(runs)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"   failed/attempted: {', '.join(f'{s:.6f}' for s in shares)}")
    names = list(runs[0]["metrics"].keys())
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        rel = (q3 - q1) / med if med else 0.0
        if trace:
            shown = " ".join(f"{v:.6g}" for v in values)
            print(f"   {name:32s} {unit:7s} median {med:12.6g}  runs: {shown}")
        else:
            print(f"   {name:32s} {unit:7s} median {med:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {rel:7.2%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="one of " + ", ".join(WORKLOADS) + ", or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="steadiness mode: runs per workload, seeds seed..seed+N-1")
    args = ap.parse_args()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads) or args.repeat < 1:
        ap.error("unknown workload or bad --repeat")

    binary = build()
    if binary is None:
        return 1

    if len(workloads) == 1 and args.repeat == 1:
        code, result, _ = run_once(binary, workloads[0], args.seed,
                                   args.seconds, args.trace, echo=True)
        return code if result is not None else (code or 1)

    worst = 0
    summary = {}
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            code, result, out = run_once(binary, w, args.seed + i, args.seconds,
                                         args.trace, echo=False)
            if code != 0 or result is None:
                sys.stdout.write(out)
                log(f"perfbench: {w} seed {args.seed + i} failed (exit {code})")
                worst = worst or code or 1
                continue
            if i == 0:
                # One run's notes: the fingerprint, bases, self times.
                sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
            runs.append(result)
        if runs:
            spread_report(w, runs, args.trace)
            summary[w] = {name: statistics.median(
                r["metrics"][name]["value"] for r in runs)
                for name in runs[0]["metrics"]}
    print(json.dumps({"medians": summary}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
