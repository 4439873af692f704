#!/usr/bin/env python3
"""Steadiness check: runs one workload K times, each with another seed, and
prints each metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds N] [--trace 0|1]

Spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). A metric is steady when its spread is
below a third of its bound (BENCHMARK.json); setup_s is exempt from the
spread rule. The exit code is 1 when any run fails or any bounded metric is
not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def parse_args(argv):
    parser = bench.StrictParser(prog="steady.py")
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--runs", type=positive_int, default=10)
    parser.add_argument("--first-seed", type=bench.non_negative_int, default=1)
    parser.add_argument("--seconds", type=bench.seconds_int, default=None)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    return parser.parse_args(argv)


def positive_int(text):
    if not text.isdigit() or not 2 <= int(text) <= 100:
        raise argparse.ArgumentTypeError(f"not an integer in [2, 100]: {text!r}")
    return int(text)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main(argv):
    try:
        args = parse_args(argv)
    except bench.ArgumentError as e:
        print(f"steady.py: {e}", file=sys.stderr)
        return 2
    spec = bench.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace == "1" else "end_to_end"
    values = {entry["name"]: [] for entry in spec[section]}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        line = last_json_line(proc.stdout)
        if proc.returncode != 0 or line is None or not line["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        for name, metric in line["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in line["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for entry in spec[section]:
        name, vals = entry["name"], values[entry["name"]]
        if len(vals) < 2:
            print(f"{name:28} (fewer than two values)")
            ok = False
            continue
        median, q1, q3, s = spread(vals)
        bound = entry.get("bound")
        verdict = ""
        if bound is not None:
            steady = s < bound / 3
            verdict = "steady" if steady else ("EXEMPT" if name == "setup_s" else "NOT STEADY")
            ok &= steady or name == "setup_s"
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} "
              f"{bound if bound is not None else '':>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
