#!/usr/bin/env python3
"""The repository's HTAP benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a source checkout. The script builds the engine and the
benchmark binary from source into .bench_build/perfbench (CMake, Release),
runs the workload as its own process in a fresh directory under .bench_run/,
prints a human-readable report and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`failed` counts operations that returned an error plus results the oracles
found wrong, so error_rate = failed / attempted. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, measured in a traced run. The exit code is 0 only when the
run is correct; an unknown workload, flag or value exits with 2.

Every workload reports every end-to-end metric. The role metrics map onto
each workload's own operations (README.md has the full definitions):

    workload      work_per_s          op_mean_us, op_p90_us
    ingest        rows inserted/s     insert
    olap_scan     rows scanned/s      Q4 scan
    htap_mixed    scanner rows/s      point read (Q2a + Q2b)
    tpcc_sharded  transactions/s      NewOrder

The report also prints each workload's figures under their own names
(insert_p99_us, scan_p90_ms, txn_per_s, ch_q1_p50_ms, ...).

--inject-fault corrupts one expected value of the workload's oracle; the run
must then report a wrong result and exit 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("ingest", "olap_scan", "htap_mixed", "tpcc_sharded")
RUN_TIMEOUT_S = 170


class ArgumentError(Exception):
    pass


class StrictParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, and accepts no abbreviations."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ArgumentError(message)


def parse_args(argv):
    parser = StrictParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=seconds_int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-fault", action="store_true")
    return parser.parse_args(argv)


def non_negative_int(text):
    if not text.isdigit() or int(text) > 2**32 - 1:
        raise argparse.ArgumentTypeError(f"not an integer in [0, 2^32): {text!r}")
    return int(text)


def seconds_int(text):
    if not text.isdigit() or not 1 <= int(text) <= 120:
        raise argparse.ArgumentTypeError(f"not an integer in [1, 120]: {text!r}")
    return int(text)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def build(target="perfbench"):
    """Configures (once) and builds `target`; the build log goes to stderr."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def parse_binary_output(stdout):
    """Returns the JSON object on the binary's last non-empty stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark binary printed nothing")
    result = json.loads(lines[-1])
    for key in ("ran", "header", "attempted", "failed", "wrong", "errors",
                "e2e", "named", "layers"):
        if key not in result:
            raise ValueError(f"benchmark result lacks {key!r}")
    return result


def result_line(result, spec, trace):
    """The final JSON line: the metrics BENCHMARK.json names for this mode."""
    section, source = ("per_layer", "layers") if trace else ("end_to_end", "e2e")
    metrics, problems = {}, list(result["errors"])
    for entry in spec[section]:
        name = entry["name"]
        measured = result[source].get(name)
        if measured is None:
            problems.append(f"metric {name} not measured")
            continue
        if measured["unit"] != entry["unit"]:
            problems.append(f"metric {name} in {measured['unit']}, expected {entry['unit']}")
        metrics[name] = {"value": measured["value"], "unit": entry["unit"]}
    failed = int(result["failed"]) + int(result["wrong"])
    correct = bool(result["ran"]) and not problems and failed == 0
    line = {"correct": correct, "attempted": max(1, int(result["attempted"])),
            "failed": failed, "metrics": metrics}
    return line, problems


def source_digest():
    """sha256 over the engine and benchmark sources (stands in for the git
    commit when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def filesystem_of(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 3 and path.startswith(fields[1]) and len(fields[1]) > len(best):
                    best, fstype = fields[1], f"{fields[2]} ({fields[0]} on {fields[1]})"
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_report(result, header, trace):
    print("# run header")
    for key, value in header.items():
        value = str(value).strip().replace("\n", " ")
        print(f"  {key}: {value}")
    print(f"# attempted {result['attempted']}  failed {result['failed']}  "
          f"wrong {result['wrong']}  error_rate "
          f"{(result['failed'] + result['wrong']) / max(1, result['attempted']):.6g}")
    for error in result["errors"]:
        print(f"# error: {error}")
    sections = [("end-to-end", "e2e"), ("workload figures", "named")]
    if trace:
        sections.append(("per-layer (traced run)", "layers"))
    for title, key in sections:
        print(f"# {title}")
        for name, metric in sorted(result[key].items()):
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")


def main(argv):
    try:
        args = parse_args(argv)
        spec = load_spec()
    except (ArgumentError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    trace = args.trace == "1"
    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    run_dir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--dir", run_dir]
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        result = parse_binary_output(proc.stdout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        if not trace:
            shutil.rmtree(run_dir, ignore_errors=True)

    header = dict(result["header"])
    header.update({
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "filesystem": filesystem_of(os.path.realpath(run_dir)),
        "python": platform.python_version(),
    })
    if trace:
        header["spans_file"] = os.path.relpath(os.path.join(run_dir, "spans.bin"), ROOT)
    print_report(result, header, trace)
    line, problems = result_line(result, spec, trace)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    if proc.returncode != 0 and line["correct"]:
        line["correct"] = False
        print(f"run.py: benchmark binary exited with {proc.returncode}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
