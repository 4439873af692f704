#!/usr/bin/env python3
"""Unit tests of the benchmark's scripts, plus the C++ statistics tests.

    python3 perfbench/test_perfbench.py

Covers strict argument handling, the parser of the benchmark binary's
output, the composition of the final result line, and the steadiness
arithmetic. The
percentile rule and the span self-time arithmetic live in C++ (stats.h);
their gtest binary is built and run here when GoogleTest is installed.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402
import steady  # noqa: E402


def binary_result(**overrides):
    result = {
        "ran": True, "header": {"nproc": "4"}, "attempted": 100, "failed": 0,
        "wrong": 0, "errors": [],
        "e2e": {"work_per_s": {"value": 12.5, "unit": "1/s"},
                "setup_s": {"value": 0.25, "unit": "s"}},
        "named": {}, "layers": {"scan.rows_merged": {"value": 7, "unit": "count"}},
    }
    result.update(overrides)
    return result


SPEC = {
    "end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                   {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "scan.rows_merged", "unit": "count", "better": "lower"}],
}


class ArgumentTest(unittest.TestCase):
    def test_accepts_the_contract_flags(self):
        args = bench.parse_args(["--workload", "ingest", "--seed", "3",
                                 "--seconds", "10", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("ingest", 3, 10, "1"))

    def test_rejects_unknown_workload_flag_and_values(self):
        base = ["--seed", "1", "--seconds", "10", "--trace", "0"]
        for argv in (["--workload", "scan"] + base,
                     ["--workload", "ingest"] + base + ["--scale", "2"],
                     ["--workload", "ingest", "--seed", "-1", "--seconds", "10", "--trace", "0"],
                     ["--workload", "ingest", "--seed", "1", "--seconds", "0", "--trace", "0"],
                     ["--workload", "ingest", "--seed", "1", "--seconds", "1.5", "--trace", "0"],
                     ["--workload", "ingest", "--seed", "1", "--seconds", "10", "--trace", "2"],
                     ["--workload", "ingest", "--seed", "1", "--seconds", "10"],
                     ["--work", "ingest"] + base):
            with self.assertRaises(bench.ArgumentError, msg=argv):
                bench.parse_args(argv)

    def test_main_exits_2_on_bad_arguments(self):
        self.assertEqual(bench.main(["--workload", "nope"]), 2)


class OutputParserTest(unittest.TestCase):
    def test_takes_the_last_nonempty_line(self):
        text = "progress\n" + json.dumps(binary_result()) + "\n\n"
        self.assertEqual(bench.parse_binary_output(text)["attempted"], 100)

    def test_rejects_missing_keys_and_empty_output(self):
        partial = binary_result()
        del partial["wrong"]
        with self.assertRaises(ValueError):
            bench.parse_binary_output(json.dumps(partial))
        with self.assertRaises(ValueError):
            bench.parse_binary_output("\n")
        with self.assertRaises(ValueError):
            bench.parse_binary_output("not json")


class ResultLineTest(unittest.TestCase):
    def test_untraced_line_carries_the_end_to_end_metrics(self):
        line, problems = bench.result_line(binary_result(), SPEC, trace=False)
        self.assertEqual(problems, [])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"], {"work_per_s": {"value": 12.5, "unit": "1/s"},
                                           "setup_s": {"value": 0.25, "unit": "s"}})

    def test_traced_line_carries_the_per_layer_metrics(self):
        line, _ = bench.result_line(binary_result(), SPEC, trace=True)
        self.assertEqual(list(line["metrics"]), ["scan.rows_merged"])

    def test_wrong_results_count_as_failed(self):
        line, _ = bench.result_line(binary_result(failed=1, wrong=2), SPEC, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 3)

    def test_missing_metric_or_unit_mismatch_is_incorrect(self):
        result = binary_result(e2e={"work_per_s": {"value": 1, "unit": "ms"}})
        line, problems = bench.result_line(result, SPEC, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(len(problems), 2)

    def test_binary_errors_make_the_run_incorrect(self):
        line, _ = bench.result_line(binary_result(errors=["p99 unsupported"]), SPEC,
                                    trace=False)
        self.assertFalse(line["correct"])


class SteadinessTest(unittest.TestCase):
    def test_spread_uses_statistics_quartiles(self):
        median, q1, q3, s = steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((median, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_benchmark_spec_matches_the_contract(self):
        spec = bench.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


class CppStatsTest(unittest.TestCase):
    def test_percentile_rule_and_self_time(self):
        try:
            binary = bench.build("perfbench_unit")
        except (RuntimeError, subprocess.CalledProcessError):
            self.skipTest("perfbench_unit not buildable (GoogleTest missing?)")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
