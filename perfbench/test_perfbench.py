"""Self-tests for the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the tests that need the binary build it
through run.py first.
"""
import copy
import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

END_TO_END = ["setup_s", "wall_s", "msgs_per_s", "payload_mib_per_s", "cpu_s",
             "peak_rss_mib", "minor_faults", "allocs"]


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units_follow_the_grammar(self):
        spec = run.load_spec()
        self.assertEqual(run.check_names(spec), [])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], END_TO_END)

    def test_grammar_rejects_bad_names(self):
        spec = {"workloads": [{"name": "_hidden"}],
                "end_to_end": [{"name": "x" * 65, "unit": "s"},
                               {"name": "ok", "unit": "bad unit"}],
                "per_layer": [{"name": "ok", "unit": "ns"}]}
        problems = run.check_names(spec)
        self.assertEqual(len(problems), 4, problems)


class GoldenCheck(unittest.TestCase):
    def test_recorded_values_pass_and_a_perturbed_value_fails(self):
        golden = run.load_golden()
        for workload in run.WORKLOADS:
            expected = golden["workloads"][workload]
            self.assertEqual(set(expected), {str(golden["default_seed"]),
                                             str(golden["heldout_seed"])})
            self.assertEqual(run.golden_mismatches(expected, expected), [])
            perturbed = copy.deepcopy(expected)
            seed, values = next(iter(perturbed.items()))
            key = sorted(values)[0]
            values[key] = values[key] + "1"
            self.assertEqual(len(run.golden_mismatches(expected, perturbed)), 1,
                             workload)

    def test_missing_seed_fails(self):
        self.assertEqual(len(run.golden_mismatches({"1": {"a": "1"}}, {})), 1)


class WithBinary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_stderr_counter_counts_and_summarises(self):
        proc = subprocess.run([self.binary, "--selftest-stderr", "1234"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(report["counted"], 1234)
        self.assertEqual(report["sample"], 3)
        self.assertIn("suppressed 1231 further stderr lines", proc.stderr)
        self.assertLess(len(proc.stderr.splitlines()), 10)

    def test_tiny_traced_run_reports_every_per_layer_metric(self):
        spec = run.load_spec()
        golden = run.load_golden()
        seeds = [golden["default_seed"], golden["heldout_seed"]]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                text, report = run.run_binary(self.binary, workload, 3, 0, 1, seeds,
                                              tiny=True)
                self.assertEqual(report["failed"], 0)
                self.assertTrue(report["deterministic"])
                metrics = run.select_metrics(spec, report, 1)
                self.assertEqual(len(metrics), len(spec["per_layer"]))
                for name, m in metrics.items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                self.assertTrue(any(line.startswith("attribution of wall_s")
                                    for line in text))
                # The replays use the datagram size and pending events the
                # workload's own repetitions measured.
                mix = [line for line in text if line.startswith("replay mix:")]
                self.assertEqual(len(mix), 1, text)
                self.assertNotIn(" 0.0 B per datagram", mix[0])

    def test_untraced_run_prints_no_per_layer_timings(self):
        spec = run.load_spec()
        _, report = run.run_binary(self.binary, "small_msgs", 3, 0, 0, [], tiny=True)
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertFalse(per_layer & set(report["metrics"]))
        self.assertEqual(set(run.select_metrics(spec, report, 0)), set(END_TO_END))


if __name__ == "__main__":
    unittest.main()
