#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

Runs each workload briefly on the unmodified program and expects a
correct result with no failed operation, then runs it again with a
fault armed through the program's robustness injector and expects the
output check to report failed operations. A check that cannot fail
would pass the second half too, so this test is what shows the check
is real.

    python3 perfbench/test_perfbench.py

Builds the benchmark the same way perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# (workload, fault spec): the fault fires once, on the first hit of
# its site after set-up and warm-up.
CASES = [
    ("mnist-b1", "evaluator.rescale:drop"),
    ("test5l-b16-serve", "ciphertext.limb:bitflip"),
    ("design", "dse.device:infeasible"),
]


def fxbench(binary, workload, trace, fault=None, seconds=1):
    cmd = [binary, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds),
           "--trace", str(trace),
           "--trace-dir", os.path.join(run.target_dir(), "perfbench-traces")]
    if fault:
        cmd += ["--fault", fault]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_clean_runs_pass(self):
        for workload, _ in CASES:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = fxbench(self.binary, workload, trace)
                    self.assertIsNone(run.check_result(result, bool(trace)))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_injected_fault_is_reported(self):
        for workload, fault in CASES:
            with self.subTest(workload=workload, fault=fault):
                result = fxbench(self.binary, workload, 0, fault)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_phase_with_nothing_passed_reports_no_latency(self):
        # The timed phase holds a single request (about 1 s each), and
        # the armed fault breaks it: with no passed sample there is no
        # latency to report, and the result must not look like a fast run.
        result = fxbench(self.binary, "mnist-b1", 0,
                         "evaluator.rescale:drop", seconds=0.1)
        self.assertFalse(result["correct"])
        self.assertNotIn("latency_p50_s", result["metrics"])
        self.assertNotIn("throughput_rps", result["metrics"])
        self.assertIsNotNone(run.check_result(result, False))

    def test_traced_mnist_counts_fc1_keyswitches(self):
        # `fxhenn plan --model mnist` lists 276 KeySwitch ops for Fc1.
        result = fxbench(self.binary, "mnist-b1", 1)
        metrics = result["metrics"]
        self.assertEqual(metrics["hecnn.layer.Fc1.keyswitches"]["value"], 276)
        for name in ("trace_overhead_frac", "trace.unattributed_frac"):
            self.assertIn(name, metrics)


if __name__ == "__main__":
    unittest.main()
