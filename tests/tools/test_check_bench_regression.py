#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py.

The gate's contract — median-of-N bench telemetry vs the committed
baseline, 25% threshold, hard errors on malformed telemetry — is
exercised against a fake bench executable whose reported keyswitch
histogram mean the test controls per invocation, so no real benchmark
(or quiet machine) is needed.

Run directly (python3 tests/tools/test_check_bench_regression.py) or
through the `check_bench_regression_selftest` ctest entry.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO / "tools" / "check_bench_regression.py"
METRIC = "ckks.time.keyswitch.ns"

# The fake bench: honors --telemetry-json=PATH exactly like
# bench_kernels, reporting the next mean from its schedule file (one
# float per line; the last line repeats forever). The entry "crash"
# makes it exit nonzero; "null" emits telemetry without the keyswitch
# metric; "empty" emits the metric with count == 0.
FAKE_BENCH = r'''#!/usr/bin/env python3
import json, sys
from pathlib import Path

here = Path(__file__).resolve().parent
schedule = (here / "schedule.txt").read_text().split()
cursor_file = here / "cursor.txt"
cursor = int(cursor_file.read_text()) if cursor_file.exists() else 0
entry = schedule[min(cursor, len(schedule) - 1)]
cursor_file.write_text(str(cursor + 1))

out = None
for arg in sys.argv[1:]:
    if arg.startswith("--telemetry-json="):
        out = arg.split("=", 1)[1]
assert out is not None, "bench invoked without --telemetry-json"

if entry == "crash":
    sys.stderr.write("bench exploded\n")
    sys.exit(7)
if entry == "null":
    doc = {"histograms": {}}
elif entry == "empty":
    doc = {"histograms": {"ckks.time.keyswitch.ns":
                          {"count": 0, "mean": 0.0}}}
else:
    doc = {"histograms": {"ckks.time.keyswitch.ns":
                          {"count": 100, "mean": float(entry)}}}

# Execution-identity stamp, mirroring bench_kernels: identity.txt (one
# counter name per line) controls the bench.backend.* / bench.simd.*
# counters the run reports.
identity_file = here / "identity.txt"
if identity_file.exists():
    doc["counters"] = {name: 1 for name in
                       identity_file.read_text().split()}
# Doc-level batch-size stamp, mirroring bench_throughput's JSON.
batch_file = here / "batch.txt"
if batch_file.exists():
    doc["batch_size"] = int(batch_file.read_text())
Path(out).write_text(json.dumps(doc))
'''


class CheckBenchRegressionTest(unittest.TestCase):
    BASELINE_MEAN = 1_000_000.0  # 1 ms

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="fxhenn-gate-")
        self.tmp = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)
        self.bench = self.tmp / "fake_bench"
        self.bench.write_text(FAKE_BENCH)
        os.chmod(self.bench, 0o755)
        self.baseline = self.tmp / "baseline.json"
        self.write_baseline(count=100, mean=self.BASELINE_MEAN)

    def write_baseline(self, count, mean, metric=METRIC,
                       identity=(), batch_size=None, batch_sizes=None):
        doc = {"histograms": {metric: {"count": count, "mean": mean}}}
        if identity:
            doc["counters"] = {name: 1 for name in identity}
        if batch_size is not None:
            doc["batch_size"] = batch_size
        if batch_sizes is not None:
            doc["batch_sizes"] = batch_sizes
        self.baseline.write_text(json.dumps(doc))

    def stamp_bench_identity(self, *names):
        (self.tmp / "identity.txt").write_text("\n".join(names))

    def stamp_bench_batch_size(self, batch_size):
        (self.tmp / "batch.txt").write_text(str(batch_size))

    def schedule(self, *entries):
        (self.tmp / "schedule.txt").write_text(
            "\n".join(str(e) for e in entries))
        cursor = self.tmp / "cursor.txt"
        if cursor.exists():
            cursor.unlink()

    def run_gate(self, *extra):
        return subprocess.run(
            [sys.executable, str(CHECKER), "--bench", str(self.bench),
             "--baseline", str(self.baseline), "--runs", "3", *extra],
            capture_output=True, text=True)

    def test_improvement_passes(self):
        self.schedule(self.BASELINE_MEAN * 0.6)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK: within threshold", proc.stdout)

    def test_small_regression_within_threshold_passes(self):
        self.schedule(self.BASELINE_MEAN * 1.10)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK: within threshold", proc.stdout)

    def test_large_regression_fails(self):
        self.schedule(self.BASELINE_MEAN * 1.50)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("FAIL: keyswitch mean regressed", proc.stdout)

    def test_median_shrugs_off_one_noisy_run(self):
        # One scheduler-noise outlier among three runs must not trip
        # the gate: that is the whole point of median-of-N.
        self.schedule(self.BASELINE_MEAN,
                      self.BASELINE_MEAN * 5.0,
                      self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_median_still_catches_consistent_regression(self):
        self.schedule(self.BASELINE_MEAN * 2.0,
                      self.BASELINE_MEAN,
                      self.BASELINE_MEAN * 2.0)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_tighter_threshold_is_honored(self):
        self.schedule(self.BASELINE_MEAN * 1.10)
        proc = self.run_gate("--threshold", "0.05")
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_missing_metric_in_baseline_is_an_error(self):
        self.write_baseline(count=100, mean=1.0, metric="other.metric")
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn(f"has no '{METRIC}' histogram", proc.stderr)

    def test_missing_metric_in_bench_output_is_an_error(self):
        self.schedule("null")
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn(f"has no '{METRIC}' histogram", proc.stderr)

    def test_zero_sample_histogram_is_an_error(self):
        self.schedule("empty")
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("recorded zero samples", proc.stderr)

    def test_missing_bench_binary_is_an_error(self):
        proc = subprocess.run(
            [sys.executable, str(CHECKER), "--bench",
             str(self.tmp / "does-not-exist"),
             "--baseline", str(self.baseline)],
            capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("not found", proc.stderr)

    def test_bench_failure_propagates(self):
        self.schedule("crash")
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("exited with 7", proc.stderr)

    def test_matching_execution_identity_passes(self):
        self.write_baseline(
            count=100, mean=self.BASELINE_MEAN,
            identity=("bench.backend.cpu", "bench.simd.avx2"))
        self.stamp_bench_identity("bench.backend.cpu",
                                  "bench.simd.avx2")
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK: within threshold", proc.stdout)

    def test_cross_backend_comparison_is_refused(self):
        # A baseline stamped bench.backend.cpu must never gate a run
        # stamped with another backend identity — the means measure
        # different code paths, so the gate hard-errors instead of
        # comparing.
        self.write_baseline(
            count=100, mean=self.BASELINE_MEAN,
            identity=("bench.backend.cpu", "bench.simd.avx2"))
        self.stamp_bench_identity("bench.backend.other",
                                  "bench.simd.avx2")
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to compare across execution "
                      "identities", proc.stderr)

    def test_cross_simd_comparison_is_refused(self):
        self.write_baseline(
            count=100, mean=self.BASELINE_MEAN,
            identity=("bench.backend.cpu", "bench.simd.avx2"))
        self.stamp_bench_identity("bench.backend.cpu",
                                  "bench.simd.scalar")
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to compare across execution "
                      "identities", proc.stderr)

    def test_unstamped_baseline_vs_stamped_run_is_refused(self):
        self.stamp_bench_identity("bench.backend.cpu")
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("(unstamped)", proc.stderr)

    def test_cross_batch_size_comparison_is_refused(self):
        # Per-request means taken at different slot-batch sizes measure
        # different ciphertext packings: a B = 1 baseline must never
        # gate a B = 16 run.
        self.write_baseline(count=100, mean=self.BASELINE_MEAN,
                            batch_size=1)
        self.stamp_bench_batch_size(16)
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to compare across execution "
                      "identities", proc.stderr)
        self.assertIn("bench.batch_size.", proc.stderr)

    def test_matching_batch_size_passes(self):
        self.write_baseline(count=100, mean=self.BASELINE_MEAN,
                            batch_size=4)
        self.stamp_bench_batch_size(4)
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK: within threshold", proc.stdout)

    def test_doc_level_batch_sizes_list_folds_into_identity(self):
        # The throughput baseline records the whole sweep as a
        # "batch_sizes" list; an unbatched run cannot gate against it.
        self.write_baseline(count=100, mean=self.BASELINE_MEAN,
                            batch_sizes=[1, 4, 16])
        self.schedule(self.BASELINE_MEAN)
        proc = self.run_gate()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to compare across execution "
                      "identities", proc.stderr)

    def test_committed_baseline_is_stamped_with_cpu_backend(self):
        # The committed BENCH_kernels.json must carry the identity
        # stamp (cpu backend), or the identity guard would refuse every
        # comparison against freshly-built benches.
        committed = REPO / "BENCH_kernels.json"
        doc = json.loads(committed.read_text())
        self.assertIn("bench.backend.cpu", doc.get("counters", {}))
        self.assertTrue(any(
            name.startswith("bench.simd.")
            for name in doc.get("counters", {})))

    def test_committed_baseline_has_the_gated_metric(self):
        # The real BENCH_kernels.json must stay consumable by the gate:
        # the metric present with nonzero samples.
        committed = REPO / "BENCH_kernels.json"
        doc = json.loads(committed.read_text())
        hist = doc["histograms"][METRIC]
        self.assertGreater(hist["count"], 0)
        self.assertGreater(hist["mean"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
