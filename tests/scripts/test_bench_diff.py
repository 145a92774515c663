#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py (the BENCH_*.json comparator).
Run by ctest as `test_bench_diff`; stdlib only.

bench_diff.py must refuse (exit 2) to compare captures that measure
different systems: a different scheduler, or a host with a different
core count. A capture diffed against itself must come out clean.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "scripts", "bench_diff.py")


def capture(host_cores=4, scheduler="prompt", p99_ms=1.5):
    return {
        "date": "2026-01-01T00:00:00Z",
        "git_sha": "abc1234",
        "host_cores": host_cores,
        "scheduler": scheduler,
        "build_flags": {"ICILK_HOOKS": "ON", "ICILK_SANITIZE": "OFF"},
        "fig1": [{"scheduler": "prompt", "rps": 2000, "p99_ms": p99_ms,
                  "completed": 2000}],
        "micro_sched_hotpath": [{"mode": "get_ready", "ns_per_op": 4.0}],
    }


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_diff(self, old, new):
        return subprocess.run([sys.executable, SCRIPT, old, new],
                              capture_output=True, text=True, timeout=30)

    def test_host_cores_mismatch_is_refused(self):
        old = self.write("old.json", capture(host_cores=1))
        new = self.write("new.json", capture(host_cores=4))
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("host_cores mismatch", r.stderr)
        self.assertNotIn("REGRESSION", r.stdout)

    def test_scheduler_mismatch_is_refused(self):
        old = self.write("old.json", capture(scheduler="prompt"))
        new = self.write("new.json", capture(scheduler="multiqueue"))
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("scheduler mismatch", r.stderr)

    def test_identical_captures_self_diff_clean(self):
        path = self.write("same.json", capture())
        r = self.run_diff(path, path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK: no regressions", r.stdout)

    def test_matching_captures_still_flag_regressions(self):
        old = self.write("old.json", capture(p99_ms=1.0))
        new = self.write("new.json", capture(p99_ms=3.0))
        r = self.run_diff(old, new)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)


if __name__ == "__main__":
    unittest.main()
