#!/usr/bin/env python3
"""Transparency tests of the perfbench tracing: the benchmark's own tests.

    python3 perfbench/tests.py

For every workload, at the default seed:
  * the traced and the untraced run emit a byte-identical `run` JSONL record
    (the timing decorators do not change the simulation);
  * the standalone fill replica serializes (Ssd::save_state) to exactly the
    simulator's own post-precondition state: for the single-SSD workloads the
    snapshot the run publishes to an attached in-memory SnapshotCache, fetched
    by its precondition fingerprint; for the array, every device of a
    zero-length run.
"""

import subprocess
import sys
import unittest

import run

SEED = 1


class Transparency(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def runner_output(self, workload, mode):
        proc = subprocess.run([str(self.binary), f"--workload={workload}", f"--seed={SEED}",
                               f"--mode={mode}"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout.strip().splitlines()[-1]

    def test_traced_run_record_is_byte_identical(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = run.run_record_text(self.runner_output(workload, "plain"))
                traced = run.run_record_text(self.runner_output(workload, "traced"))
                self.assertTrue(plain.startswith('{"type":"run"'), plain[:80])
                self.assertEqual(plain, traced)

    def test_fill_replica_serializes_like_the_simulator(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertIn('"identical":true', self.runner_output(workload, "fillcheck"))


if __name__ == "__main__":
    sys.exit(unittest.main())
