#!/usr/bin/env python3
"""Tests of the benchmark's own correctness gate.

    python3 perfbench/test_run.py

Runs perfbench/run.py's main() on the ubfuzz workload for one round
(building perfbench/ first if needed): once as shipped on a seed other
than the default, which must pass, and once each with a deliberately
wrong pinned finding digest and wrong pinned harden counters, which
must fail the run with exit code 1 and "correct": false.
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ARGV = ["run.py", "--workload", "ubfuzz", "--seed", "7", "--seconds", "1",
        "--trace", "0"]


def run_bench():
    """Call run.main() as the command line would; return (code, result,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ARGV), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main()
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return code, result, err.getvalue()


class CorrectnessGate(unittest.TestCase):
    def assert_run_fails(self, because):
        code, result, stderr = run_bench()
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["unit_success_ratio"]["value"], 1)
        self.assertIn(because, stderr)

    def test_pinned_checks_pass_on_another_seed(self):
        code, result, stderr = run_bench()
        self.assertEqual(code, 0, stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["unit_success_ratio"]["value"],
                         1.0)

    def test_wrong_pinned_digest_fails_the_run(self):
        with mock.patch.dict(run.PINNED_DIGESTS,
                             {"ubfuzz": "0123456789abcdef"}):
            self.assert_run_fails("finding digest")

    def test_wrong_pinned_harden_counters_fail_the_run(self):
        wrong = dict(run.NO_HARDENING, faultsInjected=1)
        with mock.patch.dict(run.PINNED_HARDEN, {"ubfuzz": wrong}):
            self.assert_run_fails("harden counters")


if __name__ == "__main__":
    unittest.main()
