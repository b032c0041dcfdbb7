"""Tests for perfbench/run.py's result handling.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import pathlib
import sys
import unittest
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def result(**over):
    r = {"correct": True, "attempted": 10, "failed": 0,
         "metrics": {"throughput_tps": {"value": 1.5, "unit": "tuples/s"}}}
    r.update(over)
    return json.dumps(r)


class FakeProc:
    """Stands in for the benchmark binary: fixed stdout and exit code."""

    def __init__(self, stdout, returncode):
        self._stdout = stdout
        self.returncode = returncode
        self.pid = 0

    def communicate(self, timeout=None):
        return self._stdout, None


class CheckResultTest(unittest.TestCase):
    def test_accepts_a_well_formed_correct_result(self):
        parsed, problem = run.check_result(result())
        self.assertIsNone(problem)
        self.assertEqual(parsed["attempted"], 10)

    def test_rejects_malformed_lines(self):
        for line in ("", "not json", "[1]", json.dumps({"correct": True}),
                     result(attempted=0), result(attempted=1.5),
                     result(failed="x"), result(metrics={})):
            _, problem = run.check_result(line)
            self.assertIsNotNone(problem, line)

    def test_flags_an_incorrect_run(self):
        parsed, problem = run.check_result(result(correct=False))
        self.assertIsNotNone(parsed)
        self.assertIn("correct = false", problem)


class RunTimeoutTest(unittest.TestCase):
    def test_timeout_grows_with_the_measured_window(self):
        # Seven rounds plus re-runs of disturbed rounds must fit at any
        # --seconds, so the limit scales with it.
        for seconds in (1, 21, 60, 150):
            self.assertGreater(run.run_timeout_s(seconds), 2 * seconds + 30)


class RunExitCodeTest(unittest.TestCase):
    def exit_code(self, stdout, returncode):
        args = mock.Mock(workload="local_openloop", seed=1, seconds=1,
                         trace=0)
        with mock.patch.object(run.subprocess, "Popen",
                               return_value=FakeProc(stdout, returncode)), \
                mock.patch.object(run, "source_sha", return_value="x"), \
                mock.patch("sys.stdout"), mock.patch("sys.stderr"):
            return run.run(args)

    def test_correct_run_exits_zero(self):
        self.assertEqual(self.exit_code("log\n" + result() + "\n", 0), 0)

    def test_exact_zero_run_exits_non_zero(self):
        # The binary reports exact = 0 as correct = false and exits 1.
        line = result(correct=False, metrics={
            "exact": {"value": 0, "unit": "0/1"}})
        self.assertNotEqual(self.exit_code(line + "\n", 1), 0)
        # Even if the exit code were lost, the result line still fails it.
        self.assertNotEqual(self.exit_code(line + "\n", 0), 0)

    def test_generator_lag_failure_exits_non_zero(self):
        out = ("FAILED: generator lag p99 9.000 ms exceeds its 5.000 ms "
               "limit\n" + result(correct=False) + "\n")
        self.assertNotEqual(self.exit_code(out, 1), 0)

    def test_missing_result_line_exits_non_zero(self):
        self.assertNotEqual(self.exit_code("crashed\n", 0), 0)


if __name__ == "__main__":
    unittest.main()
