"""Tests of the runner's accounting (which failures are excused, which times
count) and of the calibration's scaling.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

from harness import KNOWN, Calibration, Op, Runner  # noqa: E402


class Fake:
    """A workload of one setup and one operation `op`, whose calls are given."""

    def __init__(self, calls, check):
        self.calls, self.check = iter(calls), check

    def setup_op(self):
        return Op("setup", "setup_s", lambda: 1, lambda out: [])

    def ops(self, matrix, outputs):
        yield Op("op", "op_s", lambda: next(self.calls)(), self.check, reps=2)


def run(calls, check, rounds=1):
    runner = Runner(Fake(calls, check))
    for _ in range(rounds):
        runner.run_round()
    return runner


def ok(value):
    return lambda: value


def boom():
    raise RuntimeError("broken")


def test_known_fault_is_counted_but_excused():
    runner = run([ok(1), ok(1), ok(1), ok(1)], lambda out: [KNOWN + "off the optimum"], 2)
    assert runner.check() == (6, 4, {"op": [KNOWN + "off the optimum"]}, [])


def test_untagged_finding_is_unexpected():
    runner = run([ok(1), ok(1)], lambda out: [KNOWN + "off the optimum", "not on the simplex"])
    assert runner.check()[3] == ["op"]


def test_error_is_never_excused_and_its_time_is_left_out():
    runner = run([boom, ok(1)], lambda out: [KNOWN + "off the optimum"])
    attempted, failed, failures, unexpected = runner.check()
    assert (attempted, failed, unexpected) == (3, 2, ["op"])
    assert failures["op"][0] == "RuntimeError: broken"
    assert len(runner.records["op"].times[0]) == 1
    assert set(runner.timings()) == {"setup_s", "op_s"}


def test_metric_of_an_operation_that_never_returned_is_left_out():
    runner = run([boom, boom], lambda out: [])
    assert runner.check()[3] == ["op"]
    assert set(runner.timings()) == {"setup_s"}


def test_differing_repetition_is_unexpected():
    runner = run([ok(1), ok(2)], lambda out: [KNOWN + "off the optimum"])
    assert runner.check()[2]["op"][-1] == "1 repetitions gave a different output"
    assert runner.check()[3] == ["op"]


def test_raising_check_is_unexpected():
    def check(out):
        raise ValueError("cannot check")
    runner = run([ok(1), ok(1)], check)
    assert runner.check()[3] == ["op"]


def test_timing_is_the_median_of_the_calls():
    runner = run([ok(1)] * 6, lambda out: [], 3)
    runner.records["op"].times = [[3.0, 1.0], [2.0, 9.0], [4.0, 5.0]]
    assert runner.timings()["op_s"] == 3.5


def test_calibration_removes_its_samples_and_scales_by_those_around_the_call():
    cal = Calibration()
    cal.samples = [(0.0, 2e-3), (1.0, 2e-3), (1.2, 4e-3), (5.0, 1e-3)]
    # the call [0.9, 1.5] holds the samples at 1.0 and 1.2; the window
    # [0.4, 2.0] holds the same two, whose median is 3 ms
    (got,) = cal.scale([(0.9, 1.5)])
    assert got == pytest.approx((0.6 - 6e-3) * cal.REFERENCE_S / 3e-3)


def test_calibration_samples_while_started_and_not_after():
    cal = Calibration()
    cal.start()
    try:
        end = time.perf_counter() + 4 * cal.PERIOD_S
        while time.perf_counter() < end:
            pass
    finally:
        cal.stop()
    taken = len(cal.samples)
    time.sleep(2 * cal.PERIOD_S)
    assert taken >= 2 and len(cal.samples) == taken
