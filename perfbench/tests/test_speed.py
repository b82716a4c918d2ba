"""Speedometer: interval means, pinning, stopping, and the adjusted metrics."""

from __future__ import annotations

import math
import os
import time

import pytest

import checks
import run
import speed


def test_slowdown_is_the_mean_probe_time_inside_the_interval_over_the_reference():
    meter = speed.Speedometer(speed.attempt_cpu())
    ref = speed.REFERENCE_S
    meter.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (9.0, 100 * ref)]
    assert meter.slowdown(1.5, 3.0) == pytest.approx(3.0)
    assert meter.slowdown(0.0, 3.5) == pytest.approx((1 + 2 + 4) / 3)
    assert meter.slowdown(4.0, 8.0) is None


def test_probe_thread_samples_on_its_core_and_stops():
    cpu = speed.attempt_cpu()
    start = time.perf_counter()
    with speed.Speedometer(cpu) as meter:
        time.sleep(0.3)
        assert os.sched_getaffinity(meter._thread.native_id) == {cpu}
    assert not meter._thread.is_alive()
    assert len(meter.samples) >= 2
    factor = meter.slowdown(start, time.perf_counter())
    assert factor is not None and factor > 0


def test_end_to_end_times_are_medians_at_the_reference_speed():
    def attempt(wall, slowdown):
        return run.Attempt(wall, wall - 0.5, 100.0, 0, checks.Verdict(attempted=1),
                           setup_s=1.0, slowdown=slowdown)

    e2e = run.end_to_end([attempt(10.0, 1.0), attempt(30.0, 1.5), attempt(13.2, 1.2)])
    assert e2e["wall_s"] == pytest.approx(11.0)
    assert e2e["cpu_s"] == pytest.approx(12.7 / 1.2)
    assert e2e["setup_s"] == pytest.approx(1.0 / 1.2)
    assert e2e["ok_frac"] == 1.0
    assert math.isnan(run.end_to_end([attempt(10.0, None)])["wall_s"])
