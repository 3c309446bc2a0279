"""Tests of the host-speed gauge.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gauge  # noqa: E402


def test_normalise_takes_out_the_ticks_and_rescales_by_the_mean_gauge():
    ref = gauge.GAUGE_REF_S
    sampler = gauge.Sampler()
    sampler.edges = [ref] * 8
    assert sampler.normalise(3.0) == pytest.approx(3.0)
    # a host twice as slow throughout the step: half the host time, less the ticks
    sampler.edges = [2 * ref] * 8
    sampler.ticks = [1.5 * ref, 2.5 * ref]
    assert sampler.normalise(6.0 + 4 * ref) == pytest.approx(3.0)


def test_sampler_ticks_during_a_step_and_restores_the_signal_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with gauge.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * gauge.TICK_S:
            sum(range(1000))
    assert len(sampler.edges) == 2 * gauge.EDGE_RUNS
    assert 2 <= len(sampler.ticks) <= 4
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with gauge.Sampler(ticks=False) as quiet:
        time.sleep(2 * gauge.TICK_S)
    assert quiet.ticks == [] and len(quiet.edges) == 2 * gauge.EDGE_RUNS


def test_measure_does_fixed_work_and_imports_no_scmac():
    before = {name for name in sys.modules if name.split(".")[0] == "scmac"}
    assert gauge.measure() > 0
    assert {name for name in sys.modules if name.split(".")[0] == "scmac"} == before
