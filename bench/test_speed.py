"""Tests of the benchmark's host-speed probe.

    python3 -m pytest bench/test_speed.py
"""

import signal
import time

import pytest

from speed import NOMINAL_KERNEL_S, SpeedProbe, normalise


def test_probe_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.05, edge_samples=2) as probe:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = len(probe.samples) - 4
    assert inside >= 3
    assert probe.inside_s == pytest.approx(sum(probe.samples[2:-2]))


def test_normalise_scales_by_the_mean_kernel_time():
    assert normalise(10.0, [NOMINAL_KERNEL_S]) == pytest.approx(10.0)
    assert normalise(10.0, [NOMINAL_KERNEL_S, 3 * NOMINAL_KERNEL_S]) == pytest.approx(5.0)
