"""The host-speed probe: conversion to reference seconds, sampling, and
leaving the process's signal state and garbage collector as it found them."""

from __future__ import annotations

import gc
import signal
import time

import pytest

from perfbench.speed import (PROBE_EVERY_S, REFERENCE_PROBE_S, SpeedProbe,
                             probe_loop, reference_seconds, trimmed_mean)


def test_reference_seconds_removes_probe_time_and_scales_by_speed():
    # At the reference speed only the probes' own time is taken out.
    assert reference_seconds(1.0, 0.05, REFERENCE_PROBE_S) == pytest.approx(0.95)
    # A host half as fast reads twice the host seconds for the same work.
    assert reference_seconds(2.0, 0.10, 2 * REFERENCE_PROBE_S) == pytest.approx(0.95)


def test_trimmed_mean_drops_the_tails():
    samples = [1.0] * 8 + [0.0, 100.0]
    assert trimmed_mean(samples) == pytest.approx(1.0)


def test_probe_loop_allocates_nothing_the_collector_tracks():
    probe_loop()
    gc.disable()
    try:
        before = gc.get_count()[0]
        probe_loop()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_probe_samples_while_active_and_restores_the_signal_state():
    handler_before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        deadline = time.process_time() + 20 * PROBE_EVERY_S
        while time.process_time() < deadline:
            pass
    assert signal.getsignal(signal.SIGPROF) is handler_before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0 < probe.total_s < 20 * PROBE_EVERY_S
    assert min(probe.samples) <= probe.mean_s <= max(probe.samples)


def test_an_unsampled_interval_has_no_speed():
    with pytest.raises(RuntimeError):
        _ = SpeedProbe().mean_s
