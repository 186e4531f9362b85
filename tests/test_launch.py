"""Tests for target-app launch detection (Section 3.2)."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.launch import IDLE_POLL_INTERVAL_S, LaunchDetector
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler
from tests.oracles import nonzero_deltas, sample_range


@pytest.fixture(scope="module")
def launch_stream(config):
    """Slow-poll deltas over a session that includes the app launch
    (initial full render at t=0) and subsequent typing."""
    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(21))
    events = [KeyPress(t=3.0 + 0.5 * i, char=c) for i, c in enumerate("abc")]
    trace = device.compile(events, end_time_s=6.0)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(
        kgsl, interval_s=IDLE_POLL_INTERVAL_S, rng=np.random.default_rng(22)
    )
    samples = sample_range(sampler, 0.0, 6.0)
    return nonzero_deltas(samples)


class TestLaunchDetector:
    def test_detects_the_launch(self, chase_model, launch_stream):
        detector = LaunchDetector(chase_model)
        events = [e for e in map(detector.observe, launch_stream) if e is not None]
        assert events, "the app launch must be detected"
        assert events[0].t < 3.0, "detection must precede the credential typing"

    def test_idle_stream_triggers_nothing(self, chase_model, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(23))
        trace = device.compile([], end_time_s=5.0)
        # drop the initial render to simulate 'some other app idling'
        frames = [f for f in trace.timeline.frames if f.label != "initial"]
        from repro.gpu.timeline import RenderTimeline

        idle = RenderTimeline()
        for frame in frames:
            idle.add(frame)
        kgsl = open_kgsl(idle, clock=DeviceClock())
        sampler = PerfCounterSampler(
            kgsl, interval_s=IDLE_POLL_INTERVAL_S, rng=np.random.default_rng(24)
        )
        deltas = nonzero_deltas(sample_range(sampler, 0.0, 5.0))
        detector = LaunchDetector(chase_model)
        assert [e for e in map(detector.observe, deltas) if e is not None] == []

    def test_burst_without_confirmation_expires(self, chase_model, launch_stream, monkeypatch):
        monkeypatch.setattr(LaunchDetector, "CONFIRM_WINDOW_S", 0.0)
        detector = LaunchDetector(chase_model)
        assert [e for e in map(detector.observe, launch_stream) if e is not None] == []

    def test_custom_threshold(self, chase_model, launch_stream):
        detector = LaunchDetector(chase_model)
        detector.burst_threshold = 1e12
        assert [e for e in map(detector.observe, launch_stream) if e is not None] == []

    def test_empty_deltas_ignored(self, chase_model):
        from repro.kgsl.sampler import PcDelta

        detector = LaunchDetector(chase_model)
        assert detector.observe(PcDelta(t=1.0, prev_t=0.9, values={})) is None
