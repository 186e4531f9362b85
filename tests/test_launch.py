"""Tests for target-app launch detection (Section 3.2)."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.launch import IDLE_POLL_INTERVAL_S, LaunchDetector
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler
from repro.gpu.timeline import COUNTER_ORDER
from tests import oracles
from tests.oracles import PcDelta, delta_batch, nonzero_deltas, sample_range


def launches(detector, batch):
    """Every launch ``detector`` confirms over the rows of ``batch``."""
    events = (detector.observe(batch, row) for row in range(len(batch)))
    return [event for event in events if event is not None]


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
    return delta_batch(nonzero_deltas(samples))


class TestLaunchDetector:
    def test_detects_the_launch(self, chase_model, launch_stream):
        detector = LaunchDetector(chase_model)
        events = launches(detector, launch_stream)
        assert events, "the app launch must be detected"
        assert events[0].t < 3.0, "detection must precede the credential typing"

    def test_idle_stream_triggers_nothing(self, chase_model, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(23))
        trace = device.compile([], end_time_s=5.0)
        # drop the initial render to simulate 'some other app idling'
        idle = oracles.without_label(trace.timeline, "initial")
        kgsl = open_kgsl(idle, clock=DeviceClock())
        sampler = PerfCounterSampler(
            kgsl, interval_s=IDLE_POLL_INTERVAL_S, rng=np.random.default_rng(24)
        )
        deltas = delta_batch(nonzero_deltas(sample_range(sampler, 0.0, 5.0)))
        detector = LaunchDetector(chase_model)
        assert launches(detector, deltas) == []

    def test_burst_without_confirmation_expires(self, chase_model, launch_stream, monkeypatch):
        monkeypatch.setattr(LaunchDetector, "CONFIRM_WINDOW_S", 0.0)
        detector = LaunchDetector(chase_model)
        assert launches(detector, launch_stream) == []

    def test_custom_threshold(self, chase_model, launch_stream):
        detector = LaunchDetector(chase_model)
        detector.burst_threshold = 1e12
        assert launches(detector, launch_stream) == []

    def test_empty_deltas_ignored(self, chase_model):
        detector = LaunchDetector(chase_model)
        assert detector.observe(delta_batch([PcDelta(t=1.0, prev_t=0.9, values={})]), 0) is None


class TestUnknownCounters:
    def test_an_unknown_counter_is_left_out_not_read_as_zero(self, chase_model):
        """A login-field change whose strongest counter was lost still
        confirms the launch; read as a change of 0, that counter would
        make it no field change at all."""
        field = next(label for label in chase_model.labels if label.startswith("field:"))
        centroid = chase_model.centroid(field)
        lost = COUNTER_ORDER[int(np.argmax(centroid / chase_model.scale))]
        values = {cid: int(round(v)) for cid, v in zip(COUNTER_ORDER, centroid.tolist())}
        threshold = int(LaunchDetector(chase_model).burst_threshold)
        burst = PcDelta(t=1.0, prev_t=0.75, values={COUNTER_ORDER[0]: threshold + 1})
        masked = PcDelta(
            t=1.25,
            prev_t=1.0,
            values={cid: v for cid, v in values.items() if cid != lost},
            missing=(lost,),
        )
        zeroed = PcDelta(t=1.25, prev_t=1.0, values={**values, lost: 0})
        assert launches(LaunchDetector(chase_model), delta_batch([burst, masked]))
        assert not launches(LaunchDetector(chase_model), delta_batch([burst, zeroed]))
