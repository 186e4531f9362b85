"""Statistical tests on the workload generators: the simulator's stochastic
knobs must actually produce the distributions they claim."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import AWAY_ACTIVITY_RATE_HZ, JITTER_SIGMA, VictimDevice
from repro.android.events import AppSwitchAway, AppSwitchBack, KeyPress
from repro.android.keyboard import KEYBOARDS
from repro.android.os_config import default_config
from repro.workloads.typing_model import (
    FAST_MAX_INTERVAL_S,
    MEDIUM_MAX_INTERVAL_S,
    VOLUNTEERS,
    TypingModel,
)


class TestDuplicationRates:
    @pytest.mark.parametrize("keyboard_name", ["gboard", "swift", "go"])
    def test_rate_matches_spec(self, keyboard_name):
        config = default_config(keyboard=KEYBOARDS[keyboard_name])
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(5))
        n = 500
        events = [KeyPress(t=0.6 + 0.5 * i, char="a") for i in range(n)]
        trace = device.compile(events, end_time_s=0.6 + 0.5 * n + 1)
        dups = sum(1 for f in trace.timeline.frames if f.label.startswith("press_dup"))
        expected = KEYBOARDS[keyboard_name].duplicate_popup_prob
        assert abs(dups / n - expected) < 0.05, keyboard_name

    def test_no_duplication_when_probability_zero(self):
        from repro.mitigations.popup_disable import config_with_popups_disabled

        config = config_with_popups_disabled(default_config())
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(6))
        events = [KeyPress(t=0.6 + 0.5 * i, char="a") for i in range(100)]
        trace = device.compile(events, end_time_s=52.0)
        assert not any(
            f.label.startswith("press_dup") for f in trace.timeline.frames
        )


class TestTypingDistributions:
    def test_tier_clamps_are_respected_in_sessions(self, rng):
        model = TypingModel(rng)
        for tier, (lo, hi) in (
            ("fast", (0.0, FAST_MAX_INTERVAL_S)),
            ("medium", (FAST_MAX_INTERVAL_S, MEDIUM_MAX_INTERVAL_S)),
        ):
            timings = model.timings(60, interval_range=model.speed_tier_range(tier))
            intervals = [
                b.start_s - a.start_s for a, b in zip(timings, timings[1:])
            ]
            # intervals can stretch slightly to avoid key overlap
            assert np.quantile(intervals, 0.9) <= hi + 0.06, tier

    def test_volunteers_produce_distinct_interval_medians(self):
        medians = []
        for v, profile in enumerate(VOLUNTEERS):
            rng = np.random.default_rng(100 + v)
            samples = [profile.sample_interval(rng) for _ in range(400)]
            medians.append(np.median(samples))
        assert np.std(medians) > 0.04, "volunteers must be heterogeneous"

    def test_duration_never_exceeds_interval_in_timings(self, rng):
        model = TypingModel(rng)
        timings = model.timings(80)
        for a, b in zip(timings, timings[1:]):
            assert a.start_s + a.duration_s <= b.start_s


class TestAwayActivity:
    def test_rate_approximates_spec(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(7))
        away_span = 60.0
        trace = device.compile(
            [AppSwitchAway(t=1.0), AppSwitchBack(t=1.0 + away_span + 0.5)],
            end_time_s=away_span + 3.0,
        )
        activity = [f for f in trace.timeline.frames if f.label == "other_app"]
        observed_rate = len(activity) / away_span
        assert abs(observed_rate - AWAY_ACTIVITY_RATE_HZ) < 1.0

    def test_away_frames_confined_to_away_interval(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(8))
        trace = device.compile(
            [AppSwitchAway(t=2.0), AppSwitchBack(t=10.0)], end_time_s=12.0
        )
        for frame in trace.timeline.frames:
            if frame.label == "other_app":
                assert 2.0 < frame.start_s < 10.2


class TestJitterStatistics:
    def test_press_jitter_matches_sigma(self, config):
        """Repeated renders of the same frame must spread according to the
        configured per-counter sigma."""
        from repro.gpu import counters as pc

        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(9))
        events = [KeyPress(t=0.6 + 0.5 * i, char="w") for i in range(300)]
        trace = device.compile(events, end_time_s=0.6 + 150.5)
        values = [
            f.increment.get(pc.RAS_8X4_TILES)
            for f in trace.timeline.frames
            if f.label == "press:w"
        ]
        values = np.array(values, dtype=float)
        rel_std = values.std() / values.mean()
        sigma = dict(JITTER_SIGMA)[pc.RAS_8X4_TILES.counter_id]
        assert 0.4 * sigma < rel_std < 2.5 * sigma

    def test_primitive_counts_are_exact(self, config):
        from repro.gpu import counters as pc

        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(10))
        events = [KeyPress(t=0.6 + 0.5 * i, char="w") for i in range(50)]
        trace = device.compile(events, end_time_s=27.0)
        prims = {
            f.increment.get(pc.VPC_PC_PRIMITIVES)
            for f in trace.timeline.frames
            if f.label == "press:w"
        }
        assert len(prims) == 1, "primitive counters carry no jitter"
