"""Tests for the device's timing machinery: power collapse, submit delay,
ripple press feedback, and the blink-timer reset semantics."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import (
    GPU_IDLE_COLLAPSE_S,
    WAKEUP_RENDER_S,
    VictimDevice,
)
from repro.android.events import KeyPress
from repro.android.os_config import default_config
from repro.mitigations.popup_disable import config_with_popups_disabled


def device(config, seed=0):
    return VictimDevice(config, app("chase"), rng=np.random.default_rng(seed))


class TestPowerCollapse:
    def test_cold_frame_pays_wakeup_latency(self, config):
        # two identical presses: the first after long idle (cold), the
        # second shortly after the first's frames (warm)
        trace = device(config, seed=1).compile(
            [KeyPress(t=2.0, char="a"), KeyPress(t=2.25, char="a")], end_time_s=3.2
        )
        presses = [f for f in trace.timeline.frames if f.label == "press:a"]
        cold, warm = presses[0], presses[1]
        assert cold.render_time_s > warm.render_time_s
        assert cold.render_time_s - warm.render_time_s == pytest.approx(
            WAKEUP_RENDER_S, rel=0.01
        )

    def test_collapse_threshold_behaviour(self, config):
        """Frames spaced below the collapse threshold stay warm."""
        trace = device(config, seed=2).compile(
            [KeyPress(t=1.0, char="a")], end_time_s=2.0
        )
        frames = sorted(trace.timeline.frames, key=lambda f: f.start_s)
        last_end = -1e9
        for frame in frames:
            gap = frame.start_s - last_end
            if 0 < gap <= GPU_IDLE_COLLAPSE_S and frame.label.startswith(("echo", "dismiss")):
                # warm frames: echo follows press within the threshold
                assert frame.render_time_s < WAKEUP_RENDER_S + 0.0012
            last_end = max(last_end, frame.end_s)


class TestSubmitDelay:
    def test_delay_varies_per_frame(self, config):
        trace = device(config, seed=3).compile(
            [KeyPress(t=0.6 + 0.4 * i, char="a") for i in range(8)], end_time_s=4.5
        )
        interval = config.display.frame_interval_s
        phases = {round(f.start_s % interval, 5) for f in trace.timeline.frames}
        assert len(phases) > 5, "submit delays must not quantize to a few phases"

    def test_delay_bounded(self, config):
        trace = device(config, seed=4).compile([KeyPress(t=0.6, char="a")], end_time_s=1.4)
        interval = config.display.frame_interval_s
        for frame in trace.timeline.frames:
            phase = frame.start_s % interval
            assert 0.0004 < phase < 0.0031


class TestRipplePressFeedback:
    def test_ripple_frames_are_key_independent(self):
        config = config_with_popups_disabled(default_config())
        trace = device(config, seed=5).compile(
            [KeyPress(t=0.6, char="q"), KeyPress(t=1.2, char="m")], end_time_s=2.2
        )
        presses = {f.label: f for f in trace.timeline.frames if f.label.startswith("press:")}
        q = presses["press:q"].increment.total
        m = presses["press:m"].increment.total
        assert abs(q - m) / max(q, m) < 0.05, "ripples must look alike across keys"

    def test_popup_frames_are_key_dependent(self, config):
        trace = device(config, seed=5).compile(
            [KeyPress(t=0.6, char="q"), KeyPress(t=1.2, char="m")], end_time_s=2.2
        )
        presses = {f.label: f for f in trace.timeline.frames if f.label.startswith("press:")}
        q = presses["press:q"].increment.total
        m = presses["press:m"].increment.total
        assert abs(q - m) / max(q, m) > 0.05

    def test_ripple_much_cheaper_than_popup(self):
        popup_cfg = default_config()
        ripple_cfg = config_with_popups_disabled(default_config())
        popup_trace = device(popup_cfg, seed=6).compile(
            [KeyPress(t=0.6, char="g")], end_time_s=1.4
        )
        ripple_trace = device(ripple_cfg, seed=6).compile(
            [KeyPress(t=0.6, char="g")], end_time_s=1.4
        )
        popup = next(f for f in popup_trace.timeline.frames if f.label == "press:g")
        ripple = next(f for f in ripple_trace.timeline.frames if f.label == "press:g")
        assert ripple.increment.total < 0.2 * popup.increment.total


class TestBlinkTimerReset:
    def test_no_blinks_during_fast_typing(self, config):
        events = [KeyPress(t=0.6 + 0.2 * i, char="a") for i in range(10)]
        trace = device(config, seed=7).compile(events, end_time_s=3.4)
        typing_window = (0.6, 0.6 + 0.2 * 10)
        blinks_mid_typing = [
            f
            for f in trace.timeline.frames
            if f.label.startswith("cursor_blink")
            and typing_window[0] + 0.1 < f.start_s < typing_window[1] - 0.05
        ]
        assert blinks_mid_typing == []

    def test_blinks_resume_after_idle(self, config):
        trace = device(config, seed=8).compile([KeyPress(t=0.6, char="a")], end_time_s=3.5)
        blinks = [
            f for f in trace.timeline.frames if f.label.startswith("cursor_blink")
        ]
        after_typing = [f for f in blinks if f.start_s > 1.1]
        assert len(after_typing) >= 4

    def test_first_blink_half_second_after_change(self, config):
        trace = device(config, seed=9).compile([KeyPress(t=1.0, char="a")], end_time_s=3.0)
        change_t = 1.0 + 0.08 + 0.03  # release + latency
        blinks = [
            f.start_s
            for f in trace.timeline.frames
            if f.label.startswith("cursor_blink") and f.start_s > change_t
        ]
        assert blinks
        assert 0.45 < blinks[0] - change_t < 0.56
