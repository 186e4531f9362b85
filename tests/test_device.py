"""Tests for the victim device event compiler."""

import numpy as np
import pytest

from repro.android.apps import app
import repro.android.device as device_mod
from repro.android.device import (
    CURSOR_BLINK_S,
    GPU_IDLE_COLLAPSE_S,
    GroundTruthPress,
    VictimDevice,
)
from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    ViewNotificationShade,
)
from repro.android.keyboard import keyboard
from repro.android.os_config import DeviceConfig, default_config, phone
from repro.core.offline import OfflineTrainer
from repro.gpu.timeline import COUNTER_ORDER
from tests import oracles

#: The six (phone, keyboard, app) configurations the train benchmark cycles.
BENCH_CONFIGS = (
    ("oneplus8pro", "gboard", "chase"),
    ("oneplus7pro", "swift", "schwab"),
    ("galaxy_s21", "sogou", "amex"),
    ("oneplus9", "go", "fidelity"),
    ("pixel2", "grammarly", "experian"),
    ("lg_v30", "pinyin", "myfico"),
)


def device(config, target="chase", seed=0, **kw):
    return VictimDevice(config, app(target), rng=np.random.default_rng(seed), **kw)


def labels(trace, prefix=None):
    out = [f.label for f in trace.timeline.frames]
    if prefix is not None:
        out = [l for l in out if l.startswith(prefix)]
    return out


class TestKeyPressCompilation:
    def test_three_changes_per_press(self, config):
        """Paper Fig 3: popup appears, text echo, popup disappears."""
        trace = device(config, seed=1).compile([KeyPress(t=0.5, char="w")], end_time_s=1.2)
        assert labels(trace, "press:w")
        assert labels(trace, "echo:1")
        assert labels(trace, "dismiss:w")

    def test_press_order_in_time(self, config):
        trace = device(config, seed=1).compile([KeyPress(t=0.5, char="w")], end_time_s=1.2)
        frames = {f.label: f.start_s for f in trace.timeline.frames}
        assert frames["press:w"] < frames["echo:1"] < frames["dismiss:w"]

    def test_repeated_presses_same_increment(self, config):
        """Section 3.4: repetitive presses of the same key always produce
        (nearly) the same PC change; exact modulo the hardware jitter."""
        trace = device(config, seed=2).compile(
            [KeyPress(t=0.5, char="w"), KeyPress(t=1.5, char="w")], end_time_s=2.5
        )
        presses = [f for f in trace.timeline.frames if f.label == "press:w"]
        a, b = presses[0].increment.total, presses[1].increment.total
        assert abs(a - b) / a < 0.02

    def test_different_keys_different_increments(self, config):
        trace = device(config, seed=2).compile(
            [KeyPress(t=0.5, char="w"), KeyPress(t=1.5, char="n")], end_time_s=2.5
        )
        by_label = {f.label: f.increment.total for f in trace.timeline.frames}
        assert by_label["press:w"] != by_label["press:n"]

    def test_duplication_rate_close_to_keyboard_spec(self, config):
        dev = device(config, seed=3)
        events = [KeyPress(t=0.5 + i * 0.5, char="a") for i in range(400)]
        trace = dev.compile(events, end_time_s=0.5 + 400 * 0.5 + 1)
        dups = len(labels(trace, "press_dup"))
        rate = dups / 400
        assert abs(rate - config.keyboard.duplicate_popup_prob) < 0.06

    def test_unknown_key_rejected(self, config):
        with pytest.raises(KeyError):
            device(config).compile([KeyPress(t=0.5, char="€")], end_time_s=1.0)

    def test_ground_truth_records_presses(self, config):
        trace = device(config).compile(
            [KeyPress(t=0.5, char="a"), KeyPress(t=1.0, char="b")], end_time_s=2.0
        )
        assert trace.final_text == "ab"
        assert "".join(p.char for p in trace.presses) == "ab"


class TestBackspaceCompilation:
    def test_backspace_marks_deleted(self, config):
        trace = device(config).compile(
            [
                KeyPress(t=0.5, char="a"),
                KeyPress(t=1.0, char="b"),
                BackspacePress(t=1.6),
            ],
            end_time_s=2.5,
        )
        assert trace.final_text == "a"
        assert "".join(p.char for p in trace.presses) == "ab"
        assert labels(trace, "backspace:1")

    def test_backspace_on_empty_field_is_noop(self, config):
        trace = device(config).compile([BackspacePress(t=0.5)], end_time_s=1.0)
        assert not labels(trace, "backspace")
        assert trace.backspaces == []

    def test_backspace_shows_no_popup(self, config):
        trace = device(config).compile(
            [KeyPress(t=0.5, char="a"), BackspacePress(t=1.2)], end_time_s=2.0
        )
        press_frames = labels(trace, "press")
        assert press_frames == ["press:a"]


class TestCursorBlink:
    def test_blinks_at_half_second_cadence(self, config):
        trace = device(config, seed=4).compile([], end_time_s=5.0)
        blinks = [f for f in trace.timeline.frames if f.label.startswith("cursor_blink")]
        assert 7 <= len(blinks) <= 10
        gaps = [b.start_s - a.start_s for a, b in zip(blinks, blinks[1:])]
        assert all(abs(g - CURSOR_BLINK_S) < 0.05 for g in gaps)

    def test_blink_length_tracks_typing(self, config):
        trace = device(config, seed=4).compile(
            [KeyPress(t=0.8, char="a"), KeyPress(t=2.2, char="b")], end_time_s=4.0
        )
        blink_labels = labels(trace, "cursor_blink")
        lengths = [int(l.split(":")[1]) for l in blink_labels]
        assert lengths == sorted(lengths)
        assert lengths[-1] == 2


class TestSwitchesAndNoise:
    def test_switch_burst_frames_rapid_and_large(self, config):
        trace = device(config, seed=5).compile(
            [AppSwitchAway(t=1.0), AppSwitchBack(t=4.0)], end_time_s=6.0
        )
        away = [f for f in trace.timeline.frames if f.label.startswith("switch_away")]
        assert len(away) >= 8
        gaps = [b.start_s - a.start_s for a, b in zip(away, away[1:])]
        assert all(g < 0.05 for g in gaps)  # paper: "<50ms"
        typing_scale = max(
            (f.increment.total for f in trace.timeline.frames if f.label == "initial")
        )
        assert all(f.increment.total > typing_scale * 0.3 for f in away)

    def test_away_activity_generated(self, config):
        trace = device(config, seed=5).compile(
            [AppSwitchAway(t=1.0), AppSwitchBack(t=9.0)], end_time_s=10.0
        )
        assert labels(trace, "other_app")

    def test_blinks_suspended_while_away(self, config):
        trace = device(config, seed=5).compile(
            [AppSwitchAway(t=1.0), AppSwitchBack(t=8.0)], end_time_s=10.0
        )
        blinks = [f for f in trace.timeline.frames if f.label.startswith("cursor_blink")]
        in_away = [f for f in blinks if 1.5 < f.start_s < 7.5]
        assert not in_away

    def test_notification_frames(self, config):
        trace = device(config, seed=6).compile([NotificationArrival(t=1.0)], end_time_s=2.0)
        assert labels(trace, "notification")

    def test_shade_view_produces_two_bursts(self, config):
        trace = device(config, seed=6).compile([ViewNotificationShade(t=1.0)], end_time_s=4.0)
        assert len(labels(trace, "shade_down")) == 6
        assert len(labels(trace, "shade_up")) == 6


class TestAnimation:
    def test_pnc_renders_animation_frames(self, config):
        trace = device(config, target="pnc", seed=7).compile([], end_time_s=2.0)
        anim = labels(trace, "anim_")
        assert len(anim) > 30  # 30 fps for 2 seconds

    def test_chase_has_no_animation(self, config):
        trace = device(config, seed=7).compile([], end_time_s=2.0)
        assert not labels(trace, "anim_")


class TestRenderSlowdown:
    def test_slowdown_stretches_render_times(self, config):
        from repro.android.device import WAKEUP_RENDER_S

        fast = device(config, seed=8).compile([KeyPress(t=0.5, char="a")], end_time_s=1.5)
        slow = device(config, seed=8, render_slowdown=3.0).compile(
            [KeyPress(t=0.5, char="a")], end_time_s=1.5
        )
        f = next(fr for fr in fast.timeline.frames if fr.label == "press:a")
        s = next(fr for fr in slow.timeline.frames if fr.label == "press:a")
        # both presses pay at most one GPU wake-up; the base render is 3x
        base_fast = f.render_time_s
        base_slow = s.render_time_s
        assert base_slow > 2.0 * base_fast
        assert base_slow <= 3.0 * base_fast + WAKEUP_RENDER_S + 1e-9

    def test_invalid_slowdown_rejected(self, config):
        with pytest.raises(ValueError):
            device(config, render_slowdown=0.5)

    def test_frames_start_shortly_after_vsync(self, config):
        """GPU work begins a bounded submit delay after a vsync boundary."""
        trace = device(config, seed=9).compile([KeyPress(t=0.5, char="a")], end_time_s=1.2)
        interval = config.display.frame_interval_s
        for frame in trace.timeline.frames:
            phase = frame.start_s % interval
            assert 0.0004 < phase < 0.0031, frame.label


class OracleDevice(VictimDevice):
    """A victim whose scheduled frames materialize through the per-frame
    oracle: fresh renders, scalar jitter draws, one row at a time."""

    oracle_frames = 0

    def _materialize(self, timeline):
        self.oracle_frames += len(self._requests)
        oracles.materialize(self, timeline)


def jitter_events(config, target):
    """Presses far enough apart that the GPU collapses between them, a
    notification, and an app switch with random away activity."""
    chars = OfflineTrainer(config, app(target)).trainable_characters()[:6]
    events = [KeyPress(t=0.5 + 0.3 * i, char=c, duration=0.08) for i, c in enumerate(chars)]
    return events + [
        BackspacePress(t=2.45),
        NotificationArrival(t=2.9),
        AppSwitchAway(t=3.4),
        AppSwitchBack(t=4.6),
    ]


def compiled(cls, config, target, events, seed=31, **kw):
    return cls(config, app(target), rng=np.random.default_rng(seed), **kw).compile(
        events, end_time_s=6.0
    ).timeline


def assert_same_columns(ours, theirs):
    assert ours.labels == theirs.labels
    assert ours.starts.tolist() == theirs.starts.tolist()
    assert ours.durations.tolist() == theirs.durations.tolist()
    assert ours.amounts.tolist() == theirs.amounts.tolist()


class TestJitterLaw:
    """The session-wide jitter is the per-frame scalar law, draw for draw."""

    @pytest.mark.parametrize("cold_factor", [None, 3.0])
    @pytest.mark.parametrize("phone_name,keyboard_name,target", BENCH_CONFIGS)
    def test_timeline_matches_scalar_jitter(
        self, monkeypatch, phone_name, keyboard_name, target, cold_factor
    ):
        if cold_factor is not None:
            # make cold frames draw at their own scale, not the default 1
            monkeypatch.setattr(device_mod, "COLD_JITTER_FACTOR", cold_factor)
        config = DeviceConfig(phone=phone(phone_name), keyboard=keyboard(keyboard_name))
        events = jitter_events(config, target)
        ours = compiled(VictimDevice, config, target, events)
        oracle = OracleDevice(config, app(target), rng=np.random.default_rng(31))
        theirs = oracle.compile(events, end_time_s=6.0).timeline
        assert oracle.oracle_frames == len(theirs.starts) > 0
        assert_same_columns(ours, theirs)
        ends = np.maximum.accumulate(ours.ends)
        cold = int(np.count_nonzero(ours.starts[1:] - ends[:-1] > GPU_IDLE_COLLAPSE_S))
        assert 0 < cold < len(ours.starts) - 1

    def test_slowed_renders_match_the_oracle(self, config):
        events = jitter_events(config, "chase")
        ours = compiled(VictimDevice, config, "chase", events, render_slowdown=2.5)
        theirs = compiled(OracleDevice, config, "chase", events, render_slowdown=2.5)
        assert_same_columns(ours, theirs)

    def test_patched_sigma_moves_only_the_jittered_columns(self, config, monkeypatch):
        """The sigma in force when a session compiles is the one applied,
        also to frames rendered before it changed (what the substrate
        ablation bench relies on)."""
        events = jitter_events(config, "chase")
        before = compiled(VictimDevice, config, "chase", events)
        monkeypatch.setattr(
            device_mod,
            "JITTER_SIGMA",
            tuple((cid, sigma * 4.0) for cid, sigma in device_mod.JITTER_SIGMA),
        )
        device_mod._RENDER_CACHE.clear()
        after = compiled(VictimDevice, config, "chase", events)
        assert_same_columns(after, compiled(OracleDevice, config, "chase", events))
        sigmas = dict(device_mod.JITTER_SIGMA)
        jittered = np.array([cid in sigmas for cid in COUNTER_ORDER])
        moved = (before.amounts != after.amounts).any(axis=0)
        assert moved[jittered].all()
        assert not moved[~jittered].any()
        assert before.starts.tolist() == after.starts.tolist()
