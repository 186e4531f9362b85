"""The victim device: compiles user events into a GPU render timeline.

:class:`VictimDevice` is the heart of the substrate simulation.  Given a
device configuration, a foreground target app and a time-ordered event
list, it produces the exact sequence of GPU frame renders Android would
execute, including:

* the three PC value changes of each key press (popup appears / text echo
  / popup disappears, paper Fig 3), damage-clipped as the tiler would;
* popup-animation *duplication* frames (Section 5.1);
* cursor blinking at the fixed 0.5 s interval (Section 5.3);
* app-switch overview bursts with <50 ms inter-frame gaps (Section 5.2,
  Fig 13) and random activity while the user is in another app;
* login-screen animations for apps that have them (Section 9.3);
* notification-icon redraws (system noise).

The output is a :class:`SessionTrace` with the render timeline and the
ground truth needed to score the attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.android.apps import AppSpec
from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    UserEvent,
    ViewNotificationShade,
    sort_events,
)
from repro.android.geometry import Rect
from repro.android.layers import DrawOp, Layer, Scene
from repro.android.scenes import SceneBuilder, UiState
from repro.android.os_config import DeviceConfig
from repro.gpu import counters as pc
from repro.gpu.counters import CounterIncrement
from repro.gpu.pipeline import AdrenoPipeline, FrameStats
from repro.gpu.timeline import RenderTimeline

#: Touch-to-render latency before a press popup reaches the screen.
INPUT_LATENCY_S = 0.030
#: How long the popup lingers after the key is released before dismissal.
POPUP_LINGER_S = 0.060
#: Fixed cursor blink half-period (Section 5.3: "cursor blinking in most
#: systems has a fixed interval of 0.5 seconds").
CURSOR_BLINK_S = 0.5
#: Duration of the app-switch overview animation.
APP_SWITCH_ANIM_S = 0.35
#: Mean rate of screen-damaging activity while the user is in another app.
AWAY_ACTIVITY_RATE_HZ = 2.5

#: GPU power collapse: Adreno GPUs power down after this much render
#: idleness; the next frame pays a wake-up latency and renders with
#: noisier counters while clocks and DRAM retrain.  This is what makes
#: slow typing *harder* to eavesdrop (paper Fig 21): nearly every press
#: of a slow typist lands on a cold GPU.
GPU_IDLE_COLLAPSE_S = 0.12
#: Extra render latency of the first frame after power collapse.  The
#: longer render widens the window in which a counter read splits the
#: frame's increments — the slow-typing penalty is a split-rate effect,
#: not a counter-noise effect, so the cold jitter factor stays at 1.
WAKEUP_RENDER_S = 0.0015
#: Counter jitter multiplier for cold (post-collapse) frames.
COLD_JITTER_FACTOR = 1.0

#: Process-wide cache of rendered frame statistics.  Scene geometry is
#: fully determined by (device configuration, app, frame identity), and
#: experiment batches compile hundreds of sessions on the same
#: configuration, so pre-jitter render results are shared globally.
_RENDER_CACHE: dict = {}


@dataclass(frozen=True)
class _RenderRequest:
    """A frame scheduled during compilation, materialized in time order."""

    t: float
    cache_key: Optional[tuple]
    scene_fn: object
    label: str


@dataclass(frozen=True)
class GroundTruthPress:
    """One key press as it actually happened on the victim device."""

    t: float
    char: str
    deleted: bool = False


@dataclass
class SessionTrace:
    """Compiled session: render timeline plus scoring ground truth."""

    timeline: RenderTimeline
    config: DeviceConfig
    app: AppSpec
    presses: List[GroundTruthPress] = field(default_factory=list)
    backspaces: List[float] = field(default_factory=list)
    switch_intervals: List[Tuple[float, float]] = field(default_factory=list)
    end_time_s: float = 0.0

    @property
    def final_text(self) -> str:
        """The credential as submitted (backspaces applied)."""
        return "".join(p.char for p in self.presses if not p.deleted)


class VictimDevice:
    """One victim smartphone running the target app in the foreground."""

    def __init__(
        self,
        config: DeviceConfig,
        app: AppSpec,
        rng: Optional[np.random.Generator] = None,
        render_slowdown: float = 1.0,
    ) -> None:
        if render_slowdown < 1.0:
            raise ValueError("render_slowdown is a multiplier >= 1")
        self.config = config
        self.app = app
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.render_slowdown = render_slowdown
        self.builder = SceneBuilder(config)
        self.pipeline = AdrenoPipeline(config.gpu)
        self._requests: List[_RenderRequest] = []

    # ------------------------------------------------------------------

    def _vsync(self, t: float) -> float:
        return self.builder.display.next_vsync(t)

    def _slow(self, stats: FrameStats) -> FrameStats:
        if self.render_slowdown == 1.0:
            return stats
        return FrameStats(
            increment=stats.increment,
            pixels_touched=stats.pixels_touched,
            render_time_s=stats.render_time_s * self.render_slowdown,
        )

    #: Per-counter multiplicative jitter (sigma).  Primitive counts are
    #: exactly deterministic on real hardware; pixel/tile counts wobble a
    #: little with dithering and bin-walk order; cycle counters depend on
    #: DRAM timing and wobble the most.  This is what makes near-identical
    #: popups (',' vs '.') genuinely confusable, as in the paper's Fig 18.
    _JITTER_SIGMA = {
        "PERF_RAS_SUPERTILE_ACTIVE_CYCLES": 0.010,
        "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ": 0.0012,
        "PERF_RAS_8X4_TILES": 0.0010,
        "PERF_RAS_FULLY_COVERED_8X4_TILES": 0.0010,
        "PERF_LRZ_FULL_8X8_TILES": 0.0010,
        "PERF_LRZ_PARTIAL_8X8_TILES": 0.0010,
        "PERF_RAS_SUPER_TILES": 0.0016,
    }

    def _jitter(self, stats: FrameStats, factor: float = 1.0) -> FrameStats:
        values = dict(stats.increment.values)
        for spec in pc.SELECTED_COUNTERS:
            sigma = self._JITTER_SIGMA.get(spec.name)
            if not sigma:
                continue
            cid = spec.counter_id
            amount = values.get(cid, 0)
            if amount:
                noisy = int(
                    round(amount * (1.0 + float(self.rng.normal(0.0, sigma * factor))))
                )
                values[cid] = max(0, noisy)
        return FrameStats(
            increment=CounterIncrement(values=values),
            pixels_touched=stats.pixels_touched,
            render_time_s=stats.render_time_s,
        )

    def _render(self, timeline: RenderTimeline, t: float, scene, label: str) -> None:
        """Schedule an uncacheable (randomly generated) frame."""
        self._requests.append(
            _RenderRequest(t=t, cache_key=None, scene_fn=lambda s=scene: s, label=label)
        )

    def _render_cached(
        self, timeline: RenderTimeline, t: float, cache_key, scene_fn, label: str
    ) -> None:
        """Schedule a frame whose geometry is cacheable by identity."""
        self._requests.append(
            _RenderRequest(t=t, cache_key=cache_key, scene_fn=scene_fn, label=label)
        )

    def _base_stats(self, request: _RenderRequest) -> FrameStats:
        if request.cache_key is None:
            return self._slow(self.pipeline.render(request.scene_fn()))
        full_key = (
            self.config.config_key(),
            self.app.name,
            self.render_slowdown,
            request.cache_key,
        )
        stats = _RENDER_CACHE.get(full_key)
        if stats is None:
            stats = self._slow(self.pipeline.render(request.scene_fn()))
            _RENDER_CACHE[full_key] = stats
        return stats

    def _materialize(self, timeline: RenderTimeline) -> None:
        """Render all scheduled frames in chronological order, applying the
        GPU power-collapse model: a frame starting more than
        ``GPU_IDLE_COLLAPSE_S`` after the previous render finished pays a
        wake-up latency and renders with noisier counters."""
        last_end = -1e9
        for request in sorted(self._requests, key=lambda r: r.t):
            # GPU work starts after the CPU side records and submits the
            # frame — a fraction of a frame after vsync, varying per frame.
            # Without this, frame starts quantize to a handful of phases
            # relative to the attacker's sampling grid.
            submit_delay = float(self.rng.uniform(0.0005, 0.0030))
            start = self._vsync(request.t) + submit_delay
            stats = self._base_stats(request)
            cold = start - last_end > GPU_IDLE_COLLAPSE_S
            if cold:
                stats = FrameStats(
                    increment=stats.increment,
                    pixels_touched=stats.pixels_touched,
                    render_time_s=stats.render_time_s + WAKEUP_RENDER_S,
                )
            stats = self._jitter(stats, factor=COLD_JITTER_FACTOR if cold else 1.0)
            frame = timeline.add_render(start, stats, label=request.label)
            last_end = max(last_end, frame.end_s)
        self._requests = []

    # ------------------------------------------------------------------

    def compile(
        self,
        events: Sequence[UserEvent],
        end_time_s: float,
        launch_at_s: float = 0.0,
    ) -> SessionTrace:
        """Compile an event script into the session's render timeline.

        ``launch_at_s`` is when the target app launches (its cold-start
        full render); the screen is quiet before that, which is what the
        attack's idle watch (Section 3.2) keys on.
        """
        if launch_at_s < 0:
            raise ValueError("launch_at_s must be non-negative")
        if any(e.t <= launch_at_s for e in events):
            raise ValueError("events must happen after the app launch")
        ordered = sort_events(events)
        timeline = RenderTimeline()
        trace = SessionTrace(
            timeline=timeline, config=self.config, app=self.app, end_time_s=end_time_s
        )

        state = UiState(app=self.app)
        in_target = True
        away_since: Optional[float] = None
        anim_phase = 0

        # launch: cold-start full render of the login screen
        self._render_cached(
            timeline,
            launch_at_s,
            ("initial",),
            lambda: self.builder.damage_scene(state, self.builder.display.bounds),
            label="initial",
        )

        for event in ordered:
            if isinstance(event, KeyPress):
                state = self._compile_keypress(timeline, trace, state, event)
            elif isinstance(event, BackspacePress):
                state = self._compile_backspace(timeline, trace, state, event)
            elif isinstance(event, AppSwitchAway):
                self._compile_switch_burst(timeline, event.t, direction="away")
                in_target = False
                away_since = event.t + APP_SWITCH_ANIM_S
            elif isinstance(event, AppSwitchBack):
                assert away_since is not None
                self._compile_away_activity(timeline, away_since, event.t)
                self._compile_switch_burst(timeline, event.t, direction="back")
                trace.switch_intervals.append((away_since - APP_SWITCH_ANIM_S, event.t + APP_SWITCH_ANIM_S))
                in_target = True
                away_since = None
            elif isinstance(event, NotificationArrival):
                state = self._compile_notification(timeline, state, event.t)
            elif isinstance(event, ViewNotificationShade):
                self._compile_shade(timeline, event.t)

        if away_since is not None:
            self._compile_away_activity(timeline, away_since, end_time_s)

        self._compile_cursor_blinks(
            timeline, trace, state, ordered, end_time_s, launch_at_s=launch_at_s
        )
        anim_phase = self._compile_login_animation(
            timeline, state, ordered, end_time_s, launch_at_s=launch_at_s
        )
        del anim_phase
        self._materialize(timeline)
        return trace

    # ------------------------------------------------------------------
    # Per-event compilation
    # ------------------------------------------------------------------

    def _compile_keypress(
        self,
        timeline: RenderTimeline,
        trace: SessionTrace,
        state: UiState,
        event: KeyPress,
    ) -> UiState:
        char = event.char
        if not self.builder.layout.has_key(char):
            raise KeyError(f"keyboard {self.config.keyboard.name!r} has no key {char!r}")
        damage = self.builder.popup_damage(char)

        # 1st change: popup appears (the change used for eavesdropping).
        # With popups disabled the only press feedback is the overlay
        # ripple, whose geometry is the same for every key (Section 9.1).
        press_state = state.with_popup(char)
        if self.config.keyboard.supports_popup:
            press_fn = lambda ps=press_state, dm=damage: self.builder.damage_scene(ps, dm)
        else:
            press_fn = lambda c=char: self.builder.ripple_scene(c)
        press_t = event.t + INPUT_LATENCY_S
        self._render_cached(timeline, press_t, ("press", char), press_fn, label=f"press:{char}")

        # Popup animation may emit a second identical frame (duplication).
        if self.rng.random() < self.config.keyboard.duplicate_popup_prob:
            dup_t = press_t + self.builder.display.frame_interval_s
            self._render_cached(
                timeline, dup_t, ("press", char), press_fn, label=f"press_dup:{char}"
            )

        # 2nd change: key release, text echo appears in the field.
        state = state.typed(char)
        echo_state = state.with_popup(char)
        release_t = event.t + event.duration + INPUT_LATENCY_S
        self._render_cached(
            timeline,
            release_t,
            ("field", state.typed_len, True),
            lambda es=echo_state: self.builder.damage_scene(
                es, self.builder.field_damage(self.app)
            ),
            label=f"echo:{state.typed_len}",
        )

        # 3rd change: popup disappears (or the ripple fades on its overlay).
        if self.config.keyboard.supports_popup:
            dismiss_fn = lambda ds=state, dm=damage: self.builder.damage_scene(ds, dm)
        else:
            dismiss_fn = lambda c=char: self.builder.ripple_scene(c)
        self._render_cached(
            timeline,
            release_t + POPUP_LINGER_S,
            ("dismiss", char),
            dismiss_fn,
            label=f"dismiss:{char}",
        )

        trace.presses.append(GroundTruthPress(t=event.t, char=char))
        return state

    def _compile_backspace(
        self,
        timeline: RenderTimeline,
        trace: SessionTrace,
        state: UiState,
        event: BackspacePress,
    ) -> UiState:
        if state.typed_len == 0:
            return state
        state = state.deleted()
        self._render_cached(
            timeline,
            event.t + INPUT_LATENCY_S,
            ("field", state.typed_len, True),
            lambda bs=state: self.builder.damage_scene(
                bs, self.builder.field_damage(self.app)
            ),
            label=f"backspace:{state.typed_len}",
        )
        trace.backspaces.append(event.t)
        # mark the most recent un-deleted press as deleted
        for i in range(len(trace.presses) - 1, -1, -1):
            press = trace.presses[i]
            if not press.deleted:
                trace.presses[i] = GroundTruthPress(t=press.t, char=press.char, deleted=True)
                break
        return state

    def _compile_switch_burst(self, timeline: RenderTimeline, t: float, direction: str) -> None:
        """The overview animation: a burst of large frames <50 ms apart."""
        interval = self.builder.display.frame_interval_s
        frames = max(8, int(APP_SWITCH_ANIM_S / interval))
        for i in range(frames):
            progress = (i + 1) / frames
            if direction == "back":
                progress = 1.0 - progress * 0.999
            self._render_cached(
                timeline,
                t + i * interval,
                ("overview", round(progress, 6), 3),
                lambda pr=progress: self.builder.overview_scene(pr),
                label=f"switch_{direction}_{i}",
            )

    def _compile_away_activity(self, timeline: RenderTimeline, t0: float, t1: float) -> None:
        """Random screen updates while the user is in another app."""
        if t1 <= t0:
            return
        t = t0
        screen = self.builder.display.resolution
        while True:
            t += self.rng.exponential(1.0 / AWAY_ACTIVITY_RATE_HZ)
            if t >= t1:
                break
            w = int(screen.width * self.rng.uniform(0.2, 0.9))
            h = int(screen.height * self.rng.uniform(0.05, 0.5))
            left = int(self.rng.uniform(0, screen.width - w))
            top = int(self.rng.uniform(0, screen.height - h))
            layer = Layer("other_app")
            layer.add(
                DrawOp(
                    rect=Rect.from_size(left, top, w, h),
                    coverage=float(self.rng.uniform(0.3, 0.9)),
                    primitives=int(self.rng.integers(4, 60)),
                    textured=True,
                    label="other_app_update",
                )
            )
            self._render(timeline, t, Scene([layer]), label="other_app")

    def _compile_notification(
        self, timeline: RenderTimeline, state: UiState, t: float
    ) -> UiState:
        state = replace(state, notification_icons=state.notification_icons + 1)
        self._render_cached(
            timeline,
            t,
            ("notif", state.notification_icons),
            lambda ns=state: self.builder.damage_scene(ns, self.builder.status_bar_damage()),
            label="notification",
        )
        return state

    def _compile_shade(self, timeline: RenderTimeline, t: float) -> None:
        """Pulling the notification shade: two animation bursts (down, up)
        separated by the time the user spends reading notifications."""
        interval = self.builder.display.frame_interval_s
        for i in range(6):
            progress = min(1.0, 0.3 + i * 0.14)
            self._render_cached(
                timeline,
                t + i * interval,
                ("overview", round(progress, 6), 2),
                lambda pr=progress: self.builder.overview_scene(pr, cards=2),
                label=f"shade_down_{i}",
            )
        view_time = 0.9 + float(self.rng.uniform(0.0, 0.8))
        for i in range(6):
            progress = max(0.01, 1.0 - i * 0.17)
            self._render_cached(
                timeline,
                t + view_time + i * interval,
                ("overview", round(progress, 6), 2),
                lambda pr=progress: self.builder.overview_scene(pr, cards=2),
                label=f"shade_up_{i}",
            )

    def _compile_cursor_blinks(
        self,
        timeline: RenderTimeline,
        trace: SessionTrace,
        final_state: UiState,
        events: Sequence[UserEvent],
        end_time_s: float,
        launch_at_s: float = 0.0,
    ) -> None:
        """Cursor blink frames at 0.5 s cadence while the field is idle.

        Android's editor suspends cursor blinking while the user types:
        the blink timer resets on every text change and only fires again
        after half a second of idleness.  Fast typists therefore produce
        almost no blink frames between presses, while a slow typist's
        next press can land exactly on a blink tick — the mechanism
        behind the paper's Fig 21 slow-typing penalty.

        Blink frames damage the text field, so their increments track the
        current input length — they sit on the same Fig 14 staircase as
        the echo frames, merely without the +-2 step.
        """
        # text-change times with the input length after each change; the
        # field gains focus at t=0 with an arbitrary initial phase
        focus_phase = float(self.rng.uniform(0.03, 0.47))
        changes: List[Tuple[float, int]] = [(launch_at_s + focus_phase - CURSOR_BLINK_S, 0)]
        length = 0
        for event in events:
            if isinstance(event, KeyPress):
                length += 1
                changes.append((event.t + event.duration + INPUT_LATENCY_S, length))
            elif isinstance(event, BackspacePress):
                length = max(0, length - 1)
                changes.append((event.t + INPUT_LATENCY_S, length))
        changes.sort()

        away = list(trace.switch_intervals)
        boundaries = changes[1:] + [(end_time_s, length)]
        for (change_t, current_len), (next_t, _) in zip(changes, boundaries):
            t = change_t + CURSOR_BLINK_S
            visible = False  # the first blink after idleness hides the cursor
            while t < next_t:
                if not any(a <= t < b for a, b in away):
                    blink_state = replace(
                        final_state,
                        typed_len=current_len,
                        cursor_on=visible,
                        popup_char=None,
                        key_highlight=None,
                    )
                    self._render_cached(
                        timeline,
                        t,
                        ("field", current_len, visible),
                        lambda bs=blink_state: self.builder.damage_scene(
                            bs, self.builder.field_damage(self.app)
                        ),
                        label=f"cursor_blink:{current_len}:{'on' if visible else 'off'}",
                    )
                visible = not visible
                t += CURSOR_BLINK_S

    def _compile_login_animation(
        self,
        timeline: RenderTimeline,
        state: UiState,
        events: Sequence[UserEvent],
        end_time_s: float,
        launch_at_s: float = 0.0,
    ) -> int:
        anim = self.app.animation
        if anim is None:
            return 0
        phase = 0
        t = launch_at_s + anim.frame_interval_s
        while t < end_time_s:
            self._render_cached(
                timeline,
                t,
                ("anim", phase % 105),
                lambda st=state, ph=phase: self.builder.damage_scene(
                    st, self.builder.animation_damage(st, ph), anim_phase=ph
                ),
                label=f"anim_{phase}",
            )
            phase += 1
            t += anim.frame_interval_s
        return phase
