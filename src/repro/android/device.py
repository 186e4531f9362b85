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

Compilation schedules frames as ``(t, cache key, scene function, label)``
tuples; a scene function builds its screen state and damage only when
its frame misses the process-wide render cache, which holds each frame
identity's counter row and render time.  :meth:`VictimDevice._materialize`
then draws every frame's start and jitter in time order and writes the
whole session into the timeline's columns in one append.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
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
from repro.gpu.pipeline import AdrenoPipeline
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline, increment_row
from repro.kgsl.ziggurat import require_pcg64, uniform_then_normals

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
#: GPU work starts after the CPU side records and submits the frame: a
#: uniform delay in this range after vsync, drawn per frame.  Without it,
#: frame starts quantize to a handful of phases relative to the
#: attacker's sampling grid.
SUBMIT_DELAY_S = (0.0005, 0.0030)

#: Per-counter multiplicative jitter (sigma), as ``(counter_id, sigma)``
#: in ``SELECTED_COUNTERS`` order.  Primitive counts are exactly
#: deterministic on real hardware; pixel/tile counts wobble a little with
#: dithering and bin-walk order; cycle counters depend on DRAM timing and
#: wobble the most.  This is what makes near-identical popups (',' vs '.')
#: genuinely confusable, as in the paper's Fig 18.
JITTER_SIGMA: Tuple[Tuple[pc.CounterId, float], ...] = (
    (pc.LRZ_FULL_8X8_TILES.counter_id, 0.0010),
    (pc.LRZ_PARTIAL_8X8_TILES.counter_id, 0.0010),
    (pc.LRZ_VISIBLE_PIXEL_AFTER_LRZ.counter_id, 0.0012),
    (pc.RAS_SUPERTILE_ACTIVE_CYCLES.counter_id, 0.010),
    (pc.RAS_SUPER_TILES.counter_id, 0.0016),
    (pc.RAS_8X4_TILES.counter_id, 0.0010),
    (pc.RAS_FULLY_COVERED_8X4_TILES.counter_id, 0.0010),
)

#: Process-wide cache of rendered frames: ``(scope, frame identity)`` ->
#: ``(int64[11] counter row, render time)``, before jitter and GPU
#: wake-up.  Scene geometry is fully determined by (device configuration,
#: app, frame identity), and experiment batches compile hundreds of
#: sessions on the same configuration, so render results are shared
#: globally.
_RENDER_CACHE: dict = {}


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
        require_pcg64(self.rng, "the victim device")
        self.render_slowdown = render_slowdown
        self.builder = SceneBuilder(config)
        self.pipeline = AdrenoPipeline(config.gpu)
        #: frames scheduled during compilation, as ``(t, cache key or None,
        #: scene_fn, label)``; materialized in time order
        self._requests: List[tuple] = []
        #: what, besides a frame's identity, keys its cached render
        self._cache_scope = (config.config_key(), app.name, render_slowdown)

    # ------------------------------------------------------------------

    def _ui(
        self, typed_len: int, icons: int, popup: Optional[str] = None, cursor_on: bool = True
    ) -> UiState:
        """The screen state a frame draws; scene functions build it only
        when their frame misses the render cache."""
        return UiState(
            app=self.app,
            typed_len=typed_len,
            cursor_on=cursor_on,
            popup_char=popup,
            key_highlight=popup,
            notification_icons=icons,
        )

    def _render(self, t: float, scene, label: str) -> None:
        """Schedule an uncacheable (randomly generated) frame."""
        self._requests.append((t, None, lambda s=scene: s, label))

    def _render_cached(self, t: float, cache_key, scene_fn, label: str) -> None:
        """Schedule a frame whose geometry is cacheable by identity."""
        self._requests.append((t, cache_key, scene_fn, label))

    def _base_render(self, cache_key, scene_fn) -> Tuple[np.ndarray, float]:
        """A frame's counter row and render time before jitter and wake-up."""
        if cache_key is not None:
            entry = _RENDER_CACHE.get((self._cache_scope, cache_key))
            if entry is not None:
                return entry
        stats = self.pipeline.render(scene_fn())
        entry = (increment_row(stats.increment), stats.render_time_s * self.render_slowdown)
        if cache_key is not None:
            _RENDER_CACHE[(self._cache_scope, cache_key)] = entry
        return entry

    def _materialize(self, timeline: RenderTimeline) -> None:
        """Render all scheduled frames in chronological order, applying the
        GPU power-collapse model: a frame starting more than
        ``GPU_IDLE_COLLAPSE_S`` after the previous render finished pays a
        wake-up latency, and its counters jitter ``COLD_JITTER_FACTOR``
        times as much (1: no noisier than a warm frame's).

        Jitter is multiplicative per counter: one standard normal per
        jittered nonzero counter, drawn per frame in ``JITTER_SIGMA``
        order right after the frame's submit delay, and applied to the
        whole session's counter rows at once as
        ``max(0, rint(amount * (1 + sigma * factor * z)))``.
        """
        requests = sorted(self._requests, key=itemgetter(0))
        self._requests = []
        n = len(requests)
        rendered = [self._base_render(key, scene_fn) for _, key, scene_fn, _ in requests]
        amounts = np.array([row for row, _ in rendered], dtype=np.int64).reshape(n, len(COUNTER_ORDER))
        durations = np.array([duration for _, duration in rendered])
        columns = [COUNTER_ORDER.index(cid) for cid, _ in JITTER_SIGMA]
        sigma = np.array([s for _, s in JITTER_SIGMA])
        jittered = amounts[:, columns]
        submits, normals = self._jitter_draws(np.count_nonzero(jittered, axis=1).tolist())
        vsyncs = self.builder.display.next_vsyncs(np.array([t for t, *_ in requests]))
        starts = vsyncs + submits

        # only the collapse test runs frame by frame: it needs the
        # latest end of the frames before
        cold = []
        last_end = -1e9
        for i, (start, duration) in enumerate(zip(starts.tolist(), durations.tolist())):
            if start - last_end > GPU_IDLE_COLLAPSE_S:
                duration += WAKEUP_RENDER_S
                cold.append(i)
            last_end = max(last_end, start + duration)
        durations[cold] += WAKEUP_RENDER_S
        factor = np.ones(n)
        factor[cold] = COLD_JITTER_FACTOR

        z = np.zeros(jittered.shape)
        # row-major over the nonzero cells: frame by frame, each frame's
        # counters in JITTER_SIGMA order, as they were drawn
        z[jittered != 0] = normals
        scaled = np.rint(jittered * (1.0 + sigma * factor[:, None] * z)).astype(np.int64)
        amounts[:, columns] = np.maximum(0, scaled)
        timeline.append(starts, durations, amounts, map(itemgetter(3), requests))

    def _jitter_draws(self, counts: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Each frame's submit delay (``uniform(*SUBMIT_DELAY_S)``), and
        then its ``counts[i]`` standard normals: every frame's normals in
        one array, frame by frame.  They are decoded from raw words of
        ``self.rng``, bit for bit the per-frame scalar draws, and leave it
        where those would (see :mod:`repro.kgsl.ziggurat`)."""
        return uniform_then_normals(self.rng.bit_generator, *SUBMIT_DELAY_S, counts)

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

        # the screen state between events: the input length and the
        # status bar's notification icons
        typed_len, icons = 0, UiState.notification_icons
        in_target = True
        away_since: Optional[float] = None

        # launch: cold-start full render of the login screen
        self._render_cached(
            launch_at_s,
            ("initial",),
            lambda: self.builder.damage_scene(
                self._ui(0, UiState.notification_icons), self.builder.display.bounds
            ),
            label="initial",
        )

        for event in ordered:
            if isinstance(event, KeyPress):
                typed_len = self._compile_keypress(trace, typed_len, icons, event)
            elif isinstance(event, BackspacePress):
                typed_len = self._compile_backspace(trace, typed_len, icons, event)
            elif isinstance(event, AppSwitchAway):
                self._compile_switch_burst(event.t, direction="away")
                in_target = False
                away_since = event.t + APP_SWITCH_ANIM_S
            elif isinstance(event, AppSwitchBack):
                assert away_since is not None
                self._compile_away_activity(away_since, event.t)
                self._compile_switch_burst(event.t, direction="back")
                trace.switch_intervals.append((away_since - APP_SWITCH_ANIM_S, event.t + APP_SWITCH_ANIM_S))
                in_target = True
                away_since = None
            elif isinstance(event, NotificationArrival):
                icons = self._compile_notification(typed_len, icons, event.t)
            elif isinstance(event, ViewNotificationShade):
                self._compile_shade(event.t)

        if away_since is not None:
            self._compile_away_activity(away_since, end_time_s)

        self._compile_cursor_blinks(trace, icons, ordered, end_time_s, launch_at_s=launch_at_s)
        self._compile_login_animation(typed_len, icons, end_time_s, launch_at_s=launch_at_s)
        self._materialize(timeline)
        return trace

    # ------------------------------------------------------------------
    # Per-event compilation.  Each frame's scene function builds its
    # screen state and damage itself, so a frame whose render is cached
    # builds neither.
    # ------------------------------------------------------------------

    def _compile_keypress(
        self,
        trace: SessionTrace,
        typed_len: int,
        icons: int,
        event: KeyPress,
    ) -> int:
        char = event.char
        if not self.builder.layout.has_key(char):
            raise KeyError(f"keyboard {self.config.keyboard.name!r} has no key {char!r}")
        supports_popup = self.config.keyboard.supports_popup

        # 1st change: popup appears (the change used for eavesdropping).
        # With popups disabled the only press feedback is the overlay
        # ripple, whose geometry is the same for every key (Section 9.1).
        if supports_popup:
            press_fn = lambda n=typed_len, c=char: self.builder.damage_scene(
                self._ui(n, icons, popup=c), self.builder.popup_damage(c)
            )
        else:
            press_fn = lambda c=char: self.builder.ripple_scene(c)
        press_t = event.t + INPUT_LATENCY_S
        self._render_cached(press_t, ("press", char), press_fn, label=f"press:{char}")

        # Popup animation may emit a second identical frame (duplication).
        if self.rng.random() < self.config.keyboard.duplicate_popup_prob:
            dup_t = press_t + self.builder.display.frame_interval_s
            self._render_cached(
                dup_t, ("press", char), press_fn, label=f"press_dup:{char}"
            )

        # 2nd change: key release, text echo appears in the field.
        typed_len += 1
        release_t = event.t + event.duration + INPUT_LATENCY_S
        self._render_cached(
            release_t,
            ("field", typed_len, True),
            lambda n=typed_len, c=char: self.builder.damage_scene(
                self._ui(n, icons, popup=c), self.builder.field_damage(self.app)
            ),
            label=f"echo:{typed_len}",
        )

        # 3rd change: popup disappears (or the ripple fades on its overlay).
        if supports_popup:
            dismiss_fn = lambda n=typed_len, c=char: self.builder.damage_scene(
                self._ui(n, icons), self.builder.popup_damage(c)
            )
        else:
            dismiss_fn = lambda c=char: self.builder.ripple_scene(c)
        self._render_cached(
            release_t + POPUP_LINGER_S,
            ("dismiss", char),
            dismiss_fn,
            label=f"dismiss:{char}",
        )

        trace.presses.append(GroundTruthPress(t=event.t, char=char))
        return typed_len

    def _compile_backspace(
        self,
        trace: SessionTrace,
        typed_len: int,
        icons: int,
        event: BackspacePress,
    ) -> int:
        if typed_len == 0:
            return typed_len
        typed_len -= 1
        self._render_cached(
            event.t + INPUT_LATENCY_S,
            ("field", typed_len, True),
            lambda n=typed_len: self.builder.damage_scene(
                self._ui(n, icons), self.builder.field_damage(self.app)
            ),
            label=f"backspace:{typed_len}",
        )
        trace.backspaces.append(event.t)
        # mark the most recent un-deleted press as deleted
        for i in range(len(trace.presses) - 1, -1, -1):
            press = trace.presses[i]
            if not press.deleted:
                trace.presses[i] = GroundTruthPress(t=press.t, char=press.char, deleted=True)
                break
        return typed_len
    def _compile_switch_burst(self, t: float, direction: str) -> None:
        """The overview animation: a burst of large frames <50 ms apart."""
        interval = self.builder.display.frame_interval_s
        frames = max(8, int(APP_SWITCH_ANIM_S / interval))
        for i in range(frames):
            progress = (i + 1) / frames
            if direction == "back":
                progress = 1.0 - progress * 0.999
            self._render_cached(
                t + i * interval,
                ("overview", round(progress, 6), 3),
                lambda pr=progress: self.builder.overview_scene(pr),
                label=f"switch_{direction}_{i}",
            )

    def _compile_away_activity(self, t0: float, t1: float) -> None:
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
            self._render(t, Scene([layer]), label="other_app")

    def _compile_notification(self, typed_len: int, icons: int, t: float) -> int:
        icons += 1
        self._render_cached(
            t,
            ("notif", icons),
            lambda n=typed_len, i=icons: self.builder.damage_scene(
                self._ui(n, i), self.builder.status_bar_damage()
            ),
            label="notification",
        )
        return icons

    def _compile_shade(self, t: float) -> None:
        """Pulling the notification shade: two animation bursts (down, up)
        separated by the time the user spends reading notifications."""
        interval = self.builder.display.frame_interval_s
        for i in range(6):
            progress = min(1.0, 0.3 + i * 0.14)
            self._render_cached(
                t + i * interval,
                ("overview", round(progress, 6), 2),
                lambda pr=progress: self.builder.overview_scene(pr, cards=2),
                label=f"shade_down_{i}",
            )
        view_time = 0.9 + float(self.rng.uniform(0.0, 0.8))
        for i in range(6):
            progress = max(0.01, 1.0 - i * 0.17)
            self._render_cached(
                t + view_time + i * interval,
                ("overview", round(progress, 6), 2),
                lambda pr=progress: self.builder.overview_scene(pr, cards=2),
                label=f"shade_up_{i}",
            )

    def _compile_cursor_blinks(
        self,
        trace: SessionTrace,
        icons: int,
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
                    self._render_cached(
                        t,
                        ("field", current_len, visible),
                        lambda n=current_len, on=visible: self.builder.damage_scene(
                            self._ui(n, icons, cursor_on=on), self.builder.field_damage(self.app)
                        ),
                        label=f"cursor_blink:{current_len}:{'on' if visible else 'off'}",
                    )
                visible = not visible
                t += CURSOR_BLINK_S

    def _compile_login_animation(
        self,
        typed_len: int,
        icons: int,
        end_time_s: float,
        launch_at_s: float = 0.0,
    ) -> None:
        anim = self.app.animation
        if anim is None:
            return
        state = self._ui(typed_len, icons)
        phase = 0
        t = launch_at_s + anim.frame_interval_s
        while t < end_time_s:
            self._render_cached(
                t,
                ("anim", phase % 105),
                lambda st=state, ph=phase: self.builder.damage_scene(
                    st, self.builder.animation_damage(st, ph), anim_phase=ph
                ),
                label=f"anim_{phase}",
            )
            phase += 1
            t += anim.frame_interval_s
