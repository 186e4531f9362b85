"""Target-application launch detection (paper Section 3.2, Fig 4).

"The attacking application will spawn a monitoring process, which runs as
an Android service in background and uses the existing techniques
[14, 15, 49, 50] to detect the launch of target applications ... If a
target application is launched, the monitoring process will start reading
the selected GPU PCs."

The cited techniques watch cheap procfs/cache signals; in the simulation
the equivalent cheap observable is a *slow* counter poll (a few Hz costs
nothing) that recognizes the launch transition: a burst of full-screen
renders followed by the target app's idle login-screen signature (its
cursor-blink cluster).  Only then does the expensive 8 ms sampling start —
which is also what keeps the attack's power draw negligible while the
victim is elsewhere (Fig 26).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.classifier import ClassificationModel
from repro.kgsl.sampler import DeltaBatch

#: Cheap pre-detection polling cadence (vs the attack's 8 ms).
IDLE_POLL_INTERVAL_S = 0.25


@dataclass(frozen=True)
class LaunchEvent:
    """A detected target-app launch."""

    t: float
    score: float


class LaunchDetector:
    """Recognizes the target app's launch from slow counter polls.

    Detection requires, within a short window:

    1. a *launch burst* — cumulative counter growth far beyond idle
       (the app's cold-start render storm); followed by
    2. a delta that classifies into the target's field family (the login
       screen's cursor blink) — the app-specific confirmation.

    The burst threshold is eight times the model's largest key-press
    total (``1e7`` for a model without keys).
    """

    #: How long after a burst a field-family delta still confirms it.
    CONFIRM_WINDOW_S = 3.0

    def __init__(self, model: ClassificationModel) -> None:
        self.model = model
        key_totals = model.key_totals
        self.burst_threshold = 8.0 * max(key_totals) if key_totals else 1e7
        self._burst_t: Optional[float] = None
        self.launches: List[LaunchEvent] = []

    def observe(self, deltas: DeltaBatch, row: int) -> Optional[LaunchEvent]:
        """Feed one slow-poll delta, ``deltas`` row ``row``; returns a
        launch when confirmed."""
        vec = deltas.rows[row]
        if not vec.any():
            return None
        total = int(vec.sum())
        t = float(deltas.t[row])
        if total >= self.burst_threshold:
            self._burst_t = t
            return None
        if self._burst_t is not None and t - self._burst_t <= self.CONFIRM_WINDOW_S:
            if self.model.classify_vector_masked(vec, ~deltas.unknown[row]).is_field:
                event = LaunchEvent(t=t, score=float(total))
                self.launches.append(event)
                self._burst_t = None
                return event
        elif self._burst_t is not None:
            self._burst_t = None
        return None


class LaunchWatchStage:
    """The idle-watch mode of the monitoring service as a runtime stage.

    Feeds every slow-poll delta of a slice to a :class:`LaunchDetector`;
    when the launch is confirmed, invokes ``on_launch(session, event)``
    — which typically calls
    :meth:`~repro.runtime.session.Session.switch_mode` to escalate the
    session into the 8 ms attack mode — and ends the slice at that row.
    """

    name = "launch-watch"

    def __init__(
        self,
        detector: LaunchDetector,
        on_launch: Callable[[object, LaunchEvent], None],
    ) -> None:
        self.detector = detector
        self.on_launch = on_launch
        self.launch: Optional[LaunchEvent] = None

    def on_event(self, session, t: float, rows) -> Optional[int]:
        batch, lo, hi = rows
        if self.launch is not None:
            return None
        for row in range(lo, hi):
            event = self.detector.observe(batch, row)
            if event is not None:
                self.launch = event
                session.trace.emit(
                    event.t, session.id, self.name, "launch_detected", score=event.score
                )
                self.on_launch(session, event)
                return row + 1
        return None

    def on_end(self, session, t: float) -> None:
        pass
