"""Cumulative counter values over time: the render timeline.

A :class:`RenderTimeline` is the ordered list of frame renders executed by
the GPU during a session.  Each frame starts at a wall-clock time and takes
``render_time_s`` to complete; its counter increments accrue *linearly over
the render interval*.  This is the mechanism behind the paper's *split*
readings (Section 5.1): "if a PC is being read when the GPU is in the
process of drawing the key press popup, the change of this PC could be
split into multiple consecutive changes with smaller amounts".

Queries are O(log n + k) via per-counter prefix sums, where k is the small
number of frames still in flight at the query time.  One vectorised
algorithm, :meth:`RenderTimeline.values_at_many`, answers them for a whole
array of times; :meth:`RenderTimeline.values_at` is its one-row dict view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats

#: Stable column order for the 11 selected counters.
COUNTER_ORDER: List[pc.CounterId] = [spec.counter_id for spec in pc.SELECTED_COUNTERS]
_COLUMN: Dict[pc.CounterId, int] = {cid: i for i, cid in enumerate(COUNTER_ORDER)}


@dataclass(frozen=True)
class FrameRender:
    """One frame render scheduled on the GPU."""

    start_s: float
    stats: FrameStats
    label: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.stats.render_time_s

    def progress(self, t: float) -> float:
        """Fraction of this frame's increments accrued by time ``t``."""
        if t <= self.start_s:
            return 0.0
        if t >= self.end_s:
            return 1.0
        duration = self.stats.render_time_s
        if duration <= 0:
            return 1.0
        return (t - self.start_s) / duration


class RenderTimeline:
    """Ordered frame renders with fast cumulative-counter queries."""

    def __init__(self) -> None:
        self._frames: List[FrameRender] = []
        self._sorted = True
        self._starts: Optional[np.ndarray] = None
        self._durations: Optional[np.ndarray] = None
        self._amounts: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None
        self._max_duration = 0.0

    def add(self, frame: FrameRender) -> None:
        if self._frames and frame.start_s < self._frames[-1].start_s:
            self._sorted = False
        self._frames.append(frame)
        self._starts = None

    def add_render(self, start_s: float, stats: FrameStats, label: str = "") -> FrameRender:
        frame = FrameRender(start_s=start_s, stats=stats, label=label)
        self.add(frame)
        return frame

    @property
    def frames(self) -> List[FrameRender]:
        self._ensure_index()
        return self._frames

    @property
    def end_time_s(self) -> float:
        if not self._frames:
            return 0.0
        return max(f.end_s for f in self._frames)

    def _ensure_index(self) -> None:
        if self._starts is not None:
            return
        if not self._sorted:
            self._frames.sort(key=lambda f: f.start_s)
            self._sorted = True
        n = len(self._frames)
        self._starts = np.array([f.start_s for f in self._frames], dtype=float)
        self._durations = np.array([f.stats.render_time_s for f in self._frames], dtype=float)
        matrix = np.zeros((n, len(COUNTER_ORDER)), dtype=np.int64)
        for i, frame in enumerate(self._frames):
            for cid, amount in frame.stats.increment.values.items():
                matrix[i, _COLUMN[cid]] = amount
        self._amounts = matrix
        self._prefix = np.vstack(
            [np.zeros((1, len(COUNTER_ORDER)), dtype=np.int64), np.cumsum(matrix, axis=0)]
        )
        self._max_duration = max(
            (f.stats.render_time_s for f in self._frames), default=0.0
        )

    def values_at_many(self, times: Sequence[float]) -> np.ndarray:
        """Cumulative counter values at each of ``times`` (seconds).

        Returns ``int64[len(times), 11]``, columns in :data:`COUNTER_ORDER`.
        Frames started at or before a time contribute their prefix sum;
        frames still in flight give back their unaccrued share, accrued as
        ``int(round(amount * progress))`` per counter (``np.rint`` rounds
        half to even like ``round``, on the same float product).
        """
        self._ensure_index()
        times = np.asarray(times, dtype=float)
        if not self._frames:
            return np.zeros((len(times), len(COUNTER_ORDER)), dtype=np.int64)
        starts = self._starts
        idx = starts.searchsorted(times, side="right")
        rows = self._prefix[idx]
        # Only frames started within max_duration of t can be unfinished.
        first = starts.searchsorted(times - self._max_duration - 1e-12, side="left")
        live = idx - first
        if not np.count_nonzero(live):
            return rows
        # one (read k, frame i) pair per frame that may be in flight at read k
        k = np.repeat(np.arange(len(times)), live)
        i = np.arange(len(k)) - np.repeat(np.cumsum(live) - live - first, live)
        t, start, duration = times[k], starts[i], self._durations[i]
        # FrameRender.progress, elementwise: 0 until the frame starts, 1
        # once it ends (or when it takes no time), the elapsed share between
        started = t > start
        in_flight = started & (t < start + duration) & (duration > 0)
        progress = np.divide(
            t - start, duration, out=started.astype(float), where=in_flight
        )
        amounts = self._amounts[i]
        owed = amounts - np.rint(amounts * progress[:, None]).astype(np.int64)
        np.subtract.at(rows, k, owed)
        return rows

    def values_at(self, t: float) -> Dict[pc.CounterId, int]:
        """Cumulative counter values at wall-clock time ``t`` (seconds):
        the dict view of one :meth:`values_at_many` row."""
        return dict(zip(COUNTER_ORDER, self.values_at_many((t,))[0].tolist()))

    def frames_overlapping(self, t0: float, t1: float) -> List[FrameRender]:
        """Frames whose render overlaps ``(t0, t1)``, in start order.

        A frame overlaps when ``start_s < t1`` and ``end_s > t0``.  Only
        frames started within ``max_duration`` of ``t0`` can still be
        rendering at ``t0``, so the scan starts there (less a margin for
        the rounding of ``start_s + render_time_s``).
        """
        self._ensure_index()
        assert self._starts is not None
        lo = int(
            np.searchsorted(self._starts, t0 - self._max_duration - 1e-9, side="left")
        )
        hi = int(np.searchsorted(self._starts, t1, side="left"))
        return [f for f in self._frames[lo:hi] if f.end_s > t0]

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1)`` the GPU spends rendering.

        Used by the contention model and exposed to the victim OS the way
        Android exposes ``gpu_busy_percentage`` (paper footnote 10).
        """
        if t1 <= t0:
            return 0.0
        busy = 0.0
        for frame in self.frames_overlapping(t0, t1):
            busy += min(t1, frame.end_s) - max(t0, frame.start_s)
        return min(1.0, busy / (t1 - t0))


def merge_timelines(timelines: List[RenderTimeline]) -> RenderTimeline:
    """Combine several timelines (e.g. app rendering + background GPU load)."""
    merged = RenderTimeline()
    all_frames: List[FrameRender] = []
    for timeline in timelines:
        all_frames.extend(timeline.frames)
    for frame in sorted(all_frames, key=lambda f: f.start_s):
        merged.add(frame)
    return merged
