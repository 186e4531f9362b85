"""Cumulative counter values over time: the render timeline.

A :class:`RenderTimeline` is the ordered list of frame renders executed by
the GPU during a session.  Each frame starts at a wall-clock time and takes
``render_time_s`` to complete; its counter increments accrue *linearly over
the render interval*.  This is the mechanism behind the paper's *split*
readings (Section 5.1): "if a PC is being read when the GPU is in the
process of drawing the key press popup, the change of this PC could be
split into multiple consecutive changes with smaller amounts".

Queries are O(log n + k) via per-counter prefix sums, where k is the small
number of frames still in flight at the query time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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
        matrix = np.zeros((n, len(COUNTER_ORDER)), dtype=np.int64)
        for i, frame in enumerate(self._frames):
            for cid, amount in frame.stats.increment.values.items():
                matrix[i, _COLUMN[cid]] = amount
        self._prefix = np.vstack(
            [np.zeros((1, len(COUNTER_ORDER)), dtype=np.int64), np.cumsum(matrix, axis=0)]
        )
        self._max_duration = max(
            (f.stats.render_time_s for f in self._frames), default=0.0
        )

    def values_at(self, t: float) -> Dict[pc.CounterId, int]:
        """Cumulative counter values at wall-clock time ``t`` (seconds)."""
        self._ensure_index()
        if not self._frames:
            return {cid: 0 for cid in COUNTER_ORDER}
        assert self._starts is not None and self._prefix is not None
        # Frames started strictly before t contribute; later ones do not.
        idx = int(np.searchsorted(self._starts, t, side="right"))
        totals = self._prefix[idx].copy()
        # Subtract the unaccrued share of frames still in flight.  Only
        # frames started within max_duration of t can be unfinished.
        window_start = t - self._max_duration - 1e-12
        first = int(np.searchsorted(self._starts, window_start, side="left"))
        for i in range(first, idx):
            frame = self._frames[i]
            progress = frame.progress(t)
            if progress >= 1.0:
                continue
            for cid, amount in frame.stats.increment.values.items():
                accrued = int(round(amount * progress))
                totals[_COLUMN[cid]] -= amount - accrued
        return {cid: int(totals[_COLUMN[cid]]) for cid in COUNTER_ORDER}

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
