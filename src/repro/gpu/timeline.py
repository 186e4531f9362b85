"""Cumulative counter values over time: the render timeline.

A :class:`RenderTimeline` holds the frame renders executed by the GPU
during a session as columns: ``starts`` (wall-clock seconds),
``durations`` (render time), ``amounts`` (``int64[n, 11]``, each frame's
counter increments in :data:`COUNTER_ORDER`) and ``labels`` (ground truth
for scoring), kept in start order.  A frame's increments accrue *linearly
over its render interval*.  This is the mechanism behind the paper's
*split* readings (Section 5.1): "if a PC is being read when the GPU is in
the process of drawing the key press popup, the change of this PC could be
split into multiple consecutive changes with smaller amounts".

Frames arrive through one path, :meth:`RenderTimeline.append`, a block of
rows at a time; :meth:`RenderTimeline.add_render` is its one-row case.
The first query after an append orders the rows by a stable sort on start,
so frames that start together keep their arrival order.
:attr:`RenderTimeline.frames` is a per-frame :class:`FrameRender` view of
the columns, built on first access, for scoring and inspection.

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


def increment_row(increment: pc.CounterIncrement) -> np.ndarray:
    """A frame's increments as one ``int64[11]`` row in :data:`COUNTER_ORDER`."""
    row = np.zeros(len(COUNTER_ORDER), dtype=np.int64)
    for cid, amount in increment.values.items():
        row[_COLUMN[cid]] = amount
    return row


@dataclass(frozen=True)
class FrameRender:
    """One frame render on the GPU: a row of a :class:`RenderTimeline`."""

    start_s: float
    render_time_s: float
    increment: pc.CounterIncrement
    label: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.render_time_s

    def progress(self, t: float) -> float:
        """Fraction of this frame's increments accrued by time ``t``."""
        if t <= self.start_s:
            return 0.0
        if t >= self.end_s:
            return 1.0
        duration = self.render_time_s
        if duration <= 0:
            return 1.0
        return (t - self.start_s) / duration


class RenderTimeline:
    """Frame renders as start-ordered columns, with fast cumulative-counter
    queries."""

    def __init__(self) -> None:
        self._starts = np.zeros(0)
        self._durations = np.zeros(0)
        self._amounts = np.zeros((0, len(COUNTER_ORDER)), dtype=np.int64)
        self._labels: List[str] = []
        #: appended blocks not yet merged into the columns
        self._pending: list = []
        self._ends = self._starts
        self._prefix: Optional[np.ndarray] = None
        self._max_duration = 0.0
        self._frames: Optional[List[FrameRender]] = None

    def append(
        self,
        starts: Sequence[float],
        durations: Sequence[float],
        amounts: np.ndarray,
        labels: Sequence[str],
    ) -> None:
        """Add a block of frames: ``amounts`` is ``int64[n, 11]`` in
        :data:`COUNTER_ORDER`, one row per start."""
        self._pending.append(
            (
                np.asarray(starts, dtype=float),
                np.asarray(durations, dtype=float),
                np.asarray(amounts, dtype=np.int64).reshape(-1, len(COUNTER_ORDER)),
                list(labels),
            )
        )
        self._prefix = None
        self._frames = None

    def add_render(self, start_s: float, stats: FrameStats, label: str = "") -> None:
        """Add one rendered frame: the one-row :meth:`append`."""
        self.append((start_s,), (stats.render_time_s,), increment_row(stats.increment), (label,))

    def _ensure_index(self) -> None:
        if self._prefix is not None:
            return
        if self._pending:
            blocks = [(self._starts, self._durations, self._amounts, self._labels)]
            blocks += self._pending
            self._pending = []
            starts, durations, amounts = (
                np.concatenate([block[c] for block in blocks]) for c in range(3)
            )
            labels = [label for block in blocks for label in block[3]]
            if np.any(starts[1:] < starts[:-1]):
                order = np.argsort(starts, kind="stable")
                starts, durations, amounts = starts[order], durations[order], amounts[order]
                labels = [labels[i] for i in order.tolist()]
            self._starts, self._durations, self._amounts = starts, durations, amounts
            self._labels = labels
        self._ends = self._starts + self._durations
        self._prefix = np.vstack(
            [np.zeros((1, len(COUNTER_ORDER)), dtype=np.int64), np.cumsum(self._amounts, axis=0)]
        )
        self._max_duration = float(self._durations.max()) if len(self._durations) else 0.0

    @property
    def starts(self) -> np.ndarray:
        """Frame start times (seconds), ascending."""
        self._ensure_index()
        return self._starts

    @property
    def durations(self) -> np.ndarray:
        """Frame render times (seconds), in start order."""
        self._ensure_index()
        return self._durations

    @property
    def ends(self) -> np.ndarray:
        """Frame end times, ``starts + durations``."""
        self._ensure_index()
        return self._ends

    @property
    def amounts(self) -> np.ndarray:
        """``int64[n, 11]`` counter increments per frame, in start order."""
        self._ensure_index()
        return self._amounts

    @property
    def labels(self) -> List[str]:
        """Ground-truth frame labels, in start order."""
        self._ensure_index()
        return self._labels

    @property
    def frames(self) -> List[FrameRender]:
        """The columns as one :class:`FrameRender` per frame, in start order."""
        self._ensure_index()
        if self._frames is None:
            self._frames = [
                FrameRender(
                    start_s=start,
                    render_time_s=duration,
                    increment=pc.CounterIncrement(
                        values={cid: a for cid, a in zip(COUNTER_ORDER, row) if a}
                    ),
                    label=label,
                )
                for start, duration, row, label in zip(
                    self._starts.tolist(),
                    self._durations.tolist(),
                    self._amounts.tolist(),
                    self._labels,
                )
            ]
        return self._frames

    @property
    def end_time_s(self) -> float:
        ends = self.ends
        return float(ends.max()) if len(ends) else 0.0

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
        starts = self._starts
        if not len(starts):
            return np.zeros((len(times), len(COUNTER_ORDER)), dtype=np.int64)
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

    def _overlapping(self, t0: float, t1: float) -> np.ndarray:
        """Indices of the frames whose render overlaps ``(t0, t1)``.

        A frame overlaps when ``start_s < t1`` and ``end_s > t0``.  Only
        frames started within ``max_duration`` of ``t0`` can still be
        rendering at ``t0``, so the scan starts there (less a margin for
        the rounding of ``start_s + render_time_s``).
        """
        self._ensure_index()
        lo = int(
            np.searchsorted(self._starts, t0 - self._max_duration - 1e-9, side="left")
        )
        hi = int(np.searchsorted(self._starts, t1, side="left"))
        return lo + np.flatnonzero(self._ends[lo:hi] > t0)

    def frames_overlapping(self, t0: float, t1: float) -> List[FrameRender]:
        """Frames whose render overlaps ``(t0, t1)``, in start order."""
        frames = self.frames
        return [frames[i] for i in self._overlapping(t0, t1).tolist()]

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1)`` the GPU spends rendering: the share
        Android exposes as ``gpu_busy_percentage`` (paper footnote 10),
        and the OS-noise cost the Section 9.3 sweep reports."""
        if t1 <= t0:
            return 0.0
        i = self._overlapping(t0, t1)
        spans = np.minimum(t1, self._ends[i]) - np.maximum(t0, self._starts[i])
        return min(1.0, sum(spans.tolist()) / (t1 - t0))


def merge_timelines(timelines: List[RenderTimeline]) -> RenderTimeline:
    """Combine several timelines (e.g. app rendering + background GPU load):
    their columns concatenated, then stably sorted on start."""
    merged = RenderTimeline()
    for timeline in timelines:
        merged.append(timeline.starts, timeline.durations, timeline.amounts, timeline.labels)
    return merged
