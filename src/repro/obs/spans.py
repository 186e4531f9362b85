"""Nestable timed sections recorded against a metrics registry.

A span brackets one section of work — a chunk of sampler reads, a
vectorized delta extraction, an engine finish, a service report — and
rolls its durations up per *path* (nesting joins names with ``/``, so a
``source.extract`` inside ``pipeline.attack`` aggregates under
``pipeline.attack/source.extract``).

Spans are clock-agnostic: callers hand in the clock that drives their
layer (the runtime's :class:`~repro.runtime.clock.VirtualClock` or a
device clock), so instrumented simulation code performs **zero**
wall-clock reads.  Only when no clock is supplied does a span fall back
to ``time.perf_counter`` — acceptable at run boundaries, never inside
the sampling or inference loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class SpanStats:
    """Rollup of every completed span sharing one path."""

    path: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def absorb_dict(self, data: dict) -> None:
        """Fold another rollup's exported ``to_dict`` into this one —
        counts and totals add, the max wins.  Used when per-shard
        registries are merged back into a parent run."""
        self.count += int(data.get("count", 0))
        self.total_s += float(data.get("total_s", 0.0))
        self.max_s = max(self.max_s, float(data.get("max_s", 0.0)))

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
        }


class Span:
    """One live timed section (context manager); see module docstring.

    Must not bracket a generator ``yield`` — the registry's nesting
    stack assumes strictly bracketed enter/exit, which interleaved
    sessions on the runtime would violate.
    """

    __slots__ = ("_registry", "name", "_clock", "_path", "_start")

    def __init__(self, registry, name: str, clock=None) -> None:
        self._registry = registry
        self.name = name
        self._clock = clock
        self._path: Optional[str] = None
        self._start = 0.0

    def _now(self) -> float:
        clock = self._clock
        return clock.now if clock is not None else time.perf_counter()

    def __enter__(self) -> "Span":
        self._path = self._registry._span_enter(self.name)
        self._start = self._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = max(0.0, self._now() - self._start)
        self._registry._span_exit(self._path, duration)


class _NullSpan:
    """The shared no-op span handed out by the null registry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()
