"""The metrics registry: counters, gauges and fixed-bucket histograms.

Instruments are get-or-create by name, so any layer can say
``registry.counter("sampler.reads_issued").inc(n)`` without coordinating
ownership.  A :class:`NullRegistry` (the module-level
:data:`NULL_REGISTRY`) hands out shared no-op instruments; every
instrumented component defaults to it, which keeps the uninstrumented
hot path free of bookkeeping — the parity contract mirrors the fault
subsystem's disabled plan.

No instrument reads a clock.  Timestamps belong to the caller's layer
(device clock, virtual clock); the registry only aggregates values it
is handed.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.spans import NULL_SPAN, Span, SpanStats

#: Default histogram bucket upper bounds for latency-style observations,
#: in seconds.  Spans Fig 25's range (the paper's <0.1 ms claim sits at
#: the 1e-4 boundary) with headroom for slow outliers.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    1e-2,
    1e-1,
)


class Counter:
    """A monotone event tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge for levels")
        self.value += n


class Gauge:
    """A last-value-wins level (throughput, wall time, utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket distribution; no per-observation allocation.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything beyond the last bound.  ``keep_samples=True``
    additionally retains the raw observations — used only by the
    per-inference latency histogram
    (:attr:`~repro.core.online.OnlineResult.latency`), whose exact
    samples the quickstart and ``analysis/experiments.py`` read; new
    instruments should leave it off.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max", "samples")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
        keep_samples: bool = False,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: Optional[List[float]] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.samples is not None:
            self.samples.append(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """``observe`` each of ``values`` in order, in one call: the same
        counts, extremes and samples, and a bit-equal ``sum``."""
        if not values:
            return
        array = np.asarray(values, dtype=float)
        found = np.searchsorted(self.buckets, array, side="left")
        # bisect_left files NaN, which compares false, in the first bucket
        found[np.isnan(array)] = 0
        counts = self.counts
        for bucket, n in enumerate(np.bincount(found, minlength=len(counts)).tolist()):
            counts[bucket] += n
        # the left fold observe makes (sum() compensates on Python >= 3.12)
        total = self.sum
        for value in values:
            total += value
        self.sum = total
        self.count += len(values)
        # min/max fold left with strict comparisons, as observe does
        self.min = min(values) if self.min is None else min(self.min, *values)
        self.max = max(values) if self.max is None else max(self.max, *values)
        if self.samples is not None:
            self.samples.extend(values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def fraction_below(self, bound: float) -> float:
        """Share of observations in buckets whose upper bound is ≤ ``bound``
        (the Fig 25 style "x % under 0.1 ms" readout)."""
        if not self.count:
            return 0.0
        covered = sum(
            n for upper, n in zip(self.buckets, self.counts) if upper <= bound
        )
        return covered / self.count

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def absorb_dict(self, data: Dict[str, object]) -> None:
        """Fold an exported ``to_dict`` snapshot into this histogram.

        Bucket-wise addition is only meaningful between identically
        bucketed histograms, so a layout mismatch is an error rather
        than a silent miscount.
        """
        buckets = tuple(float(b) for b in data.get("buckets", ()))
        if buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layout "
                f"{list(buckets)} != {list(self.buckets)}"
            )
        counts = list(data.get("counts", ()))
        if len(counts) != len(self.counts):
            raise ValueError(f"cannot merge histogram {self.name!r}: count width mismatch")
        for i, n in enumerate(counts):
            self.counts[i] += int(n)
        self.count += int(data.get("count", 0))
        self.sum += float(data.get("sum", 0.0))
        other_min = data.get("min")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = float(other_min)  # type: ignore[arg-type]
        other_max = data.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = float(other_max)  # type: ignore[arg-type]


def new_latency_histogram() -> Histogram:
    """A standalone latency histogram (default buckets, samples kept),
    detached from any registry — the per-result accumulator type."""
    return Histogram("latency_s", DEFAULT_LATENCY_BUCKETS_S, keep_samples=True)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create instrument store plus the span recorder.

    One registry spans one *run* (an attack, a batch, a service pass);
    the CLI and facades build a :class:`~repro.obs.manifest.RunManifest`
    from it afterwards.  Instruments are plain attributes — reading
    ``registry.counter("x").value`` is always exact, never sampled.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._span_stats: Dict[str, SpanStats] = {}
        self._span_stack: List[str] = []

    # -- instruments ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    # -- spans ----------------------------------------------------------

    def span(self, name: str, clock=None) -> Span:
        """A timed section.  ``clock`` is anything with a ``now`` attribute
        (virtual or device clock); ``None`` falls back to the process
        monotonic clock and therefore belongs only at run boundaries,
        never in a hot path.
        """
        return Span(self, name, clock=clock)

    # Span internals (called from Span.__enter__/__exit__) --------------

    def _span_enter(self, name: str) -> str:
        self._span_stack.append(name)
        return "/".join(self._span_stack)

    def _span_exit(self, path: str, duration_s: float) -> None:
        if self._span_stack:
            self._span_stack.pop()
        stats = self._span_stats.get(path)
        if stats is None:
            stats = self._span_stats[path] = SpanStats(path)
        stats.record(duration_s)

    # -- export ---------------------------------------------------------

    @property
    def spans(self) -> Dict[str, SpanStats]:
        return dict(self._span_stats)

    def snapshot(self) -> Dict[str, object]:
        """The registry's full state as plain, JSON-ready data."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
            "spans": {n: s.to_dict() for n, s in sorted(self._span_stats.items())},
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The merge rules match each instrument's semantics:

        * **counters** add — colliding names sum, which is exactly what
          per-shard tallies of one logical run should do;
        * **gauges** are last-value-wins, like ``set`` itself (callers
          that want a run-level value, e.g. throughput, recompute it
          after merging);
        * **histograms** add bucket-wise via :meth:`Histogram.absorb_dict`
          (identical bucket layouts required — mismatches raise);
        * **spans** add counts/totals and keep the max.

        This is how `repro.parallel` recombines worker-process
        registries into the parent run's registry before the single
        :class:`~repro.obs.manifest.RunManifest` is built.
        """
        if not self.enabled:
            return
        for name, value in (snapshot.get("counters") or {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():  # type: ignore[union-attr]
            self.gauge(name).set(float(value))
        for name, data in (snapshot.get("histograms") or {}).items():  # type: ignore[union-attr]
            self.histogram(name, buckets=data["buckets"]).absorb_dict(data)
        for name, data in (snapshot.get("spans") or {}).items():  # type: ignore[union-attr]
            stats = self._span_stats.get(name)
            if stats is None:
                stats = self._span_stats[name] = SpanStats(name)
            stats.absorb_dict(data)

    def manifest(self, config=None, **meta):
        """Build the :class:`~repro.obs.manifest.RunManifest` for this run."""
        from repro.obs.manifest import RunManifest

        return RunManifest.from_registry(self, config=config, **meta)


class NullRegistry(MetricsRegistry):
    """The default no-op registry: shared inert instruments, no spans.

    Everything returns immediately without allocating, so components
    instrumented against :data:`NULL_REGISTRY` run the same instruction
    stream as uninstrumented code up to one attribute load and call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS_S):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def span(self, name, clock=None):
        return NULL_SPAN


#: The process-default registry — inert.  Pass a real
#: :class:`MetricsRegistry` to any facade/pipeline entry point to turn
#: instrumentation on for that run.
NULL_REGISTRY = NullRegistry()


def resolve_registry(
    metrics: Union[MetricsRegistry, None],
) -> MetricsRegistry:
    """Normalize the public ``metrics`` argument (``None`` → no-op)."""
    if metrics is None:
        return NULL_REGISTRY
    if not isinstance(metrics, MetricsRegistry):
        raise TypeError(
            f"metrics must be a MetricsRegistry or None, got {type(metrics).__name__}"
        )
    return metrics
