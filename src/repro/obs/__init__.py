"""Unified observability: one registry, one span log, one manifest.

Before this package, evidence for the paper's quantitative claims was
scattered — sampler retry tallies on :class:`~repro.kgsl.sampler.
PerfCounterSampler` attributes, inference latencies in per-result lists,
fault events in the :class:`~repro.runtime.trace.RuntimeTrace` — with no
single place to read, export, or regress them.  ``repro.obs`` is that
place:

* :class:`MetricsRegistry` — process-wide *but injectable* instrument
  store: monotone counters, last-value gauges, and fixed-bucket
  histograms.  The default is :data:`NULL_REGISTRY`, whose instruments
  are shared no-ops, so uninstrumented runs stay byte-identical to a
  build without this package (parity-tested, same contract as the fault
  subsystem's disabled plan).
* :meth:`MetricsRegistry.span` — lightweight nestable timed sections.
  Spans read *no wall clock* unless explicitly given none: callers pass
  the :class:`~repro.runtime.clock.VirtualClock` (or device clock)
  driving their layer, and may attach completions to the shared
  :class:`~repro.runtime.trace.RuntimeTrace`.
* :class:`RunManifest` — serializable config + metrics + span rollup of
  one run; written by the CLI's ``--metrics-out`` and returned by the
  :mod:`repro.api` facades, and emitted by the benchmarks as
  ``BENCH_*.json`` so the perf trajectory is recorded.

See ``docs/observability.md`` for the manifest schema and wiring.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    new_latency_histogram,
    resolve_registry,
)
from repro.obs.manifest import RunManifest
from repro.obs.spans import NULL_SPAN

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullRegistry",
    "RunManifest",
    "new_latency_histogram",
    "resolve_registry",
]
