"""Event sources: where a session's timestamped payloads come from.

An :class:`EventSource` is anything that can be turned into an iterator
of ``(t, payload)`` pairs in non-decreasing ``t`` order.  The runtime
pulls from sources *lazily* — one event per scheduling step — so a
source backed by a live sampler only issues the counter reads that are
actually consumed (a mode switch abandons the rest, exactly like the
Android service dropping its idle poll when it escalates).

:class:`SamplerDeltaSource` is the production source: it drives
:meth:`~repro.kgsl.sampler.PerfCounterSampler.iter_samples` and yields
only the nonzero counter deltas — the attack's raw event stream, and
the one every consumer (online attack, offline trainer, lifecycle
runner, trace inspection) reads.  It pulls ``chunk`` reads per step and
differences each batch with the one extractor,
:func:`~repro.kgsl.sampler.nonzero_deltas_vectorized`.  A larger chunk
trades mode-switch granularity for throughput (the attack uses 64); the
monitoring service's idle watch uses ``chunk=1``, a batch of one, so
escalation happens on the confirming read.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from typing import Iterable, Iterator, Optional, Protocol, Tuple, runtime_checkable

from repro.kgsl.sampler import (
    IDLE,
    PcDelta,
    PcSample,
    PerfCounterSampler,
    SystemLoad,
    nonzero_deltas_vectorized,
)
from repro.obs import MetricsRegistry, resolve_registry

#: One timestamped payload flowing through a session's stage chain.
SourceEvent = Tuple[float, object]

#: Reads pulled per step by the attack-phase source (and the offline
#: trainer, which samples exactly as the attack does).
ATTACK_SOURCE_CHUNK = 64


@runtime_checkable
class EventSource(Protocol):
    """A stream of timestamped payloads in non-decreasing time order."""

    def events(self) -> Iterator[SourceEvent]: ...


class IterableSource:
    """An :class:`EventSource` over precomputed ``(t, payload)`` pairs or
    payloads with a ``.t`` attribute (e.g. a list of ``PcDelta``)."""

    def __init__(self, items: Iterable) -> None:
        self._items = items

    def events(self) -> Iterator[SourceEvent]:
        for item in self._items:
            if isinstance(item, tuple):
                yield item
            else:
                yield (float(item.t), item)


class SamplerDeltaSource:
    """Streams nonzero PC deltas from a live :class:`PerfCounterSampler`.

    Args:
        sampler: the counter-reading service (owns the KGSL fd and RNG).
        t0, t1: sampling window.
        load: concurrent CPU/GPU load during the window.
        chunk: reads pulled and differenced per step; ``1`` yields each
            delta on the read that completes it.
        gap_factor: a delta spanning more than ``gap_factor`` nominal
            sampling intervals is flagged ``gap=True`` (reads between
            its endpoints were dropped or deferred).
        metrics: optional :class:`repro.obs.MetricsRegistry`.  Emission
            and gap tallies are flushed once when the stream closes
            (also on abandonment by a mode switch); each extraction is
            additionally timed under a ``source.extract`` span.
    """

    #: Default sample-spacing multiple beyond which a delta is a gap.
    GAP_FACTOR = 3.0

    def __init__(
        self,
        sampler: PerfCounterSampler,
        t0: float,
        t1: float,
        load: SystemLoad = IDLE,
        chunk: int = 1,
        gap_factor: float = GAP_FACTOR,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if gap_factor <= 1.0:
            raise ValueError("gap_factor must exceed 1")
        self.sampler = sampler
        self.t0 = t0
        self.t1 = t1
        self.load = load
        self.chunk = chunk
        self.gap_factor = gap_factor
        self.metrics = resolve_registry(metrics)
        self.deltas_emitted = 0
        self.gaps_detected = 0

    @property
    def start_t(self) -> float:
        return self.t0

    @property
    def reads_issued(self) -> int:
        """Counter reads actually performed so far (dropped reads excluded)."""
        return self.sampler.reads_issued

    def events(self) -> Iterator[SourceEvent]:
        ticks = self.sampler.iter_samples(self.t0, self.t1, load=self.load)
        prev: Optional[PcSample] = None
        try:
            while True:
                batch = list(islice(ticks, self.chunk))
                if not batch:
                    return
                # the span brackets only the extraction call — it must not
                # cross the yields below (interleaved sessions would
                # corrupt the registry's nesting stack)
                with self.metrics.span("source.extract"):
                    extracted = nonzero_deltas_vectorized(batch, prev=prev)
                for delta in extracted:
                    delta = self._finalize(delta)
                    self.deltas_emitted += 1
                    yield (delta.t, delta)
                prev = batch[-1]
        finally:
            # runs on natural exhaustion AND on generator close (a mode
            # switch abandoning the stream), so the tallies always land
            if self.metrics.enabled:
                self.metrics.counter("source.deltas_emitted").inc(self.deltas_emitted)
                self.metrics.counter("source.gaps_detected").inc(self.gaps_detected)

    def _finalize(self, delta: PcDelta) -> PcDelta:
        """Stamp the gap flag on a delta spanning missed reads."""
        if delta.t - delta.prev_t > self.gap_factor * self.sampler.interval_s:
            self.gaps_detected += 1
            if not delta.gap:
                delta = replace(delta, gap=True)
        return delta
