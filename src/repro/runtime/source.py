"""Event sources: where a session's timestamped payloads come from.

An :class:`EventSource` is anything that can be turned into an iterator
of ``(t, payload)`` pairs in non-decreasing ``t`` order.  The runtime
pulls from sources *lazily* — one event per scheduling step — so a
source backed by a live sampler only issues the counter reads that are
actually consumed (a mode switch abandons the rest, exactly like the
Android service dropping its idle poll when it escalates).

:class:`SamplerDeltaSource` is the production source: it drives
:meth:`~repro.kgsl.sampler.PerfCounterSampler.iter_batches` and yields
only the nonzero counter deltas — the attack's raw event stream, and
the one every consumer (online attack, offline trainer, lifecycle
runner, trace inspection) reads.  It pulls ``chunk`` reads per step, as
one :class:`~repro.kgsl.sampler.ReadBatch` of ``int64`` rows and a
missing-counter mask, and differences each batch with the one
extractor, :func:`~repro.kgsl.sampler.nonzero_deltas_vectorized`, which
masks unknown counters itself.  A larger chunk
trades mode-switch granularity for throughput (the attack uses 64); the
monitoring service's idle watch uses ``chunk=1``, a batch of one, so
escalation happens on the confirming read.  While it yields a batch's
deltas one event at a time, the source exposes the whole batch
(:attr:`SamplerDeltaSource.batch`), so the attack stage can hand it to
the online engine at its first delta.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional, Protocol, Tuple, runtime_checkable

from repro.kgsl.sampler import (
    IDLE,
    PcDelta,
    PerfCounterSampler,
    ReadBatch,
    SystemLoad,
    nonzero_deltas_vectorized,
)
from repro.obs import MetricsRegistry, resolve_registry

#: One timestamped payload a session's source hands its stage.
SourceEvent = Tuple[float, object]

#: Reads pulled per step by the attack-phase source (and the offline
#: trainer, which samples exactly as the attack does).
ATTACK_SOURCE_CHUNK = 64


@runtime_checkable
class EventSource(Protocol):
    """A stream of timestamped payloads in non-decreasing time order."""

    def events(self) -> Iterator[SourceEvent]: ...


class SamplerDeltaSource:
    """Streams nonzero PC deltas from a live :class:`PerfCounterSampler`.

    Args:
        sampler: the counter-reading service (owns the KGSL fd and RNG).
        t0, t1: sampling window.
        load: concurrent CPU/GPU load during the window.
        chunk: reads pulled and differenced per step; ``1`` yields each
            delta on the read that completes it.
        metrics: optional :class:`repro.obs.MetricsRegistry`.  Emission
            and gap tallies are flushed once when the stream closes
            (also on abandonment by a mode switch); each extraction is
            additionally timed under a ``source.extract`` span.
    """

    #: A delta spanning more than this many nominal sampling intervals
    #: is flagged ``gap=True`` (reads between its endpoints were dropped
    #: or deferred).
    GAP_FACTOR = 3.0

    def __init__(
        self,
        sampler: PerfCounterSampler,
        t0: float,
        t1: float,
        load: SystemLoad = IDLE,
        chunk: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.sampler = sampler
        self.t0 = t0
        self.t1 = t1
        self.load = load
        self.chunk = chunk
        self.metrics = resolve_registry(metrics)
        self.deltas_emitted = 0
        self.gaps_detected = 0
        #: The deltas of the read batch being yielded, and the position
        #: of the latest yielded one in it: a consumer can take the
        #: whole batch at its first delta.
        self.batch: Tuple[PcDelta, ...] = ()
        self.cursor = 0

    @property
    def start_t(self) -> float:
        return self.t0

    @property
    def reads_issued(self) -> int:
        """Counter reads actually performed so far (dropped reads excluded)."""
        return self.sampler.reads_issued

    def events(self) -> Iterator[SourceEvent]:
        batches = self.sampler.iter_batches(
            self.t0, self.t1, load=self.load, chunk=self.chunk
        )
        prev: Optional[ReadBatch] = None
        limit = self.GAP_FACTOR * self.sampler.interval_s
        try:
            for batch in batches:
                # the span brackets only the extraction call — it must not
                # cross the yields below (interleaved sessions would
                # corrupt the registry's nesting stack)
                with self.metrics.span("source.extract"):
                    extracted = nonzero_deltas_vectorized(batch, prev=prev)
                # a delta spanning missed reads carries the gap flag (the
                # extractor never sets it, so the flag marks exactly those)
                self.batch = tuple(
                    replace(delta, gap=True) if delta.t - delta.prev_t > limit else delta
                    for delta in extracted
                )
                for cursor, delta in enumerate(self.batch):
                    self.cursor = cursor
                    # tallies count yielded deltas only: a mode switch
                    # may abandon the batch part way
                    self.deltas_emitted += 1
                    self.gaps_detected += delta.gap
                    yield (delta.t, delta)
                prev = batch
        finally:
            # runs on natural exhaustion AND on generator close (a mode
            # switch abandoning the stream), so the tallies always land
            if self.metrics.enabled:
                self.metrics.counter("source.deltas_emitted").inc(self.deltas_emitted)
                self.metrics.counter("source.gaps_detected").inc(self.gaps_detected)
