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
the one the online attack, monitoring service, lifecycle runner and
trace inspection read; the offline trainer reads the batches' arrays
itself.  It pulls ``chunk`` reads per step, as
one :class:`~repro.kgsl.sampler.ReadBatch` of ``int64`` rows and a
missing-counter mask, and differences each batch with
:func:`~repro.kgsl.sampler.nonzero_deltas_vectorized` into one
:class:`~repro.kgsl.sampler.DeltaBatch`.  Each batch with deltas is one
event whose payload is the slice ``(batch, 0, len(batch))``; the
session runtime dispatches its rows to the stage in slices
``(batch, lo, hi)``, and a consumer reads the rows from the batch's
arrays.  A larger chunk trades mode-switch granularity for throughput:
the attack uses 64; the monitoring service's idle watch uses
``chunk=1``, a batch of one, so escalation happens on the confirming
read.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.kgsl.sampler import (
    IDLE,
    DeltaBatch,
    PerfCounterSampler,
    ReadBatch,
    SystemLoad,
    nonzero_deltas_vectorized,
)
from repro.obs import MetricsRegistry, resolve_registry

#: One timestamped payload a session's source hands its stage.
SourceEvent = Tuple[float, object]

#: Reads pulled per step by the attack-phase source.
ATTACK_SOURCE_CHUNK = 64


@runtime_checkable
class EventSource(Protocol):
    """A stream of row batches in non-decreasing time order: each event
    is ``(t, (batch, 0, len(batch)))``, ``t`` the first row's time and
    ``batch.t`` every row's.  A source may also define
    ``abandon(batch, lo, hi)``, which the runtime calls with the rows of
    a yielded batch that a mode switch leaves undelivered."""

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

    @property
    def start_t(self) -> float:
        return self.t0

    @property
    def reads_issued(self) -> int:
        """Counter reads actually performed so far (dropped reads excluded)."""
        return self.sampler.reads_issued

    def abandon(self, deltas: DeltaBatch, lo: int, hi: int) -> None:
        """Take rows ``[lo, hi)`` of a yielded batch, which a mode switch
        left undelivered, off the tallies: they count delivered rows."""
        self.deltas_emitted -= hi - lo
        self.gaps_detected -= int(np.count_nonzero(deltas.gap[lo:hi]))

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
                    deltas = nonzero_deltas_vectorized(batch, prev=prev)
                # a delta spanning missed reads carries the gap flag
                deltas = replace(deltas, gap=deltas.t - deltas.prev_t > limit)
                if len(deltas):
                    # tallies count every row now; the runtime returns the
                    # rows a mode switch leaves undelivered (abandon)
                    self.deltas_emitted += len(deltas)
                    self.gaps_detected += int(np.count_nonzero(deltas.gap))
                    yield (float(deltas.t[0]), (deltas, 0, len(deltas)))
                prev = batch
        finally:
            # runs on natural exhaustion AND on generator close (a mode
            # switch abandoning the stream), so the tallies always land
            if self.metrics.enabled:
                self.metrics.counter("source.deltas_emitted").inc(self.deltas_emitted)
                self.metrics.counter("source.gaps_detected").inc(self.gaps_detected)
