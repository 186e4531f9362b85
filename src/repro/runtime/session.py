"""The session runtime: N concurrent eavesdropping sessions, one timeline.

The paper's online phase is a stream — the monitoring service reads
counters every 8 ms and feeds nonzero deltas to Algorithm 1 as they
appear.  :class:`SessionRuntime` is that loop, generalized: every victim
session is a :class:`Session` (an :class:`~repro.runtime.source.EventSource`
plus the one :class:`Stage` that consumes it), and the runtime merges all
sessions onto one :class:`~repro.runtime.clock.VirtualClock` timeline,
always advancing the session whose stream is furthest behind.

Scheduling is **pull-then-dispatch**: the runtime never looks ahead into
a source, because pulling a sample *is* the side effect (an ioctl read,
an RNG draw, a power-model charge).  The heap is keyed by each session's
last dispatched event time, which makes the global dispatch order
near-sorted — exact within a session, off by at most one in-flight event
across sessions, which is all independent victim devices need.

A stage can replace its session's source and stage mid-stream via
:meth:`Session.switch_mode`; the swap is applied after the current
dispatch completes.  This is how the monitoring service escalates from
the 4 Hz idle watch to the 8 ms attack loop without a hand-rolled outer
loop.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator, List, Optional, Protocol, Tuple

from repro.obs import MetricsRegistry, resolve_registry
from repro.runtime.clock import VirtualClock
from repro.runtime.source import EventSource, SourceEvent
from repro.runtime.trace import RuntimeTrace


class Stage(Protocol):
    """The consumer of a session's event stream.

    ``on_event`` receives each slice ``(batch, lo, hi)`` of a source
    batch's rows the runtime dispatches, ``t`` the time of row ``lo``.
    A stage that calls :meth:`Session.switch_mode` at a row stops there
    and returns the row after it (the runtime raises if it returns
    ``None`` from a slice of several rows); otherwise it consumes the
    slice and returns ``None``.  ``on_end`` is called once when the
    session's source is exhausted; it publishes the session's result and
    may not switch modes.
    """

    name: str

    def on_event(
        self, session: "Session", t: float, rows: Tuple[object, int, int]
    ) -> Optional[int]: ...

    def on_end(self, session: "Session", t: float) -> None: ...


class Session:
    """One victim session scheduled by the runtime."""

    def __init__(self, session_id: str, source: EventSource, stage: Stage) -> None:
        self.id = session_id
        self.source = source
        self.stage = stage
        self.result: object = None
        self.finished = False
        self.last_t = float(getattr(source, "start_t", 0.0))
        self.events_dispatched = 0
        self.mode_switches = 0
        self.degraded = False
        self.degraded_reasons: List[str] = []
        self.runtime: Optional["SessionRuntime"] = None
        self._iter: Optional[Iterator[SourceEvent]] = None
        #: the undispatched rows of the current batch: (batch, row times,
        #: next row, end)
        self._cursor: Optional[Tuple[object, List[float], int, int]] = None
        self._replacement: Optional[Tuple[EventSource, Stage]] = None

    # -- stage-facing API ----------------------------------------------

    @property
    def trace(self) -> RuntimeTrace:
        assert self.runtime is not None, "session is not attached to a runtime"
        return self.runtime.trace

    def mark_degraded(self, t: float, reason: str) -> None:
        """Record that this session is running in degraded mode.

        Emits one ``degraded`` trace event per distinct *reason* (the
        event log stays bounded however noisy the fault plan is); the
        session-level flag feeds the final result objects.
        """
        self.degraded = True
        if reason in self.degraded_reasons:
            return
        self.degraded_reasons.append(reason)
        self.trace.emit(t, self.id, "runtime", "degraded", detail=reason)

    def switch_mode(self, source: EventSource, stage: Stage) -> None:
        """Replace this session's source and stage.

        Takes effect after the current dispatch; the remainder of the old
        source is abandoned unread (its sampler stops polling).  Only
        ``on_event`` may switch: a session whose source has ended has
        nothing left to escalate.
        """
        self._replacement = (source, stage)

    # -- runtime-facing internals --------------------------------------

    def _events(self) -> Iterator[SourceEvent]:
        if self._iter is None:
            self._iter = iter(self.source.events())
        return self._iter

    def _apply_switch(self) -> bool:
        if self._replacement is None:
            return False
        abandon = getattr(self.source, "abandon", None)
        if self._cursor is not None and abandon is not None:
            batch, _, lo, hi = self._cursor
            abandon(batch, lo, hi)
        if self._iter is not None:
            self._iter.close()
        self.source, self.stage = self._replacement
        self._replacement = None
        self._iter = None
        self._cursor = None
        self.mode_switches += 1
        return True


_END = object()

#: One scheduler decision recorded in a step log:
#: ``(kind, session_id, t, e0, e1)`` where ``kind`` is ``start`` /
#: ``event`` / ``end``, ``t`` is the session's heap key
#: after the step, and ``[e0, e1)`` is the half-open range of trace
#: ordinals (:attr:`RuntimeTrace.emitted`) this step produced.  A
#: runtime that keeps a step log dispatches one row per ``event``, so
#: that sharded logs interleave row by row.
StepRecord = Tuple[str, str, float, int, int]


class SessionRuntime:
    """Schedules N concurrent sessions on one virtual timeline.

    ``step_log`` (optional) records one :data:`StepRecord` per scheduler
    decision.  The sharded runtime (`repro.parallel`) runs disjoint
    session subsets in worker processes with a step log each, then
    replays the heap algorithm over the merged logs to reconstruct the
    exact global dispatch — and therefore trace — order a serial run
    would have produced.
    """

    def __init__(
        self,
        trace: Optional[RuntimeTrace] = None,
        metrics: Optional[MetricsRegistry] = None,
        step_log: Optional[List[StepRecord]] = None,
    ) -> None:
        self.clock = VirtualClock()
        self.trace = trace if trace is not None else RuntimeTrace()
        self.metrics = resolve_registry(metrics)
        self.sessions: List[Session] = []
        self.step_log = step_log
        self._seq = 0

    # ------------------------------------------------------------------

    def add_session(self, session: Session) -> Session:
        session.runtime = self
        self.sessions.append(session)
        return session

    # ------------------------------------------------------------------

    def run(self) -> RuntimeTrace:
        """Drain every session; returns the shared event log.

        With an enabled registry the scheduler publishes its throughput
        afterwards (sessions completed, events dispatched, wall and
        virtual time, sessions/s).  All wall-clock reads sit at the run
        boundary; the dispatch loop itself never touches the registry.
        """
        wall_start = time.perf_counter() if self.metrics.enabled else 0.0
        run_span = self.metrics.span("runtime.run", clock=self.clock)
        with run_span:
            self._run(heap=[])
        if self.metrics.enabled:
            self._flush_metrics(time.perf_counter() - wall_start)
        return self.trace

    def _start(self, heap: List[Tuple[float, int, Session]]) -> None:
        for session in self.sessions:
            if not session.finished:
                e0 = self.trace.emitted
                self.trace.emit(session.last_t, session.id, "runtime", "session_start")
                self._record("start", session, session.last_t, e0)
                self._push(heap, session)

    def _end(self, session: Session, e0: int) -> None:
        session.stage.on_end(session, session.last_t)
        if session._replacement is not None:
            raise RuntimeError(f"session {session.id!r}: switch_mode called from on_end")
        session.finished = True
        self.trace.emit(session.last_t, session.id, "runtime", "session_end")
        self._record("end", session, session.last_t, e0)

    def _run(self, heap: List[Tuple[float, int, Session]]) -> None:
        self._start(heap)
        step_log = self.step_log
        while heap:
            _, _, session = heapq.heappop(heap)
            e0 = self.trace.emitted
            cursor = session._cursor
            if cursor is None:
                event = next(session._events(), _END)
                if event is _END:
                    self._end(session, e0)
                    continue
                _, (batch, lo, hi) = event
                times = batch.t.tolist()
            else:
                batch, times, lo, hi = cursor
            # per-row dispatch would pop this session again after a row
            # while the row's time is below the next key: re-pushed, it
            # carries the largest seq and so loses ties.  A step log
            # records each row as its own dispatch.
            end = lo + 1
            if step_log is None:
                if not heap:
                    end = hi
                else:
                    top = heap[0][0]
                    while end < hi and times[end - 1] < top:
                        end += 1
            session.last_t = times[lo]
            stop = session.stage.on_event(session, times[lo], (batch, lo, end))
            if stop is not None:
                end = stop
            elif session._replacement is not None and end - lo > 1:
                raise RuntimeError(
                    f"session {session.id!r}: its stage switched modes without ending the slice"
                )
            session._cursor = (batch, times, end, hi) if end < hi else None
            t = times[end - 1]
            self.clock.advance_to(t)
            session.last_t = t
            session.events_dispatched += end - lo
            if session._apply_switch():
                self.trace.emit(t, session.id, "runtime", "mode_switch")
            self._record("event", session, t, e0)
            self._push(heap, session)

    def _record(self, kind: str, session: Session, t: float, e0: int) -> None:
        if self.step_log is not None:
            self.step_log.append((kind, session.id, t, e0, self.trace.emitted))

    def _flush_metrics(self, wall_s: float) -> None:
        """One post-run rollup of scheduler throughput (enabled registry
        only; repeated ``run()`` calls on one runtime accumulate)."""
        completed = sum(1 for s in self.sessions if s.finished)
        events = sum(s.events_dispatched for s in self.sessions)
        switches = sum(s.mode_switches for s in self.sessions)
        degraded = sum(1 for s in self.sessions if s.degraded)
        metrics = self.metrics
        metrics.counter("runtime.sessions_completed").inc(completed)
        metrics.counter("runtime.events_dispatched").inc(events)
        metrics.counter("runtime.mode_switches").inc(switches)
        metrics.counter("runtime.sessions_degraded").inc(degraded)
        metrics.gauge("runtime.wall_s").set(wall_s)
        metrics.gauge("runtime.virtual_span_s").set(self.clock.now)
        metrics.gauge("runtime.sessions_per_s").set(
            completed / wall_s if wall_s > 0 else 0.0
        )

    # ------------------------------------------------------------------

    def _push(self, heap: List[Tuple[float, int, Session]], session: Session) -> None:
        self._seq += 1
        heapq.heappush(heap, (session.last_t, self._seq, session))
