"""Recombining per-shard outputs into one serial-ordered result.

The hard part of sharding is not the fan-out, it is putting the trace
back together **byte-identically** to what a serial run would have
logged.  A timestamp sort cannot do that: the serial
:class:`~repro.runtime.session.SessionRuntime` heap is keyed by each
session's *previous* event time (pull-then-dispatch — the runtime can't
know the next event's time without pulling it), so the serial global
order is near-sorted, not sorted, and ties are broken by heap insertion
sequence.

So the merge *replays the scheduler*.  Each worker records a step log —
one ``(kind, t, e0, e1)`` record per scheduler decision, where
``[e0, e1)`` addresses the contiguous run of trace events that decision
emitted.  Because sessions are fully independent (own KGSL fd, sampler
RNG, engine), the events and heap keys a session produces are the same
whether it ran alone, in a shard, or in the serial batch; only the
*interleaving* differs.  The merge rebuilds the serial interleaving by
running the exact heap algorithm over the recorded per-session keys:
push every session with its start key in global add order, always pop
the smallest ``(t, seq)``, consume that session's next recorded step,
and replay its event range into the output trace.  By induction the
replayed heap state matches the serial heap at every pop, so the output
event order — and with a bounded output ring, the drop accounting — is
byte-identical to the serial run's.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.parallel.worker import SessionStepLog, ShardOutput
from repro.runtime.trace import RuntimeEvent, RuntimeTrace


def merge_attack_outputs(
    outputs: Iterable[ShardOutput], trace: RuntimeTrace
) -> Dict[int, object]:
    """Replay shard outputs into ``trace``; return results by global index.

    ``outputs`` may arrive in any order and may cover any subset of the
    global index space (crashed shards are synthesized by the caller
    before merging).  Raises if two shards claim the same session.
    """
    logs: Dict[int, SessionStepLog] = {}
    events_of: Dict[int, List[RuntimeEvent]] = {}
    results: Dict[int, object] = {}
    for output in outputs:
        for log, result in zip(output.session_logs, output.results):
            if log.index in logs:
                raise ValueError(f"session index {log.index} appears in two shards")
            logs[log.index] = log
            events_of[log.index] = output.events
            results[log.index] = result

    order = sorted(logs)
    cursors: Dict[int, int] = {}
    heap: List[Tuple[float, int, int]] = []
    seq = 0
    # phase 1 — the serial runtime emits every session_start (in session
    # add order) and seeds the heap before the dispatch loop begins
    for index in order:
        kind, t, e0, e1 = logs[index].steps[0]
        if kind != "start":
            raise ValueError(f"session {index}: step log does not begin with 'start'")
        for event in events_of[index][e0:e1]:
            trace.replay(event)
        cursors[index] = 1
        seq += 1
        heapq.heappush(heap, (t, seq, index))
    # phase 2 — the dispatch loop: pop the furthest-behind session,
    # replay the events its next recorded step produced, re-key it
    while heap:
        _, _, index = heapq.heappop(heap)
        log = logs[index]
        if cursors[index] >= len(log.steps):
            raise ValueError(f"session {index}: step log exhausted early")
        kind, t, e0, e1 = log.steps[cursors[index]]
        cursors[index] += 1
        for event in events_of[index][e0:e1]:
            trace.replay(event)
        if kind == "event":
            seq += 1
            heapq.heappush(heap, (t, seq, index))
        elif kind != "end":
            raise ValueError(f"session {index}: unknown step kind {kind!r}")
    for index, cursor in cursors.items():
        if cursor != len(logs[index].steps):
            raise ValueError(f"session {index}: {len(logs[index].steps) - cursor} steps unconsumed")
    return results


def synthesize_crashed_shard(shard: int, indices: Iterable[int]) -> ShardOutput:
    """A stand-in output for a shard whose worker died.

    Every lost session becomes a degraded placeholder: a ``session_start``
    / ``degraded`` / ``session_end`` trace triple at t=0 (the session's
    start key), and an empty, ``degraded=True``
    :class:`~repro.core.pipeline.AttackResult` — so a crash surfaces as
    marked-degraded sessions in the merged batch, never as silently
    missing indices.
    """
    from repro.core.online import OnlineResult
    from repro.core.pipeline import AttackResult

    session_logs: List[SessionStepLog] = []
    events: List[RuntimeEvent] = []
    results: List[object] = []
    for index in indices:
        sid = f"attack-{index}"
        e0 = len(events)
        events.append(RuntimeEvent(0.0, sid, "runtime", "session_start"))
        start_end = len(events)
        events.append(RuntimeEvent(0.0, sid, "runtime", "degraded", {"detail": "worker_crashed"}))
        events.append(RuntimeEvent(0.0, sid, "runtime", "session_end"))
        session_logs.append(
            SessionStepLog(
                index=index,
                session_id=sid,
                steps=[
                    ("start", 0.0, e0, start_end),
                    ("end", 0.0, start_end, len(events)),
                ],
            )
        )
        results.append(
            AttackResult(
                online=OnlineResult(),
                model_key="",
                recognition=None,
                reads_issued=0,
                reads_dropped=0,
                degraded=True,
            )
        )
    return ShardOutput(
        shard=shard,
        indices=list(indices),
        session_logs=session_logs,
        events=events,
        results=results,
        snapshot=None,
    )
