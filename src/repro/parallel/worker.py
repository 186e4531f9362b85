"""The spawn-safe worker half of the sharded runtime.

:func:`run_shard` is the function a worker process executes.  It is
deliberately a module-level function taking one picklable ``payload``
dict, so it works under every multiprocessing start method — including
``spawn``, where the child imports this module fresh and receives *no*
live parent objects.  Workers therefore rebuild their engines from
serialized state:

* the :class:`~repro.api.AttackConfig` travels as its ``to_dict()``
  form and is revived with ``AttackConfig.from_dict``;
* the model store travels either as its ``to_dict()`` payload or — the
  cheaper option for big stores — as a filesystem path the worker
  ``ModelStore.load``s itself;
* victim :class:`~repro.android.device.SessionTrace` objects are plain
  picklable dataclasses and ship directly.

Each shard runs its sessions on a private
:class:`~repro.runtime.session.SessionRuntime` with an unbounded
:class:`~repro.runtime.trace.RuntimeTrace` and a step log, and returns a
:class:`ShardOutput`: per-session results (trace references stripped —
the parent reattaches the merged trace), the shard's raw events, the
per-session scheduler step logs the merge replays, and a metrics
snapshot when instrumentation is on.

"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.model_store import ModelStore
from repro.obs import MetricsRegistry
from repro.runtime.session import Session, SessionRuntime, StepRecord
from repro.runtime.trace import RuntimeEvent, RuntimeTrace


@dataclass
class SessionStepLog:
    """One session's ordered scheduler decisions inside its shard.

    ``steps`` entries are ``(kind, t, e0, e1)``: the step kind
    (``start`` / ``event`` / ``end``), the session's
    heap key after the step, and the half-open range of shard-trace
    event ordinals the step emitted.
    """

    index: int
    session_id: str
    steps: List[Tuple[str, float, int, int]] = field(default_factory=list)


@dataclass
class ShardOutput:
    """Everything one worker sends back to the parent."""

    shard: int
    indices: List[int]
    session_logs: List[SessionStepLog]
    events: List[RuntimeEvent]
    results: List[object]
    snapshot: Optional[Dict[str, object]] = None


def _rebuild(payload: Dict[str, object]):
    """Revive (config, store, metrics) from the pickled payload."""
    from repro.api import AttackConfig

    config = AttackConfig.from_dict(payload["config"])  # type: ignore[arg-type]
    store_path = payload.get("store_path")
    if store_path:
        store = ModelStore.load(store_path)  # type: ignore[arg-type]
    else:
        store = ModelStore.from_dict(payload["store"])  # type: ignore[arg-type]
    metrics = MetricsRegistry() if payload.get("metrics") else None
    return config, store, metrics


def run_shard(payload: Dict[str, object]) -> ShardOutput:
    """Run one shard's sessions; the process-pool entry point."""
    import repro.api as api

    config, store, metrics = _rebuild(payload)
    # same construction the serial facade uses, so a shard of one is the
    # serial pipeline
    attack = api._attacker(store, config, metrics=metrics)
    indices: List[int] = list(payload["indices"])  # type: ignore[arg-type]
    traces = payload["traces"]
    seed = int(payload["seed"])  # type: ignore[arg-type]

    shard_trace = RuntimeTrace(capacity=None)
    step_log: List[StepRecord] = []
    runtime = SessionRuntime(trace=shard_trace, metrics=metrics, step_log=step_log)
    sessions: List[Session] = []
    for global_i, victim in zip(indices, traces):  # type: ignore[arg-type]
        # identical naming and seeding to the serial run_sessions path:
        # session i is always "attack-i" seeded seed+i, whichever shard
        # (or single process) it lands on
        source, stage = attack.session_spec(
            victim, load=config.load, seed=seed + global_i
        )
        sessions.append(
            runtime.add_session(Session(f"attack-{global_i}", source, stage))
        )
    runtime.run()

    per_session: Dict[str, SessionStepLog] = {
        s.id: SessionStepLog(index=gi, session_id=s.id)
        for gi, s in zip(indices, sessions)
    }
    for kind, sid, t, e0, e1 in step_log:
        per_session[sid].steps.append((kind, t, e0, e1))

    results = []
    for s in sessions:
        result = s.result
        # the shard trace ships once via `events`; the parent reattaches
        # the merged run-level trace to every result
        result.trace = None
        if result.online is not None:
            result.online.trace = None
        results.append(result)

    return ShardOutput(
        shard=int(payload.get("shard", 0)),  # type: ignore[arg-type]
        indices=indices,
        session_logs=[per_session[s.id] for s in sessions],
        events=list(shard_trace.events),
        results=results,
        snapshot=metrics.snapshot() if metrics is not None else None,
    )
