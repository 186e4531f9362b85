"""Slice dispatch is per-delta dispatch.

The session runtime hands a stage a slice of a batch's rows for as long
as dispatching row by row would pop the same session again: while each
row's time is below the heap's next key.  These properties run 2-4
interleaved sessions through the runtime and through the one-row-per-event
loop it replaced (``tests.oracles.PerDeltaRuntime``) and demand the same
trace, counters and per-session results.  Kept without a step log, the
runtime dispatches multi-row slices; kept with one, it dispatches a row
per record, and the logs must match too and per-shard logs replay into
the serial trace byte for byte.  The sessions start
at staggered times, repeat each other's read times exactly, carry masked
and gap rows that raise a ``degraded`` reason mid-slice, and include a
monitoring-service session that switches modes mid-batch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.core.launch import IDLE_POLL_INTERVAL_S, LaunchDetector, LaunchWatchStage
from repro.core.pipeline import AttackStage, EavesdropAttack, simulate_credential_entry
from repro.faults import FaultPlan
from repro.kgsl.interpose import build_chain, open_sampler
from repro.parallel.merge import merge_attack_outputs
from repro.parallel.worker import SessionStepLog, ShardOutput
from repro.runtime import RuntimeTrace, SamplerDeltaSource, Session, SessionRuntime
from tests.oracles import PerDeltaRuntime

#: counters reclaimed (masked deltas) and reads dropped (gaps) often
#: enough that a short session raises both degraded reasons
FAULTS = FaultPlan(reclaim_rate_hz=3.0, reclaim_window_s=0.05, drop_prob=0.25)


@pytest.fixture(scope="module")
def victims(config):
    """Two typed credentials and one session that launches the target
    app before typing into it."""
    typed = [
        simulate_credential_entry(config, app("chase"), text, seed=seed)
        for text, seed in (("pw1", 5), ("k9z", 6))
    ]
    device = VictimDevice(config, app("chase"), rng=np.random.default_rng(31))
    keys = [KeyPress(t=2.6 + 0.45 * i, char=c) for i, c in enumerate("ab1")]
    launched = device.compile(keys, end_time_s=4.4, launch_at_s=1.2)
    return typed, launched


def build_sessions(specs, victims, store):
    """Fresh sessions for ``specs``: ``("attack", victim, seed, t0,
    chunk)`` samples a typed credential from ``t0``; ``("service", seed,
    chunk, attack_chunk)`` watches the launching victim with
    ``chunk``-read polls and escalates into an attack mid-batch."""
    typed, launched = victims
    attack = EavesdropAttack(store, fault_plan=FAULTS)
    sessions = []
    for index, spec in enumerate(specs):
        sid = f"attack-{index}"
        if spec[0] == "attack":
            _, victim, seed, t0, chunk = spec
            trace = typed[victim]
            sampler = open_sampler(
                trace, attack.interval_s, np.random.default_rng(seed), build_chain(FAULTS, seed=seed)
            )
            source = SamplerDeltaSource(sampler, t0, trace.end_time_s, chunk=chunk)
            sessions.append(Session(sid, source, AttackStage(attack, source)))
            continue
        _, seed, chunk, attack_chunk = spec

        def escalate(session, event, seed=seed, attack_chunk=attack_chunk):
            sampler = open_sampler(
                launched, attack.interval_s, np.random.default_rng(seed + 1),
                build_chain(FAULTS, seed=seed + 1),
            )
            source = SamplerDeltaSource(sampler, event.t, launched.end_time_s, chunk=attack_chunk)
            session.switch_mode(source, AttackStage(attack, source))

        watcher = open_sampler(launched, IDLE_POLL_INTERVAL_S, np.random.default_rng(seed))
        source = SamplerDeltaSource(watcher, 0.0, launched.end_time_s, chunk=chunk)
        stage = LaunchWatchStage(LaunchDetector(store.get(store.keys()[0])), on_launch=escalate)
        sessions.append(Session(sid, source, stage))
    return sessions


def events_of(trace):
    return [(e.t, e.session, e.stage, e.kind, dict(e.detail)) for e in trace.events]


def outcome(session):
    """What one session left: its tallies and, for an attack, its result."""
    result = session.result
    inferred = None
    if result is not None:
        inferred = (
            [(k.t, k.char, k.distance) for k in result.keys],
            result.stats,
            result.online.latency.count,
            result.reads_issued,
            result.degraded,
        )
    return (
        session.events_dispatched,
        session.mode_switches,
        session.degraded_reasons,
        session.source.deltas_emitted,
        session.source.gaps_detected,
        inferred,
    )


def run(runtime_cls, specs, victims, store, step_log=False):
    trace, log = RuntimeTrace(capacity=None), [] if step_log else None
    runtime = runtime_cls(trace=trace, step_log=log)
    sessions = [runtime.add_session(s) for s in build_sessions(specs, victims, store)]
    runtime.run()
    return trace, log, [outcome(s) for s in sessions]


def sharded_trace(specs, victims, store):
    """The serial trace rebuilt from two shards' step logs."""
    outputs = []
    for shard in (0, 1):
        indices = [i for i in range(len(specs)) if i % 2 == shard]
        if not indices:
            continue
        trace, log = RuntimeTrace(capacity=None), []
        runtime = SessionRuntime(trace=trace, step_log=log)
        sessions = build_sessions(specs, victims, store)
        for i in indices:
            runtime.add_session(sessions[i])
        runtime.run()
        logs = {f"attack-{i}": SessionStepLog(index=i, session_id=f"attack-{i}") for i in indices}
        for kind, sid, t, e0, e1 in log:
            logs[sid].steps.append((kind, t, e0, e1))
        outputs.append(
            ShardOutput(
                shard=shard,
                indices=indices,
                session_logs=[logs[f"attack-{i}"] for i in indices],
                events=list(trace.events),
                results=[None] * len(indices),
            )
        )
    merged = RuntimeTrace(capacity=None)
    merge_attack_outputs(outputs, merged)
    return merged


attack_spec = st.tuples(
    st.just("attack"),
    st.integers(0, 1),
    st.sampled_from([1, 2]),
    st.sampled_from([0.0, 0.0, 0.3]),
    st.integers(1, 64),
)
service_spec = st.tuples(st.just("service"), st.integers(3, 5), st.integers(2, 12), st.integers(1, 64))


@given(specs=st.lists(st.one_of(attack_spec, attack_spec, service_spec), min_size=2, max_size=4))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_slice_dispatch_is_per_delta_dispatch(victims, chase_store, specs):
    ref_trace, ref_log, ref_outcomes = run(
        PerDeltaRuntime, specs, victims, chase_store, step_log=True
    )
    for step_log in (False, True):
        trace, log, outcomes = run(SessionRuntime, specs, victims, chase_store, step_log)
        assert events_of(trace) == events_of(ref_trace)
        assert trace.counters == ref_trace.counters
        assert outcomes == ref_outcomes
    assert log == ref_log
    assert events_of(sharded_trace(specs, victims, chase_store)) == events_of(trace)


def test_the_property_reaches_mid_slice_reasons_and_mid_batch_switches(
    victims, chase_store, monkeypatch
):
    """One fixed interleaving shows what the property covers: multi-row
    slices, both degraded reasons raised, and a service session that
    escalates."""
    widths = []
    on_event = AttackStage.on_event

    def spy(self, session, t, rows):
        widths.append(rows[2] - rows[1])
        return on_event(self, session, t, rows)

    monkeypatch.setattr(AttackStage, "on_event", spy)
    specs = [("attack", 0, 1, 0.0, 64), ("attack", 0, 1, 0.0, 64), ("service", 4, 8, 64)]
    trace, _, outcomes = run(SessionRuntime, specs, victims, chase_store)
    assert max(widths) > 1, "the runtime must dispatch multi-row slices"
    ref = run(PerDeltaRuntime, specs, victims, chase_store)
    assert (events_of(trace), outcomes) == (events_of(ref[0]), ref[2])
    degraded = [e for e in trace.events if e.kind == "degraded"]
    assert {e.detail["detail"] for e in degraded} >= {"masked_delta", "gap"}
    assert trace.count(kind="mode_switch") == 1
    service = outcomes[2]
    assert service[1] == 1 and service[5] is not None, "the service escalated and attacked"
