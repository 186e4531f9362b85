"""Chunk invariance: a session's trace and result do not depend on how
many reads its source pulls per batch.

The attack source pulls ``ATTACK_SOURCE_CHUNK`` reads per step, the
runtime dispatches slices of each batch, and the sampler's fault notes
(retries, clock jitter, dropped samples, reclaimed counters) go out just
before the first row at or after the read they precede, stamped with the
device time of the wakeup or request they describe.  These properties
run the same sessions at chunks 1, 7, 64 and 512 — clean, under mild
faults, under the two defended chains, under drift, and with a two-model
store whose recognition buffer resolves part way into a batch — both
serially and as a two-worker step-log run, and demand the same trace
events (order, time, stage, kind and detail) and the same results.
"""

from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro.api import AttackConfig, DriftPlan, FaultPlan, app, run_sessions, simulate
from repro.core.device_recognition import MAX_RECOGNITION_DELTAS
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack, train_model
from repro.parallel.sharded import ShardedRuntime
from repro.runtime.trace import RuntimeTrace

CHUNKS = (1, 7, 64, 512)

#: the thermal-mild profile throttles from 6 s on, past the end of these
#: short sessions; its onset moves to 1 s so drift rewrites every session
DRIFT = replace(DriftPlan.from_profile("thermal-mild"), thermal_onset_s=1.0)


def _chain(policy):
    return AttackConfig(
        recognize_device=False, fault_plan="mild", drift=DRIFT, mitigation=policy
    )


#: setup -> (store fixture, the session config for a fault seed)
SETUPS = {
    "no-faults": ("chase_store", lambda seed: AttackConfig(recognize_device=False, fault_plan=None)),
    "mild-faults": (
        "chase_store",
        lambda seed: AttackConfig(
            recognize_device=False, fault_plan=FaultPlan.from_profile("mild", seed=seed)
        ),
    ),
    "obfuscate-mild": ("chase_store", lambda seed: _chain("obfuscate-mild")),
    "rate-limit-30hz": ("chase_store", lambda seed: _chain("rate-limit-30hz")),
    "drift": (
        "chase_store",
        lambda seed: AttackConfig(recognize_device=False, fault_plan=None, drift=DRIFT),
    ),
    # the buffer of MAX_RECOGNITION_DELTAS rows resolves mid-batch at
    # chunk 64 and 512, with fault notes due inside and after it
    "two-model-recognition": (
        "two_model_store",
        lambda seed: AttackConfig(fault_plan=FaultPlan.from_profile("mild", seed=seed)),
    ),
}


@pytest.fixture(scope="module")
def two_model_store(chase_model, config):
    store = ModelStore()
    store.add(chase_model)
    store.add(train_model(config, app("amex"), seed=8))
    return store


@pytest.fixture(scope="module")
def victims(config):
    return [
        simulate(config, app("chase"), text, seed=seed)
        for text, seed in (("pw1x5", 3), ("hunter2secret", 11))
    ]


def observed(store, traces, config, seed, chunk, workers):
    """Every trace event and every result field a run fixes, at
    ``chunk`` reads per source step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "ATTACK_SOURCE_CHUNK", chunk)
        source, _ = EavesdropAttack(store, fault_plan=None).session_spec(traces[0])
        assert source.chunk == chunk
        trace = RuntimeTrace()
        if workers == 1:
            batch = run_sessions(store, traces, seed=seed, config=config, runtime_trace=trace)
        else:
            batch = ShardedRuntime(
                store, config=config, workers=workers, mp_context="inline"
            ).run_sessions(traces, seed=seed, runtime_trace=trace)
    events = [(e.t, e.session, e.stage, e.kind, dict(e.detail)) for e in trace.events]
    results = [
        (
            r.text,
            r.model_key,
            r.recognition,
            r.reads_issued,
            r.reads_dropped,
            vars(r.faults) if r.faults is not None else None,
            r.degraded,
            r.stats,
            r.keys,
        )
        for r in batch
    ]
    return trace.emitted, events, results


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "step-log"])
@pytest.mark.parametrize("setup", sorted(SETUPS))
# a seed has no smaller form worth the shrinker's reruns: report the first
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**16), fault_seed=st.integers(0, 2**16))
def test_trace_and_result_are_the_same_at_every_chunk(
    request, victims, setup, workers, seed, fault_seed
):
    store_fixture, make_config = SETUPS[setup]
    store = request.getfixturevalue(store_fixture)
    config = make_config(fault_seed)
    runs = [observed(store, victims, config, seed, chunk, workers) for chunk in CHUNKS]
    for chunk, run in zip(CHUNKS[1:], runs[1:]):
        assert run == runs[0], f"chunk {chunk} diverges from chunk {CHUNKS[0]}"


def test_the_recognition_setup_resolves_mid_batch(two_model_store, chase_model, victims):
    """The two-model setup checks the buffer's replay only if a session's
    buffer fills before its stream ends, inside one of its batches at
    the larger chunks, and the session goes on streaming after it."""
    config = SETUPS["two-model-recognition"][1](0)
    _, events, results = observed(two_model_store, victims, config, 7, 512, 1)
    resolved = {e[1]: e[0] for e in events if e[3] == "device_recognized"}
    ended = {e[1]: e[0] for e in events if e[3] == "session_end"}
    assert [r[1] for r in results] == [chase_model.model_key] * len(victims)
    assert max(r[7].deltas_seen for r in results) > MAX_RECOGNITION_DELTAS
    assert any(resolved[session] < ended[session] for session in resolved)
