"""Fault-machinery overhead: disabled injection must be (nearly) free.

The fault subsystem (``repro.faults``) promises that with no plan
installed the sampling fast path is hook-free: ``FaultPlan.injector``
returns ``None`` for a disabled plan, so the sampler and device file
never consult an injector.  This bench pins the cost of having the
machinery *available but off* at under 5 % of a pre-fault-subsystem run,
and bounds the cost of handling the mild profile's faults.

The mild bound compares fault handling on one read path.  An fd whose
interposer chain is empty skips the per-wakeup request step, while any
interposer (a fault injector included) makes one read request per
wakeup, so the baseline arm is an fd carrying a no-op ``Interposer()``:
both arms make one request per wakeup, and the ratio is what the faults
themselves cost.
"""

import statistics
import time

import numpy as np
import pytest

from conftest import run_once
from repro.core.model_store import ModelStore
from repro.core.pipeline import (
    AttackStage,
    EavesdropAttack,
    simulate_credential_entry,
    train_model,
)
from repro.faults import FaultPlan
from repro.kgsl.interpose import Interposer, open_sampler
from repro.runtime import SamplerDeltaSource, Session, SessionRuntime
from repro.runtime.source import ATTACK_SOURCE_CHUNK

pytestmark = pytest.mark.bench

CREDENTIAL = "hunter2pw"
ROUNDS = 7


@pytest.fixture(scope="module")
def store(config, chase):
    store = ModelStore()
    store.add(train_model(config, chase, seed=7))
    return store


@pytest.fixture(scope="module")
def trace(config, chase):
    return simulate_credential_entry(config, chase, CREDENTIAL, seed=1)


def median_runtime(store, trace, fault_plan, run=None):
    attack = EavesdropAttack(store, recognize_device=False, fault_plan=fault_plan)
    run = run or (lambda: attack.run_on_trace(trace, seed=101))
    times = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_on_noop_fd(store, trace, seed=101):
    """One attack session on an fd carrying a no-op ``Interposer()``,
    wired as ``EavesdropAttack.session_spec`` wires a session."""
    attack = EavesdropAttack(
        store, recognize_device=False, fault_plan=None, mitigation=None, drift=None
    )
    sampler = open_sampler(
        trace, attack.interval_s, np.random.default_rng(seed), (Interposer(),)
    )
    source = SamplerDeltaSource(
        sampler, 0.0, trace.end_time_s, chunk=ATTACK_SOURCE_CHUNK, metrics=attack.metrics
    )
    runtime = SessionRuntime(metrics=attack.metrics)
    session = runtime.add_session(Session("attack", source, AttackStage(attack, source)))
    runtime.run()
    return session.result


def test_disabled_faults_add_under_5_percent(benchmark, store, trace):
    baseline = median_runtime(store, trace, fault_plan=None)
    disabled = run_once(
        benchmark, lambda: median_runtime(store, trace, FaultPlan.from_profile("none"))
    )
    overhead = disabled / baseline - 1.0
    print(
        f"\nfault machinery off: baseline {baseline * 1e3:.1f} ms, "
        f"disabled-plan {disabled * 1e3:.1f} ms ({overhead:+.1%})"
    )
    assert overhead < 0.05, "disabled fault injection must stay within 5% of baseline"


def test_mild_profile_overhead_is_bounded(store, trace):
    baseline = median_runtime(
        store, trace, fault_plan=None, run=lambda: run_on_noop_fd(store, trace)
    )
    mild = median_runtime(store, trace, FaultPlan.from_profile("mild", seed=0))
    print(
        f"\nmild profile: no-op-interposer baseline {baseline * 1e3:.1f} ms, "
        f"mild {mild * 1e3:.1f} ms ({mild / baseline - 1.0:+.1%})"
    )
    # retries, re-registration and jitter cost real work, but the
    # resilient path must stay the same order of magnitude
    assert mild < baseline * 3.0
