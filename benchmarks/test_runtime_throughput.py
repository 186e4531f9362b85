"""Session-runtime throughput: many concurrent victims, one process.

The tentpole claim for the streaming runtime is that one process can
multiplex sampling + inference for a whole fleet of eavesdropping
sessions on a single virtual timeline.  This bench runs >=100 concurrent
sessions through ``run_sessions`` — each with its own KGSL file, sampler
RNG and online engine — and reports aggregate sessions/sec plus the
per-stage decision counters from the shared ``RuntimeTrace``.

Chunked sampling (``ATTACK_SOURCE_CHUNK`` reads per pull, vectorized
nonzero-delta extraction) is what keeps this tractable; the bench also
measures the vectorized extractor against the scalar one directly.
"""

import time

import numpy as np
import pytest

from conftest import run_once, scaled, write_bench_manifest
from repro.analysis.experiments import cached_model
from repro.core.model_store import ModelStore
from repro.core.pipeline import (
    EavesdropAttack,
    run_sessions,
    simulate_credential_entry,
)
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, nonzero_deltas_vectorized
from repro.obs import MetricsRegistry
from repro.runtime import RuntimeTrace
from tests.oracles import batch_deltas, nonzero_deltas, sample_range

pytestmark = pytest.mark.bench

#: Short credentials keep per-session traces ~3 s of virtual time so the
#: fleet-sized run stays inside the benchmark budget.
CREDENTIALS = ["pw1x5", "abc42", "zq9!k", "m3lon"]


def test_runtime_concurrent_sessions(benchmark, config, chase):
    sessions = scaled(100)
    store = ModelStore()
    store.add(cached_model(config, chase))
    registry = MetricsRegistry()
    attack = EavesdropAttack(store, recognize_device=False, metrics=registry)

    traces = [
        simulate_credential_entry(
            config, chase, CREDENTIALS[i % len(CREDENTIALS)], seed=9000 + i
        )
        for i in range(sessions)
    ]

    runtime_trace = RuntimeTrace(capacity=1024)

    def run():
        started = time.perf_counter()
        results = run_sessions(attack, traces, seed=9500, runtime_trace=runtime_trace)
        return results, time.perf_counter() - started

    results, elapsed = run_once(benchmark, run)

    exact = sum(
        1
        for i, r in enumerate(results)
        if r.text == CREDENTIALS[i % len(CREDENTIALS)]
    )
    throughput = sessions / elapsed
    print(f"\nRuntime throughput — {sessions} concurrent sessions, one process:")
    print(f"  wall time      : {elapsed:.2f}s")
    print(f"  throughput     : {throughput:.1f} sessions/s")
    print(f"  exact matches  : {exact}/{sessions} ({100 * exact / sessions:.1f}%)")
    print("  engine decisions (shared trace):")
    for (stage, kind), count in sorted(runtime_trace.counters.items()):
        print(f"    {stage:>12s}.{kind:<22s}: {count}")

    registry.gauge("bench.exact_rate").set(exact / sessions)
    write_bench_manifest("runtime", registry, sessions=sessions)

    assert len(results) == sessions
    assert all(r is not None for r in results)
    # every session ran to completion on the shared runtime
    assert runtime_trace.count(kind="session_end") == sessions
    # the channel still works at fleet scale
    assert exact / sessions > 0.5


def test_vectorized_delta_extraction(benchmark, config, chase):
    """Vectorized nonzero-delta extraction matches the scalar path and wins."""
    trace = simulate_credential_entry(config, chase, "Tr0ub4dor&3", seed=77)

    def sampler():
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        return PerfCounterSampler(kgsl, rng=np.random.default_rng(78))

    samples = sample_range(sampler(), 0.0, trace.end_time_s)
    [batch] = sampler().iter_batches(0.0, trace.end_time_s, chunk=len(samples))

    def scalar():
        return nonzero_deltas(samples)

    def vectorized():
        return nonzero_deltas_vectorized(batch)

    assert batch_deltas(vectorized()) == scalar()

    repeats = scaled(20)
    t0 = time.perf_counter()
    for _ in range(repeats):
        scalar()
    scalar_s = (time.perf_counter() - t0) / repeats

    vec_s = benchmark.pedantic(vectorized, rounds=max(2, repeats), iterations=1)

    t0 = time.perf_counter()
    for _ in range(repeats):
        vectorized()
    vec_s = (time.perf_counter() - t0) / repeats

    print(f"\nNonzero-delta extraction over {len(samples)} samples:")
    print(f"  scalar     : {scalar_s * 1e3:.2f} ms")
    print(f"  vectorized : {vec_s * 1e3:.2f} ms  ({scalar_s / vec_s:.1f}x)")
    assert vec_s < scalar_s
