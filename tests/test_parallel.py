"""Tests for the multi-process session sharding layer (:mod:`repro.parallel`).

The headline contract is parity: ``run_sessions(..., workers=N)`` must
be **byte-identical** to the serial run — same inferred keys, same text,
same merged trace event order, same manifest counters.  The rest covers
the shard plan, the merge edge cases ISSUE.md names (empty shard,
single-session shard, a worker dying mid-shard, metric-name collisions
in the manifest merge), and crash containment (degraded placeholders,
never lost sessions).
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.android.apps import app
from repro.api import (
    AttackConfig,
    MetricsRegistry,
    run_sessions,
    simulate,
    train,
)
from repro.obs import RunManifest
from repro.parallel import (
    ShardPlan,
    ShardedRuntime,
    merge_attack_outputs,
    synthesize_crashed_shard,
)
from repro.parallel import sharded as sharded_module
from repro.parallel.worker import run_shard
from repro.runtime.trace import RuntimeTrace

CREDENTIALS = ["pw0aa", "pw1bb", "pw2cc", "pw3dd", "pw4ee", "pw5ff"]


@pytest.fixture(scope="module")
def cfg():
    return AttackConfig(recognize_device=False)


@pytest.fixture(scope="module")
def store(config, cfg):
    return train([(config, app("chase"))], config=cfg)


@pytest.fixture(scope="module")
def traces(config, cfg):
    return [
        simulate(config, app("chase"), cred, seed=30 + i, config=cfg)
        for i, cred in enumerate(CREDENTIALS)
    ]


def trace_tuples(runtime_trace):
    return [
        (e.t, e.session, e.stage, e.kind, dict(e.detail))
        for e in runtime_trace.events
    ]


def run_with(store, traces, cfg, workers, **kwargs):
    metrics = MetricsRegistry()
    rt = RuntimeTrace()
    if workers == 1:
        batch = run_sessions(
            store, traces, seed=99, config=cfg, metrics=metrics, runtime_trace=rt
        )
    else:
        sharded = ShardedRuntime(
            store, config=cfg, workers=workers, metrics=metrics, **kwargs
        )
        batch = sharded.run_sessions(traces, seed=99, runtime_trace=rt)
    return batch, rt, batch.manifest


# ----------------------------------------------------------------------
# ShardPlan


def test_shard_plan_partitions_every_index():
    plan = ShardPlan(10, 3, seed=5)
    shards = plan.shards()
    assert len(shards) == 3
    assert sorted(i for shard in shards for i in shard) == list(range(10))
    for shard_id, shard in enumerate(shards):
        for index in shard:
            assert plan.shard_of(index) == shard_id


def test_shard_plan_is_deterministic_and_seed_keyed():
    assert ShardPlan(20, 4, seed=7).shards() == ShardPlan(20, 4, seed=7).shards()
    assert ShardPlan(20, 4, seed=7).shards() != ShardPlan(20, 4, seed=8).shards()


def test_shard_plan_is_balanced():
    sizes = sorted(len(s) for s in ShardPlan(11, 4, seed=0).shards())
    assert max(sizes) - min(sizes) <= 1


def test_shard_plan_more_workers_than_sessions_leaves_empty_shards():
    shards = ShardPlan(2, 5, seed=0).shards()
    assert len(shards) == 5
    assert sorted(i for shard in shards for i in shard) == [0, 1]
    assert sum(1 for shard in shards if not shard) == 3


def test_shard_plan_validates():
    with pytest.raises(ValueError):
        ShardPlan(3, 0)
    with pytest.raises(ValueError):
        ShardPlan(-1, 2)
    with pytest.raises(IndexError):
        ShardPlan(3, 2).shard_of(3)


# ----------------------------------------------------------------------
# Parity: sharded output is byte-identical to serial


@pytest.mark.parametrize("mp_context", ["inline", None])
def test_workers4_matches_serial_byte_for_byte(store, traces, cfg, mp_context):
    serial_batch, serial_rt, serial_manifest = run_with(store, traces, cfg, 1)
    shard_batch, shard_rt, shard_manifest = run_with(
        store, traces, cfg, 4, mp_context=mp_context
    )
    assert [r.text for r in shard_batch] == [r.text for r in serial_batch]
    assert [
        [(k.char, k.t, k.low_confidence) for k in r.keys] for r in shard_batch
    ] == [[(k.char, k.t, k.low_confidence) for k in r.keys] for r in serial_batch]
    assert trace_tuples(shard_rt) == trace_tuples(serial_rt)
    assert shard_manifest.counters == serial_manifest.counters
    assert set(shard_manifest.histograms) == set(serial_manifest.histograms)


def test_single_session_shards(store, traces, cfg):
    """workers == sessions: every shard holds exactly one session."""
    serial_batch, serial_rt, _ = run_with(store, traces[:3], cfg, 1)
    shard_batch, shard_rt, _ = run_with(store, traces[:3], cfg, 3, mp_context="inline")
    assert [r.text for r in shard_batch] == [r.text for r in serial_batch]
    assert trace_tuples(shard_rt) == trace_tuples(serial_rt)


def test_more_workers_than_sessions(store, traces, cfg):
    """Empty shards are skipped, output still covers every session."""
    serial_batch, serial_rt, _ = run_with(store, traces[:2], cfg, 1)
    shard_batch, shard_rt, _ = run_with(store, traces[:2], cfg, 5, mp_context="inline")
    assert [r.text for r in shard_batch] == [r.text for r in serial_batch]
    assert trace_tuples(shard_rt) == trace_tuples(serial_rt)


def test_store_can_ship_as_a_path(store, traces, cfg, tmp_path):
    path = tmp_path / "store.json"
    store.save(path)
    from_dict, _, _ = run_with(store, traces[:3], cfg, 2, mp_context="inline")
    sharded = ShardedRuntime(path, config=cfg, workers=2, mp_context="inline")
    from_path = sharded.run_sessions(traces[:3], seed=99)
    assert [r.text for r in from_path] == [r.text for r in from_dict]


def test_workers1_facade_stays_serial(store, traces, cfg):
    """workers=1 through the facade must not touch the pool machinery."""
    batch = run_sessions(store, traces[:2], seed=99, config=cfg, workers=1)
    assert [r.degraded for r in batch] == [False, False]
    with pytest.raises(ValueError):
        run_sessions(store, traces[:2], seed=99, config=cfg, workers=0)


# ----------------------------------------------------------------------
# Crash containment


def _failing_shard(mode, shards, payload):
    """``run_shard``, except that the listed shards fail: ``raise``
    before any session runs, ``mid`` after the shard's work is done (a
    worker dying mid-shard: the work is lost), ``exit`` by hard-killing
    the process, which breaks the pool.  Module-level, so a partial of it
    pickles by name into a forked pool worker."""
    if payload["shard"] not in shards:
        return run_shard(payload)
    if mode == "exit":
        os._exit(13)
    if mode == "mid":
        run_shard(payload)
    raise RuntimeError(f"injected {mode} fault in shard {payload['shard']}")


def fail_shards(monkeypatch, shards, mode="raise"):
    monkeypatch.setattr(
        sharded_module, "run_shard", functools.partial(_failing_shard, mode, tuple(shards))
    )


@pytest.mark.parametrize("fail_mode", ["raise", "mid"])
def test_worker_failure_degrades_only_its_shard(store, traces, cfg, fail_mode, monkeypatch):
    fail_shards(monkeypatch, [1], fail_mode)
    sharded = ShardedRuntime(store, config=cfg, workers=2, mp_context="inline")
    batch = sharded.run_sessions(traces, seed=99)
    plan = ShardPlan(len(traces), 2, seed=99)
    lost = set(plan.shards()[1])
    assert len(batch) == len(traces)
    for i, result in enumerate(batch):
        if i in lost:
            assert result.degraded
            assert result.text == ""
        else:
            assert not result.degraded
            assert result.text == CREDENTIALS[i]
    # the lost sessions surface in the trace as degraded, not missing
    trace = batch[0].trace
    degraded = [e.session for e in trace.events if e.kind == "degraded"]
    assert sorted(degraded) == sorted(f"attack-{i}" for i in lost)
    starts = [e.session for e in trace.events if e.kind == "session_start"]
    assert sorted(starts) == sorted(f"attack-{i}" for i in range(len(traces)))


def test_worker_crash_counted_in_metrics(store, traces, cfg, monkeypatch):
    fail_shards(monkeypatch, [0, 2])
    metrics = MetricsRegistry()
    sharded = ShardedRuntime(
        store, config=cfg, workers=3, metrics=metrics, mp_context="inline"
    )
    sharded.run_sessions(traces, seed=99)
    assert metrics.counter("parallel.worker_crashes").value == 2


def test_hard_exit_breaks_pool_but_not_batch(store, traces, cfg, monkeypatch):
    """os._exit in a worker breaks the whole pool; every session still
    comes back, the lost shard's as degraded placeholders."""
    fail_shards(monkeypatch, [0], "exit")
    sharded = ShardedRuntime(store, config=cfg, workers=2)
    batch = sharded.run_sessions(traces[:4], seed=99)
    assert len(batch) == 4
    assert any(r.degraded for r in batch)


def test_process_raise_degrades_shard(store, traces, cfg, monkeypatch):
    """Same containment through a real process pool."""
    fail_shards(monkeypatch, [1])
    sharded = ShardedRuntime(store, config=cfg, workers=2)
    batch = sharded.run_sessions(traces[:4], seed=99)
    lost = set(ShardPlan(4, 2, seed=99).shards()[1])
    assert [r.degraded for r in batch] == [i in lost for i in range(4)]


def test_invalid_construction():
    with pytest.raises(ValueError):
        ShardedRuntime("store.json", workers=0)


# ----------------------------------------------------------------------
# Merge edge cases


def test_merge_rejects_duplicate_session_index():
    a = synthesize_crashed_shard(0, [0, 1])
    b = synthesize_crashed_shard(1, [1, 2])
    with pytest.raises(ValueError, match="two shards"):
        merge_attack_outputs([a, b], RuntimeTrace())


def test_merge_of_synthesized_shards_orders_by_index():
    a = synthesize_crashed_shard(0, [2, 0])
    b = synthesize_crashed_shard(1, [1])
    rt = RuntimeTrace()
    results = merge_attack_outputs([b, a], rt)
    assert sorted(results) == [0, 1, 2]
    starts = [e.session for e in rt.events if e.kind == "session_start"]
    assert starts == ["attack-0", "attack-1", "attack-2"]


def test_merge_empty_outputs_is_empty():
    rt = RuntimeTrace()
    assert merge_attack_outputs([], rt) == {}
    assert list(rt.events) == []


# ----------------------------------------------------------------------
# Manifest / snapshot merging


def test_merge_snapshot_sums_colliding_metric_names():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("shared.count").inc(3)
    b.counter("shared.count").inc(4)
    a.counter("only.a").inc(1)
    b.gauge("shared.gauge").set(2.5)
    a.histogram("shared.hist", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("shared.hist", buckets=(1.0, 2.0)).observe(1.5)
    merged = MetricsRegistry()
    merged.merge_snapshot(a.snapshot())
    merged.merge_snapshot(b.snapshot())
    assert merged.counter("shared.count").value == 7
    assert merged.counter("only.a").value == 1
    assert merged.gauge("shared.gauge").value == 2.5
    hist = merged.snapshot()["histograms"]["shared.hist"]
    assert hist["count"] == 2
    assert hist["counts"] == [1, 1, 0]


def test_merge_snapshot_rejects_bucket_layout_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("h", buckets=(1.0, 4.0)).observe(0.5)
    merged = MetricsRegistry()
    merged.merge_snapshot(a.snapshot())
    with pytest.raises(ValueError, match="bucket"):
        merged.merge_snapshot(b.snapshot())


def test_run_manifest_merge_classmethod():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(1)
    b.counter("c").inc(2)
    merged = RunManifest.merge(
        [a.manifest(shard=0), b.manifest(shard=1)], sessions=2
    )
    assert merged.counters["c"] == 3
    assert merged.meta["sessions"] == 2
