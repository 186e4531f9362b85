"""Collector ingestion throughput: fault tolerance, the binary floor, shards.

Three measurements back the collector tier:

1. **Fleet ingestion under faults** — the fleet-scale claim of
   ``docs/collector.md``: one asyncio collector sustains **>= 1000
   sessions/s** with **zero lost results** while the mild fault profile
   drops connections and slows reads — retries absorb every injected
   failure.

2. **Binary ingest floor** — the same sender fleet with no faults.
   Every payload carries the full 11-counter delta vector the attack
   loop ships, so this measures exactly what the binary codec was built
   for: one ``struct`` pack/unpack per result.  The floor is **>= 5000
   sessions/s**, held by the median of ``BINARY_ROUNDS`` fleet runs: a
   single run on a loaded host can dip under a floor the code clears.

3. **Sharded tier ingestion** — 100k simulated devices (multiplexed
   over sender connections) streaming one journaled result each into a
   4-shard :class:`CollectorTier` under the **harsh** fault profile,
   with pipelined batch delivery (``pipeline_depth=32``): senders pack
   bursts into single ``batch`` wire frames, and each shard pays one
   read/journal-flush/ack per burst instead of per result.  Zero loss
   is asserted outright, and the rate floor is **2x** the
   single-collector binary floor — the point of running N collector
   processes behind the batch path.

The devices here are synthetic senders (pre-built payloads, no attack
compute), because this bench measures the *network* layer: framing,
ack round trips, dedup, the bounded queue, and aggregation.  End-to-end
fleet runs with real attack compute are ``tests/test_collector.py`` and
``repro fleet``.

Writes ``BENCH_collector.json`` (ingest rates, retries, duplicate
frames) as the machine-readable record; CI uploads it as an
artifact.
"""

import dataclasses
import statistics
import threading
import time

import pytest

from repro.collector import (
    CollectorClient,
    CollectorConfig,
    CollectorHandle,
    RetryPolicy,
    SessionResultPayload,
)
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from conftest import scaled, write_bench_manifest

pytestmark = pytest.mark.bench

#: Ingestion floor the collector must sustain locally (sessions/s).
MIN_INGEST_RATE = 1000.0
#: Floor for delta-carrying payloads with no faults (sessions/s).
MIN_BINARY_INGEST_RATE = 5000.0
#: Fleet runs whose median rate is held to the binary floor.
BINARY_ROUNDS = 5

DEVICES = 4
SESSIONS_PER_DEVICE = scaled(400)

BENCH_RETRY = RetryPolicy(max_attempts=10, base_delay_s=0.002, max_delay_s=0.05)

#: The mild profile's fault knobs, reseeded per device below — the same
#: plan the CI fault matrix runs, driving the network injector here.
MILD = FaultPlan.from_profile("mild", seed=11)

#: A realistic per-session counter delta vector (11 fixed u64s).
DELTAS = (1208, 604, 912, 48123, 310, 42, 288, 1200, 96, 40288, 11008)


def _payload(device_id, i):
    return SessionResultPayload(
        device_id, i, "pw123456", 8, exact=True, deltas=DELTAS, mask=0x7FF
    )


def _stream_device(endpoint, d, errors, fault_plan):
    device_id = f"device-{d:04d}"
    client = CollectorClient(
        endpoint,
        device_id,
        fault_plan=fault_plan,
        config=CollectorConfig(retry=BENCH_RETRY),
        seed_offset=d,
    )
    try:
        with client:
            client.send_results(
                _payload(device_id, i) for i in range(SESSIONS_PER_DEVICE)
            )
    except Exception as exc:  # pragma: no cover - surfaced via `errors`
        errors.append(exc)
    return client.stats


def _run_fleet(fault_plan=None):
    """Stream the full sender fleet once; returns (handle registry, stats, wall)."""
    errors = []
    stats = [None] * DEVICES
    with CollectorHandle(CollectorConfig(queue_size=256)) as handle:
        endpoint = handle.endpoint

        def run(d):
            stats[d] = _stream_device(endpoint, d, errors, fault_plan)

        threads = [
            threading.Thread(target=run, args=(d,), name=f"bench-device-{d}")
            for d in range(DEVICES)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        snapshot = handle.server.registry
        assert not errors, f"device senders failed: {errors}"
        return snapshot, stats, elapsed


def test_collector_sustains_fleet_ingestion():
    sent = DEVICES * SESSIONS_PER_DEVICE
    registry, stats, elapsed = _run_fleet(fault_plan=MILD)

    ingested = registry.counter("collector.sessions_ingested").value
    dupes = registry.counter("collector.dupes_dropped").value
    retries = sum(s.retries for s in stats)
    drops = sum(s.injected_drops for s in stats)
    rate = ingested / elapsed

    print(f"\ncollector ingestion: {DEVICES} devices x {SESSIONS_PER_DEVICE} sessions")
    print(
        f"  ingested {ingested}/{sent} in {elapsed:.2f}s -> {rate:.0f} sessions/s "
        f"(floor {MIN_INGEST_RATE:.0f})"
    )
    print(f"  injected drops {drops}, retries {retries}, duplicate frames {dupes}")

    # zero lost results: every injected drop was absorbed by a retry
    assert ingested == sent
    assert drops > 0, "mild profile should have injected connection drops"
    assert rate >= MIN_INGEST_RATE

    bench = MetricsRegistry()
    bench.gauge("collector.bench_ingest_rate").set(rate)
    bench.gauge("collector.bench_wall_s").set(elapsed)
    bench.counter("collector.bench_sessions").inc(sent)
    bench.counter("collector.bench_retries").inc(retries)
    bench.counter("collector.bench_injected_drops").inc(drops)
    bench.counter("collector.bench_duplicate_frames").inc(dupes)
    bench.merge_snapshot(registry.snapshot())
    test_collector_sustains_fleet_ingestion.registry = bench
    write_bench_manifest(
        "collector", bench, devices=DEVICES, sessions=sent, profile="mild"
    )


def test_binary_ingest_floor():
    sent = DEVICES * SESSIONS_PER_DEVICE
    rates = []
    for _ in range(BINARY_ROUNDS):
        registry, _, elapsed = _run_fleet()
        ingested = registry.counter("collector.sessions_ingested").value
        assert ingested == sent
        rates.append(ingested / elapsed)
    rate = statistics.median(rates)

    print(f"\nbinary ingest: {DEVICES} devices x {SESSIONS_PER_DEVICE} sessions,")
    print("  full 11-counter delta payloads, no faults")
    print(
        f"  {rate:8.0f} sessions/s, median of {BINARY_ROUNDS} runs "
        f"({min(rates):.0f}-{max(rates):.0f}; floor {MIN_BINARY_INGEST_RATE:.0f}/s)"
    )
    assert rate >= MIN_BINARY_INGEST_RATE

    bench = getattr(
        test_collector_sustains_fleet_ingestion, "registry", MetricsRegistry()
    )
    bench.gauge("collector.bench_binary_ingest_rate").set(rate)
    write_bench_manifest(
        "collector", bench, devices=DEVICES, sessions=sent, profile="mild"
    )


# ---------------------------------------------------------------------------
# sharded tier


#: Floor for the 4-shard tier: 2x the single-collector binary floor —
#: the whole justification for running N collector processes.
MIN_SHARDED_INGEST_RATE = 2.0 * MIN_BINARY_INGEST_RATE

SHARDS = 4
#: Logical devices streaming one session each; multiplexed over
#: ``SENDER_THREADS`` connections because 100k OS threads is the wrong
#: experiment — the collector dedups on the *payload's* device id.
SHARDED_DEVICES = scaled(100_000)
SENDER_THREADS = 64
#: In-flight results per sender connection: bursts ride single batch
#: frames, so the per-result ack round trip amortizes 32-fold.
PIPELINE_DEPTH = 32

#: Harsh-profile retry budget: P(drop)=0.25 per attempt means 14
#: attempts leave ~1e-9 residual failure per frame — zero loss at 100k.
SHARDED_RETRY = RetryPolicy(max_attempts=14, base_delay_s=0.002, max_delay_s=0.05)

#: The harsh profile with sub-millisecond jitter: the bench keeps the
#: profile's drop/jitter *probabilities* (0.25 each) but shrinks the
#: jitter scale so the measurement is dominated by the tier, not by
#: sleeping senders.
HARSH = dataclasses.replace(FaultPlan.from_profile("harsh", seed=13), jitter_s=2e-4)


def _stream_chunk(endpoint, sender_id, device_ids, config, errors, stats, slot):
    """One sender connection carrying many logical devices' results."""
    client = CollectorClient(
        endpoint,
        sender_id,
        fault_plan=HARSH,
        config=config,
        seed_offset=slot,
    )
    try:
        with client:
            client.send_results(
                _payload(device_id, 0) for device_id in device_ids
            )
    except Exception as exc:  # pragma: no cover - surfaced via `errors`
        errors.append(exc)
    stats[slot] = client.stats


def test_sharded_tier_sustains_100k_devices(tmp_path):
    from repro.collector import CollectorTier

    config = CollectorConfig(
        queue_size=1024,
        retry=SHARDED_RETRY,
        shards=SHARDS,
        journal_dir=str(tmp_path),
        pipeline_depth=PIPELINE_DEPTH,
    )
    device_ids = [f"device-{d:06d}" for d in range(SHARDED_DEVICES)]
    tier = CollectorTier(config, seed=17)
    by_shard = tier.router.partition(device_ids)
    per_shard_threads = max(1, SENDER_THREADS // SHARDS)

    chunks = []  # (endpoint, sender_id, device slice)
    threads = []
    errors = []
    with tier:
        for shard, shard_devices in by_shard.items():
            endpoint = tier.endpoints[shard]
            for t in range(per_shard_threads):
                chunk = shard_devices[t::per_shard_threads]
                if chunk:
                    chunks.append((endpoint, f"sender-{shard:02d}-{t:02d}", chunk))
        stats = [None] * len(chunks)
        threads = [
            threading.Thread(
                target=_stream_chunk,
                args=(endpoint, sender_id, chunk, config, errors, stats, slot),
                name=sender_id,
            )
            for slot, (endpoint, sender_id, chunk) in enumerate(chunks)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
    assert not errors, f"senders failed: {errors}"

    manifest = tier.merged_manifest(bench="sharded")
    ingested = manifest.counters["collector.sessions_ingested"]
    dupes = manifest.counters.get("collector.dupes_dropped", 0)
    retries = sum(s.retries for s in stats)
    drops = sum(s.injected_drops for s in stats)
    rate = ingested / elapsed

    print(
        f"\nsharded ingestion: {SHARDED_DEVICES} devices over {SHARDS} shards, "
        f"{len(threads)} sender connections, harsh faults"
    )
    print(
        f"  ingested {ingested}/{SHARDED_DEVICES} in {elapsed:.2f}s -> "
        f"{rate:.0f} sessions/s (floor {MIN_SHARDED_INGEST_RATE:.0f})"
    )
    print(f"  injected drops {drops}, retries {retries}, duplicate frames {dupes}")

    # the durable-tier contract: harsh faults, zero loss, journaled
    assert ingested == SHARDED_DEVICES
    assert drops > 0, "harsh profile should have injected connection drops"
    assert rate >= MIN_SHARDED_INGEST_RATE

    bench = getattr(
        test_collector_sustains_fleet_ingestion, "registry", MetricsRegistry()
    )
    bench.gauge("collector.bench_sharded_ingest_rate").set(rate)
    bench.gauge("collector.bench_sharded_wall_s").set(elapsed)
    bench.counter("collector.bench_sharded_sessions").inc(SHARDED_DEVICES)
    bench.counter("collector.bench_sharded_retries").inc(retries)
    bench.counter("collector.bench_sharded_injected_drops").inc(drops)
    test_collector_sustains_fleet_ingestion.registry = bench
    write_bench_manifest(
        "collector",
        bench,
        devices=DEVICES,
        sessions=DEVICES * SESSIONS_PER_DEVICE,
        profile="mild",
        sharded_devices=SHARDED_DEVICES,
        shards=SHARDS,
        sharded_profile="harsh",
        pipeline_depth=PIPELINE_DEPTH,
    )
