"""The fleet driver: N simulated devices streaming into one collector.

This is the bridge from "fast on one host" (:mod:`repro.parallel`) to
"serves a fleet": a :class:`FleetDriver` stands up a
:class:`~repro.collector.server.CollectorServer`, runs ``devices``
independent victims — each one a full :class:`~repro.api.AttackConfig`
attack run over its own simulated sessions, optionally sharded across
worker processes — and has every device report its results through a
:class:`~repro.collector.client.CollectorClient` with the full
retry/dedup discipline.  The product is a :class:`FleetReport`: the
ingested payloads, the loss/duplicate/retry accounting, and the merged
run manifest.

Every payload carries the session's ground-truth **counter deltas** —
the cumulative values of the 11 selected performance counters at the
end of the victim trace, in Table-1 order — which is exactly the
fixed-width block the binary wire codec ships as one struct pack (see
:mod:`repro.collector.frames`).  The collector tier's transport and
backpressure knobs all come from one
:class:`~repro.collector.config.CollectorConfig`.

Device identity and seeding: device ``d`` is ``device-{d:04d}`` and
seeds everything (victim traces, attack RNG, network fault stream,
backoff jitter) from ``seed + 1000*d``, so a fleet run is deterministic
end to end *except* for wall-clock rates — and any device's run can be
reproduced alone from its id.

Devices run on a thread pool.  The attack compute holds the GIL, but
the delivery path (socket round trips, injected backoff) overlaps, and
``workers=N`` moves the compute into processes per device when real
parallelism is wanted; the driver exists to exercise the *network*
layer, not to replace :mod:`repro.parallel`.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collector.client import (
    ClientStats,
    CollectorClient,
    CollectorClientError,
)
from repro.collector.config import CollectorConfig, RetryPolicy
from repro.collector.frames import SessionResultPayload
from repro.collector.journal import count_journal_records
from repro.collector.router import CollectorTier
from repro.collector.server import CollectorHandle
from repro.obs import MetricsRegistry, RunManifest

#: Seed stride between devices — wide enough that per-session offsets
#: within a device can never collide with the next device's block.
DEVICE_SEED_STRIDE = 1000

#: Fleet runs default to a fast backoff: simulated devices should not
#: serialize a test run on wall-clock sleeps.
FLEET_RETRY = RetryPolicy(base_delay_s=0.01, max_delay_s=0.25)

#: A drill-friendly backoff: enough budget to ride out a SIGKILL'd
#: shard's restart (~1s of process spawn) without hours of max_delay.
DRILL_RETRY = RetryPolicy(max_attempts=16, base_delay_s=0.02, max_delay_s=0.5)

#: How long the driver waits for the drill thread after devices finish.
SHARD_JOIN_TIMEOUT_S = 60.0

def trace_counter_deltas(trace) -> Tuple[int, ...]:
    """The session's cumulative counter values in Table-1 order.

    This is the ground-truth 11-slot block a device reports with each
    result — the same fixed-width layout the binary codec packs as
    ``11×u64``.
    """
    from repro.gpu.timeline import COUNTER_ORDER

    values = trace.timeline.values_at(trace.timeline.end_time_s)
    return tuple(int(values.get(cid, 0)) for cid in COUNTER_ORDER)


@dataclass
class DeviceOutcome:
    """One device's view of its own run and delivery."""

    device_id: str
    sessions: int
    delivered: int
    undelivered: int
    exact: int
    stats: ClientStats
    error: Optional[str] = None


@dataclass(frozen=True)
class KillDrill:
    """A scripted SIGKILL/restart of one collector shard mid-fleet.

    The fault drill the durable tier exists to pass: once shard
    ``shard``'s journal holds at least ``after_results`` records (i.e.
    it has acked real work), the driver SIGKILLs that shard's process,
    waits ``restart_delay_s``, and restarts it on the same endpoint.
    Devices routed to the dead shard retry through the outage — size
    the collector's :class:`RetryPolicy` budget to cover the restart
    (spawning a fresh process takes on the order of a second).  If the
    fleet finishes before the trigger threshold is reached, the kill
    fires anyway at the end, so the drill never silently degrades into
    a no-op.
    """

    shard: int = 0
    after_results: int = 1
    restart_delay_s: float = 0.1

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError("shard must be >= 0")
        if self.after_results < 1:
            raise ValueError("after_results must be >= 1")
        if self.restart_delay_s < 0:
            raise ValueError("restart_delay_s must be >= 0")


@dataclass
class FleetReport:
    """Everything one fleet run produced, from both ends of the wire."""

    devices: int
    sessions_total: int
    ingested: int
    lost: int
    duplicates_dropped: int
    exact: int
    degraded: int
    retries: int
    reconnects: int
    wall_s: float
    ingest_rate: float
    results: List[SessionResultPayload] = field(default_factory=list)
    outcomes: List[DeviceOutcome] = field(default_factory=list)
    manifest: Optional[RunManifest] = None
    shards: int = 1
    replayed: int = 0

    @property
    def exact_rate(self) -> float:
        return self.exact / self.sessions_total if self.sessions_total else 0.0


class FleetDriver:
    """Run a simulated device fleet against one collector.

    Args:
        store: the preloaded :class:`~repro.core.model_store.ModelStore`
            every device attacks with.
        device_config / target / credential: the victim scenario each
            device runs (same scenario, device-unique seeds).
        devices / sessions_per_device: fleet shape.
        config: the :class:`~repro.api.AttackConfig`; its fault plan
            drives *both* the KGSL-layer faults inside each device run
            and the network-layer drops/slow-reads on the uplink.
        workers: per-device ``run_sessions`` workers (processes).
        collector: the :class:`~repro.collector.config.CollectorConfig`
            for the whole tier — transport, backpressure bound, retry
            schedule.
        metrics: optional caller registry; when enabled, each device
            also records a device-side registry, ships its snapshot, and
            the merged collector registry is folded back into ``metrics``.
        device_threads: thread-pool width for concurrent devices.
        drill: optional :class:`KillDrill` — SIGKILL + restart one
            collector shard mid-run (requires ``collector.shards > 1``).
    """

    def __init__(
        self,
        store,
        device_config,
        target,
        credential: str,
        devices: int = 3,
        sessions_per_device: int = 2,
        config=None,
        seed: int = 7,
        workers: int = 1,
        collector: Optional[CollectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        device_threads: Optional[int] = None,
        drill: Optional[KillDrill] = None,
    ) -> None:
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if sessions_per_device < 1:
            raise ValueError("sessions_per_device must be >= 1")
        if config is None:
            from repro.api import AttackConfig

            config = AttackConfig()
        if collector is None:
            collector = CollectorConfig(retry=FLEET_RETRY)
        if drill is not None:
            if collector.shards < 2:
                raise ValueError("a kill drill requires collector.shards >= 2")
            if drill.shard >= collector.shards:
                raise ValueError(
                    f"drill.shard {drill.shard} out of range for "
                    f"{collector.shards} shards"
                )
        self.store = store
        self.device_config = device_config
        self.target = target
        self.credential = credential
        self.devices = devices
        self.sessions_per_device = sessions_per_device
        self.config = config
        self.seed = seed
        self.workers = workers
        self.collector = collector
        self.metrics = metrics
        self.device_threads = device_threads
        self.drill = drill

    # ------------------------------------------------------------------

    def _run_device(self, d: int, endpoint) -> DeviceOutcome:
        """One device: simulate → attack → stream results to the collector."""
        from repro.api import run_sessions, simulate

        device_id = f"device-{d:04d}"
        dev_seed = self.seed + DEVICE_SEED_STRIDE * d
        metrics_on = self.metrics is not None and self.metrics.enabled
        registry = MetricsRegistry() if metrics_on else None
        traces = [
            simulate(
                self.device_config,
                self.target,
                self.credential,
                seed=dev_seed + i,
                config=self.config,
            )
            for i in range(self.sessions_per_device)
        ]
        batch = run_sessions(
            self.store,
            traces,
            seed=dev_seed + 500,
            config=self.config,
            metrics=registry,
            workers=self.workers,
        )
        delivered = 0
        undelivered = 0
        exact = 0
        client = CollectorClient(
            endpoint,
            device_id,
            fault_plan=self.config.resolved_fault_plan(),
            config=self.collector,
            seed_offset=dev_seed,
        )
        with client:
            for i, result in enumerate(batch):
                payload = SessionResultPayload.from_result(
                    result,
                    device_id=device_id,
                    session_index=i,
                    seed=dev_seed + i,
                    expected=self.credential,
                    deltas=trace_counter_deltas(traces[i]),
                )
                if payload.exact:
                    exact += 1
                try:
                    client.send_result(payload)
                    delivered += 1
                except CollectorClientError:
                    undelivered += 1
            if registry is not None:
                client.send_metrics(registry.snapshot())
        return DeviceOutcome(
            device_id=device_id,
            sessions=len(batch),
            delivered=delivered,
            undelivered=undelivered,
            exact=exact,
            stats=client.stats,
        )

    def _run_pool(self, endpoint_of) -> List[DeviceOutcome]:
        """Run every device on the thread pool; ``endpoint_of(d)`` routes."""
        outcomes: List[DeviceOutcome] = []
        width = self.device_threads or min(self.devices, 8)
        with ThreadPoolExecutor(max_workers=width) as pool:
            futures = [
                pool.submit(self._run_device, d, endpoint_of(d))
                for d in range(self.devices)
            ]
            for d, future in enumerate(futures):
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # a device died outright
                    outcomes.append(
                        DeviceOutcome(
                            device_id=f"device-{d:04d}",
                            sessions=self.sessions_per_device,
                            delivered=0,
                            undelivered=self.sessions_per_device,
                            exact=0,
                            stats=ClientStats(),
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
        return outcomes

    def run(self) -> FleetReport:
        """Stand up the collector, run every device, drain, and report."""
        if self.collector.shards > 1:
            return self._run_sharded()
        handle = CollectorHandle(self.collector)
        endpoint = handle.start()
        started = time.perf_counter()
        try:
            outcomes = self._run_pool(lambda d: endpoint)
        finally:
            handle.stop(drain=True)
        wall = time.perf_counter() - started
        server = handle.server
        counters: Dict[str, int] = {
            name: server.registry.counter(name).value
            for name in (
                "collector.sessions_ingested",
                "collector.dupes_dropped",
                "collector.sessions_exact",
                "collector.sessions_degraded",
            )
        }
        sessions_total = self.devices * self.sessions_per_device
        ingested = counters["collector.sessions_ingested"]
        results = sorted(
            server.results, key=lambda p: (p.device_id, p.session_index)
        )
        report = FleetReport(
            devices=self.devices,
            sessions_total=sessions_total,
            ingested=ingested,
            lost=sessions_total - ingested,
            duplicates_dropped=counters["collector.dupes_dropped"],
            exact=counters["collector.sessions_exact"],
            degraded=counters["collector.sessions_degraded"],
            retries=sum(o.stats.retries for o in outcomes),
            reconnects=sum(o.stats.reconnects for o in outcomes),
            wall_s=wall,
            ingest_rate=ingested / wall if wall > 0 else 0.0,
            results=results,
            outcomes=outcomes,
        )
        meta = {
            "command": "fleet",
            "devices": self.devices,
            "sessions": sessions_total,
            "workers": self.workers,
        }
        if self.metrics is not None and self.metrics.enabled:
            # fold the collector's registry (which already absorbed the
            # per-device snapshots) into the caller's run registry, so
            # one manifest covers attack + network + ingestion
            self.metrics.merge_snapshot(server.registry.snapshot())
            report.manifest = self.metrics.manifest(
                config=self.config.to_dict(), **meta
            )
        else:
            report.manifest = server.report(**meta)
        return report

    # -- sharded tier ---------------------------------------------------

    def _run_drill(self, tier: CollectorTier, devices_done: threading.Event,
                   errors: List[BaseException]) -> None:
        """The kill/restart drill: trigger, SIGKILL, wait, respawn."""
        drill = self.drill
        wal = tier.journal_file(drill.shard)
        try:
            while not devices_done.is_set():
                admitted = count_journal_records(
                    wal, self.collector.max_frame_bytes
                )
                if admitted >= drill.after_results:
                    break
                time.sleep(0.02)
            # fire even if the fleet beat us to the finish line: the
            # restarted shard must still replay to a correct manifest
            tier.kill(drill.shard)
            time.sleep(drill.restart_delay_s)
            tier.restart(drill.shard)
        except BaseException as exc:
            errors.append(exc)

    def _run_sharded(self) -> FleetReport:
        """The multi-process path: router + journaled shards + merge."""
        collector = self.collector
        tmp_dir: Optional[str] = None
        if collector.journal_dir is None:
            # the tier requires journals (they carry the results back);
            # an unset journal_dir means "ephemeral run", so host the
            # journals in a scratch dir that dies with the report
            tmp_dir = tempfile.mkdtemp(prefix="repro-collector-")
            collector = collector.with_overrides(journal_dir=tmp_dir)
        tier = CollectorTier(collector, seed=self.seed)
        tier.start()
        started = time.perf_counter()
        devices_done = threading.Event()
        drill_errors: List[BaseException] = []
        drill_thread: Optional[threading.Thread] = None
        try:
            if self.drill is not None:
                drill_thread = threading.Thread(
                    target=self._run_drill,
                    args=(tier, devices_done, drill_errors),
                    name="repro-kill-drill",
                    daemon=True,
                )
                drill_thread.start()
            outcomes = self._run_pool(
                lambda d: tier.endpoint_for(f"device-{d:04d}")
            )
            devices_done.set()
            if drill_thread is not None:
                drill_thread.join(timeout=SHARD_JOIN_TIMEOUT_S)
        finally:
            devices_done.set()
            tier.stop()
        wall = time.perf_counter() - started
        if drill_errors:
            raise RuntimeError(
                f"kill drill failed: {drill_errors[0]!r}"
            ) from drill_errors[0]
        sessions_total = self.devices * self.sessions_per_device
        meta = {
            "command": "fleet",
            "devices": self.devices,
            "sessions": sessions_total,
            "workers": self.workers,
            "shards": collector.shards,
        }
        manifest = tier.merged_manifest(**meta)
        counters = manifest.counters
        ingested = int(counters.get("collector.sessions_ingested", 0))
        payloads, _journal_dupes = tier.journal_results()
        results = sorted(payloads, key=lambda p: (p.device_id, p.session_index))
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.merge_snapshot(
                {
                    "counters": manifest.counters,
                    "gauges": manifest.gauges,
                    "histograms": manifest.histograms,
                    "spans": manifest.spans,
                }
            )
            manifest = self.metrics.manifest(config=self.config.to_dict(), **meta)
        report = FleetReport(
            devices=self.devices,
            sessions_total=sessions_total,
            ingested=ingested,
            lost=sessions_total - ingested,
            duplicates_dropped=int(counters.get("collector.dupes_dropped", 0)),
            exact=int(counters.get("collector.sessions_exact", 0)),
            degraded=int(counters.get("collector.sessions_degraded", 0)),
            retries=sum(o.stats.retries for o in outcomes),
            reconnects=sum(o.stats.reconnects for o in outcomes),
            wall_s=wall,
            ingest_rate=ingested / wall if wall > 0 else 0.0,
            results=results,
            outcomes=outcomes,
            manifest=manifest,
            shards=collector.shards,
            replayed=int(counters.get("collector.journal.replayed", 0)),
        )
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        return report
