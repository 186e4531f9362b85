"""Kill-and-restart suite: the journal, the router tier, and the drill.

The durable exactly-once contract is only real if it survives the fault
it was built for, so these tests escalate through three layers:

1. the journal file format alone (round trips, torn tails, dedup);
2. a *simulated* collector death — a fresh :class:`CollectorServer` on
   the same journal directory, the in-process equivalent of a restart;
3. the real thing — :class:`CollectorTier` processes SIGKILL'd
   mid-ingest and restarted on the same endpoint, then the full
   :class:`FleetDriver` kill drill asserting ``lost == 0`` with no
   double-aggregation in the merged report.
"""

import pytest

from repro.collector import (
    DRILL_RETRY,
    CollectorClient,
    CollectorConfig,
    CollectorHandle,
    CollectorJournal,
    CollectorTier,
    DeviceRouter,
    JournalError,
    KillDrill,
    RetryPolicy,
    SessionResultPayload,
    count_journal_records,
    dedupe_records,
    journal_path,
    read_journal,
)
from repro.collector.frames import Result
from repro.faults import FaultPlan

NO_SLEEP = lambda s: None  # noqa: E731 — instant backoff for tests
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.001, max_delay_s=0.01)
#: Patient enough to ride out a real shard-process respawn (~1s).
PATIENT_RETRY = RetryPolicy(max_attempts=20, base_delay_s=0.05, max_delay_s=0.5)


def frames_for(device_id, n, start_seq=0):
    return [
        Result(
            seq=start_seq + i,
            payload=SessionResultPayload(device_id, i, "pw", 2, exact=True),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# layer 1: the journal file


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = journal_path(tmp_path, 0)
        frames = frames_for("device-0000", 5)
        with CollectorJournal(path) as journal:
            for frame in frames:
                journal.append(frame)
            assert journal.appended == 5
        recovery = read_journal(path)
        assert recovery.records == frames
        assert not recovery.torn
        assert count_journal_records(path) == 5

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        recovery = read_journal(tmp_path / "never-written.wal")
        assert recovery.records == [] and not recovery.torn

    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        path = journal_path(tmp_path, 0)
        frames = frames_for("device-0000", 3)
        with CollectorJournal(path) as journal:
            for frame in frames:
                journal.append(frame)
        intact = path.stat().st_size
        # a SIGKILL mid-write leaves a partial record at the tail
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial-record-gar")
        journal = CollectorJournal(path)
        recovery = journal.open()
        assert recovery.records == frames
        assert recovery.torn
        assert recovery.valid_bytes == intact
        # the torn bytes are gone; appends after recovery stay parseable
        journal.append(frames_for("device-0000", 1, start_seq=3)[0])
        journal.close()
        reread = read_journal(path)
        assert not reread.torn
        assert [f.seq for f in reread.records] == [0, 1, 2, 3]

    def test_dedupe_records_first_seen_wins(self):
        frames = frames_for("device-0000", 2) + frames_for("device-0001", 1)
        unique, dupes = dedupe_records(frames + frames[:2])
        assert unique == frames
        assert dupes == 2

    def test_sync_mode_validated(self, tmp_path):
        with pytest.raises(ValueError, match="sync"):
            CollectorJournal(tmp_path / "x.wal", sync="eventually")
        with pytest.raises(ValueError, match="journal_sync"):
            CollectorConfig(journal_sync="eventually")

    def test_append_requires_open(self, tmp_path):
        journal = CollectorJournal(journal_path(tmp_path, 0))
        with pytest.raises(JournalError, match="not open"):
            journal.append(frames_for("d", 1)[0])

    def test_fsync_mode_round_trips(self, tmp_path):
        path = journal_path(tmp_path, 1)
        with CollectorJournal(path, sync="fsync") as journal:
            journal.append(frames_for("device-0001", 1)[0])
        assert count_journal_records(path) == 1


# ---------------------------------------------------------------------------
# layer 2: server replay (simulated kill — a fresh server, same journal)


class TestServerJournalReplay:
    def cfg(self, tmp_path):
        return CollectorConfig(retry=FAST_RETRY, journal_dir=str(tmp_path))

    def test_restarted_server_replays_and_dedupes(self, tmp_path):
        cfg = self.cfg(tmp_path)
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                for i in range(3):
                    client.send_result(
                        SessionResultPayload("device-0000", i, "pw", 2, exact=True)
                    )
        assert count_journal_records(journal_path(tmp_path, 0)) == 3

        # "restart": a brand-new server process would see exactly this —
        # empty memory, the journal on disk
        revived = CollectorHandle(cfg)
        endpoint = revived.start()
        registry = revived.server.registry
        assert registry.counter("collector.journal.replayed").value == 3
        assert registry.counter("collector.sessions_ingested").value == 3
        assert len(revived.server.results) == 3
        # a client that never saw its acks resends seqs 0-2, then sends
        # genuinely new work; the replayed dedup set absorbs the former
        with CollectorClient(
            endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
        ) as client:
            for i in range(5):
                client.send_result(
                    SessionResultPayload("device-0000", i, "pw", 2, exact=True)
                )
        revived.stop()
        assert registry.counter("collector.dupes_dropped").value == 3
        assert registry.counter("collector.sessions_ingested").value == 5
        assert len(revived.server.results) == 5
        assert count_journal_records(journal_path(tmp_path, 0)) == 5

    def test_replay_skips_on_result_callback(self, tmp_path):
        cfg = self.cfg(tmp_path)
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                client.send_result(SessionResultPayload("device-0000", 0, "pw", 2))
        seen = []
        revived = CollectorHandle(cfg, on_result=seen.append)
        revived.start()
        revived.stop()
        # replay restored the count but did not re-fire the callback
        assert revived.server.registry.counter("collector.journal.replayed").value == 1
        assert seen == []


# ---------------------------------------------------------------------------
# layer 3: real shard processes


class TestCollectorTierProcesses:
    def test_kill_and_restart_preserves_exactly_once(self, tmp_path):
        cfg = CollectorConfig(
            shards=2, journal_dir=str(tmp_path), retry=PATIENT_RETRY
        )
        tier = CollectorTier(cfg, seed=3)
        router = tier.router
        # one device per shard, found by the same router the tier uses
        by_shard = {}
        i = 0
        while len(by_shard) < 2:
            device_id = f"device-{i:04d}"
            by_shard.setdefault(router.shard_of(device_id), device_id)
            i += 1
        victim_dev, bystander_dev = by_shard[0], by_shard[1]
        try:
            tier.start()
            with CollectorClient(
                tier.endpoint_for(victim_dev), victim_dev, config=cfg
            ) as client:
                for i in range(2):
                    client.send_result(
                        SessionResultPayload(victim_dev, i, "pw", 2, exact=True)
                    )
            with CollectorClient(
                tier.endpoint_for(bystander_dev), bystander_dev, config=cfg
            ) as client:
                client.send_result(
                    SessionResultPayload(bystander_dev, 0, "pw", 2, exact=True)
                )
            assert count_journal_records(tier.journal_file(0)) == 2

            tier.kill(0)
            assert not tier.is_alive(0)
            endpoint = tier.restart(0)
            assert endpoint == tier.endpoint_for(victim_dev)  # same address
            # a client that never saw acks for seqs 0-1 resends them,
            # then delivers new work — the replayed shard must dedup
            # the former and admit the latter
            with CollectorClient(endpoint, victim_dev, config=cfg) as client:
                for i in range(3):
                    client.send_result(
                        SessionResultPayload(victim_dev, i, "pw", 2, exact=True)
                    )
        finally:
            tier.stop()
        manifest = tier.merged_manifest(command="test")
        counters = manifest.counters
        assert counters["collector.sessions_ingested"] == 4  # 3 + 1, no doubles
        assert counters["collector.journal.replayed"] == 2
        assert counters["collector.dupes_dropped"] == 2
        assert counters["collector.devices_seen"] == 2
        payloads, journal_dupes = tier.journal_results()
        assert len(payloads) == 4
        assert journal_dupes == 0

    def test_shard_configs_do_not_collide(self, tmp_path):
        cfg = CollectorConfig(
            transport="unix", unix_path="ignored", shards=3,
            journal_dir=str(tmp_path), retry=FAST_RETRY,
        )
        tier = CollectorTier(cfg, seed=0)
        paths = {tier._shard_config(k).unix_path for k in range(3)}
        assert len(paths) == 3
        wals = {tier.journal_file(k) for k in range(3)}
        assert len(wals) == 3

    def test_tier_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal_dir"):
            CollectorTier(CollectorConfig(shards=2))


# ---------------------------------------------------------------------------
# the full drill: FleetDriver + SIGKILL + restart under faults


class TestFleetKillDrill:
    def test_drill_zero_loss_no_double_aggregation(
        self, config, chase_store, tmp_path
    ):
        from repro.android.apps import app
        from repro.api import AttackConfig, run_fleet

        seed = 7
        shards = 4
        # aim the drill at a shard that actually receives traffic
        router = DeviceRouter(shards=shards, seed=seed)
        drill_shard = router.shard_of("device-0000")
        plan = FaultPlan(
            seed=4, read_error_prob=0.25, jitter_prob=0.25, jitter_s=1e-3
        )
        report = run_fleet(
            chase_store,
            config,
            app("chase"),
            "drillpw1",
            devices=4,
            sessions_per_device=1,
            seed=seed,
            config=AttackConfig(recognize_device=False, fault_plan=plan),
            collector=CollectorConfig(
                shards=shards,
                journal_dir=str(tmp_path),
                retry=PATIENT_RETRY,
            ),
            drill=KillDrill(shard=drill_shard, after_results=1),
        )
        assert report.shards == shards
        assert report.lost == 0
        assert report.ingested == report.sessions_total == 4
        assert len(report.results) == 4
        assert report.replayed >= 1  # the restarted shard really replayed
        assert {p.device_id for p in report.results} == {
            f"device-{d:04d}" for d in range(4)
        }
        assert report.manifest.counters["collector.sessions_ingested"] == 4

    def test_drill_requires_multiple_shards(self, config, chase_store):
        from repro.android.apps import app
        from repro.collector import FleetDriver

        with pytest.raises(ValueError, match="shards"):
            FleetDriver(
                chase_store, config, app("chase"), "pw",
                collector=CollectorConfig(shards=1),
                drill=KillDrill(),
            )
        with pytest.raises(ValueError, match="out of range"):
            FleetDriver(
                chase_store, config, app("chase"), "pw",
                collector=CollectorConfig(shards=2),
                drill=KillDrill(shard=5),
            )

    def test_drill_validation(self):
        with pytest.raises(ValueError, match="after_results"):
            KillDrill(after_results=0)
        with pytest.raises(ValueError, match="restart_delay_s"):
            KillDrill(restart_delay_s=-1.0)
        with pytest.raises(ValueError, match="shard"):
            KillDrill(shard=-1)
