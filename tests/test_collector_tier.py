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

import socket

import pytest

from repro.collector import (
    BINARY_CODEC,
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
from repro.collector import fleet
from repro.collector.frames import (
    TAG_RETIRED_BATCH,
    Ack,
    Batch,
    Hello,
    HelloOk,
    Result,
    decode_any,
    parse_length,
    read_body_sock,
)
from repro.faults import FaultPlan

NO_SLEEP = lambda s: None  # noqa: E731 — instant backoff for tests
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.001, max_delay_s=0.01)
#: Patient enough to ride out a real shard-process respawn (~1s).
PATIENT_RETRY = RetryPolicy(max_attempts=20, base_delay_s=0.05, max_delay_s=0.5)


def batch_of(frames):
    """The :class:`Batch` of ``frames``, in order."""
    frames = tuple(frames)
    return Batch(tuple(f.seq for f in frames), tuple(f.payload for f in frames))


def frames_for(device_id, n, start_seq=0):
    return [
        Result(
            seq=start_seq + i,
            payload=SessionResultPayload(device_id, i, "pw", 2, exact=True),
        )
        for i in range(n)
    ]


def wire(frame):
    """A frame's length-prefixed wire bytes: what a journal record holds."""
    return BINARY_CODEC.encode(frame)


def journal_bodies(path):
    """The record bodies of a journal file, in append order."""
    data = path.read_bytes()
    bodies, offset = [], 0
    while offset < len(data):
        end = offset + 4 + parse_length(data[offset:offset + 4])
        bodies.append(data[offset + 4:end])
        offset = end
    return bodies


# ---------------------------------------------------------------------------
# layer 1: the journal file


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = journal_path(tmp_path, 0)
        frames = frames_for("device-0000", 5)
        with CollectorJournal(path) as journal:
            for frame in frames:
                journal.append(wire(frame))
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
                journal.append(wire(frame))
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
        journal.append(wire(frames_for("device-0000", 1, start_seq=3)[0]))
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
            journal.append(wire(frames_for("d", 1)[0]))

    def test_fsync_mode_round_trips(self, tmp_path):
        path = journal_path(tmp_path, 1)
        with CollectorJournal(path, sync="fsync") as journal:
            journal.append(wire(frames_for("device-0001", 1)[0]))
        assert count_journal_records(path) == 1

    @staticmethod
    def protocol_2_batch(frames):
        """A protocol 2 batch record: a count, then a length-prefixed
        ``result`` body per member (lone result bodies did not change)."""
        body = bytes([TAG_RETIRED_BATCH]) + len(frames).to_bytes(4, "big")
        for frame in frames:
            member = wire(frame)[4:]
            body += len(member).to_bytes(4, "big") + member
        return len(body).to_bytes(4, "big") + body

    def test_protocol_2_batch_record_is_refused_not_truncated(self, tmp_path):
        path = journal_path(tmp_path, 0)
        frames = frames_for("device-0000", 4)
        path.write_bytes(
            wire(frames[0]) + self.protocol_2_batch(frames[1:3]) + wire(frames[3])
        )
        before = path.read_bytes()
        at = len(wire(frames[0]))
        with pytest.raises(JournalError, match=f"protocol 2 batch record at byte {at}"):
            CollectorJournal(path).open()
        with pytest.raises(JournalError, match="protocol 2"):
            count_journal_records(path)
        # the acked results after the old record are still on disk
        assert path.read_bytes() == before

    def test_torn_tail_with_the_retired_tag_is_still_truncated(self, tmp_path):
        path = journal_path(tmp_path, 0)
        frames = frames_for("device-0000", 3)
        torn = self.protocol_2_batch(frames[1:])[:-5]
        path.write_bytes(wire(frames[0]) + torn)
        journal = CollectorJournal(path)
        recovery = journal.open()
        journal.close()
        assert recovery.records == frames[:1]
        assert recovery.truncated_bytes == len(torn)


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

    def test_fresh_admission_journals_the_received_bytes(self, tmp_path):
        """The journal writes what arrived, not a re-encoding of it: a
        body whose JSON tail is spaced differently from the codec's own
        lands in the journal byte for byte."""
        frame = Result(0, SessionResultPayload("device-0000", 0, "pw", 2, meta={"k": "v"}))
        canonical = wire(frame)[4:]
        tail = b'{"meta": {"k": "v"}}'
        assert canonical.endswith(b'{"meta":{"k":"v"}}')
        # the extra length is the row's last u32 before the 11 deltas
        extra_len_at = 1 + 31
        body = (
            canonical[:extra_len_at]
            + len(tail).to_bytes(4, "big")
            + canonical[extra_len_at + 4:-len(b'{"meta":{"k":"v"}}')]
            + tail
        )
        cfg = self.cfg(tmp_path)
        with CollectorHandle(cfg) as handle:
            with socket.create_connection(handle.endpoint[1:], timeout=5.0) as sock:
                sock.sendall(wire(Hello("device-0000")))
                assert decode_any(read_body_sock(sock)) == HelloOk()
                sock.sendall(len(body).to_bytes(4, "big") + body)
                assert decode_any(read_body_sock(sock)) == Ack(0)
        assert handle.server.results == [frame.payload]
        assert journal_path(tmp_path, 0).read_bytes() == len(body).to_bytes(4, "big") + body

    def test_pipelined_restart_replays_received_and_resent_batches(self, tmp_path):
        """At window 8 a journal holds batch records of two kinds: the
        bytes a client sent, when every member was fresh, and a re-encoded
        batch of the fresh members of a resend that overlapped the replayed
        dedup set.  A restart replays both, once each."""
        cfg = CollectorConfig(
            retry=FAST_RETRY, journal_dir=str(tmp_path), pipeline_depth=8
        )
        path = journal_path(tmp_path, 0)
        payloads = [
            SessionResultPayload("device-0000", i, "pw", 2, exact=i % 2 == 0)
            for i in range(10)
        ]
        sent = [Result(seq=i, payload=p) for i, p in enumerate(payloads)]
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads[:5])
        # an all-fresh admission journals exactly the bytes that were sent
        assert path.read_bytes() == wire(batch_of(sent[:5]))

        revived = CollectorHandle(cfg)
        endpoint = revived.start()
        # a client that never saw its ack resends seqs 0-4 inside its
        # first burst of 8, then sends 8 and 9 as a second burst
        with CollectorClient(
            endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
        ) as client:
            client.send_results(payloads)
        revived.stop()
        counter = revived.server.registry.counter
        assert counter("collector.dupes_dropped").value == 5
        assert counter("collector.sessions_ingested").value == 10
        assert journal_bodies(path) == [
            wire(batch_of(sent[:5]))[4:],
            wire(batch_of(sent[5:8]))[4:],  # re-encoded fresh subset
            wire(batch_of(sent[8:]))[4:],  # the received bytes
        ]

        third = CollectorHandle(cfg)
        third.start()
        third.stop()
        counter = third.server.registry.counter
        assert counter("collector.journal.replayed").value == 10
        assert counter("collector.journal.replay_dupes").value == 0
        assert counter("collector.sessions_ingested").value == 10
        assert counter("collector.sessions_scored").value == 10
        assert counter("collector.sessions_exact").value == 5
        assert third.server.results == payloads


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
        self, config, chase_store, tmp_path, monkeypatch
    ):
        from repro.android.apps import app
        from repro.api import AttackConfig, run_fleet

        seed = 7
        shards = 4
        # aim the drill at a shard that actually receives traffic
        router = DeviceRouter(shards=shards, seed=seed)
        monkeypatch.setattr(fleet, "KILL_DRILL_SHARD", router.shard_of("device-0000"))
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
            drill=KillDrill(),
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

    @pytest.mark.parametrize("failure", ["drill", "pool"])
    def test_failed_run_removes_its_scratch_journals(
        self, config, chase_store, tmp_path, monkeypatch, failure
    ):
        """Without a journal_dir the shard journals live in a scratch
        directory, which must go even when the drill or the device pool
        fails."""
        import tempfile

        from repro.android.apps import app
        from repro.collector import FleetDriver

        def boom(*args, **kwargs):
            raise RuntimeError(f"forced {failure} failure")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        if failure == "drill":
            monkeypatch.setattr(FleetDriver, "_run_pool", lambda self, endpoint_of: [])
            monkeypatch.setattr(CollectorTier, "kill", boom)
        else:
            monkeypatch.setattr(FleetDriver, "_run_pool", boom)
        driver = FleetDriver(
            chase_store, config, app("chase"), "pw",
            devices=1,
            sessions_per_device=1,
            collector=CollectorConfig(shards=2),
            drill=KillDrill() if failure == "drill" else None,
        )
        with pytest.raises(RuntimeError, match=f"forced {failure} failure"):
            driver.run()
        assert list(tmp_path.glob("repro-collector-*")) == []

    def test_drill_requires_multiple_shards(self, config, chase_store):
        from repro.android.apps import app
        from repro.collector import FleetDriver

        with pytest.raises(ValueError, match="shards"):
            FleetDriver(
                chase_store, config, app("chase"), "pw",
                collector=CollectorConfig(shards=1),
                drill=KillDrill(),
            )
