"""Tests for the fleet collector: framing, delivery, backpressure, fleet."""

import gc
import socket
import time
import warnings

import pytest

from repro.api import run_fleet
from repro.collector import (
    BINARY_CODEC,
    CollectorClient,
    CollectorClientError,
    CollectorConfig,
    CollectorHandle,
    CollectorServer,
    FleetDriver,
    NetworkFaultInjector,
    RetryPolicy,
    SessionResultPayload,
    decode_any,
    read_body_sock,
)
from repro.collector import frames as frames_mod
from repro.collector.frames import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    TAG_BATCH,
    TAG_HELLO,
    TAG_HELLO_OK,
    TAG_METRICS,
    TAG_RESULT,
    TAG_RETIRED_BATCH,
    Ack,
    Batch,
    Bye,
    ByeOk,
    ConnectionClosed,
    FrameError,
    Hello,
    HelloOk,
    Metrics,
    MetricsOk,
    ProtocolError,
    Result,
    parse_length,
    prefix_body,
)
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry

NO_SLEEP = lambda s: None  # noqa: E731 — instant backoff for tests
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.001, max_delay_s=0.01)
FAST_CFG = CollectorConfig(retry=FAST_RETRY)


def fast_cfg(**overrides):
    return FAST_CFG.with_overrides(**overrides)


def batch_of(frames):
    """The :class:`Batch` of ``frames``, in order."""
    frames = tuple(frames)
    return Batch(tuple(f.seq for f in frames), tuple(f.payload for f in frames))


def payloads_for(device_id, n, text="pw", exact=True):
    return [
        SessionResultPayload(device_id, i, text, len(text), exact=exact)
        for i in range(n)
    ]


def raw_connect(endpoint):
    assert endpoint[0] == "tcp"
    sock = socket.create_connection((endpoint[1], endpoint[2]), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def send_frame(sock, frame):
    sock.sendall(BINARY_CODEC.encode(frame))


def read_frame(sock):
    return decode_any(read_body_sock(sock))


def admit(server, frame):
    """Admit ``frame`` as the server's read loop does: with its wire body."""
    return server._admit(frame, BINARY_CODEC.encode(frame)[4:])


# ---------------------------------------------------------------------------
# framing


class TestFraming:
    def test_round_trip(self):
        frame = BINARY_CODEC.encode(Ack(seq=7))
        assert parse_length(frame[:4]) == len(frame) - 4
        assert decode_any(frame[4:]) == Ack(seq=7)

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(FrameError, match="exceeds cap"):
            parse_length((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))

    def test_truncated_prefix_rejected(self):
        with pytest.raises(FrameError, match="truncated"):
            parse_length(b"\x00\x00")

    def test_non_object_body_rejected(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_any(bytes([TAG_METRICS]) + b"[1, 2]")
        with pytest.raises(FrameError, match="not JSON"):
            decode_any(bytes([TAG_METRICS]) + b"{nope")

    def test_payload_from_result_scores_expected(self):
        class FakeResult:
            text = "secret"
            keys = [1, 2, 3]
            degraded = False

        payload = SessionResultPayload.from_result(
            FakeResult(), device_id="d", session_index=0, expected="secret"
        )
        assert payload.exact is True
        assert payload.n_keys == 3
        missed = SessionResultPayload.from_result(
            FakeResult(), device_id="d", session_index=1, expected="other"
        )
        assert missed.exact is False


# ---------------------------------------------------------------------------
# server + client delivery


class TestDelivery:
    def test_tcp_round_trip_all_ingested(self):
        with CollectorHandle(fast_cfg()) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 10))
        server = handle.server
        assert len(server.results) == 10
        assert server.registry.counter("collector.sessions_ingested").value == 10
        assert server.registry.counter("collector.sessions_exact").value == 10
        assert server.registry.counter("collector.dupes_dropped").value == 0
        # results arrive in seq order on one connection
        assert [p.session_index for p in server.results] == list(range(10))

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "collector.sock")
        with CollectorHandle(fast_cfg(transport="unix", unix_path=path)) as handle:
            assert handle.endpoint == ("unix", path)
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 5))
        assert len(handle.server.results) == 5

    def test_resend_is_deduplicated(self):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            frame = Result(seq=0, payload=SessionResultPayload("device-0000", 0, "pw", 2))
            for _ in range(3):
                send_frame(sock, frame)
                assert read_frame(sock) == Ack(seq=0)
            sock.close()
        server = handle.server
        assert len(server.results) == 1
        assert server.registry.counter("collector.frames_ingested").value == 3
        assert server.registry.counter("collector.dupes_dropped").value == 2

    def test_devices_do_not_share_dedup_space(self):
        with CollectorHandle(fast_cfg()) as handle:
            for device in ("device-0000", "device-0001"):
                with CollectorClient(
                    handle.endpoint, device, config=FAST_CFG, sleep=NO_SLEEP
                ) as client:
                    client.send_results(payloads_for(device, 3))
        assert len(handle.server.results) == 6

    def test_injected_drops_are_absorbed_with_zero_loss(self):
        plan = FaultPlan(seed=5, read_error_prob=0.3, jitter_prob=0.2, jitter_s=1e-4)
        with CollectorHandle(fast_cfg()) as handle:
            client = CollectorClient(
                handle.endpoint,
                "device-0000",
                fault_plan=plan,
                config=FAST_CFG,
                seed_offset=9,
                sleep=NO_SLEEP,
            )
            with client:
                client.send_results(payloads_for("device-0000", 40))
        server = handle.server
        assert len(server.results) == 40
        assert client.stats.retries > 0
        assert client.stats.injected_drops > 0
        # drop-after-send resends surface as deduplicated frames
        assert (
            server.registry.counter("collector.dupes_dropped").value
            + server.registry.counter("collector.sessions_ingested").value
            == server.registry.counter("collector.frames_ingested").value
        )
        # the client's bye tally landed in the collector registry
        assert (
            server.registry.counter("collector.client_retries").value
            == client.stats.retries
        )

    def test_client_gives_up_when_collector_is_gone(self):
        handle = CollectorHandle(fast_cfg())
        endpoint = handle.start()
        handle.stop()
        client = CollectorClient(
            endpoint,
            "device-0000",
            config=fast_cfg(retry=RetryPolicy(max_attempts=3, base_delay_s=0.001)),
            sleep=NO_SLEEP,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(CollectorClientError, match="undelivered after 3 attempts"):
                client.send_result(SessionResultPayload("device-0000", 0, "pw", 2))
            gc.collect()
        # every refused connect closed its socket
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_client_survives_server_side_idle_timeout(self):
        with CollectorHandle(fast_cfg(read_timeout_s=0.05)) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_result(SessionResultPayload("device-0000", 0, "pw", 2))
                deadline = time.monotonic() + 2.0
                while (
                    handle.server.registry.counter(
                        "collector.connection_timeouts"
                    ).value
                    == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                # the server timed the idle connection out; the next send
                # must transparently reconnect and deliver
                client.send_result(SessionResultPayload("device-0000", 1, "pw", 2))
        server = handle.server
        assert server.registry.counter("collector.connection_timeouts").value >= 1
        assert len(server.results) == 2
        assert client.stats.reconnects >= 1

    def test_a_peer_that_stalls_after_one_frame_times_out(self):
        timeout_s = 0.2
        with CollectorHandle(fast_cfg(read_timeout_s=timeout_s)) as handle:
            sock = raw_connect(handle.endpoint)
            send_frame(sock, Result(0, SessionResultPayload("device-0000", 0, "pw", 2)))
            assert read_frame(sock) == Ack(0)
            acked = time.monotonic()
            # the peer says nothing more: the server hangs up on it once
            # the next read has waited the whole timeout
            assert sock.recv(1) == b""
            waited = time.monotonic() - acked
            sock.close()
        registry = handle.server.registry
        assert waited >= timeout_s * 0.75
        assert registry.counter("collector.connection_timeouts").value == 1
        assert registry.counter("collector.sessions_ingested").value == 1

    def test_stop_closing_a_waiting_read_is_not_a_timeout(self):
        handle = CollectorHandle(fast_cfg(read_timeout_s=30.0, drain_timeout_s=0.05))
        sock = raw_connect(handle.start())
        send_frame(sock, Hello(device_id="device-0000", proto=PROTO_VERSION))
        assert read_frame(sock) == HelloOk()
        # the handler waits in its next read when stop() cancels it
        handle.stop()
        assert sock.recv(1) == b""
        sock.close()
        registry = handle.server.registry
        assert registry.counter("collector.connections_closed").value == 1
        assert registry.counter("collector.connection_timeouts").value == 0

    def test_a_slow_admission_is_not_idle(self):
        """A handler blocked in admission (full queue, slow aggregator)
        reads nothing for longer than the read timeout, but is not idle."""
        import asyncio

        async def slow_consumer(payload):
            await asyncio.sleep(0.4)

        # the third result waits in admission until the first is
        # aggregated, more than twice the read timeout
        with CollectorHandle(
            fast_cfg(queue_size=1, read_timeout_s=0.15), on_result=slow_consumer
        ) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                for payload in payloads_for("device-0000", 3):
                    client.send_result(payload)
        registry = handle.server.registry
        assert registry.counter("collector.connection_timeouts").value == 0
        assert len(handle.server.results) == 3
        assert client.stats.reconnects == 0

    def test_oversized_prefix_is_rejected_cleanly(self):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xxxx")
            # the server answers with a typed protocol error, then hangs up
            assert isinstance(read_frame(sock), ProtocolError)
            assert sock.recv(1) == b""
            sock.close()
        registry = handle.server.registry
        assert registry.counter("collector.frames.rejected").value == 1
        assert registry.counter("collector.malformed_frames").value == 0

    def test_truncated_frame_is_rejected_cleanly(self):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            # claim a 64-byte body, deliver 3 bytes, vanish mid-frame
            sock.sendall((64).to_bytes(4, "big") + b"abc")
            sock.close()
            deadline = time.monotonic() + 2.0
            registry = handle.server.registry
            while (
                registry.counter("collector.frames.rejected").value == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert registry.counter("collector.frames.rejected").value == 1

    def test_malformed_frame_closes_connection(self):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            # a JSON body is not a frame on the binary wire
            sock.sendall(prefix_body(b'{"type": "mystery"}'))
            assert isinstance(read_frame(sock), ProtocolError)
            assert sock.recv(1) == b""
            sock.close()
        assert handle.server.registry.counter("collector.malformed_frames").value == 1

    def test_hello_proto_mismatch_rejected(self):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            send_frame(sock, Hello(device_id="d", proto=99))
            assert isinstance(read_frame(sock), ProtocolError)
            with pytest.raises((ConnectionClosed, OSError)):
                read_frame(sock)
            sock.close()
        assert handle.server.registry.counter("collector.proto_rejected").value == 1

    def test_metrics_frame_merges_into_registry(self):
        device = MetricsRegistry()
        device.counter("engine.keys").inc(12)
        with CollectorHandle(fast_cfg()) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_metrics(device.snapshot())
                client.send_metrics(device.snapshot())
        registry = handle.server.registry
        assert registry.counter("engine.keys").value == 24
        assert registry.counter("collector.metrics_frames").value == 2

    def test_config_validates_fields(self):
        with pytest.raises(ValueError, match="transport"):
            CollectorConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unix_path"):
            CollectorConfig(transport="unix")
        with pytest.raises(ValueError, match="codec"):
            CollectorConfig(codec="json")
        with pytest.raises(ValueError, match="queue_size"):
            CollectorConfig(queue_size=0)
        with pytest.raises(ValueError, match="timeouts"):
            CollectorConfig(read_timeout_s=0)
        with pytest.raises(TypeError, match="RetryPolicy"):
            CollectorConfig(retry={"max_attempts": 3})

    def test_config_round_trips_through_dict(self):
        cfg = CollectorConfig(
            codec="binary",
            queue_size=32,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01),
        )
        assert CollectorConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="unknown"):
            CollectorConfig.from_dict({"bogus": 1})


class TestBackpressure:
    def test_bounded_queue_blocks_producers_not_memory(self):
        import asyncio

        delay_s = 0.01
        n = 12

        async def slow_consumer(payload):
            await asyncio.sleep(delay_s)

        with CollectorHandle(
            fast_cfg(queue_size=1), on_result=slow_consumer
        ) as handle:
            started = time.perf_counter()
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", n))
            elapsed = time.perf_counter() - started
        server = handle.server
        assert len(server.results) == n
        # the queue bound held: admission never ran ahead of aggregation
        assert server.registry.gauge("collector.queue_depth_peak").value <= 1
        # and the producer was actually slowed to the consumer's pace
        assert elapsed >= (n - 2) * delay_s

    def test_graceful_drain_aggregates_everything_admitted(self):
        import asyncio

        async def slow_consumer(payload):
            await asyncio.sleep(0.02)

        with CollectorHandle(
            fast_cfg(queue_size=64), on_result=slow_consumer
        ) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 8))
            # context exit stops the server; drain must finish the queue
        assert len(handle.server.results) == 8

    def test_aggregation_error_does_not_wedge_the_queue(self):
        def explode(payload):
            raise RuntimeError("aggregation bug")

        with CollectorHandle(fast_cfg(), on_result=explode) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 4))
        registry = handle.server.registry
        assert registry.counter("collector.aggregation_errors").value == 4
        assert registry.counter("collector.sessions_ingested").value == 4


class TestNetworkFaultInjector:
    def test_deterministic_under_seed(self):
        plan = FaultPlan(seed=7, read_error_prob=0.4, jitter_prob=0.3, jitter_s=0.01)
        a = NetworkFaultInjector(plan, seed_offset=3)
        b = NetworkFaultInjector(plan, seed_offset=3)
        seq_a = [(a.connection_fault(), a.slow_read_delay_s()) for _ in range(50)]
        seq_b = [(b.connection_fault(), b.slow_read_delay_s()) for _ in range(50)]
        assert seq_a == seq_b
        assert any(fault for fault, _ in seq_a)

    def test_offset_decorrelates_devices(self):
        plan = FaultPlan(seed=7, read_error_prob=0.4)
        a = NetworkFaultInjector(plan, seed_offset=1)
        b = NetworkFaultInjector(plan, seed_offset=2)
        assert [a.connection_fault() for _ in range(60)] != [
            b.connection_fault() for _ in range(60)
        ]

    def test_retry_policy_delay_bounds_and_validation(self):
        import numpy as np

        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(10):
            delay = policy.delay_s(attempt, rng)
            assert 0 < delay <= 0.5 * 1.5
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)


# ---------------------------------------------------------------------------
# typed frames and the binary wire codec


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.collector import N_COUNTERS  # noqa: E402

u32 = st.integers(min_value=0, max_value=2 ** 32 - 1)
u64 = st.integers(min_value=0, max_value=2 ** 64 - 1)

payload_strategy = st.builds(
    SessionResultPayload,
    device_id=st.text(min_size=1, max_size=24),
    session_index=u32,
    text=st.text(max_size=48),
    n_keys=u32,
    degraded=st.booleans(),
    exact=st.one_of(st.none(), st.booleans()),
    seed=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    deltas=st.one_of(
        st.none(),
        st.tuples(*[u64] * N_COUNTERS),
    ),
    mask=st.integers(min_value=0, max_value=(1 << N_COUNTERS) - 1),
    metrics=st.one_of(st.none(), st.dictionaries(st.text(max_size=8), st.integers())),
    meta=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
)

result_strategy = st.builds(Result, seq=u32, payload=payload_strategy)

#: Every frame kind the wire carries.
frame_strategy = st.one_of(
    result_strategy,
    st.lists(result_strategy, min_size=1, max_size=4).map(batch_of),
    st.builds(Ack, seq=u32),
    st.builds(Hello, device_id=st.text(max_size=24), proto=st.integers()),
    st.builds(Metrics, snapshot=st.dictionaries(st.text(max_size=8), st.integers())),
    st.builds(
        Bye,
        device_id=st.text(max_size=24),
        sent=st.integers(min_value=0),
        retries=st.integers(min_value=0),
        reconnects=st.integers(min_value=0),
    ),
    st.builds(ProtocolError, error=st.text(max_size=32)),
    st.sampled_from([HelloOk(), MetricsOk(), ByeOk()]),
)


class TestWireCodecs:
    @given(frame=frame_strategy)
    @settings(max_examples=300)
    def test_binary_result_round_trip(self, frame):
        """Every frame kind survives encode → length prefix → decode."""
        wire = BINARY_CODEC.encode(frame)
        assert parse_length(wire[:4]) == len(wire) - 4
        assert decode_any(wire[4:]) == frame

    def test_control_frames_round_trip_on_both_codecs(self):
        # the wire has one codec; the control frames round-trip on it
        frames = [
            Ack(seq=123),
            Metrics(snapshot={"counters": {"x": 1}}),
            Bye(device_id="device-π", sent=9, retries=2, reconnects=1),
        ]
        for frame in frames:
            assert decode_any(BINARY_CODEC.encode(frame)[4:]) == frame

    def test_hello_frames_carry_their_own_tags(self):
        hello = BINARY_CODEC.encode(Hello("d"))[4:]
        assert hello[0] == TAG_HELLO == 0x89
        assert decode_any(hello) == Hello("d", proto=PROTO_VERSION)
        assert BINARY_CODEC.encode(HelloOk())[4:] == bytes([TAG_HELLO_OK]) == b"\x8a"

    def test_truncated_binary_result_rejected(self):
        frame = Result(
            seq=0, payload=SessionResultPayload("d", 0, "pw", 2)
        )
        body = BINARY_CODEC.encode(frame)[4:]
        with pytest.raises(FrameError, match="truncated|mismatch"):
            decode_any(body[: len(body) - 1])
        with pytest.raises(FrameError, match="truncated|mismatch"):
            decode_any(body[:10])

    def test_unknown_leading_byte_rejected(self):
        with pytest.raises(FrameError, match="leading byte"):
            decode_any(b"\xff\x00\x00")
        with pytest.raises(FrameError, match="leading byte 0x7b"):
            decode_any(b'{"type":"hello","device_id":"d","proto":1}')
        with pytest.raises(FrameError, match="empty"):
            decode_any(b"")

    def test_payload_validates_deltas_and_mask(self):
        with pytest.raises(ValueError, match="deltas"):
            SessionResultPayload("d", 0, "pw", 2, deltas=(1, 2, 3))
        with pytest.raises(ValueError, match="non-negative"):
            SessionResultPayload("d", 0, "pw", 2, deltas=(-1,) * N_COUNTERS)
        with pytest.raises(ValueError, match="mask"):
            SessionResultPayload("d", 0, "pw", 2, mask=1 << N_COUNTERS)


#: Member payloads for the columnar property: a few device ids (one
#: non-ASCII) mixed within a batch, deltas absent or reaching the u64 top.
member_payload_strategy = st.builds(
    SessionResultPayload,
    device_id=st.sampled_from(["device-0000", "device-0001", "appareil-é", "设备"]),
    session_index=u32,
    text=st.text(max_size=16),
    n_keys=u32,
    degraded=st.booleans(),
    exact=st.sampled_from([None, True, False]),
    seed=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    deltas=st.one_of(
        st.none(),
        st.tuples(*[st.one_of(st.just(2 ** 64 - 1), u64)] * N_COUNTERS),
    ),
    mask=st.integers(min_value=0, max_value=(1 << N_COUNTERS) - 1),
    metrics=st.one_of(st.none(), st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)),
    meta=st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
)

#: One ``result`` body, packed by protocol 2 and protocol 3 alike.
PINNED_RESULT = Result(
    seq=258,
    payload=SessionResultPayload(
        "dev-π", 7, "pw1x5", 5, degraded=True, exact=False, seed=-3,
        deltas=(0, 1, 2 ** 64 - 1) + (5,) * 8, mask=0x401, meta={"k": "v"},
    ),
)
PINNED_RESULT_HEX = (
    "811b04010000010200000007fffffffffffffffd000000050000000600000005"
    "0000001200000000000000000000000000000001ffffffffffffffff00000000"
    "0000000500000000000000050000000000000005000000000000000500000000"
    "0000000500000000000000050000000000000005000000000000000564657"
    "62dcf8070773178357b226d657461223a7b226b223a2276227d7d"
)

#: Bytes of one member's fixed row in a ``result`` or ``batch`` body.
ROW_BYTES = 123


def batch_head(count):
    return bytes([TAG_BATCH]) + count.to_bytes(4, "big")


class TestColumnarCodec:
    """The columnar ``batch`` body and its one-row case, the ``result``."""

    @given(members=st.lists(member_payload_strategy, min_size=1, max_size=64), lone=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_decode_inverts_encode(self, members, lone):
        if lone:
            members = members[:1]
        frames = tuple(Result(seq=i, payload=p) for i, p in enumerate(members))
        frame = frames[0] if lone else batch_of(frames)
        body = BINARY_CODEC.encode(frame)[4:]
        decoded = decode_any(body)
        assert decoded == frame
        items = (decoded,) if lone else decoded.frames
        # exact is the same object, not merely an equal one (1 == True)
        assert [m.payload.exact for m in items] == [p.exact for p in members]
        assert all(m.payload.exact is p.exact for m, p in zip(items, members))
        heap = sum(
            len(m.payload.device_id.encode()) + len(m.payload.text.encode())
            for m in items
        )
        head = 1 if lone else 5
        assert len(body) >= head + ROW_BYTES * len(members) + heap
        assert body[0] == (TAG_RESULT if lone else TAG_BATCH)

    def test_lone_result_bytes_are_pinned(self):
        body = BINARY_CODEC.encode(PINNED_RESULT)[4:]
        assert body.hex() == PINNED_RESULT_HEX
        assert decode_any(bytes.fromhex(PINNED_RESULT_HEX)) == PINNED_RESULT

    def test_batch_rows_precede_one_heap(self):
        frames = tuple(
            Result(seq=i, payload=p) for i, p in enumerate(payloads_for("d", 3, text="ab"))
        )
        body = BINARY_CODEC.encode(batch_of(frames))[4:]
        assert body[:5] == batch_head(3)
        assert body[5 + 3 * ROW_BYTES:] == b"dab" * 3
        # a member row is the lone result's header without the tag
        lone = BINARY_CODEC.encode(frames[1])[4:]
        assert body[5 + ROW_BYTES:5 + 2 * ROW_BYTES] == lone[1:1 + ROW_BYTES]

    def batch_body(self, n=2):
        frames = tuple(
            Result(seq=i, payload=p) for i, p in enumerate(payloads_for("d", n))
        )
        return BINARY_CODEC.encode(batch_of(frames))[4:]

    def test_zero_count_is_rejected(self):
        with pytest.raises(FrameError, match="at least one"):
            decode_any(batch_head(0))

    def test_hostile_count_is_rejected_before_allocating(self):
        with pytest.raises(FrameError, match="rows truncated"):
            decode_any(batch_head(0xFFFFFFFF))

    def test_short_heap_is_rejected(self):
        with pytest.raises(FrameError, match="length mismatch"):
            decode_any(self.batch_body()[:-1])

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(FrameError, match="length mismatch"):
            decode_any(self.batch_body() + b"x")
        lone = BINARY_CODEC.encode(PINNED_RESULT)[4:]
        with pytest.raises(FrameError, match="length mismatch"):
            decode_any(lone + b"x")

    def test_bad_utf8_is_rejected(self):
        body = self.batch_body()
        # the heap's last byte is the second member's text "pw"
        with pytest.raises(FrameError, match="not UTF-8"):
            decode_any(body[:-1] + b"\xff")

    def test_non_object_tail_is_rejected(self):
        payload = SessionResultPayload("d", 0, "pw", 2, meta={"k": 1})
        body = BINARY_CODEC.encode(batch_of((Result(0, payload),)))[4:]
        tail = b'{"meta":{"k":1}}'
        assert body.endswith(tail)
        swapped = body[: -len(tail)] + b"[" + b" " * (len(tail) - 2) + b"]"
        with pytest.raises(FrameError, match="JSON object"):
            decode_any(swapped)

    def test_negative_seq_is_refused_on_encode(self):
        frame = Result(seq=-1, payload=SessionResultPayload("d", 0, "pw", 2))
        with pytest.raises(FrameError, match="out of range"):
            BINARY_CODEC.encode(frame)
        with pytest.raises(FrameError, match="out of range"):
            BINARY_CODEC.encode(batch_of((frame,)))

    def test_retired_batch_tag_names_the_protocol(self):
        member = BINARY_CODEC.encode(PINNED_RESULT)[4:]
        v2 = bytes([TAG_RETIRED_BATCH]) + (1).to_bytes(4, "big")
        v2 += len(member).to_bytes(4, "big") + member
        with pytest.raises(FrameError, match="retired in proto 3"):
            decode_any(v2)

    def test_out_of_range_mask_is_rejected(self):
        """The wire's mask field holds 16 bits, a payload's mask 11: the
        decoder's once-per-frame bound refuses the rest in any member,
        and a live connection admits none of such a frame."""

        def with_mask(body, at, mask):
            return body[:at] + mask.to_bytes(2, "big") + body[at + 2:]

        batch = self.batch_body(n=5)
        lone = BINARY_CODEC.encode(Result(0, SessionResultPayload("d", 0, "pw", 2)))[4:]
        # a row's mask sits one byte into it (after the flags)
        spots = [(batch, 5 + member * ROW_BYTES + 1) for member in (0, 2, 4)]
        spots.append((lone, 2))
        top = (1 << N_COUNTERS) - 1
        for body, at in spots:
            assert decode_any(with_mask(body, at, top))  # the largest 11-bit mask
        bad = [
            with_mask(body, at, mask)
            for body, at in spots
            for mask in (1 << N_COUNTERS, 0xFFFF)
        ]
        for body in bad:
            with pytest.raises(FrameError, match="mask"):
                decode_any(body)
        with CollectorHandle(fast_cfg()) as handle:
            for body in bad:
                sock = raw_connect(handle.endpoint)
                sock.sendall(prefix_body(body))
                assert isinstance(read_frame(sock), ProtocolError)
                assert sock.recv(1) == b""
                sock.close()
        registry = handle.server.registry
        assert registry.counter("collector.malformed_frames").value == len(bad)
        assert registry.counter("collector.frames_ingested").value == 0
        assert registry.counter("collector.sessions_ingested").value == 0
        assert handle.server.results == []


class TestMixedFleet:
    def test_mixed_fleet_with_faults_zero_loss(self):
        # a lock-step and a pipelined device interleave on one server
        # under injected drops: nothing lost, nothing double-counted
        plan = FaultPlan(seed=11, read_error_prob=0.25, jitter_prob=0.1, jitter_s=1e-4)
        per_device = 25
        with CollectorHandle(fast_cfg()) as handle:
            for offset, depth in ((1, 1), (2, 8)):
                device = f"device-depth{depth}"
                with CollectorClient(
                    handle.endpoint, device, fault_plan=plan,
                    config=fast_cfg(pipeline_depth=depth), seed_offset=offset,
                    sleep=NO_SLEEP,
                ) as client:
                    client.send_results(payloads_for(device, per_device))
        server = handle.server
        assert len(server.results) == per_device * 2
        assert server.registry.counter("collector.sessions_ingested").value == per_device * 2


# ---------------------------------------------------------------------------
# fleet


class TestFleet:
    def test_fleet_end_to_end(self, config, chase_store):
        from repro.android.apps import app
        from repro.api import AttackConfig

        report = run_fleet(
            chase_store,
            config,
            app("chase"),
            "flpwd123",
            devices=2,
            sessions_per_device=1,
            seed=21,
            config=AttackConfig(recognize_device=False, fault_plan=None),
        )
        assert report.sessions_total == 2
        assert report.ingested == 2
        assert report.lost == 0
        assert report.exact == 2
        assert [p.device_id for p in report.results] == ["device-0000", "device-0001"]
        assert report.manifest is not None
        assert report.manifest.counters["collector.sessions_ingested"] == 2
        assert report.manifest.meta["command"] == "fleet"
        # devices ship ground-truth deltas
        for payload in report.results:
            assert payload.deltas is not None
            assert len(payload.deltas) == 11
            assert any(v > 0 for v in payload.deltas)
            assert payload.mask == 0

    def test_fleet_with_metrics_merges_device_runs(self, config, chase_store):
        from repro.android.apps import app
        from repro.api import AttackConfig

        registry = MetricsRegistry()
        report = run_fleet(
            chase_store,
            config,
            app("chase"),
            "flpwd123",
            devices=2,
            sessions_per_device=1,
            seed=33,
            config=AttackConfig(recognize_device=False, fault_plan=None),
            collector=CollectorConfig(retry=FAST_RETRY),
            metrics=registry,
        )
        assert report.lost == 0
        # device-side attack metrics crossed the wire and merged
        assert registry.counter("collector.metrics_frames").value == 2
        assert registry.counter("sampler.reads_issued").value > 0
        assert report.manifest.config["recognize_device"] is False

    def test_fleet_unix_transport_with_faults(self, config, chase_store, tmp_path):
        from repro.android.apps import app
        from repro.api import AttackConfig

        plan = FaultPlan(seed=4, read_error_prob=0.25, jitter_prob=0.1, jitter_s=1e-4)
        report = run_fleet(
            chase_store,
            config,
            app("chase"),
            "flpwd123",
            devices=2,
            sessions_per_device=2,
            seed=5,
            config=AttackConfig(recognize_device=False, fault_plan=plan),
            collector=CollectorConfig(
                transport="unix",
                unix_path=str(tmp_path / "fleet.sock"),
                retry=RetryPolicy(max_attempts=10, base_delay_s=0.001, max_delay_s=0.01),
            ),
        )
        # the delivery contract: injected drops never lose results
        assert report.lost == 0
        assert report.ingested == 4

    def test_fleet_driver_validation(self, config, chase_store):
        from repro.android.apps import app

        with pytest.raises(ValueError, match="devices"):
            FleetDriver(chase_store, config, app("chase"), "pw", devices=0)
        with pytest.raises(ValueError, match="sessions_per_device"):
            FleetDriver(chase_store, config, app("chase"), "pw", sessions_per_device=0)


# ---------------------------------------------------------------------------
# exactly-once contract gaps (regression suite for the PR-8 bugfixes)


async def drain_admissions(server, tasks):
    """Take queue items, one per loop turn, until every admission task has
    finished and the queue is empty; returns the items taken.  Fails,
    instead of hanging, if the admissions stop making progress."""
    import asyncio

    items = []
    for _ in range(10_000):
        if all(task.done() for task in tasks) and server._queue.empty():
            return items
        if not server._queue.empty():
            items.append(server._queue.get_nowait())
            server._queue.task_done()
        await asyncio.sleep(0)
    pytest.fail("admissions still blocked with the queue drained")


class TestExactlyOnceGaps:
    def test_cancelled_put_does_not_poison_dedup(self):
        """A handler cancelled mid-``queue.put`` admitted nothing, so the
        client's resend of that seq must aggregate — not dupe-ack."""
        import asyncio

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=1))
            server._queue = asyncio.Queue(maxsize=1)
            blocker = SessionResultPayload("device-0000", 0, "x", 1)
            victim = SessionResultPayload("device-0000", 1, "pw", 2, exact=True)
            # fill the queue so the next admission blocks in put()
            await server._queue.put(blocker)
            task = asyncio.create_task(admit(server, Result(1, victim)))
            await asyncio.sleep(0)  # let it reach the blocked put
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the drain-timeout path emptied the queue; the resend arrives
            server._queue.get_nowait()
            server._queue.task_done()
            assert await admit(server, Result(1, victim))
            return server

        server = asyncio.run(scenario())
        assert server.registry.counter("collector.dupes_dropped").value == 0
        assert server._queue.qsize() == 1
        assert server._queue.get_nowait() is not None

    def test_concurrent_resend_waits_for_original_admission(self):
        """A resend racing the original (still blocked in put) must not
        double-admit; once the original lands the resend dupe-acks."""
        import asyncio

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=1))
            server._queue = asyncio.Queue(maxsize=1)
            payload = SessionResultPayload("device-0000", 1, "pw", 2)
            await server._queue.put(SessionResultPayload("device-0000", 0, "x", 1))
            original = asyncio.create_task(admit(server, Result(1, payload)))
            await asyncio.sleep(0)
            resend = asyncio.create_task(admit(server, Result(1, payload)))
            await asyncio.sleep(0)
            assert not original.done() and not resend.done()
            server._queue.get_nowait()  # unblock the original
            server._queue.task_done()
            assert await original and await resend
            return server

        server = asyncio.run(scenario())
        # exactly one admission, one dupe-ack
        assert server._queue.qsize() == 1
        assert server.registry.counter("collector.dupes_dropped").value == 1

    def test_crossed_resends_do_not_wait_on_each_other(self):
        """Two resends overlapping in opposite orders, both behind an
        original blocked in put, each wait for it without holding a
        claim of their own, so neither waits on the other: every member
        lands once."""
        import asyncio

        def batch(seqs):
            return batch_of(
                Result(seq, SessionResultPayload("device-0000", seq, "pw", 2))
                for seq in seqs
            )

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=1))
            server._queue = asyncio.Queue(maxsize=1)
            await server._queue.put(("blocker",))
            tasks = []
            for seqs in ([0], [0, 2, 1], [1, 0, 2]):
                tasks.append(asyncio.create_task(admit(server, batch(seqs))))
                await asyncio.sleep(0)
            items = await drain_admissions(server, tasks)
            return server, items[1:]

        server, items = asyncio.run(scenario())
        assert sorted(p.session_index for item in items for p in item) == [0, 1, 2]
        assert server.registry.counter("collector.dupes_dropped").value == 4
        assert server._pending == {}

    def test_restart_resets_volatile_state(self):
        """A second life of the same server is a fresh run: last run's
        dedup set must not swallow the new run's seq-0 frames."""
        handle = CollectorHandle(fast_cfg())
        endpoint = handle.start()
        with CollectorClient(
            endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
        ) as client:
            client.send_results(payloads_for("device-0000", 3))
        handle.stop()
        assert len(handle.server.results) == 3

        endpoint = handle.start()
        with CollectorClient(
            endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
        ) as client:
            client.send_results(payloads_for("device-0000", 3))
        handle.stop()
        server = handle.server
        # pre-fix: 0 results, 3 dupes — the stale _seen ate the run
        assert len(server.results) == 3
        assert server.registry.counter("collector.dupes_dropped").value == 0
        # the registry is cumulative across lives; each life counts its
        # unique devices once
        assert server.registry.counter("collector.devices_seen").value == 2

    def test_devices_seen_counts_unique_devices_not_connections(self):
        with CollectorHandle(fast_cfg()) as handle:
            for _ in range(3):  # same device, three connections
                with CollectorClient(
                    handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
                ) as client:
                    client.send_results(payloads_for("device-0000", 1))
            with CollectorClient(
                handle.endpoint, "device-0001", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0001", 1))
        registry = handle.server.registry
        assert registry.counter("collector.devices_seen").value == 2
        assert registry.counter("collector.connections_opened").value == 4

    def test_handle_stop_is_exception_safe(self, monkeypatch):
        """A failing server.stop() must still tear the loop thread down
        so a second stop() (or interpreter exit) cannot wedge, and the
        teardown must cancel the pending tasks and close the listener
        before the loop closes (no "Event loop is closed" noise, no
        leaked bound socket)."""
        handle = CollectorHandle(fast_cfg())
        endpoint = handle.start()
        thread = handle._thread

        async def boom(drain=True):
            raise RuntimeError("drain exploded")

        monkeypatch.setattr(handle.server, "stop", boom)
        with pytest.raises(RuntimeError, match="drain exploded"):
            handle.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert handle._thread is None and handle._loop is None
        handle.stop()  # second stop is a clean no-op, not a hang
        with pytest.raises(OSError):
            raw_connect(endpoint).close()

    def test_error_reply_is_drained_before_close(self):
        """An oversized frame gets its typed ProtocolError reply even
        though the server closes the connection right after."""
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            try:
                sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                reply = read_frame(sock)
            finally:
                sock.close()
        assert isinstance(reply, ProtocolError)
        assert "cap" in reply.error


#: Admission property members: ``(device index, seq)`` over a small seq
#: range, so repeats inside a frame and overlapping resends are common.
#: A frame's members come from one device (as a client sends them), or
#: from up to three.
frame_keys_strategy = st.one_of(
    st.integers(0, 2).flatmap(
        lambda device: st.lists(
            st.integers(0, 9).map(lambda seq: (device, seq)), min_size=1, max_size=6
        )
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)), min_size=1, max_size=6),
)

#: A wire frame's members, whether a one-member frame goes out as a lone
#: result (else a batch of one), and whether a contended run takes one
#: queue item off just as the frame arrives.
admission_frame_strategy = st.tuples(frame_keys_strategy, st.booleans(), st.booleans())


def key_payload(key):
    """The one payload a member key stands for (a resend repeats it)."""
    device, seq = key
    return SessionResultPayload(
        f"device-{device:04d}", seq, f"t{seq}", seq, exact=True,
        deltas=tuple(range(seq, seq + N_COUNTERS)), mask=seq,
    )


def admission_frame(keys, lone):
    members = [Result(seq, key_payload((device, seq))) for device, seq in keys]
    return members[0] if lone and len(members) == 1 else batch_of(members)


def payload_key(payload):
    return int(payload.device_id.rsplit("-", 1)[1]), payload.session_index


class TestAdmissionPaths:
    """Admission is exactly-once on the claim-free path (nothing in
    flight, room in the queue) and on the claim path (a full queue or
    another admission holding claims), and wherever they interleave."""

    @staticmethod
    async def counting_futures():
        """Count the claim futures the running loop creates from now on."""
        import asyncio

        loop = asyncio.get_running_loop()
        made = []
        create = loop.create_future

        def counted():
            made.append(1)
            return create()

        loop.create_future = counted
        return made

    @given(
        frames=st.lists(admission_frame_strategy, min_size=1, max_size=12),
        contended=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_admission_is_exactly_once_on_both_paths(self, frames, contended):
        import asyncio
        import tempfile

        from repro.collector import CollectorJournal, read_journal

        blocker = (SessionResultPayload("blocker", 0, "", 0),)

        async def run_uncontended(server):
            made = await self.counting_futures()
            for keys, lone, _drain in frames:
                frame = admission_frame(keys, lone)
                ack = await admit(server, frame)
                assert ack == Ack(keys[-1][1])
            # nothing was in flight and the queue had room: no claims
            assert made == []
            items = []
            while not server._queue.empty():
                items.append(server._queue.get_nowait())
            return items

        async def run_contended(server):
            made = await self.counting_futures()
            # a full queue: the first admission blocks in put holding
            # claims, and the admissions behind it take the claim path
            await server._queue.put(blocker)
            items = []

            def take():
                items.append(server._queue.get_nowait())
                server._queue.task_done()

            tasks = []
            for keys, lone, drain in frames:
                tasks.append(asyncio.create_task(admit(server, admission_frame(keys, lone))))
                if drain and len(tasks) > 1 and not server._queue.empty():
                    # the new admission runs before the put this wakes:
                    # it finds room in the queue while claims are pending
                    take()
                await asyncio.sleep(0)
            assert made, "the first admission must have claimed its members"
            items += await drain_admissions(server, tasks)
            for task, (keys, _lone, _drain) in zip(tasks, frames):
                assert task.result() == Ack(keys[-1][1])
            assert items[0] is blocker
            return items[1:]

        with tempfile.TemporaryDirectory() as tmp:
            server = CollectorServer(fast_cfg(queue_size=1 if contended else 64))
            server._journal = CollectorJournal(f"{tmp}/shard.wal")
            server._journal.open()

            async def scenario():
                server._queue = asyncio.Queue(maxsize=server.queue_size)
                run = run_contended if contended else run_uncontended
                return await run(server)

            items = asyncio.run(scenario())
            server._journal.close()
            records = read_journal(f"{tmp}/shard.wal").records

        # the per-member oracle: first arrival admits, any repeat is a dupe
        admitted, oracle_items = set(), []
        for keys, _lone, _drain in frames:
            fresh = []
            for key in keys:
                if key not in admitted:
                    admitted.add(key)
                    fresh.append(key)
            if fresh:
                oracle_items.append(fresh)
        members = sum(len(keys) for keys, _lone, _drain in frames)

        queued = [payload_key(p) for item in items for p in item]
        assert sorted(queued) == sorted(admitted)  # every member exactly once
        if not contended:
            # in arrival order, one queue item per frame with fresh members
            assert [[payload_key(p) for p in item] for item in items] == oracle_items
        # each queue item is one frame's fresh members, in frame order
        for item in items:
            keys = [payload_key(p) for p in item]
            assert any(
                keys == [key for key in dict.fromkeys(frame_keys) if key in keys]
                for frame_keys, _lone, _drain in frames
            )
        # the journal holds the admitted members in queue order
        assert [(payload_key(r.payload), r.seq) for r in records] == [
            (key, key[1]) for key in queued
        ]
        assert [r.payload for r in records] == [p for item in items for p in item]
        counter = server.registry.counter
        assert counter("collector.frames_ingested").value == members
        assert counter("collector.dupes_dropped").value == members - len(admitted)
        assert counter("collector.batch_frames").value == sum(
            1 for keys, lone, _drain in frames if not (lone and len(keys) == 1)
        )
        assert server._pending == {}
        assert server._seen == {
            f"device-{d:04d}": {seq for dd, seq in admitted if dd == d}
            for d in {dd for dd, _ in admitted}
        }

    def test_uncontended_admission_takes_no_claim(self):
        """With nothing in flight and room in the queue, a fresh batch,
        a lone result and a resend admit without a claim future."""
        import asyncio

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=8))
            server._queue = asyncio.Queue(maxsize=8)
            made = await self.counting_futures()
            frames = [
                Result(seq=i, payload=p)
                for i, p in enumerate(payloads_for("device-0000", 4))
            ]
            await admit(server, batch_of(frames[:3]))
            await admit(server, frames[3])
            await admit(server, batch_of(frames[2:]))
            return server, made

        server, made = asyncio.run(scenario())
        assert made == []
        assert server._queue.qsize() == 2
        assert server._seen == {"device-0000": {0, 1, 2, 3}}
        assert server.registry.counter("collector.dupes_dropped").value == 2


class TestMalformedMetrics:
    """Hostile metrics snapshots degrade a run; they never crash it."""

    BAD_SNAPSHOT = {"counters": {"x": "not-an-int"}}

    def test_malformed_metrics_frame_is_rejected_cleanly(self, caplog):
        with CollectorHandle(fast_cfg()) as handle:
            sock = raw_connect(handle.endpoint)
            try:
                send_frame(sock, Hello(device_id="d"))
                assert read_frame(sock) == HelloOk()
                send_frame(sock, Metrics(snapshot=self.BAD_SNAPSHOT))
                reply = read_frame(sock)
                with pytest.raises((ConnectionClosed, OSError)):
                    read_frame(sock)
            finally:
                sock.close()
            # the collector keeps serving the rest of the fleet
            with CollectorClient(
                handle.endpoint, "device-0000", config=FAST_CFG, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 2))
        gc.collect()
        assert isinstance(reply, ProtocolError)
        registry = handle.server.registry
        assert registry.counter("collector.malformed_frames").value == 1
        assert registry.counter("collector.metrics_frames").value == 0
        assert len(handle.server.results) == 2
        assert "never retrieved" not in caplog.text

    def test_malformed_metrics_tail_does_not_poison_the_journal(self, tmp_path):
        """A result acked with an unmergeable metrics tail must count the
        same in the live run and in every replay of its journal."""
        cfg = fast_cfg(journal_dir=str(tmp_path))
        bad = SessionResultPayload("dev", 0, "pw", 2, metrics=self.BAD_SNAPSHOT)
        good = SessionResultPayload("dev", 1, "pw", 2)
        with CollectorHandle(cfg) as first:
            with CollectorClient(
                first.endpoint, "dev", config=cfg, sleep=NO_SLEEP
            ) as client:
                client.send_result(bad)
                client.send_result(good)
        with CollectorHandle(cfg) as second:  # start() replays the journal
            pass
        lives = []
        for handle in (first, second):
            counter = handle.server.registry.counter
            lives.append((
                counter("collector.sessions_ingested").value,
                counter("collector.aggregation_errors").value,
                [(p.device_id, p.session_index) for p in handle.server.results],
            ))
        assert lives[0] == lives[1] == (2, 1, [("dev", 0), ("dev", 1)])
        assert second.server.registry.counter("collector.journal.replayed").value == 2

    def test_overflowing_metrics_tail_counts_like_a_malformed_one(self, tmp_path):
        """A JSON ``Infinity`` counter decodes to ``inf``, which no counter
        can hold: the result still lands, live and in the journal replay."""
        cfg = fast_cfg(journal_dir=str(tmp_path))
        bad = SessionResultPayload("dev", 0, "pw", 2, metrics={"counters": {"x": float("inf")}})
        with CollectorHandle(cfg) as first:
            with CollectorClient(
                first.endpoint, "dev", config=cfg, sleep=NO_SLEEP
            ) as client:
                client.send_result(bad)
        with CollectorHandle(cfg) as second:  # start() replays the journal
            pass
        for handle in (first, second):
            counter = handle.server.registry.counter
            assert counter("collector.sessions_ingested").value == 1
            assert counter("collector.aggregation_errors").value == 1
            assert handle.server.results == [bad]


# ---------------------------------------------------------------------------
# batched pipelined delivery


class TestBatchedPipeline:
    """The batch wire frame and the pipelined client that rides it."""

    def test_batch_frame_round_trips_both_codecs(self):
        # the wire has one codec; a batch round-trips on it
        batch = batch_of(
            Result(seq=i, payload=p)
            for i, p in enumerate(payloads_for("device-0000", 3))
        )
        wire = BINARY_CODEC.encode(batch)  # 4-byte length prefix + body
        assert decode_any(wire[4:]) == batch

    def test_empty_batch_is_rejected(self):
        with pytest.raises(FrameError, match="at least one"):
            BINARY_CODEC.encode(batch_of(()))
        with pytest.raises(FrameError, match="at least one"):
            decode_any(bytes([TAG_BATCH]) + (0).to_bytes(4, "big"))

    def test_pipelined_send_delivers_everything_once(self):
        cfg = fast_cfg(pipeline_depth=8)
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                acked = client.send_results(payloads_for("device-0000", 50))
        server = handle.server
        assert acked == 50
        assert len(server.results) == 50
        assert [p.session_index for p in server.results] == list(range(50))
        assert server.registry.counter("collector.sessions_ingested").value == 50
        assert server.registry.counter("collector.dupes_dropped").value == 0
        # bursts actually rode batch frames, not 50 lock-step results
        assert server.registry.counter("collector.batch_frames").value >= 1

    def test_window_one_stays_lock_step(self):
        cfg = fast_cfg(pipeline_depth=1)
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                client.send_results(payloads_for("device-0000", 5))
        server = handle.server
        assert len(server.results) == 5
        assert server.registry.counter("collector.batch_frames").value == 0

    def test_pipelined_resend_after_drop_is_deduplicated(self):
        """A burst severed after the send (ack lost) is resent whole; the
        server must admit each member exactly once."""
        plan = FaultPlan(seed=5, read_error_prob=0.3)
        cfg = fast_cfg(pipeline_depth=8, retry=RetryPolicy(
            max_attempts=12, base_delay_s=0.001, max_delay_s=0.01
        ))
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint,
                "device-0000",
                fault_plan=plan,
                config=cfg,
                sleep=NO_SLEEP,
            ) as client:
                acked = client.send_results(payloads_for("device-0000", 120))
                stats = client.stats
        server = handle.server
        assert acked == 120
        assert stats.injected_drops > 0, "plan should have dropped connections"
        assert len(server.results) == 120
        assert {p.session_index for p in server.results} == set(range(120))
        assert server.registry.counter("collector.sessions_ingested").value == 120

    def test_pipelined_exhausts_budget_against_dead_collector(self):
        cfg = fast_cfg(pipeline_depth=4)
        handle = CollectorHandle(cfg)
        endpoint = handle.start()
        handle.stop()
        with pytest.raises(CollectorClientError, match="undelivered"):
            CollectorClient(
                endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ).send_results(payloads_for("device-0000", 3))

    @staticmethod
    def counted_payloads(n):
        # 11 counter deltas each: the frame body of one result is 137
        # bytes, of a batch of two 287, of a batch of eight 1133
        return [
            SessionResultPayload("device-0000", i, "pw", 2, deltas=tuple(range(11)))
            for i in range(n)
        ]

    def test_burst_over_the_frame_cap_fails_at_once(self, monkeypatch):
        """The client encodes under the frame cap: a burst too big for one
        frame cannot fit on any resend, so it fails with nothing sent and
        no retry, instead of resending until the budget is gone."""
        monkeypatch.setattr(frames_mod, "MAX_FRAME_BYTES", 300)
        cfg = fast_cfg(pipeline_depth=8)
        sleeps = []
        with CollectorHandle(cfg) as handle:
            client = CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=sleeps.append
            )
            with client, pytest.raises(CollectorClientError, match="do not fit one frame"):
                client.send_results(self.counted_payloads(8))
        assert client.stats.retries == 0
        assert client.stats.frames_sent == 0
        assert sleeps == []
        assert handle.server.results == []
        assert handle.server.registry.counter("collector.sessions_ingested").value == 0

    def test_burst_within_the_frame_cap_delivers(self, monkeypatch):
        monkeypatch.setattr(frames_mod, "MAX_FRAME_BYTES", 300)
        cfg = fast_cfg(pipeline_depth=2)
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint, "device-0000", config=cfg, sleep=NO_SLEEP
            ) as client:
                acked = client.send_results(self.counted_payloads(8))
        assert acked == 8
        assert client.stats.retries == 0
        assert len(handle.server.results) == 8
        assert handle.server.registry.counter("collector.batch_frames").value == 4

    def test_admit_batch_overlap_admits_only_unseen_members(self):
        """A resent batch overlapping an admitted one contributes only its
        unseen members — per-member dedup, one queue item, one record."""
        import asyncio

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=8))
            server._queue = asyncio.Queue(maxsize=8)
            frames = [
                Result(seq=i, payload=p)
                for i, p in enumerate(payloads_for("device-0000", 6))
            ]
            await admit(server, batch_of(frames[0:4]))
            await admit(server, batch_of(frames[2:6]))
            return server

        server = asyncio.run(scenario())
        first = server._queue.get_nowait()
        second = server._queue.get_nowait()
        assert [p.session_index for p in first] == [0, 1, 2, 3]
        assert [p.session_index for p in second] == [4, 5]
        assert server.registry.counter("collector.dupes_dropped").value == 2
        assert server.registry.counter("collector.frames_ingested").value == 8
        assert server.registry.counter("collector.batch_frames").value == 2

    def test_fully_duplicate_batch_enqueues_nothing(self):
        import asyncio

        async def scenario():
            server = CollectorServer(fast_cfg(queue_size=8))
            server._queue = asyncio.Queue(maxsize=8)
            batch = batch_of(
                Result(seq=i, payload=p)
                for i, p in enumerate(payloads_for("device-0000", 3))
            )
            await admit(server, batch)
            await admit(server, batch)
            return server

        server = asyncio.run(scenario())
        assert server._queue.qsize() == 1  # one list for the first batch
        assert server.registry.counter("collector.dupes_dropped").value == 3

    def test_fault_stream_is_independent_of_socket_timing(self):
        """The seeded fault stream is a pure function of the plan, the seed
        offset, the payloads and the window: identical sends at window 8
        report identical stats, however the acks race the writes."""
        plan = FaultPlan(seed=5, read_error_prob=0.2, jitter_prob=0.3, jitter_s=1e-4)
        cfg = fast_cfg(pipeline_depth=8, retry=RetryPolicy(
            max_attempts=12, base_delay_s=0.001, max_delay_s=0.01
        ))
        outcomes = []
        for _ in range(6):
            with CollectorHandle(cfg) as handle:
                with CollectorClient(
                    handle.endpoint,
                    "device-0000",
                    fault_plan=plan,
                    config=cfg,
                    seed_offset=3,
                    sleep=NO_SLEEP,
                ) as client:
                    assert client.send_results(payloads_for("device-0000", 160)) == 160
            outcomes.append(client.stats)
        assert outcomes[0].injected_drops > 0
        assert outcomes[0].injected_slow_reads > 0
        assert all(stats == outcomes[0] for stats in outcomes)

    @pytest.mark.parametrize("window", [1, 4])
    def test_give_up_counts_only_resends(self, window):
        """Three failed attempts are two resends, at any window."""
        cfg = fast_cfg(
            pipeline_depth=window,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.001),
        )
        handle = CollectorHandle(cfg)
        endpoint = handle.start()
        handle.stop()
        client = CollectorClient(endpoint, "device-0000", config=cfg, sleep=NO_SLEEP)
        with pytest.raises(CollectorClientError, match="undelivered after 3 attempts"):
            client.send_results(payloads_for("device-0000", 3))
        assert client.stats.retries == 2


# ---------------------------------------------------------------------------
# window 1 is the lock-step protocol


def lock_step_replay(plan, seed_offset, n):
    """The ``ClientStats`` of ``n`` lock-step deliveries to a healthy
    collector, from the fault draws alone: per attempt one connection
    fault draw, then one slow-read draw on the ack wait.  Every injected
    drop costs one resend over a fresh connection."""
    from repro.collector.client import ClientStats

    injector = NetworkFaultInjector(plan, seed_offset=seed_offset)
    stats = ClientStats()
    for _ in range(n):
        while True:
            fault = injector.connection_fault()
            if fault != "drop_before":
                stats.frames_sent += 1
            if fault:
                stats.injected_drops += 1
                stats.retries += 1
                stats.reconnects += 1
                continue
            if injector.slow_read_delay_s() > 0:
                stats.injected_slow_reads += 1
            stats.acks_received += 1
            break
    return stats


class TestLockStepParity:
    @given(
        read_error_prob=st.floats(min_value=0.0, max_value=0.5),
        jitter_prob=st.floats(min_value=0.0, max_value=1.0),
        seed_offset=st.integers(min_value=0, max_value=2 ** 16),
        n=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_window_one_replays_the_lock_step_draw_order(
        self, read_error_prob, jitter_prob, seed_offset, n
    ):
        plan = FaultPlan(
            seed=11,
            read_error_prob=read_error_prob,
            jitter_prob=jitter_prob,
            jitter_s=1e-4,
        )
        # a budget no run of drops at p <= 0.5 can plausibly exhaust
        cfg = fast_cfg(pipeline_depth=1, retry=RetryPolicy(
            max_attempts=64, base_delay_s=0.0, max_delay_s=0.0
        ))
        with CollectorHandle(cfg) as handle:
            with CollectorClient(
                handle.endpoint,
                "device-0000",
                fault_plan=plan,
                config=cfg,
                seed_offset=seed_offset,
                sleep=NO_SLEEP,
            ) as client:
                assert client.send_results(payloads_for("device-0000", n)) == n
        assert client.stats == lock_step_replay(plan, seed_offset, n)
