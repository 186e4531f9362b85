"""The device-side collector client: blocking sockets, retry until acked.

A :class:`CollectorClient` is what one simulated device uses to report
its finished sessions.  It is deliberately synchronous — devices are
plain threads/processes running the CPU-bound attack pipeline, and a
blocking ``send → await ack`` round trip is exactly the shape that lets
the server's bounded queue push back on them (see
:mod:`repro.collector.server`).

Every frame goes out on the one binary codec
(:mod:`repro.collector.frames`): a result frame is one ``struct`` pack —
the 11 counter deltas ride as fixed u64s, no per-field JSON encode.

Reliability discipline:

* every result frame carries a monotonically increasing per-device
  ``seq``;
* a frame is *resent* — over a fresh connection if necessary — until
  its ``ack`` arrives, with **jittered exponential backoff** between
  attempts (:class:`~repro.collector.config.RetryPolicy`);
* the server deduplicates by ``(device_id, seq)``, so the retry loop
  can never double-aggregate a result.

Fault injection reuses the :mod:`repro.faults` profiles: a
:class:`NetworkFaultInjector` maps the plan's transient-ioctl
probability onto **connection drops** (before or after the frame is
written — the "after" case is what exercises the dedup path) and its
wakeup jitter onto **slow reads** of the ack.  The same seeded plan that
makes a device's KGSL layer misbehave makes its uplink flaky, so the
fleet's end-to-end loss accounting is tested under one coherent fault
model.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Deque, Dict, Iterable, Iterator, Optional, Union

import numpy as np

from repro import faults
from repro.faults import FaultPlan
from repro.collector.config import CollectorConfig
from repro.collector.frames import (
    BINARY_CODEC,
    Ack,
    Bye,
    ByeOk,
    ConnectionClosed,
    Frame,
    FrameError,
    Hello,
    HelloOk,
    Metrics,
    MetricsOk,
    SessionResultPayload,
    read_body_sock,
)
from repro.collector.frames import Batch as BatchFrame
from repro.collector.frames import Result as ResultFrame
from repro.collector.frames import decode_any

__all__ = [
    "ClientStats",
    "CollectorClient",
    "CollectorClientError",
    "NetworkFaultInjector",
]


class CollectorClientError(Exception):
    """A frame could not be delivered within the retry budget."""


@dataclass
class ClientStats:
    """Everything the client did to get its results through."""

    frames_sent: int = 0
    acks_received: int = 0
    retries: int = 0
    reconnects: int = 0
    injected_drops: int = 0
    injected_slow_reads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class NetworkFaultInjector:
    """Seeded network misbehavior derived from a :class:`FaultPlan`.

    * ``read_error_prob`` → per-frame **connection drop**; half the
      drops land *after* the frame was written (the ack is lost, the
      resend is a duplicate the server must absorb);
    * ``jitter_prob`` / ``jitter_s`` → **slow read**: an exponential
      extra delay before the ack is read.

    The RNG stream is independent of the device's KGSL injector (extra
    stream key), so enabling network faults never perturbs the attack's
    fault sequence.
    """

    _STREAM_KEY = 0xC011EC7

    def __init__(self, plan: FaultPlan, seed_offset: int = 0) -> None:
        self.plan = plan
        self.rng = np.random.default_rng((plan.seed, seed_offset, self._STREAM_KEY))

    def connection_fault(self) -> Optional[str]:
        """``None``, ``"drop_before"`` or ``"drop_after"`` for this frame."""
        if self.plan.read_error_prob and self.rng.random() < self.plan.read_error_prob:
            return "drop_after" if self.rng.random() < 0.5 else "drop_before"
        return None

    def slow_read_delay_s(self) -> float:
        if self.plan.jitter_prob and self.rng.random() < self.plan.jitter_prob:
            return float(self.rng.exponential(self.plan.jitter_s))
        return 0.0


class CollectorClient:
    """One device's reliable stream of results into a collector.

    Args:
        endpoint: ``("tcp", host, port)`` or ``("unix", path)`` — what
            :meth:`CollectorServer.start`/``CollectorHandle.start``
            returned.
        device_id: stable identity; the server's dedup key includes it.
        fault_plan: a plan / profile name / ``None`` / ``"auto"``,
            resolved exactly like the attack-side argument; an enabled
            plan turns on :class:`NetworkFaultInjector`.
        config: the :class:`~repro.collector.config.CollectorConfig`
            supplying the retry schedule and socket timeout.
        sleep: injectable sleeper (tests pass a no-op to make backoff
            schedules instantaneous).
    """

    def __init__(
        self,
        endpoint,
        device_id: str,
        fault_plan: Union[FaultPlan, None, str] = None,
        config: Optional[CollectorConfig] = None,
        seed_offset: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        kind = endpoint[0]
        if kind not in ("tcp", "unix"):
            raise ValueError(f"unknown endpoint kind {kind!r}")
        config = config or CollectorConfig()
        self.endpoint = tuple(endpoint)
        self.device_id = device_id
        self.config = config
        self.retry = config.retry
        self.timeout_s = config.timeout_s
        self.sleep = sleep
        self.stats = ClientStats()
        plan = faults.FAULT_SPEC.resolve(fault_plan)
        self._injector = (
            NetworkFaultInjector(plan, seed_offset=seed_offset) if plan else None
        )
        self._backoff_rng = np.random.default_rng((seed_offset, 0x8ACC0FF))
        self._sock: Optional[socket.socket] = None
        self._connected_once = False
        self._seq = 0

    # -- connection -----------------------------------------------------

    def _connect(self) -> None:
        if self.endpoint[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target = self.endpoint[1]
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = (self.endpoint[1], self.endpoint[2])
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        reply = self._roundtrip(Hello(device_id=self.device_id))
        if not isinstance(reply, HelloOk):
            self._drop_connection()
            raise CollectorClientError(f"collector rejected hello: {reply}")

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()
            if self._connected_once:
                self.stats.reconnects += 1
            self._connected_once = True

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, frame: Frame) -> Frame:
        self._sock.sendall(BINARY_CODEC.encode(frame))
        return decode_any(read_body_sock(self._sock))

    # -- delivery -------------------------------------------------------

    def send_result(self, payload: SessionResultPayload) -> int:
        """Deliver one result; returns its ``seq``.  Blocks until acked.

        Raises :class:`CollectorClientError` after ``max_attempts``
        failed deliveries (connection refused, dropped, timed out, or a
        mis-sequenced ack).
        """
        seq = self._seq
        self._seq += 1
        frame = ResultFrame(seq=seq, payload=payload)
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.stats.retries += 1
                self.sleep(self.retry.delay_s(attempt - 1, self._backoff_rng))
            try:
                self._ensure_connected()
                fault = self._injector.connection_fault() if self._injector else None
                if fault == "drop_before":
                    self.stats.injected_drops += 1
                    self._drop_connection()
                    raise ConnectionResetError("injected connection drop (before send)")
                self._sock.sendall(BINARY_CODEC.encode(frame))
                self.stats.frames_sent += 1
                if fault == "drop_after":
                    # the frame is on the wire but we sever before the
                    # ack: the server may have aggregated it, and the
                    # resend must come back deduplicated
                    self.stats.injected_drops += 1
                    self._drop_connection()
                    raise ConnectionResetError("injected connection drop (after send)")
                if self._injector:
                    delay = self._injector.slow_read_delay_s()
                    if delay > 0:
                        self.stats.injected_slow_reads += 1
                        self.sleep(delay)
                reply = decode_any(read_body_sock(self._sock))
                if not isinstance(reply, Ack) or reply.seq != seq:
                    raise FrameError(f"expected ack for seq {seq}, got {reply}")
                self.stats.acks_received += 1
                return seq
            except (OSError, FrameError, ConnectionClosed) as exc:
                last_error = exc
                self._drop_connection()
        raise CollectorClientError(
            f"device {self.device_id}: result seq {seq} undelivered after "
            f"{self.retry.max_attempts} attempts: {last_error}"
        )

    def send_results(
        self,
        payloads: Iterable[SessionResultPayload],
        window: Optional[int] = None,
    ) -> int:
        """Deliver many results in order; returns how many were acked.

        ``window`` (default: the config's ``pipeline_depth``) sets how
        many frames may be in flight before blocking on the oldest ack.
        At ``1`` this is exactly ``send_result`` in a loop — one
        lock-step round trip per frame.  Above ``1`` frames are written
        in bursts and acks drained as they arrive, which amortizes the
        per-frame syscall/context-switch cost that dominates bulk
        uploads into a local collector tier.  Delivery semantics are
        identical either way: in-order acks, resend-on-reconnect, and
        the server's ``(device_id, seq)`` dedup absorbing any overlap.
        """
        if window is None:
            window = self.config.pipeline_depth
        if window <= 1:
            count = 0
            for payload in payloads:
                self.send_result(payload)
                count += 1
            return count
        return self._send_pipelined(iter(payloads), window)

    # -- pipelined delivery ---------------------------------------------

    def _pull(
        self,
        source: Iterator[SessionResultPayload],
        todo: Deque[ResultFrame],
    ) -> Optional[ResultFrame]:
        """Next frame to put on the wire: a requeued one, else a fresh one."""
        if todo:
            return todo.popleft()
        payload = next(source, None)
        if payload is None:
            return None
        frame = ResultFrame(seq=self._seq, payload=payload)
        self._seq += 1
        return frame

    def _ack_ready(self) -> bool:
        return bool(select.select([self._sock], [], [], 0)[0])

    def _read_ack(self, pending: Deque[ResultFrame]) -> int:
        """Consume one ack; returns how many in-flight frames it covers.

        Acks are cumulative (a batch is acknowledged by its last
        member's seq), so an ack for seq *n* retires every pending
        frame with seq ≤ *n*.
        """
        reply = decode_any(read_body_sock(self._sock))
        if not isinstance(reply, Ack):
            raise FrameError(f"expected ack for seq {pending[0].seq}, got {reply}")
        acked = 0
        while pending and pending[0].seq <= reply.seq:
            pending.popleft()
            acked += 1
        if acked == 0:
            raise FrameError(
                f"unexpected ack seq {reply.seq} (oldest in flight: {pending[0].seq})"
            )
        self.stats.acks_received += acked
        return acked

    def _write_burst(
        self,
        burst: Deque[ResultFrame],
        pending: Deque[ResultFrame],
        todo: Deque[ResultFrame],
    ) -> None:
        """Send ``burst`` as one wire frame, sampling faults per write.

        Two or more results pack into a single :class:`Batch` frame —
        one send, one server-side admission, one cumulative ack.  The
        fault injector samples once per **wire write**, matching the
        physical model (a connection drop strikes a send, however many
        results ride it): ``drop_before`` severs with the whole burst
        unsent and requeued, ``drop_after`` puts the burst on the wire
        first — the server admits it, the ack is lost, and the resend
        must come back entirely deduplicated.
        """
        fault = self._injector.connection_fault() if self._injector else None
        if fault == "drop_before":
            while burst:
                todo.appendleft(burst.pop())
            self.stats.injected_drops += 1
            self._drop_connection()
            raise ConnectionResetError("injected connection drop (before send)")
        sent = list(burst)
        burst.clear()
        wire_frame = sent[0] if len(sent) == 1 else BatchFrame(frames=tuple(sent))
        self._sock.sendall(BINARY_CODEC.encode(wire_frame))
        self.stats.frames_sent += len(sent)
        pending.extend(sent)
        if fault == "drop_after":
            self.stats.injected_drops += 1
            self._drop_connection()
            raise ConnectionResetError("injected connection drop (after send)")

    def _send_pipelined(
        self, source: Iterator[SessionResultPayload], window: int
    ) -> int:
        todo: Deque[ResultFrame] = deque()
        pending: Deque[ResultFrame] = deque()
        acked = 0
        failures = 0  # consecutive cycles without an ack
        last_error: Optional[Exception] = None
        while True:
            try:
                self._ensure_connected()
                burst: Deque[ResultFrame] = deque()
                while len(pending) + len(burst) < window:
                    frame = self._pull(source, todo)
                    if frame is None:
                        break
                    burst.append(frame)
                if not burst and not pending:
                    return acked
                if burst:
                    self._write_burst(burst, pending, todo)
                    # drain whatever acks are already buffered, free
                    while pending and self._ack_ready():
                        acked += self._read_ack(pending)
                        failures = 0
                else:
                    # window full or source exhausted: block on the
                    # oldest ack (with the same slow-read fault the
                    # lock-step path injects)
                    if self._injector:
                        delay = self._injector.slow_read_delay_s()
                        if delay > 0:
                            self.stats.injected_slow_reads += 1
                            self.sleep(delay)
                    acked += self._read_ack(pending)
                    failures = 0
            except (OSError, FrameError, ConnectionClosed) as exc:
                last_error = exc
                self._drop_connection()
                # everything in flight is unacked: resend it first
                while pending:
                    todo.appendleft(pending.pop())
                failures += 1
                self.stats.retries += 1
                if failures >= self.retry.max_attempts:
                    head = todo[0].seq if todo else self._seq
                    raise CollectorClientError(
                        f"device {self.device_id}: result seq {head} "
                        f"undelivered after {failures} consecutive failed "
                        f"cycles: {last_error}"
                    ) from exc
                self.sleep(self.retry.delay_s(failures - 1, self._backoff_rng))

    def send_metrics(self, snapshot: Dict[str, object]) -> None:
        """Ship a device-side ``MetricsRegistry.snapshot()`` for merging.

        Metrics frames ride the same retry loop shape as results but are
        idempotent only in aggregate (counters would double on a resend
        after a lost ack), so they are sent best-effort *once*; a device
        whose metrics frame is lost still has all its results counted.
        """
        try:
            self._ensure_connected()
            reply = self._roundtrip(Metrics(snapshot=snapshot))
            if not isinstance(reply, MetricsOk):
                raise FrameError(f"unexpected metrics reply: {reply}")
        except (OSError, FrameError, ConnectionClosed):
            self._drop_connection()

    def close(self) -> None:
        """Send the ``bye`` tally (best-effort) and close the socket."""
        if self._sock is None and not self._connected_once:
            return
        try:
            self._ensure_connected()
            reply = self._roundtrip(
                Bye(
                    device_id=self.device_id,
                    sent=self.stats.frames_sent,
                    retries=self.stats.retries,
                    reconnects=self.stats.reconnects,
                )
            )
            if not isinstance(reply, ByeOk):
                raise FrameError(f"unexpected bye reply: {reply}")
        except (OSError, FrameError, ConnectionClosed, CollectorClientError):
            pass
        finally:
            self._drop_connection()

    def __enter__(self) -> "CollectorClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
