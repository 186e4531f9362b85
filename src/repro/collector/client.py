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

Delivery is one loop.  Each cycle takes up to ``window`` unacked
results — frames left over from a failed cycle first, then fresh ones —
writes them as one wire frame (a lone ``result``, or a ``batch`` of two
or more) and blocks on that frame's one ``ack``.  Window 1 is the
degenerate case: one ``result``, one ``ack``, the classic lock-step
round trip.  Frames are written and read under
:data:`~repro.collector.frames.MAX_FRAME_BYTES`: a burst too big for one
frame fails at once, with nothing sent, because no resend can make it
fit.

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
wakeup jitter onto **slow reads** of the ack.  Every cycle draws one
connection fault for its write and, unless that severs the connection,
one slow read for its ack wait, so the fault stream is a pure function
of the plan, the seed offset, the payloads and the window — never of
socket timing.  The same seeded plan that makes a device's KGSL layer
misbehave makes its uplink flaky, so the fleet's end-to-end loss
accounting is tested under one coherent fault model.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

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
    FrameTooLarge,
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
    """A frame could not be delivered: the retry budget ran out, or it
    exceeds the configured frame-size cap."""


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
        return self._read_reply()

    def _read_reply(self) -> Frame:
        return decode_any(read_body_sock(self._sock))

    # -- delivery -------------------------------------------------------

    def send_result(self, payload: SessionResultPayload) -> int:
        """Deliver one result; returns its ``seq``.  Blocks until acked.

        Raises :class:`CollectorClientError` after ``max_attempts``
        failed deliveries (connection refused, dropped, timed out, or a
        mis-sequenced ack).
        """
        seq = self._seq
        self._deliver(iter((payload,)), window=1)
        return seq

    def send_results(self, payloads: Iterable[SessionResultPayload]) -> int:
        """Deliver many results in order; returns how many were acked.

        The config's ``pipeline_depth`` caps how many results ride one
        wire frame.  At ``1`` every result is a lone ``result`` frame
        answered by its own ``ack``; above ``1`` up to that many results
        pack into one ``batch`` frame answered by one cumulative ack,
        which amortizes the per-frame syscall/context-switch cost that
        dominates bulk uploads into a local collector tier.  Delivery
        semantics are identical either way: in-order acks,
        resend-on-reconnect, and the server's ``(device_id, seq)`` dedup
        absorbing any overlap.
        """
        return self._deliver(iter(payloads), self.config.pipeline_depth)

    def _deliver(self, source: Iterator[SessionResultPayload], window: int) -> int:
        """The one delivery loop: burst, write, await the ack, repeat.

        ``todo`` holds the unacked payloads, oldest first: a failed cycle
        leaves its burst there to be resent, topped up with fresh
        payloads to ``window``.  Their seqs are the ``len(todo)`` seqs
        before ``self._seq``.  The retry budget counts consecutive
        cycles without an ack, so at window 1 it is per result.
        """
        todo: List[SessionResultPayload] = []
        acked = 0
        failures = 0
        while True:
            while len(todo) < window:
                payload = next(source, None)
                if payload is None:
                    break
                todo.append(payload)
                self._seq += 1
            if not todo:
                return acked
            seqs = range(self._seq - len(todo), self._seq)
            wire = self._encode_burst(seqs, todo)
            try:
                self._ensure_connected()
                self._send_burst(len(todo), seqs[-1], wire)
            except (OSError, FrameError, ConnectionClosed) as exc:
                self._drop_connection()
                failures += 1
                if failures >= self.retry.max_attempts:
                    raise CollectorClientError(
                        f"device {self.device_id}: result seq {seqs[0]} "
                        f"undelivered after {failures} attempts: {exc}"
                    ) from exc
                self.stats.retries += 1
                self.sleep(self.retry.delay_s(failures - 1, self._backoff_rng))
                continue
            acked += len(todo)
            todo.clear()
            failures = 0

    def _encode_burst(self, seqs: range, burst: List[SessionResultPayload]) -> bytes:
        """``burst`` as one wire frame: a ``result`` frame for one
        result, one :class:`Batch` for two or more."""
        if len(burst) == 1:
            frame = ResultFrame(seqs[0], burst[0])
        else:
            frame = BatchFrame(tuple(seqs), tuple(burst))
        try:
            return BINARY_CODEC.encode(frame)
        except FrameTooLarge as exc:
            raise CollectorClientError(
                f"device {self.device_id}: results seq {seqs[0]}..{seqs[-1]} "
                f"do not fit one frame: {exc}"
            ) from exc

    def _send_burst(self, count: int, seq: int, wire: bytes) -> None:
        """Write a burst of ``count`` results, encoded as ``wire``, and
        read its ack, whose ``seq`` must be the last member's.

        One send, one server-side admission, one cumulative ack carrying
        the last member's seq.  The fault
        injector draws once per wire write (a connection drop strikes a
        send, however many results ride it) and once per ack read, so
        the fault stream is a pure function of the plan, the seed
        offset, the payloads and the window.
        """
        fault = self._injector.connection_fault() if self._injector else None
        if fault != "drop_before":
            self._sock.sendall(wire)
            self.stats.frames_sent += count
        if fault:
            # after a drop_after the burst is on the wire but its ack is
            # lost: the server may have admitted it, and the resend must
            # come back deduplicated
            self.stats.injected_drops += 1
            raise ConnectionResetError(f"injected connection drop ({fault})")
        if self._injector:
            delay = self._injector.slow_read_delay_s()
            if delay > 0:
                self.stats.injected_slow_reads += 1
                self.sleep(delay)
        reply = self._read_reply()
        if not isinstance(reply, Ack) or reply.seq != seq:
            raise FrameError(f"expected ack for seq {seq}, got {reply}")
        self.stats.acks_received += count

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
