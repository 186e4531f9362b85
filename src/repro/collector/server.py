"""The asyncio ingestion service the fleet reports into.

A :class:`CollectorServer` accepts length-prefixed binary frames (see
:mod:`repro.collector.frames`) over TCP or a unix socket, pushes every
accepted result through a **bounded in-flight queue**, and aggregates on
the far side of it into the run's :class:`~repro.obs.MetricsRegistry`
and result list.

Why a queue at all?  Backpressure.  The connection handlers are I/O
bound and cheap; aggregation (metrics merging, result retention, user
callbacks) is the part that can fall behind under fleet load.  With a
bounded queue, a slow aggregator makes ``queue.put`` await, which stops
that connection's read loop, which fills the kernel socket buffer,
which blocks the client's ``send`` — backpressure propagates to the
device instead of growing server memory without limit.  The ``ack`` for
a result frame is written only *after* the enqueue succeeds, so a
client's retry discipline composes with the server's admission control.

Delivery contract: resends are deduplicated by ``(device_id, seq)``
(counted as ``collector.dupes_dropped`` and re-acked), so a client that
resends until acked gets **exactly-once aggregation** over an
at-least-once transport.  A seq is marked seen only *after* its enqueue
succeeds (a handler cancelled mid-``put`` has admitted nothing, so the
client's resend must aggregate, not dupe-ack); concurrent resends of a
frame whose original admission is still blocked in ``put`` wait on that
admission's outcome instead of double-admitting.  With
``config.journal_dir`` set the contract is *durable*: every admitted
result is appended to a write-ahead journal
(:mod:`repro.collector.journal`) before its ack, and ``start()``
replays the journal — rebuilding the dedup set and re-aggregating every
journaled payload — so a SIGKILL'd collector resumes exactly-once
aggregation where it died.

Protocol errors are clean: an oversized length prefix or a peer closing
mid-frame counts ``collector.frames.rejected``, and an undecodable frame
or unmergeable metrics snapshot counts ``collector.malformed_frames``;
either way the connection closes with a typed error reply where
possible — never an exception escaping a handler.

Shutdown is a graceful drain: stop accepting, close idle connections,
wait for in-flight handlers, then run the queue dry before the
aggregator exits — nothing admitted is ever dropped.

The server exports ``collector.*`` metrics (ingest counters, queue
depth gauges, retry tallies reported by clients at ``bye``); the full
table is in ``docs/collector.md``.

Threading: :class:`CollectorServer` is pure asyncio.  Synchronous
callers (the CLI, tests, :class:`~repro.collector.fleet.FleetDriver`)
use :class:`CollectorHandle`, which hosts the server's event loop on a
daemon thread and exposes plain ``start()`` / ``stop()``.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.collector.config import CollectorConfig
from repro.collector.frames import (
    BINARY_CODEC,
    PROTO_VERSION,
    Ack,
    Batch,
    Bye,
    ByeOk,
    ConnectionClosed,
    FrameError,
    FrameTooLarge,
    FrameTruncated,
    Hello,
    HelloOk,
    Metrics,
    MetricsOk,
    ProtocolError,
    Result,
    SessionResultPayload,
    decode_any,
    read_body_async,
)
from repro.collector.journal import (
    CollectorJournal,
    JournalError,
    JournalRecovery,
    journal_path,
)
from repro.obs import MetricsRegistry, RunManifest

#: Endpoint tuples: ``("tcp", host, port)`` or ``("unix", path)``.
Endpoint = Tuple

#: What :meth:`MetricsRegistry.merge_snapshot` raises on a malformed snapshot.
_SNAPSHOT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


class CollectorServer:
    """Bounded-queue frame ingestion over TCP or a unix socket.

    Args:
        config: the :class:`~repro.collector.config.CollectorConfig`
            holding every transport/backpressure knob.
        metrics: the registry aggregation lands in; defaults to a fresh
            enabled :class:`MetricsRegistry` (the collector always
            counts — its report *is* the product).
        keep_results: retain ingested payloads on :attr:`results`
            (aggregation-only deployments can turn this off).
        on_result: optional callback invoked by the aggregator for every
            accepted payload (runs on the event loop — keep it short, or
            rely on the queue bound to absorb it).  Journal replay does
            *not* re-invoke it: replayed payloads land in counters and
            ``results`` only.
        shard_index: which shard of a collector tier this server is
            (names its journal file; ``0`` for a standalone collector).
    """

    def __init__(
        self,
        config: Optional[CollectorConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        keep_results: bool = True,
        on_result=None,
        shard_index: int = 0,
    ) -> None:
        config = config or CollectorConfig()
        self.config = config
        self.transport = config.transport
        self.host = config.host
        self.port = config.port
        self.unix_path = config.unix_path
        self.queue_size = config.queue_size
        self.read_timeout_s = config.read_timeout_s
        self.drain_timeout_s = config.drain_timeout_s
        self.max_frame_bytes = config.max_frame_bytes
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.keep_results = keep_results
        self.on_result = on_result
        self.shard_index = shard_index

        self.results: List[SessionResultPayload] = []
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._aggregator: Optional[asyncio.Task] = None
        self._handlers: Set[asyncio.Task] = set()
        self._seen: Dict[str, Set[int]] = {}
        self._pending: Dict[Tuple[str, int], asyncio.Future] = {}
        self._devices: Set[str] = set()
        self._journal: Optional[CollectorJournal] = None
        self._queue_peak = 0
        self._started_at: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> Endpoint:
        """Bind, start serving, and return the connectable endpoint.

        A restart after :meth:`stop` begins a fresh run: the volatile
        aggregation state of the previous life (``results``, the
        ``_seen`` dedup set, queue stats, device tally) is reset so a
        new fleet's seqs — which restart at 0 per client — are not
        swallowed as duplicates.  Durable dedup is the journal's job:
        when ``config.journal_dir`` is set, the journal is replayed
        here and rebuilds exactly the state that must survive.
        """
        if self._server is not None:
            raise RuntimeError("collector already started")
        self.results = []
        self._seen = {}
        self._pending = {}
        self._devices = set()
        self._queue_peak = 0
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        if self.config.journal_dir is not None:
            self._journal = CollectorJournal(
                journal_path(self.config.journal_dir, self.shard_index),
                sync=self.config.journal_sync,
                max_frame_bytes=self.max_frame_bytes,
            )
            self._replay(self._journal.open())
        if self.transport == "unix":
            try:
                # a previous life's socket file blocks the rebind
                os.unlink(self.unix_path)
            except (FileNotFoundError, OSError):
                pass
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._aggregator = asyncio.create_task(self._aggregate())
        self._started_at = time.perf_counter()
        return self.endpoint

    @property
    def endpoint(self) -> Endpoint:
        """Where clients connect: ``("tcp", host, port)`` or ``("unix", path)``."""
        if self.transport == "unix":
            return ("unix", self.unix_path)
        return ("tcp", self.host, self.port)

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight work, and shut the service down.

        With ``drain=True`` (the default) every connection still talking
        gets up to ``drain_timeout_s`` to finish, and everything already
        admitted to the queue is aggregated before the aggregator task
        exits.  ``drain=False`` force-closes immediately (queued frames
        are still aggregated — they were acked).
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        if self._handlers:
            if drain:
                await asyncio.wait(self._handlers, timeout=self.drain_timeout_s)
            for task in list(self._handlers):
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._queue.join()
        self._aggregator.cancel()
        await asyncio.gather(self._aggregator, return_exceptions=True)
        if self._journal is not None:
            self._journal.close()
        wall = time.perf_counter() - (self._started_at or time.perf_counter())
        self.registry.gauge("collector.wall_s").set(wall)
        if wall > 0:
            ingested = self.registry.counter("collector.sessions_ingested").value
            self.registry.gauge("collector.ingest_rate").set(ingested / wall)
        self.registry.gauge("collector.queue_depth_peak").set(self._queue_peak)
        self._server = None

    async def abort(self) -> None:
        """Cancel every task and close the listener, without draining.

        The teardown of last resort for a :meth:`stop` that raised or
        timed out: nothing still open may outlive the event loop.
        A no-op once :meth:`stop` has succeeded.
        """
        if self._server is None:
            return
        tasks = [*self._handlers, self._aggregator]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()
        if self._journal is not None:
            self._journal.close()
        self._server = None

    def report(self, **meta) -> RunManifest:
        """The collector's run manifest (``collector.*`` rollups)."""
        return self.registry.manifest(
            transport=self.transport, queue_size=self.queue_size, **meta
        )

    # -- connection handling --------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.create_task(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        counters = self.registry.counter
        counters("collector.connections_opened").inc()
        device_id = "?"
        try:
            while True:
                try:
                    body = await asyncio.wait_for(
                        read_body_async(reader, self.max_frame_bytes),
                        timeout=self.read_timeout_s,
                    )
                    frame = decode_any(body)
                except asyncio.TimeoutError:
                    counters("collector.connection_timeouts").inc()
                    return
                except ConnectionClosed:
                    return
                except FrameTooLarge as exc:
                    # the stream is desynchronized past this prefix:
                    # reject loudly, reply if the peer is still there,
                    # and close — never read the claimed body
                    counters("collector.frames.rejected").inc()
                    await self._reply_best_effort(
                        writer, BINARY_CODEC.encode(ProtocolError(str(exc)))
                    )
                    return
                except FrameTruncated:
                    # the peer died mid-frame: nothing left to reply to —
                    # count the rejection and fold
                    counters("collector.frames.rejected").inc()
                    return
                except FrameError as exc:
                    counters("collector.malformed_frames").inc()
                    await self._reply_best_effort(
                        writer, BINARY_CODEC.encode(ProtocolError(str(exc)))
                    )
                    return
                if isinstance(frame, Result):
                    device_id = frame.device_id or device_id
                    if not await self._admit_result(frame):
                        counters("collector.malformed_frames").inc()
                        return
                    writer.write(BINARY_CODEC.encode(Ack(seq=frame.seq)))
                elif isinstance(frame, Batch):
                    device_id = frame.frames[-1].device_id or device_id
                    await self._admit_batch(frame)
                    # a batch's ack is cumulative: the last member's seq
                    # acknowledges every member
                    writer.write(BINARY_CODEC.encode(Ack(seq=frame.frames[-1].seq)))
                elif isinstance(frame, Hello):
                    device_id = frame.device_id
                    if frame.proto != PROTO_VERSION:
                        counters("collector.proto_rejected").inc()
                        await self._reply_best_effort(
                            writer, BINARY_CODEC.encode(ProtocolError("proto mismatch"))
                        )
                        return
                    # a device is seen once, however many times it
                    # reconnects — `devices_seen` must equal fleet size
                    if frame.device_id not in self._devices:
                        self._devices.add(frame.device_id)
                        counters("collector.devices_seen").inc()
                    writer.write(BINARY_CODEC.encode(HelloOk()))
                elif isinstance(frame, Metrics):
                    if frame.snapshot:
                        if not self._merge_metrics(frame.snapshot):
                            counters("collector.malformed_frames").inc()
                            await self._reply_best_effort(
                                writer,
                                BINARY_CODEC.encode(
                                    ProtocolError("malformed metrics snapshot")
                                ),
                            )
                            return
                        counters("collector.metrics_frames").inc()
                    writer.write(BINARY_CODEC.encode(MetricsOk()))
                elif isinstance(frame, Bye):
                    counters("collector.client_retries").inc(frame.retries)
                    counters("collector.client_reconnects").inc(frame.reconnects)
                    writer.write(BINARY_CODEC.encode(ByeOk()))
                    await writer.drain()
                    return
                else:
                    # Ack/HelloOk/MetricsOk/ByeOk/ProtocolError are
                    # server-to-client frames; a client sending one is
                    # confused
                    counters("collector.malformed_frames").inc()
                    return
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # client went away mid-reply, or stop() force-closed us; any
            # un-acked frame will be resent to the next connection
            return
        finally:
            counters("collector.connections_closed").inc()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _reply_best_effort(writer: asyncio.StreamWriter, data: bytes) -> None:
        """Write + drain a terminal error reply, swallowing peer death.

        Without the drain the typed reply can sit in the transport
        buffer when the handler closes the socket and the peer sees a
        bare reset instead of the error; with it, a peer that is
        already gone must not turn the reply into a handler crash.
        """
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _admit_result(self, frame: Result) -> bool:
        """Dedup-check one result frame and enqueue it; False = malformed.

        The enqueue is the backpressure point: with the queue full this
        awaits, the connection stops reading, and the client blocks in
        ``send`` until the aggregator catches up.

        Ordering is the whole contract: a seq is marked seen (and
        journaled, and acked) only *after* its ``put`` succeeds.  A
        handler cancelled mid-``put`` — the drain-timeout path of
        :meth:`stop` — has admitted nothing, so the client's resend
        must aggregate rather than dupe-ack.  While an admission is
        blocked in ``put``, a concurrent resend of the same ``(device,
        seq)`` waits on its claim future instead of double-admitting:
        the future resolves True once the original lands (resend →
        dupe-ack) or False if it was abandoned (resend retries the
        admission itself).
        """
        payload = frame.payload
        self.registry.counter("collector.frames_ingested").inc()
        key = (payload.device_id, frame.seq)
        while True:
            seen = self._seen.setdefault(payload.device_id, set())
            if frame.seq in seen:
                # a resend of something already admitted (its ack was
                # lost); re-ack without re-aggregating
                self.registry.counter("collector.dupes_dropped").inc()
                return True
            claim = self._pending.get(key)
            if claim is None:
                break
            if await asyncio.shield(claim):
                self.registry.counter("collector.dupes_dropped").inc()
                return True
            # the original admission was cancelled mid-put: loop and
            # admit this resend ourselves
        claim = asyncio.get_running_loop().create_future()
        self._pending[key] = claim
        try:
            await self._queue.put(payload)
        except BaseException:
            claim.set_result(False)
            raise
        else:
            # no awaits from here to set_result: admission is atomic
            # once the payload is in the queue
            if self._journal is not None:
                try:
                    self._journal.append(frame)
                except (JournalError, OSError):
                    self.registry.counter("collector.journal.errors").inc()
            self._seen.setdefault(payload.device_id, set()).add(frame.seq)
            claim.set_result(True)
        finally:
            self._pending.pop(key, None)
        depth = self._queue.qsize()
        if depth > self._queue_peak:
            self._queue_peak = depth
        self.registry.gauge("collector.queue_depth").set(depth)
        return True

    async def _admit_batch(self, batch: Batch) -> None:
        """Admit a batch: per-member dedup, one enqueue, one journal record.

        Each member carries its own ``(device_id, seq)`` identity and is
        deduplicated exactly as a lone result would be — a resent batch
        overlapping an earlier one admits only the unseen members.  The
        fresh members ride the bounded queue as **one** item and land in
        the journal as **one** record, which is the point: the
        per-result flush/enqueue/ack cost that bounds single-frame
        ingest is paid once per burst.  The same ordering contract
        holds — members are marked seen (and journaled) only after the
        enqueue succeeds, and concurrent resends of an in-flight member
        wait on its claim future.
        """
        counters = self.registry.counter
        counters("collector.frames_ingested").inc(len(batch.frames))
        counters("collector.batch_frames").inc()
        loop = asyncio.get_running_loop()
        fresh: List[Result] = []
        claims: List[asyncio.Future] = []
        keys: List[Tuple[str, int]] = []
        claimed = set()
        try:
            for item in batch.frames:
                key = (item.payload.device_id, item.seq)
                if key in claimed:
                    # a malformed batch repeating a member admits it once
                    counters("collector.dupes_dropped").inc()
                    continue
                while True:
                    seen = self._seen.setdefault(item.payload.device_id, set())
                    if item.seq in seen:
                        counters("collector.dupes_dropped").inc()
                        break
                    claim = self._pending.get(key)
                    if claim is None:
                        fut = loop.create_future()
                        self._pending[key] = fut
                        claimed.add(key)
                        fresh.append(item)
                        claims.append(fut)
                        keys.append(key)
                        break
                    if await asyncio.shield(claim):
                        counters("collector.dupes_dropped").inc()
                        break
                    # the original admission was abandoned: retry ourselves
            if fresh:
                await self._queue.put([item.payload for item in fresh])
        except BaseException:
            for fut in claims:
                fut.set_result(False)
            raise
        else:
            if fresh:
                if self._journal is not None:
                    try:
                        self._journal.append(Batch(frames=tuple(fresh)))
                    except (JournalError, OSError):
                        counters("collector.journal.errors").inc()
                for item, fut in zip(fresh, claims):
                    self._seen.setdefault(item.payload.device_id, set()).add(item.seq)
                    fut.set_result(True)
        finally:
            for key in keys:
                self._pending.pop(key, None)
        depth = self._queue.qsize()
        if depth > self._queue_peak:
            self._queue_peak = depth
        self.registry.gauge("collector.queue_depth").set(depth)

    # -- journal replay -------------------------------------------------

    def _replay(self, recovery: JournalRecovery) -> None:
        """Rebuild dedup + aggregation state from a recovered journal.

        Replay happens before the listener binds, so it never races
        live admissions.  Replayed payloads go through the same
        aggregation rollups as live ones (they were acked — the run's
        totals must include them) but skip the bounded queue and the
        ``on_result`` callback: they already happened.
        """
        unique = 0
        for frame in recovery.records:
            seen = self._seen.setdefault(frame.payload.device_id, set())
            if frame.seq in seen:
                # a journal can hold dupes only if a past life appended
                # twice before dying between journal and mark-seen
                self.registry.counter("collector.journal.replay_dupes").inc()
                continue
            seen.add(frame.seq)
            self._aggregate_payload(frame.payload)
            unique += 1
        if unique:
            self.registry.counter("collector.journal.replayed").inc(unique)
        if recovery.torn:
            self.registry.counter("collector.journal.truncated_bytes").inc(
                recovery.truncated_bytes
            )

    # -- aggregation ----------------------------------------------------

    async def _aggregate(self) -> None:
        """The queue consumer: the only writer of run-level aggregation.

        Queue items are one payload (lone result) or a list of payloads
        (an admitted batch); either way each payload aggregates
        individually.
        """
        while True:
            item = await self._queue.get()
            payloads = item if isinstance(item, list) else (item,)
            try:
                for payload in payloads:
                    try:
                        await self._aggregate_one(payload)
                    except asyncio.CancelledError:
                        raise
                    except Exception:
                        # an aggregation callback failure must not wedge
                        # the queue (stop() joins it) or kill the consumer
                        self.registry.counter("collector.aggregation_errors").inc()
            finally:
                self._queue.task_done()
                self.registry.gauge("collector.queue_depth").set(self._queue.qsize())

    def _merge_metrics(self, snapshot: Dict[str, object]) -> bool:
        """Fold a device snapshot into the registry; False if malformed.

        A malformed snapshot may have merged its leading entries before
        the bad one raised; the partial merge is deterministic, so a
        journal replay lands on the same counters as the live run.
        """
        try:
            self.registry.merge_snapshot(snapshot)
        except _SNAPSHOT_ERRORS:
            return False
        return True

    def _aggregate_payload(self, payload: SessionResultPayload) -> None:
        """The synchronous rollups shared by live ingest and replay.

        Never raises on payload content: a result whose piggybacked
        metrics cannot merge still counts as ingested (it was acked and
        journaled) and tallies ``collector.aggregation_errors`` instead,
        so a replayed journal rebuilds exactly the live run's state.
        """
        self.registry.counter("collector.sessions_ingested").inc()
        if payload.degraded:
            self.registry.counter("collector.sessions_degraded").inc()
        if payload.exact is not None:
            self.registry.counter("collector.sessions_scored").inc()
            if payload.exact:
                self.registry.counter("collector.sessions_exact").inc()
        if payload.metrics is not None and not self._merge_metrics(payload.metrics):
            self.registry.counter("collector.aggregation_errors").inc()
        if self.keep_results:
            self.results.append(payload)

    async def _aggregate_one(self, payload: SessionResultPayload) -> None:
        self._aggregate_payload(payload)
        if self.on_result is not None:
            maybe_awaitable = self.on_result(payload)
            if asyncio.iscoroutine(maybe_awaitable):
                await maybe_awaitable


class CollectorHandle:
    """A collector hosted on its own event-loop thread.

    The synchronous façade the rest of the codebase uses::

        cfg = CollectorConfig(transport="unix", unix_path=p)
        with CollectorHandle(cfg) as handle:
            endpoint = handle.endpoint
            ... clients stream into it ...
        # exiting drains and stops the server; handle.server.results is final

    ``stop()`` (or context exit) performs the graceful drain described
    on :meth:`CollectorServer.stop`.
    """

    def __init__(self, config: Optional[CollectorConfig] = None, **server_kwargs) -> None:
        self.server = CollectorServer(config, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.endpoint: Optional[Endpoint] = None

    def start(self) -> Endpoint:
        if self._thread is not None:
            raise RuntimeError("collector handle already started")
        started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self.endpoint = loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                # a stop() that raised or timed out leaves tasks and the
                # listener open; close them before the loop goes away
                loop.run_until_complete(self.server.abort())
                loop.close()

        self._thread = threading.Thread(target=run, name="repro-collector", daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self.endpoint

    def stop(self, drain: bool = True) -> None:
        if self._thread is None or self._loop is None:
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self._loop
            )
            future.result(timeout=self.server.drain_timeout_s + 30.0)
        finally:
            # even when the drain times out or raises, the loop thread
            # must be stopped and the handle reset — otherwise a second
            # stop() (or interpreter exit) hangs on a wedged loop
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)
            self._thread = None
            self._loop = None

    def __enter__(self) -> "CollectorHandle":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
