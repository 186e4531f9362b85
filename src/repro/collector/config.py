"""The unified collector configuration: one frozen dataclass for the tier.

Before this module existed, every collector entry point —
:class:`~repro.collector.server.CollectorServer`,
:class:`~repro.collector.client.CollectorClient`,
:class:`~repro.collector.fleet.FleetDriver`, and
:func:`repro.api.run_fleet` — grew its own pile of transport keywords
(``transport=``, ``unix_path=``, ``queue_size=``, ``retry=``, ...), and
threading a new knob meant touching all four signatures.
:class:`CollectorConfig` collapses them into one serializable object,
mirroring :class:`~repro.api.AttackConfig`: construct it once, pass it
everywhere, round-trip it through :meth:`to_dict` / :meth:`from_dict`
(manifests embed it the same way they embed the attack config).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional

import numpy as np

from repro.collector.frames import MAX_FRAME_BYTES
from repro.collector.journal import JOURNAL_SYNC_MODES


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff between delivery attempts.

    Attempt ``k`` (0-based) sleeps
    ``min(max_delay_s, base_delay_s * multiplier**k) * (1 + jitter_frac*u)``
    with ``u`` uniform in ``[0, 1)`` from a seeded RNG — jitter
    de-synchronizes a fleet of devices retrying into the same collector
    without making any single device's schedule nondeterministic.
    """

    max_attempts: int = 8
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.jitter_frac < 0:
            raise ValueError("delays and jitter must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        base = min(self.max_delay_s, self.base_delay_s * self.multiplier ** attempt)
        return base * (1.0 + self.jitter_frac * float(rng.random()))

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RetryPolicy":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RetryPolicy fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CollectorConfig:
    """Every knob of the collector tier in one place.

    Consumed by the server, the client, the fleet driver and the facade;
    serializes round-trip through :meth:`to_dict` / :meth:`from_dict`
    (the nested retry policy serializes as its field dict).

    Attributes:
        transport: ``"tcp"`` or ``"unix"``.
        host / port: TCP bind/connect address (``port=0`` binds free).
        unix_path: filesystem path for the unix-socket transport.
        codec: always ``"binary"``, the one wire codec.  The field
            selects nothing: it is the one vestige of the retired codec
            choice, kept because ``bench/workloads.py`` still passes
            ``codec="binary"``; drop it when the bench is next re-cut.
        queue_size: the server's in-flight result bound (backpressure).
        read_timeout_s: server-side idle read timeout per connection.
        drain_timeout_s: how long a stopping server waits for in-flight
            connections.
        timeout_s: client-side socket timeout for connect/send/ack.
        max_frame_bytes: hard cap on one frame body; a length prefix
            beyond it is a protocol error (``FrameTooLarge``), never an
            allocation request.
        retry: the client's backoff schedule for failed deliveries.
        shards: how many collector processes the tier runs.  ``1``
            (default) is the in-process single collector; ``> 1``
            stands up N :class:`CollectorServer` processes behind the
            deterministic device router
            (:mod:`repro.collector.router`).
        journal_dir: directory for the per-shard write-ahead journals
            (:mod:`repro.collector.journal`).  Set it and a killed
            collector replays its journal on restart, making the
            exactly-once contract durable; ``None`` keeps dedup state
            in memory only.  One directory holds exactly one logical
            run — reusing it replays the previous run's results.
        journal_sync: journal durability policy — ``"flush"``
            (default, survives SIGKILL), ``"fsync"`` (survives OS
            crash), ``"none"`` (buffered; throughput experiments).
        pipeline_depth: how many result frames
            :meth:`~repro.collector.client.CollectorClient.send_results`
            keeps in flight before blocking on the oldest ack.  ``1``
            (default) is the classic lock-step ``send → await ack``
            round trip; ``> 1`` pipelines a window of frames per
            connection, amortizing the per-frame syscall and context
            switch — the difference between a device trickling live
            sessions and a backlog upload saturating the tier.  The
            delivery contract is unchanged: frames are acked in order,
            anything unacked when a connection dies is resent, and the
            server's ``(device_id, seq)`` dedup absorbs the overlap.
    """

    transport: str = "tcp"
    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None
    codec: str = "binary"
    queue_size: int = 256
    read_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    timeout_s: float = 10.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    retry: RetryPolicy = RetryPolicy()
    shards: int = 1
    journal_dir: Optional[str] = None
    journal_sync: str = "flush"
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "unix"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "unix" and not self.unix_path:
            raise ValueError("unix transport requires unix_path")
        if self.codec != "binary":
            raise ValueError(f"codec must be 'binary', got {self.codec!r}")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.read_timeout_s <= 0 or self.drain_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be >= 1")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.journal_dir is not None and not isinstance(self.journal_dir, str):
            # keep the config JSON-serializable when a Path is passed
            object.__setattr__(self, "journal_dir", str(self.journal_dir))
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.journal_sync not in JOURNAL_SYNC_MODES:
            raise ValueError(
                f"journal_sync must be one of {JOURNAL_SYNC_MODES}, "
                f"got {self.journal_sync!r}"
            )

    def with_overrides(self, **overrides) -> "CollectorConfig":
        """A copy with ``overrides`` applied."""
        return replace(self, **overrides) if overrides else self

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "retry":
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CollectorConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CollectorConfig fields: {sorted(unknown)}")
        kwargs = dict(data)
        retry = kwargs.get("retry")
        if isinstance(retry, Mapping):
            kwargs["retry"] = RetryPolicy.from_dict(retry)
        return cls(**kwargs)  # type: ignore[arg-type]

