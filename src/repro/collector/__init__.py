"""Fleet ingestion: the collector service, client, and fleet driver.

The first cross-process networking layer of the reproduction — many
simulated devices stream their :class:`SessionResultPayload` frames into
one asyncio :class:`CollectorServer` with bounded-queue backpressure,
retry-until-acked delivery, and ``(device_id, seq)`` deduplication.
The wire speaks one struct-packed binary frame format (the 11 counter
deltas as fixed u64s), and every knob lives on one
:class:`CollectorConfig`.  ``docs/collector.md`` is the full guide.
"""

from repro.collector.client import (
    ClientStats,
    CollectorClient,
    CollectorClientError,
    NetworkFaultInjector,
)
from repro.collector.config import CollectorConfig, RetryPolicy
from repro.collector.fleet import (
    DEVICE_SEED_STRIDE,
    DRILL_RETRY,
    DeviceOutcome,
    FleetDriver,
    FleetReport,
    KillDrill,
    trace_counter_deltas,
)
from repro.collector.frames import (
    BINARY_CODEC,
    MAX_FRAME_BYTES,
    N_COUNTERS,
    PROTO_VERSION,
    Ack,
    Batch,
    Bye,
    ByeOk,
    ConnectionClosed,
    Frame,
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
    read_body_sock,
)
from repro.collector.journal import (
    JOURNAL_SYNC_MODES,
    CollectorJournal,
    JournalError,
    JournalRecovery,
    count_journal_records,
    dedupe_records,
    journal_path,
    read_journal,
)
from repro.collector.router import CollectorTier, DeviceRouter
from repro.collector.server import CollectorHandle, CollectorServer

__all__ = [
    "CollectorServer",
    "CollectorHandle",
    "CollectorTier",
    "DeviceRouter",
    "CollectorJournal",
    "JournalError",
    "JournalRecovery",
    "JOURNAL_SYNC_MODES",
    "journal_path",
    "read_journal",
    "count_journal_records",
    "dedupe_records",
    "KillDrill",
    "DRILL_RETRY",
    "CollectorClient",
    "CollectorClientError",
    "CollectorConfig",
    "ClientStats",
    "NetworkFaultInjector",
    "RetryPolicy",
    "FleetDriver",
    "FleetReport",
    "DeviceOutcome",
    "DEVICE_SEED_STRIDE",
    "trace_counter_deltas",
    "SessionResultPayload",
    "FrameError",
    "FrameTooLarge",
    "FrameTruncated",
    "ConnectionClosed",
    "Frame",
    "Hello",
    "HelloOk",
    "Result",
    "Ack",
    "Batch",
    "Metrics",
    "MetricsOk",
    "Bye",
    "ByeOk",
    "ProtocolError",
    "BINARY_CODEC",
    "decode_any",
    "read_body_sock",
    "MAX_FRAME_BYTES",
    "N_COUNTERS",
    "PROTO_VERSION",
]
