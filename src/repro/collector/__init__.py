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
    CollectorClient,
    CollectorClientError,
    NetworkFaultInjector,
)
from repro.collector.config import CollectorConfig, RetryPolicy
from repro.collector.fleet import DRILL_RETRY, FleetDriver, FleetReport, KillDrill
from repro.collector.frames import (
    BINARY_CODEC,
    N_COUNTERS,
    SessionResultPayload,
    decode_any,
    read_body_sock,
)
from repro.collector.journal import (
    CollectorJournal,
    JournalError,
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
    "journal_path",
    "read_journal",
    "count_journal_records",
    "dedupe_records",
    "KillDrill",
    "DRILL_RETRY",
    "CollectorClient",
    "CollectorClientError",
    "CollectorConfig",
    "NetworkFaultInjector",
    "RetryPolicy",
    "FleetDriver",
    "FleetReport",
    "SessionResultPayload",
    "BINARY_CODEC",
    "decode_any",
    "read_body_sock",
    "N_COUNTERS",
]
