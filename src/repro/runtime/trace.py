"""Structured event log of a runtime execution.

Everything the online pipeline decides — every sample delta dispatched,
every Algorithm 1 verdict (duplication suppressed, split merged, app
switch suppressed, correction applied), every mode transition of the
monitoring service — is recorded here as one :class:`RuntimeEvent`.
EXPERIMENTS figures and debugging sessions read this single log instead
of scraping ad-hoc per-object statistics.

Two views are maintained:

* **counters** — exact per-``(stage, kind)`` tallies, always complete;
* **events** — the event objects themselves, kept in a bounded ring so a
  100-session batch cannot grow memory without limit (``events_dropped``
  says how many fell off the front).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Tuple


@dataclass(frozen=True)
class RuntimeEvent:
    """One timestamped decision or observation in the runtime."""

    t: float
    session: str
    stage: str
    kind: str
    detail: Mapping[str, object] = field(default_factory=dict)


class RuntimeTrace:
    """Append-only event log with exact per-stage counters.

    Args:
        capacity: maximum number of event objects retained (the counters
            are never truncated).  ``None`` keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.events: Deque[RuntimeEvent] = deque(maxlen=capacity)
        self.counters: Dict[Tuple[str, str], int] = {}
        self.events_dropped = 0

    # ------------------------------------------------------------------

    def emit(
        self, t: float, session: str, stage: str, kind: str, **detail: object
    ) -> RuntimeEvent:
        """Record one event; returns it for convenience."""
        event = RuntimeEvent(t=t, session=session, stage=stage, kind=kind, detail=detail)
        if self.capacity is not None and len(self.events) == self.capacity:
            self.events_dropped += 1
        self.events.append(event)
        key = (stage, kind)
        self.counters[key] = self.counters.get(key, 0) + 1
        return event

    @property
    def emitted(self) -> int:
        """Total events ever emitted (retained + dropped off the ring).

        This is the stable event *ordinal* — shard replay uses half-open
        ``[e0, e1)`` ranges of it to address contiguous event runs even
        when a bounded ring has started dropping from the front.
        """
        return self.events_dropped + len(self.events)

    def replay(self, event: RuntimeEvent) -> RuntimeEvent:
        """Re-emit an event recorded by another trace, preserving its
        payload; capacity accounting and counters apply as usual."""
        return self.emit(
            event.t, event.session, event.stage, event.kind, **dict(event.detail)
        )

    # ------------------------------------------------------------------

    def count(self, kind: Optional[str] = None, stage: Optional[str] = None) -> int:
        """Exact tally over the whole run (ring truncation never applies)."""
        return sum(
            n
            for (s, k), n in self.counters.items()
            if (stage is None or s == stage) and (kind is None or k == kind)
        )

    def summary(self) -> Dict[str, int]:
        """Flat ``stage.kind -> count`` mapping, sorted for stable output."""
        return {
            f"{stage}.{kind}": self.counters[(stage, kind)]
            for stage, kind in sorted(self.counters)
        }

    def __len__(self) -> int:
        return len(self.events)
