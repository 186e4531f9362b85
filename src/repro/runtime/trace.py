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


@dataclass(frozen=True, slots=True)
class RuntimeEvent:
    """One timestamped decision or observation in the runtime."""

    t: float
    session: str
    stage: str
    kind: str
    detail: Mapping[str, object] = field(default_factory=dict)


_set_t, _set_session, _set_stage, _set_kind, _set_detail = (
    RuntimeEvent.__dict__[name].__set__ for name in ("t", "session", "stage", "kind", "detail")
)


def _event(
    t: float, session: str, stage: str, kind: str, detail: Mapping[str, object]
) -> RuntimeEvent:
    """A :class:`RuntimeEvent` filled through its slot setters, without
    the frozen dataclass ``__init__``, which goes through
    ``object.__setattr__`` once per field at about three times the cost:
    the engine emits one per noise row.  Fields, equality and frozenness
    stay the dataclass's own."""
    event = object.__new__(RuntimeEvent)
    _set_t(event, t)
    _set_session(event, session)
    _set_stage(event, stage)
    _set_kind(event, kind)
    _set_detail(event, detail)
    return event


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
        event = _event(t, session, stage, kind, detail)
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

    def count(self, kind: Optional[str] = None) -> int:
        """Exact tally of ``kind`` events over the whole run, every stage
        summed (ring truncation never applies); ``None`` counts all."""
        return sum(n for (_, k), n in self.counters.items() if kind is None or k == kind)

    def summary(self) -> Dict[str, int]:
        """Flat ``stage.kind -> count`` mapping, sorted for stable output."""
        return {
            f"{stage}.{kind}": self.counters[(stage, kind)]
            for stage, kind in sorted(self.counters)
        }

    def __len__(self) -> int:
        return len(self.events)
