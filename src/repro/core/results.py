"""The shared result protocol for the public API surface.

Every run-level result object the facade returns — the batch attack's
``AttackResult``, the streaming engine's ``OnlineResult``, the monitoring
service's ``ServiceReport`` — satisfies :class:`SessionResult`: the same
four accessors mean the same thing everywhere, so evaluation code can be
written once against the protocol.

* ``keys``  — the inferred key presses (list of ``InferredKey``);
* ``text``  — the inferred credential with detected deletions applied;
* ``stats`` — the engine's :class:`~repro.core.online.EngineStats`;
* ``trace`` — the shared :class:`~repro.runtime.trace.RuntimeTrace`
  event log of the run (``None`` when no trace was recorded).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.core.online import EngineStats, InferredKey
from repro.runtime.trace import RuntimeTrace


@runtime_checkable
class SessionResult(Protocol):
    """What every run-level result of the public API can do."""

    @property
    def keys(self) -> List[InferredKey]: ...

    @property
    def text(self) -> str: ...

    @property
    def stats(self) -> EngineStats: ...

    @property
    def trace(self) -> Optional[RuntimeTrace]: ...

