"""Streaming session runtime: clock → source → stages → report.

The shared runtime layer under the online attack.  One
:class:`SessionRuntime` multiplexes any number of concurrent victim
sessions on a single :class:`VirtualClock` timeline; each session is an
:class:`EventSource` (typically a live counter sampler) feeding a chain
of :class:`Stage` objects (launch watch, device recognition, the
Algorithm 1 engine), and every decision is recorded in one structured
:class:`RuntimeTrace`.

See ``docs/runtime.md`` for the architecture walkthrough.
"""

from repro.runtime.clock import VirtualClock
from repro.runtime.session import Session, SessionRuntime
from repro.runtime.source import SamplerDeltaSource
from repro.runtime.trace import RuntimeTrace

__all__ = [
    "RuntimeTrace",
    "SamplerDeltaSource",
    "Session",
    "SessionRuntime",
    "VirtualClock",
]
