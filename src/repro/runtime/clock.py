"""Virtual time for the streaming session runtime.

Every layer of the online attack is driven by *simulated* time: the KGSL
device file serves counter values at its :class:`~repro.kgsl.device_file.
DeviceClock`'s current instant, the sampler schedules reads on nominal
8 ms ticks, and the engine reasons about inter-read gaps.  The runtime
adds one more clock on top: a **global virtual timeline** that orders the
events of many concurrent victim sessions, so a single process can
multiplex hundreds of eavesdropping sessions deterministically — no
threads, no wall-clock sleeps.

Two flavours:

* :class:`VirtualClock` — the runtime's merge clock.  Each session's
  device clock advances independently; the virtual clock tracks the
  frontier of *dispatched* events and therefore only ever moves forward
  (``advance_to`` clamps instead of raising, because independent session
  timelines are merged in near-sorted rather than strictly sorted order).
* the per-device :class:`~repro.kgsl.device_file.DeviceClock` is
  unchanged; :class:`VirtualClock` is API-compatible with it (``now`` /
  ``set`` / ``advance``) so either can be plugged into a KGSL fd.
"""

from __future__ import annotations


class VirtualClock:
    """A forward-only simulated clock.

    ``advance_to`` is the merge operation used by the runtime: moving to
    an earlier instant is a no-op, never an error, because the global
    timeline is the *maximum* over all sessions' dispatched event times.
    ``set``/``advance`` keep the stricter device-clock contract so a
    ``VirtualClock`` can stand in for a ``DeviceClock``.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def advance_to(self, t: float) -> None:
        if t > self.now:
            self.now = t

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot go backwards")
        self.now += dt

    def set(self, t: float) -> None:
        if t < self.now:
            raise ValueError("clock cannot go backwards")
        self.now = t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.6f})"
