"""Duplication filtering (paper Section 5.1, first countermeasure).

"The interval between two key presses of a human user is at least
hundreds of milliseconds ... much longer than our interval of GPU PC
readings.  For every change of the GPU PC value, we backtrace a time
period Δt1 in the past, and only consider this change as indicating a key
press if no key press has been recently inferred within Δt1."  The paper
chooses Δt1 = 75 ms, the shortest plausible inter-key interval.
"""

from __future__ import annotations

from typing import Optional

#: Δt1: the paper's backtrace window, from keystroke-dynamics literature.
DEDUP_WINDOW_S = 0.075


class DuplicationFilter:
    """Tracks the last accepted key press and vetoes near-duplicates."""

    def __init__(self) -> None:
        self._last_key_t: Optional[float] = None
        self.suppressed = 0

    def admit(self, t: float) -> bool:
        """True if a key press inferred at ``t`` should be accepted."""
        if self._last_key_t is not None and t - self._last_key_t < DEDUP_WINDOW_S:
            self.suppressed += 1
            return False
        self._last_key_t = t
        return True

    def reset(self) -> None:
        self._last_key_t = None
