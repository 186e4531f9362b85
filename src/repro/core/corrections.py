"""Input-correction tracking (paper Section 5.3, Fig 14).

Backspace shows no popup, so deletions are invisible to the key-press
classifier.  But every text-field redraw carries the current input length
(the PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ value "strictly increases by 2 with a
new input character and decreases by 2 whenever an input character is
deleted").  In the model, field redraws classify into the ``field:<n>``
family, so the tracker observes the length ``n`` directly.

The tracker reconciles the length sequence with the engine's key-press
count around one invariant: **over any validated span, the number of
deletions equals the keys inferred minus the net length growth.**  An
observation is *validated* when the next observation's length equals it
plus the key presses inferred in between (a cursor blink validates at
equal length; an echo validates through its typed key).  A partial read
misclassified as a shorter field never validates, so it can never fire a
false deletion — while a quick backspace-and-retype, whose dip is visible
for only a single observation, is still committed because the extra key
press does not show up as field growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class LengthObservation:
    """One observed text-field redraw."""

    t: float
    length: int
    keys_total: int = 0


@dataclass(frozen=True)
class CorrectionEvent:
    """One detected deletion (backspace press)."""

    t: float


class CorrectionTracker:
    """Reconciles field-length observations with inferred key presses."""

    def __init__(self) -> None:
        self.observations: List[LengthObservation] = []
        self.deletions: List[CorrectionEvent] = []
        self.unattributed_growth = 0
        self._validated: Optional[LengthObservation] = None
        self._pending: Optional[LengthObservation] = None
        self._dip_times: List[Tuple[float, int]] = []

    def length_bounds(self) -> Optional[Tuple[int, int]]:
        """Smallest and largest plausible current field length, spanning
        the last validated value and any pending observation."""
        candidates = []
        if self._validated is not None:
            candidates.append(self._validated.length)
        if self._pending is not None:
            candidates.append(self._pending.length)
        if not candidates:
            return None
        return (min(candidates), max(candidates))

    # ------------------------------------------------------------------

    def _commit(self, pending: LengthObservation) -> List[CorrectionEvent]:
        """The pending observation was validated: settle the span from the
        last validated observation up to it."""
        assert self._validated is not None
        typed = pending.keys_total - self._validated.keys_total
        growth = pending.length - self._validated.length
        excess = typed - growth
        emitted: List[CorrectionEvent] = []
        if excess > 0:
            # keys that never showed up as field growth were deleted (or
            # were spurious inferences).  Each deletion needs a witnessed
            # dip: without that cap, a stretch of misread field lengths
            # (e.g. under heavy background contamination) could wipe out
            # genuine keys wholesale.
            dips: List[float] = []
            for dip_t, amount in self._dip_times:
                if dip_t > self._validated.t:
                    dips.extend([dip_t] * amount)
            if typed > 0 and not dips:
                dips = [pending.t]
            for j in range(min(excess, len(dips))):
                event = CorrectionEvent(t=dips[min(j, len(dips) - 1)])
                self.deletions.append(event)
                emitted.append(event)
        elif excess < 0:
            # field grew beyond the inferred keys: presses were missed
            self.unattributed_growth += -excess
        self._validated = pending
        self._dip_times = [(t, a) for t, a in self._dip_times if t > pending.t]
        return emitted

    def observe(
        self, t: float, length: int, keys_inferred_total: int = 0
    ) -> List[CorrectionEvent]:
        """Process one field redraw; return the deletions it commits.

        Args:
            t: event time.
            length: input length carried by the redraw.
            keys_inferred_total: cumulative key presses the engine has
                inferred so far.
        """
        obs = LengthObservation(t=t, length=length, keys_total=keys_inferred_total)
        self.observations.append(obs)

        if self._validated is None:
            self._validated = obs
            return []

        emitted: List[CorrectionEvent] = []
        if self._pending is not None:
            expected = self._pending.length + (keys_inferred_total - self._pending.keys_total)
            if length == expected:
                emitted = self._commit(self._pending)
            elif length < self._pending.length:
                self._dip_times.append((t, self._pending.length - length))
        elif length < self._validated.length:
            self._dip_times.append((t, self._validated.length - length))

        if length == self._validated.length and (
            keys_inferred_total == self._validated.keys_total
        ):
            # steady state (a blink at the settled length): nothing pending
            self._pending = None
        else:
            self._pending = obs
        return emitted
