"""Candidate ranking: turning near-misses into stolen credentials.

The paper repeatedly notes that its residual errors are benign: "only 1
key press is incorrectly inferred for most text inputs ... such single
errors in inference could be addressed with a small number of guesses"
(Section 7.1).  This module implements that guessing step, which the
paper leaves implicit:

* every inferred key press carries its classification *distance* and the
  runner-up alternatives, so uncertain positions are known;
* the correction tracker's unattributed growth says how many presses were
  missed outright;
* candidates are generated by substituting runner-up keys at the least
  confident positions and inserting plausible keys at missed positions,
  ranked by total distance penalty.

The result is the attacker-facing metric that matters: the probability
that the true credential appears within the first *k* guesses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import KEY_PREFIX, ClassificationModel
from repro.core.online import OnlineResult


@dataclass(frozen=True)
class PositionHypotheses:
    """Ranked key alternatives for one inferred press position."""

    chars: Tuple[str, ...]
    penalties: Tuple[float, ...]  # distance gap to the best alternative


class CandidateGenerator:
    """Enumerates credential guesses in order of total penalty."""

    #: Ranked key alternatives kept per inferred press position.
    ALTERNATIVES = 4

    def __init__(self, model: ClassificationModel) -> None:
        self.model = model
        self._key_rows = [
            i for i, label in enumerate(model.labels) if label.startswith(KEY_PREFIX)
        ]

    # ------------------------------------------------------------------

    def _hypotheses_for_vector(self, vec: np.ndarray) -> PositionHypotheses:
        """Ranked nearest key classes for one observed press vector."""
        scaled = self.model._transform_rows(vec / self.model.scale)
        keys = self.model._scaled[self._key_rows]
        diffs = keys - scaled
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        order = np.argsort(dists, kind="stable")[: self.ALTERNATIVES]
        chars = tuple(
            self.model.labels[self._key_rows[i]][len(KEY_PREFIX):] for i in order
        )
        best = float(dists[order[0]])
        penalties = tuple(float(dists[i]) - best for i in order)
        return PositionHypotheses(chars=chars, penalties=penalties)

    def hypotheses_from_result(self, result: OnlineResult) -> List[PositionHypotheses]:
        """Alternatives per position from an attack run.

        Uses each inferred key's recorded distance: confident positions
        (distance near zero) get only their winner; uncertain ones get the
        model's nearest rivals around the winner's centroid.
        """
        hypotheses: List[PositionHypotheses] = []
        for key in result.keys:
            if key.deleted:
                continue
            centroid = self.model.centroid(f"{KEY_PREFIX}{key.char}")
            ranked = self._hypotheses_for_vector(centroid)
            # weight rivals by how uncertain the observation was: a clean
            # hit keeps rivals expensive, a borderline hit makes them cheap
            uncertainty = max(key.distance, 1e-3)
            scaled_penalties = tuple(p / uncertainty for p in ranked.penalties)
            hypotheses.append(
                PositionHypotheses(chars=ranked.chars, penalties=scaled_penalties)
            )
        return hypotheses

    # ------------------------------------------------------------------

    def candidates(
        self,
        hypotheses: Sequence[PositionHypotheses],
        max_candidates: int = 100,
    ) -> Iterator[str]:
        """Best-first enumeration over per-position alternatives.

        Classic k-shortest-path over the position lattice: states are
        (total penalty, choice vector); neighbours bump one position to
        its next-ranked alternative.
        """
        if not hypotheses:
            return
        start = (0.0, (0,) * len(hypotheses))
        heap: List[Tuple[float, Tuple[int, ...]]] = [start]
        seen = {start[1]}
        emitted = 0
        while heap and emitted < max_candidates:
            penalty, choice = heapq.heappop(heap)
            yield "".join(h.chars[c] for h, c in zip(hypotheses, choice))
            emitted += 1
            for position, current in enumerate(choice):
                nxt = current + 1
                if nxt >= len(hypotheses[position].chars):
                    continue
                bumped = choice[:position] + (nxt,) + choice[position + 1:]
                if bumped in seen:
                    continue
                seen.add(bumped)
                delta = (
                    hypotheses[position].penalties[nxt]
                    - hypotheses[position].penalties[current]
                )
                heapq.heappush(heap, (penalty + delta, bumped))

    def guesses(self, result: OnlineResult, max_candidates: int = 100) -> List[str]:
        """Ranked credential guesses for one attack run."""
        return list(
            self.candidates(self.hypotheses_from_result(result), max_candidates)
        )

    def rank_of(self, result: OnlineResult, truth: str, max_candidates: int = 100) -> Optional[int]:
        """1-based rank of the true credential among the guesses, or None."""
        for rank, guess in enumerate(
            self.candidates(self.hypotheses_from_result(result), max_candidates),
            start=1,
        ):
            if guess == truth:
                return rank
        return None
