"""Key-press confusion matrices for the per-key evaluation (Fig 18).

Beyond per-key accuracy, the *structure* of confusions matters: the paper
attributes errors to visually faint glyphs, and the matrix makes that
attribution testable (who gets confused with whom, and is the relation
symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.metrics import align


@dataclass
class ConfusionMatrix:
    """Counts of (true key -> inferred key) outcomes.

    Deletions are recorded against the sentinel ``MISSED``; insertions
    against ``SPURIOUS``.
    """

    MISSED = "<missed>"
    SPURIOUS = "<spurious>"

    counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def record(self, truth: str, inferred: str) -> None:
        """Accumulate one (true text, inferred text) pair via alignment."""
        alignment = align(truth, inferred)
        for true_char, _ in alignment.matches:
            self._bump(true_char, true_char)
        for true_char, got in alignment.substitutions:
            self._bump(true_char, got)
        for true_char in alignment.deletions:
            self._bump(true_char, self.MISSED)
        for got in alignment.insertions:
            self._bump(self.SPURIOUS, got)

    def _bump(self, truth: str, inferred: str) -> None:
        key = (truth, inferred)
        self.counts[key] = self.counts.get(key, 0) + 1

    # ------------------------------------------------------------------

    def total(self, truth: str) -> int:
        return sum(v for (t, _), v in self.counts.items() if t == truth)

    def accuracy(self, truth: str) -> float:
        total = self.total(truth)
        if not total:
            return 0.0
        return self.counts.get((truth, truth), 0) / total

    def confusions(self) -> List[Tuple[str, str, int]]:
        """Off-diagonal entries, most frequent first."""
        out = [(t, i, count) for (t, i), count in self.counts.items() if t != i]
        return sorted(out, key=lambda x: -x[2])

    def most_confused_pairs(self, top: int = 5) -> List[Tuple[str, str, int]]:
        """Symmetrized confusion pairs (a<->b combined), strongest first."""
        pair_counts: Dict[Tuple[str, str], int] = {}
        for truth, inferred, count in self.confusions():
            if truth in (self.MISSED, self.SPURIOUS) or inferred in (
                self.MISSED,
                self.SPURIOUS,
            ):
                continue
            key = tuple(sorted((truth, inferred)))
            pair_counts[key] = pair_counts.get(key, 0) + count
        ranked = sorted(pair_counts.items(), key=lambda kv: -kv[1])
        return [(a, b, count) for (a, b), count in ranked[:top]]
