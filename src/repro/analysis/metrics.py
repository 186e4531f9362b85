"""Accuracy metrics for the evaluation (paper Section 7).

The paper reports two granularities:

* **text-input accuracy** (Fig 17a): fraction of credentials inferred
  exactly right, end to end;
* **individual key-press accuracy** (Fig 17b/18): fraction of key presses
  inferred correctly, which we compute from a minimum-edit-distance
  alignment between the true and inferred strings so that one missing
  character does not cascade into a whole-suffix mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.workloads.credentials import character_group


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (unit costs)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + (ca != cb),  # substitution / match
                )
            )
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class Alignment:
    """Character-level alignment between truth and inference."""

    matches: List[Tuple[str, str]]  # (true char, inferred char) matched pairs
    substitutions: List[Tuple[str, str]]
    deletions: List[str]  # true chars the attack missed
    insertions: List[str]  # inferred chars with no true counterpart

    @property
    def errors(self) -> int:
        return len(self.substitutions) + len(self.deletions) + len(self.insertions)

    @property
    def correct(self) -> int:
        return len(self.matches)


def align(truth: str, inferred: str) -> Alignment:
    """Optimal alignment via the edit-distance DP with backtracking."""
    n, m = len(truth), len(inferred)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (truth[i - 1] != inferred[j - 1]),
            )
    matches: List[Tuple[str, str]] = []
    substitutions: List[Tuple[str, str]] = []
    deletions: List[str] = []
    insertions: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if (
            i > 0
            and j > 0
            and dp[i][j] == dp[i - 1][j - 1] + (truth[i - 1] != inferred[j - 1])
        ):
            if truth[i - 1] == inferred[j - 1]:
                matches.append((truth[i - 1], inferred[j - 1]))
            else:
                substitutions.append((truth[i - 1], inferred[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            deletions.append(truth[i - 1])
            i -= 1
        else:
            insertions.append(inferred[j - 1])
            j -= 1
    matches.reverse()
    substitutions.reverse()
    deletions.reverse()
    insertions.reverse()
    return Alignment(
        matches=matches,
        substitutions=substitutions,
        deletions=deletions,
        insertions=insertions,
    )


@dataclass
class AccuracyReport:
    """Aggregated accuracy over a batch of (truth, inferred) pairs."""

    traces: int = 0
    exact_traces: int = 0
    true_chars: int = 0
    correct_chars: int = 0
    errors_per_trace: List[int] = field(default_factory=list)
    per_char_correct: Dict[str, int] = field(default_factory=dict)
    per_char_total: Dict[str, int] = field(default_factory=dict)

    def add(self, truth: str, inferred: str) -> Alignment:
        alignment = align(truth, inferred)
        self.traces += 1
        if truth == inferred:
            self.exact_traces += 1
        self.true_chars += len(truth)
        self.correct_chars += alignment.correct
        self.errors_per_trace.append(alignment.errors)
        for char, _ in alignment.matches:
            self.per_char_correct[char] = self.per_char_correct.get(char, 0) + 1
            self.per_char_total[char] = self.per_char_total.get(char, 0) + 1
        for char, _ in alignment.substitutions:
            self.per_char_total[char] = self.per_char_total.get(char, 0) + 1
        for char in alignment.deletions:
            self.per_char_total[char] = self.per_char_total.get(char, 0) + 1
        return alignment

    # ------------------------------------------------------------------

    @property
    def text_accuracy(self) -> float:
        """Fig 17a: fraction of credentials inferred exactly."""
        return self.exact_traces / self.traces if self.traces else 0.0

    @property
    def key_accuracy(self) -> float:
        """Fig 17b/18: fraction of true key presses inferred correctly."""
        return self.correct_chars / self.true_chars if self.true_chars else 0.0

    @property
    def mean_errors_per_trace(self) -> float:
        if not self.errors_per_trace:
            return 0.0
        return sum(self.errors_per_trace) / len(self.errors_per_trace)

    def char_accuracy(self, char: str) -> float:
        total = self.per_char_total.get(char, 0)
        if not total:
            return 0.0
        return self.per_char_correct.get(char, 0) / total

    def group_accuracy(self) -> Dict[str, float]:
        """Fig 17c / 21c: accuracy per character group."""
        correct: Dict[str, int] = {}
        total: Dict[str, int] = {}
        for char, count in self.per_char_total.items():
            group = character_group(char)
            total[group] = total.get(group, 0) + count
            correct[group] = correct.get(group, 0) + self.per_char_correct.get(char, 0)
        return {
            group: (correct.get(group, 0) / count if count else 0.0)
            for group, count in total.items()
        }
