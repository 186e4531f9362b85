"""Information-theoretic strength of the side channel.

Accuracy alone understates an attack: even a *wrong* inference can gut a
credential's security if it narrows the search space.  This module
quantifies the leak in bits:

* the prior entropy of a credential (length x log2 |alphabet|);
* the posterior entropy given the attack's output, estimated from the
  empirical confusion matrix (per-position conditional entropy of the
  true key given the inferred key);
* the guessing advantage: how many orders of magnitude fewer candidates
  an attacker must try after observing the counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.analysis.confusion import ConfusionMatrix
from repro.workloads.credentials import PASSWORD_POOL


def prior_entropy_bits(length: int, alphabet_size: int = len(PASSWORD_POOL)) -> float:
    """Entropy of a uniform random credential of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if alphabet_size < 2:
        raise ValueError("alphabet must have at least two symbols")
    return length * math.log2(alphabet_size)


def conditional_entropy_bits(matrix: ConfusionMatrix) -> float:
    """H(true key | inferred key) from an empirical confusion matrix.

    The per-position uncertainty an attacker still faces after seeing the
    classifier's output.  0 bits means the channel identifies every key;
    log2 |alphabet| means it reveals nothing.
    """
    # group counts by inferred symbol
    by_inferred: Dict[str, Dict[str, int]] = {}
    total = 0
    for (truth, inferred), count in matrix.counts.items():
        if truth == ConfusionMatrix.SPURIOUS:
            continue
        by_inferred.setdefault(inferred, {})[truth] = (
            by_inferred.setdefault(inferred, {}).get(truth, 0) + count
        )
        total += count
    if total == 0:
        return 0.0
    entropy = 0.0
    for inferred, truth_counts in by_inferred.items():
        column_total = sum(truth_counts.values())
        p_column = column_total / total
        column_entropy = 0.0
        for count in truth_counts.values():
            p = count / column_total
            column_entropy -= p * math.log2(p)
        entropy += p_column * column_entropy
    return entropy


@dataclass(frozen=True)
class LeakReport:
    """The side channel's strength for credentials of one length."""

    length: int
    prior_bits: float
    posterior_bits: float

    @property
    def leaked_bits(self) -> float:
        return max(0.0, self.prior_bits - self.posterior_bits)

    @property
    def leak_fraction(self) -> float:
        if self.prior_bits <= 0:
            return 0.0
        return self.leaked_bits / self.prior_bits

    @property
    def search_space_reduction(self) -> float:
        """Multiplicative shrink of the credential search space (2^leak)."""
        return 2.0 ** self.leaked_bits


def leak_report(matrix: ConfusionMatrix, length: int) -> LeakReport:
    """Combine the confusion structure into a per-credential leak figure.

    The prior is a uniform draw from the password pool.  Positions are
    treated as independent (the channel is memoryless per key press), so
    posterior bits = length x H(true | inferred).
    """
    prior = prior_entropy_bits(length, len(PASSWORD_POOL))
    per_key = conditional_entropy_bits(matrix)
    return LeakReport(
        length=length, prior_bits=prior, posterior_bits=length * per_key
    )
