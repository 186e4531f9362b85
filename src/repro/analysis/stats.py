"""Bootstrap confidence intervals for the evaluation harness.

The benches run at a fraction of the paper's batch sizes, so point
estimates wobble; reporting a bootstrap interval makes the comparison to
the paper honest about that uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Interval:
    """A point estimate with a bootstrap confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.estimate:.3f} [{self.low:.3f}, {self.high:.3f}]"

    @property
    def width(self) -> float:
        return self.high - self.low


#: Two-sided confidence level, resample count and RNG seed of every
#: bootstrap (the harness is fully deterministic).
CONFIDENCE = 0.95
RESAMPLES = 2000
SEED = 0


def bootstrap_interval(values: Sequence[float]) -> Interval:
    """Percentile bootstrap of the mean over per-trace outcomes (one
    value per trace, e.g. 1.0 for an exact inference: the mean is the
    accuracy)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(SEED)
    estimates = np.empty(RESAMPLES)
    n = data.size
    for i in range(RESAMPLES):
        sample = data[rng.integers(0, n, size=n)]
        estimates[i] = np.mean(sample)
    alpha = (1.0 - CONFIDENCE) / 2.0
    return Interval(
        estimate=float(np.mean(data)),
        low=float(np.quantile(estimates, alpha)),
        high=float(np.quantile(estimates, 1.0 - alpha)),
        confidence=CONFIDENCE,
    )


def accuracy_interval(successes: int, trials: int) -> Interval:
    """Bootstrap interval for a success rate given aggregate counts."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    values = [1.0] * successes + [0.0] * (trials - successes)
    return bootstrap_interval(values)
