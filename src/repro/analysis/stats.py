"""Bootstrap confidence intervals for the evaluation harness.

The benches run at a fraction of the paper's batch sizes, so point
estimates wobble; reporting a bootstrap interval makes the comparison to
the paper honest about that uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


def bootstrap_interval(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Interval:
    """Percentile bootstrap over per-trace outcomes.

    Args:
        values: one outcome per trace (e.g. 1.0 for an exact inference).
        statistic: aggregated quantity; the default mean gives accuracy.
        confidence: two-sided confidence level.
        resamples: bootstrap resample count.
        seed: RNG seed (the harness is fully deterministic).
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    estimates = np.empty(resamples)
    n = data.size
    for i in range(resamples):
        sample = data[rng.integers(0, n, size=n)]
        estimates[i] = statistic(sample)
    alpha = (1.0 - confidence) / 2.0
    return Interval(
        estimate=float(statistic(data)),
        low=float(np.quantile(estimates, alpha)),
        high=float(np.quantile(estimates, 1.0 - alpha)),
        confidence=confidence,
    )


def accuracy_interval(
    successes: int, trials: int, confidence: float = 0.95, seed: int = 0
) -> Interval:
    """Bootstrap interval for a success rate given aggregate counts."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    values = [1.0] * successes + [0.0] * (trials - successes)
    return bootstrap_interval(values, confidence=confidence, seed=seed)
