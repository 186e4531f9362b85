"""Feature space: PC deltas as vectors in counter space.

Each GPU PC value change is an 11-dimensional integer vector over the
selected counters of Table 1 (in :data:`repro.gpu.timeline.COUNTER_ORDER`).
The classifier of Section 5.1 / Fig 12 operates on these vectors in "a
high-dimension space" spanned by all selected PCs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER

#: Number of feature dimensions (= selected counters).
DIMENSIONS = len(COUNTER_ORDER)

#: Smallest per-dimension scale, so constant dimensions (exact primitive
#: counts) still count instead of dividing by zero.
SCALE_FLOOR = 1.0

_INDEX: Dict[pc.CounterId, int] = {cid: i for i, cid in enumerate(COUNTER_ORDER)}


def counter_index(spec: pc.CounterSpec) -> int:
    """Column index of one counter in the feature vector."""
    return _INDEX[spec.counter_id]


def robust_scale(matrix: np.ndarray) -> np.ndarray:
    """Per-dimension scale for distance normalization.

    Uses the standard deviation across all training vectors — the
    discriminative spread — floored so constant dimensions (e.g. exact
    primitive counts) still contribute rather than dividing by zero.
    """
    if matrix.size == 0:
        return np.full(DIMENSIONS, SCALE_FLOOR, dtype=float)
    spread = np.std(matrix, axis=0)
    return np.maximum(spread, SCALE_FLOOR)


def normalized_distance(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """Scale-normalized Euclidean distance between two feature vectors."""
    diff = (a - b) / scale
    return float(np.sqrt(np.dot(diff, diff)))
