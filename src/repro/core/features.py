"""Feature extraction: PC deltas as vectors in counter space.

Each GPU PC value change is an 11-dimensional integer vector over the
selected counters of Table 1 (in :data:`repro.gpu.timeline.COUNTER_ORDER`).
The classifier of Section 5.1 / Fig 12 operates on these vectors in "a
high-dimension space" spanned by all selected PCs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER
from repro.kgsl.sampler import PcDelta

#: Number of feature dimensions (= selected counters).
DIMENSIONS = len(COUNTER_ORDER)

_INDEX: Dict[pc.CounterId, int] = {cid: i for i, cid in enumerate(COUNTER_ORDER)}


def vectorize(delta: PcDelta) -> np.ndarray:
    """One delta as a float vector in the canonical counter order."""
    values = delta.values
    return np.array([values.get(cid, 0) for cid in COUNTER_ORDER], dtype=float)


def vectorize_many(deltas: Iterable[PcDelta]) -> np.ndarray:
    """Stack of feature vectors, shape (n, DIMENSIONS)."""
    rows = [[d.values.get(cid, 0) for cid in COUNTER_ORDER] for d in deltas]
    return np.array(rows, dtype=float).reshape(-1, DIMENSIONS)


def counter_index(spec: pc.CounterSpec) -> int:
    """Column index of one counter in the feature vector."""
    return _INDEX[spec.counter_id]


def present_mask(missing: Sequence[pc.CounterId]) -> np.ndarray:
    """Boolean mask over feature dimensions: True where the counter was
    actually observed (i.e. *not* in the delta's ``missing`` list).

    Used by masked classification when a counter register was reclaimed
    by another KGSL client mid-session."""
    mask = np.ones(DIMENSIONS, dtype=bool)
    for counter_id in missing:
        index = _INDEX.get(counter_id)
        if index is not None:
            mask[index] = False
    return mask


def robust_scale(matrix: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Per-dimension scale for distance normalization.

    Uses the standard deviation across all training vectors — the
    discriminative spread — floored so constant dimensions (e.g. exact
    primitive counts) still contribute rather than dividing by zero.
    """
    if matrix.size == 0:
        return np.full(DIMENSIONS, floor, dtype=float)
    spread = np.std(matrix, axis=0)
    return np.maximum(spread, floor)


def normalized_distance(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """Scale-normalized Euclidean distance between two feature vectors."""
    diff = (a - b) / scale
    return float(np.sqrt(np.dot(diff, diff)))
