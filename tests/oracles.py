"""Scalar reference paths the vectorised kernels in ``src/`` are checked
against.  They live here, next to the properties that use them, because
no production path calls them."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.classifier import (
    COMPOSITE_CTH_FACTOR,
    Classification,
    ClassificationModel,
)


def pick_composite(
    model: ClassificationModel,
    block_min: np.ndarray,
    block_key: np.ndarray,
    row_sq: float,
    field_lengths: Optional[Sequence[int]] = None,
) -> Classification:
    """One row's composite classification from its block scores: the
    first minimal allowed block and its first minimal key, accepted
    within ``cth * COMPOSITE_CTH_FACTOR``."""
    grid = model._composite_grid()
    if field_lengths is not None:
        block_min = np.where(grid.allowed(field_lengths), block_min, np.inf)
    if not block_min.size:
        return Classification(label=None, distance=float("inf"))
    block = int(np.argmin(block_min))
    best = float(block_min[block])
    if not math.isfinite(best):
        return Classification(label=None, distance=float("inf"))
    distance = math.sqrt(max(0.0, best + float(row_sq)))
    if distance > model.cth * COMPOSITE_CTH_FACTOR:
        return Classification(label=None, distance=distance)
    key = grid.key_rows[int(block_key[block])]
    return Classification(label=model.labels[key], distance=distance)


def classify_composite(
    model: ClassificationModel,
    vec: np.ndarray,
    field_lengths: Optional[Sequence[int]] = None,
) -> Classification:
    """Best key interpretation of ``vec`` minus one known non-key class:
    a one-row :meth:`ClassificationModel.composite_scores` pass, picked by
    :func:`pick_composite`."""
    block_min, block_key, row_sq = model.composite_scores(vec[None, :])
    return pick_composite(model, block_min[0], block_key[0], row_sq[0], field_lengths)
