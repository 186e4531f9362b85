"""Device/configuration recognition (paper Section 3.2).

"These readings will be first used to recognize the current device model
and configuration, and then applied to the corresponding classification
model."  Absolute counter values differ across GPUs (tile geometry),
resolutions, keyboards and OS versions, so the recurring screen changes of
the login screen — cursor blinks, popup dismissals, key presses — land
near the centroids of exactly one stored model.

The recognizer scores every stored model by how well the first observed PC
changes snap onto its centroids, and picks the best-scoring model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.classifier import ClassificationModel
from repro.core.features import DIMENSIONS
from repro.core.model_store import ModelStore


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of device/configuration recognition."""

    model_key: str
    score: float
    scores: Dict[str, float]

    @property
    def margin(self) -> float:
        """Gap between the best and second-best score (confidence)."""
        ranked = sorted(self.scores.values())
        if len(ranked) < 2:
            return float("inf")
        return ranked[1] - ranked[0]


#: Nonzero PC changes recognition scores (the attack buffers this many).
MAX_RECOGNITION_DELTAS = 40
#: Per-observation cap on the nearest-centroid distance, so a few
#: out-of-vocabulary events cannot dominate a model's score.
SCORE_CLIP = 25.0


class DeviceRecognizer:
    """Matches observed PC changes against all preloaded models."""

    def __init__(self, store: ModelStore) -> None:
        if len(store) == 0:
            raise ValueError("model store is empty")
        self.store = store

    def _score(
        self, model: ClassificationModel, vectors: np.ndarray, present: np.ndarray
    ) -> float:
        scaled_centroids = model.centroids / model.scale
        scaled = vectors / model.scale
        # distance of each observation to its nearest centroid over its
        # observed counters (scaled by sqrt(D/d) to stay comparable, as
        # the classifier's masked lookup does), clipped so a few
        # out-of-vocabulary events cannot dominate the score
        correction = np.sqrt(DIMENSIONS / present.sum(axis=1)).tolist()
        total = 0.0
        for row, seen, factor in zip(scaled, present, correction):
            diffs = (scaled_centroids - row) * seen
            dist = float(np.min(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)))) * factor
            total += min(dist, SCORE_CLIP)
        return total / len(scaled)

    def recognize(
        self,
        rows: np.ndarray,
        present: Optional[np.ndarray] = None,
        adreno_model: Optional[int] = None,
    ) -> RecognitionResult:
        """Pick the stored model whose centroids best explain ``rows``.

        Args:
            rows: the first PC changes observed on the victim, one
                counter row each; zero rows are skipped.
            present: ``bool`` per cell, set where the counter's change
                was observed (a delta batch's ``~unknown``); unknown
                counters are left out of the distances.  ``None`` means
                every counter was observed.
            adreno_model: GPU model from ``KGSL_PROP_DEVICE_INFO`` (the
                unprivileged chip-id query); when given, only models for
                phones with that GPU are considered.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, DIMENSIONS)
        if present is None:
            present = np.ones(rows.shape, dtype=bool)
        present = np.asarray(present, dtype=bool).reshape(rows.shape)
        nonzero = rows.any(axis=1)
        vectors = rows[nonzero][:MAX_RECOGNITION_DELTAS]
        present = present[nonzero][:MAX_RECOGNITION_DELTAS]
        if not len(vectors):
            raise ValueError("no nonzero PC changes to recognize from")
        candidates = list(self.store)
        if adreno_model is not None:
            from repro.android.os_config import PHONE_MODELS

            matching = [
                model
                for model in candidates
                if PHONE_MODELS.get(str(model.metadata.get("config", "")).split("/")[0])
                and PHONE_MODELS[str(model.metadata["config"]).split("/")[0]].gpu.model
                == adreno_model
            ]
            if matching:
                candidates = matching
        scores = {model.model_key: self._score(model, vectors, present) for model in candidates}
        best_key = min(scores, key=scores.get)
        return RecognitionResult(model_key=best_key, score=scores[best_key], scores=scores)
