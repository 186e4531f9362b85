"""The per-configuration classification model (paper Section 5.1, Fig 12).

The model holds one centroid per *class* in the 11-dimensional counter
space.  Classes come in two kinds:

* **key classes** (``key:<char>``) — the first PC value change of each key
  press, the signal used for eavesdropping;
* **reject classes** — every other recurring screen change the offline
  phase observes: text-field redraws (``field:<n>``, which carry the
  input-length signal of Section 5.3), popup dismissals, notification-bar
  redraws, app-switch frames.  Training explicit reject classes is how the
  model "distinguish[es] between GPU hardware events caused by key presses
  and other system factors".

Classification is nearest-centroid under a per-dimension normalized
Euclidean distance, thresholded by ``cth`` — the paper's classification
threshold :math:`C_{th}`, "decided accordingly to eliminate any false
positives".  Distances above ``cth`` classify as ``None`` (system noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import features

KEY_PREFIX = "key:"
FIELD_PREFIX = "field:"


def scaled_sq_dists(
    rows: np.ndarray,
    centroids: np.ndarray,
    centroid_sq: Optional[np.ndarray] = None,
    blas: bool = False,
) -> np.ndarray:
    """Squared Euclidean distances between every row and every centroid.

    ``rows`` is ``(n, d)`` and ``centroids`` is ``(c, d)``, both already in
    the model's scaled feature space; the result is ``(n, c)``.  Expanding
    ``||r - c||^2 = ||r||^2 - 2 r.c + ||c||^2`` turns the n*c difference
    rows into one product, which is what makes batch classification and
    the offline radius fit scale.  Cancellation can push tiny distances a
    few ulps below zero, so the result is clamped at 0.

    ``centroid_sq`` lets callers reuse a precomputed ``||c||^2`` vector.
    ``blas=True`` (the offline radius fit, whose model bytes are pinned)
    takes the BLAS product; online lookups take :func:`_cross`.
    """
    if centroid_sq is None:
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
    cross = rows @ centroids.T if blas else _cross(rows, centroids)
    sq = np.einsum("ij,ij->i", rows, rows)[:, None] - 2.0 * cross + centroid_sq[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _cross(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``rows @ centroids.T``, every entry summed in one fixed order.

    BLAS takes GEMV for one row and GEMM for several, and the two round
    differently in the last bits.  ``einsum`` sums each entry the same
    way whatever the row count, so a lookup never depends on how many
    rows shared its pass.
    """
    return np.einsum("ij,kj->ik", rows, centroids)


def _row_sq(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


#: Safety margin ``cth`` keeps over the worst offline intra-class radius.
CTH_MARGIN = 2.0
#: Lower bound on ``cth`` (normalized units).
MIN_CTH = 0.35

#: Composite changes carry the jitter of two independent frames, so their
#: acceptance threshold scales by ~sqrt(2) over the single-frame cth.
COMPOSITE_CTH_FACTOR = 1.6

#: Classes a composite lookup may subtract before matching a key.
SUBTRACT_PREFIXES = ("reject:dismiss", FIELD_PREFIX)

#: Rows' worth of (block, key) cells per composite scoring chunk: a
#: chunk's two gather buffers hold 16 x 108 x 80 cells, ~1 MB, together.
COMPOSITE_CHUNK = 16

#: The fewest full rows a bounded :meth:`ClassificationModel.classify_batch`
#: tests against the centroid box before scoring.
_BOUNDED_MIN_ROWS = 16

#: Rounding slack of the box and composite block bounds, per unit of the
#: terms' magnitude: several times the float error of either side of a
#: bound.
_BOUND_SLACK = 256 * np.finfo(float).eps


class _CompositeGrid:
    """The composite candidate grid of one model view: every subtraction
    candidate (dismiss or field centroid) plus every key centroid, in
    scaled space, with the cells' squared norms as an (S, K) block.

    For block ``s`` and any row ``v``, every cell score ``||s+k||^2 -
    2 (s+k).v`` is at least ``-2 s.v + floor[s] + min_k(||k||^2 - 2 k.v)``
    with ``floor[s] = ||s||^2 + min_k 2 s.k``.  Every term of that bound
    and of the cells is at most ``reach * ||v|| + magnitude`` in size,
    which scales the bound's rounding slack.  Every cell lies in the box
    ``[low, high]`` the cells span, so a row's distance to that box
    bounds its distance to every cell.
    """

    def __init__(self, labels: Sequence[str], scaled: np.ndarray) -> None:
        self.sub_rows = [i for i, label in enumerate(labels) if label.startswith(SUBTRACT_PREFIXES)]
        self.key_rows = [i for i, label in enumerate(labels) if label.startswith(KEY_PREFIX)]
        self.subs = scaled[self.sub_rows]
        self.keys = scaled[self.key_rows]
        grid = (self.subs[:, None, :] + self.keys[None, :, :]).reshape(-1, scaled.shape[1])
        self.norms = np.einsum("ij,ij->i", grid, grid).reshape(len(self.subs), len(self.keys))
        #: field length each block subtracts (None for dismiss blocks)
        self.lengths = [
            int(labels[i].split(":")[1]) if labels[i].startswith(FIELD_PREFIX) else None
            for i in self.sub_rows
        ]
        #: blocks every length restriction keeps
        self.dismiss = np.array([s for s, n in enumerate(self.lengths) if n is None], dtype=np.intp)
        self._allowed: Dict[Tuple[int, ...], np.ndarray] = {}
        if self.norms.size:
            self.key_sq = _row_sq(self.keys)
            sub_sq = _row_sq(self.subs)
            self.floor = sub_sq + (2.0 * _cross(self.subs, self.keys)).min(axis=1)
            self.reach = 2.0 * (np.sqrt(sub_sq.max()) + np.sqrt(self.key_sq.max()))
            self.magnitude = 2.0 * (sub_sq.max() + self.key_sq.max()) + self.norms.max()
            self.low, self.high = grid.min(axis=0), grid.max(axis=0)

    def allowed(self, field_lengths: Sequence[int]) -> np.ndarray:
        """Blocks a length restriction keeps: dismisses and near lengths."""
        lengths = tuple(field_lengths)
        mask = self._allowed.get(lengths)
        if mask is None:
            keep = set(lengths)
            mask = np.array([n is None or n in keep for n in self.lengths], dtype=bool)
            self._allowed[lengths] = mask
        return mask

    def candidates(self, sub_dot, key_dot, row_sq) -> np.ndarray:
        """The (row, block) pairs that can hold a pick, as an (n, S) mask.

        Each row's dismiss block of least bound is scored exactly; a
        block stays in when its bound, less the rounding slack, does not
        exceed that score.  Without dismiss blocks every block stays.
        """
        n = len(sub_dot)
        if not len(self.dismiss):
            return np.ones((n, len(self.subs)), dtype=bool)
        slack = self.reach * np.sqrt(row_sq)
        slack += self.magnitude
        slack *= _BOUND_SLACK
        floor = (key_dot + self.key_sq).min(axis=1)
        floor -= slack
        bound = sub_dot + self.floor
        bound += floor[:, None]
        rows = np.arange(n)
        best = self.dismiss[bound[:, self.dismiss].argmin(axis=1)]
        dismiss = key_dot + sub_dot[rows, best][:, None]
        dismiss += self.norms[best]
        return bound <= dismiss.min(axis=1)[:, None]

    def score(self, sub_dot, key_dot, rows, blocks, block_min, block_key) -> None:
        """Score the (row, block) pairs ``zip(rows, blocks)`` over every
        key into ``block_min``/``block_key``.  A cell is ``(sub_dot +
        key_dot) + norm``, the sum the whole grid takes; pairs are
        gathered a chunk of at most COMPOSITE_CHUNK rows' cells at a time."""
        keys = self.norms.shape[1]
        step = max(1, COMPOSITE_CHUNK * len(self.subs) // 2)
        gathered, norms = np.empty((2, min(step, len(rows)), keys))
        for lo in range(0, len(rows), step):
            r, s = rows[lo : lo + step], blocks[lo : lo + step]
            # indices are in range: "clip" lets take() fill ``out`` unbuffered
            scores = np.take(key_dot, r, axis=0, out=gathered[: len(r)], mode="clip")
            scores += sub_dot[r, s][:, None]
            scores += np.take(self.norms, s, axis=0, out=norms[: len(r)], mode="clip")
            arg = scores.argmin(axis=1)
            block_key[r, s] = arg
            block_min[r, s] = scores[np.arange(len(r)), arg]


@dataclass(frozen=True)
class Classification:
    """Result of classifying one PC value change.

    ``confidence`` is 1.0 for a full-vector classification and the
    fraction of feature dimensions actually observed when the vector was
    masked (counters reclaimed by another client) — the downstream
    engine uses it to flag low-confidence keys.
    """

    label: Optional[str]
    distance: float
    confidence: float = 1.0

    @property
    def is_key(self) -> bool:
        return self.label is not None and self.label.startswith(KEY_PREFIX)

    @property
    def is_field(self) -> bool:
        return self.label is not None and self.label.startswith(FIELD_PREFIX)

    @property
    def key_char(self) -> Optional[str]:
        if not self.is_key:
            return None
        return self.label[len(KEY_PREFIX):]

    @property
    def field_length(self) -> Optional[int]:
        if not self.is_field:
            return None
        return int(self.label[len(FIELD_PREFIX):].split(":")[0])


def _classification(
    label: Optional[str], distance: float, confidence: float = 1.0
) -> Classification:
    """A :class:`Classification` built without the frozen dataclass
    ``__init__``, which sets each field through ``object.__setattr__``:
    the batch paths build one per scored row.  Fields, equality and
    frozenness stay the dataclass's own."""
    result = object.__new__(Classification)
    object.__setattr__(
        result, "__dict__", {"label": label, "distance": distance, "confidence": confidence}
    )
    return result


#: What a lookup reads for a row no centroid explains, or no composite
#: restriction can read as a key, when a bound rules it out unscored.
UNEXPLAINED = Classification(label=None, distance=math.inf)


class ClassificationModel:
    """Nearest-centroid model for one (device configuration, app) pair."""

    def __init__(
        self,
        labels: Sequence[str],
        centroids: np.ndarray,
        scale: np.ndarray,
        cth: float,
        model_key: str = "",
        metadata: Optional[Dict[str, object]] = None,
        deflate_direction: Optional[np.ndarray] = None,
    ) -> None:
        if centroids.ndim != 2 or centroids.shape[1] != features.DIMENSIONS:
            raise ValueError(
                f"centroids must be (n, {features.DIMENSIONS}), got {centroids.shape}"
            )
        if len(labels) != centroids.shape[0]:
            raise ValueError("labels and centroids length mismatch")
        if cth <= 0:
            raise ValueError("cth must be positive")
        self.labels = list(labels)
        self.centroids = centroids.astype(float)
        self.scale = scale.astype(float)
        self.cth = float(cth)
        self.model_key = model_key
        self.metadata = dict(metadata or {})
        self.deflate_direction = (
            None if deflate_direction is None else np.asarray(deflate_direction, dtype=float)
        )
        self._scaled = self._transform_rows(self.centroids / self.scale)
        self._scaled_sq = np.einsum("ij,ij->i", self._scaled, self._scaled)
        #: the box the scaled centroids span, and the squared box distance
        #: beyond which a row is no centroid's (:meth:`_beyond_reach`)
        self._box = (self._scaled.min(axis=0), self._scaled.max(axis=0))
        self._far = (
            self.cth * self.cth * (1.0 + _BOUND_SLACK)
            + 2.0 * _BOUND_SLACK * float(self._scaled_sq.max())
        )
        # raw (undeflated) scaled centroids for the masked path, which
        # operates in a subspace where the deflate direction is meaningless
        self._unit = self.centroids / self.scale
        self._unit_sq = self._unit ** 2
        self._composite: Optional[_CompositeGrid] = None

    def _transform_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply the deflation projection (if any) to scaled-space rows."""
        if self.deflate_direction is None:
            return rows
        u = self.deflate_direction
        return rows - np.einsum("ij,j->i", rows, u)[:, None] * u

    def with_deflation(self, direction: np.ndarray) -> "ClassificationModel":
        """A view of this model operating in the subspace orthogonal to
        ``direction`` (a unit vector in scaled feature space).

        Used against concurrent GPU workloads (Fig 22b): a background app
        adds an increment of unknown magnitude but stable direction to
        every counter read; classifying with that direction projected out
        of both observations and centroids removes the contamination.
        """
        return ClassificationModel(
            labels=self.labels,
            centroids=self.centroids,
            scale=self.scale,
            cth=self.cth,
            model_key=self.model_key,
            metadata=self.metadata,
            deflate_direction=direction,
        )

    # ------------------------------------------------------------------

    def classify(self, vec: np.ndarray) -> Classification:
        """Nearest centroid with threshold; O(classes x dims) vectorized.

        This is the "inference" the paper times at <0.1 ms (Fig 25).
        Delegates to :meth:`classify_batch` with a single row so the
        streaming and batched paths share one numeric kernel and cannot
        drift.
        """
        return self.classify_batch(vec[None, :])[0]

    def classify_vector_masked(
        self, vec: np.ndarray, present: np.ndarray
    ) -> Classification:
        """Nearest centroid over the *observed* dimensions only.

        When counters are missing from a delta (register reclaimed by
        another KGSL client), their dimensions carry no information, so
        the distance is computed over the present dimensions and scaled
        by ``sqrt(D/d)`` to stay comparable with the full-vector ``cth``
        (the expected squared distance grows linearly with dimensions).
        Deflation is skipped: the deflate direction is not meaningful in
        a subspace.  ``confidence`` reports the observed fraction d/D.
        Like :meth:`classify`, a one-row :meth:`classify_batch`.
        """
        present = np.asarray(present, dtype=bool)
        return self.classify_batch(vec[None, :], present[None, :])[0]

    def classify_batch(
        self, matrix: np.ndarray, present: Optional[np.ndarray] = None, bounded: bool = False
    ) -> List[Classification]:
        """Classify ``n`` feature rows against every centroid in one pass.

        ``matrix`` is ``(n, DIMENSIONS)``; ``present`` is an optional
        boolean mask of the same shape marking which dimensions were
        actually observed per row (``None`` means fully observed).  Rows
        split into two vectorized sub-batches:

        * **full rows** (all dimensions present) go through the deflated
          scaled space exactly like :meth:`classify` always has;
        * **masked rows** compute distances over their present dimensions
          only — the per-row dimension counts ``d`` give the ``sqrt(D/d)``
          threshold correction and the ``d/D`` confidence — using a
          mask-weighted expansion of the same GEMM (missing dimensions
          are zeroed out of all three terms), so no per-mask centroid
          slicing is needed.

        The single-vector entry points delegate here, which is what makes
        the ≥5x batch speedup at n=256 free of semantic drift.

        With ``bounded``, a full row the centroid box bound rules out
        (:meth:`_beyond_reach`) is not scored: it reads as
        :data:`UNEXPLAINED`, label ``None`` at an infinite distance, the
        label scoring gives it.  A call with fewer than
        :data:`_BOUNDED_MIN_ROWS` full rows scores them all, which costs
        about what the bound does.  The online engine, which reads no
        distance of an unexplained lookup, scores this way.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != features.DIMENSIONS:
            raise ValueError(
                f"matrix must be (n, {features.DIMENSIONS}), got {matrix.shape}"
            )
        n = matrix.shape[0]
        if n == 0:
            return []
        dims = features.DIMENSIONS
        if present is None:
            counts = np.full(n, dims)
            full_rows = np.ones(n, dtype=bool)
        else:
            present = np.asarray(present, dtype=bool)
            if present.shape != matrix.shape:
                raise ValueError("present mask must match matrix shape")
            counts = present.sum(axis=1)
            full_rows = counts == dims
        distances = np.empty(n)
        best = np.zeros(n, dtype=int)
        confidence = np.ones(n)
        if full_rows.any():
            scaled = self._transform_rows(matrix[full_rows] / self.scale)
            scored = full_rows
            if bounded and len(scaled) >= _BOUNDED_MIN_ROWS:
                far = self._beyond_reach(scaled)
                if far.any():
                    distances[full_rows] = np.inf
                    scored = np.flatnonzero(full_rows)[~far]
                    scaled = scaled[~far]
            sq = scaled_sq_dists(scaled, self._scaled, self._scaled_sq)
            idx = np.argmin(sq, axis=1)
            distances[scored] = np.sqrt(sq[np.arange(len(idx)), idx])
            best[scored] = idx
        if present is not None and not full_rows.all():
            masked_rows = ~full_rows & (counts > 0)
            if masked_rows.any():
                mask = present[masked_rows]
                observed = np.where(mask, matrix[masked_rows] / self.scale, 0.0)
                sq = (
                    _row_sq(observed)[:, None]
                    - 2.0 * _cross(observed, self._unit)
                    + _cross(mask.astype(float), self._unit_sq)
                )
                np.maximum(sq, 0.0, out=sq)
                idx = np.argmin(sq, axis=1)
                d = counts[masked_rows]
                distances[masked_rows] = np.sqrt(
                    sq[np.arange(len(idx)), idx]
                ) * np.sqrt(dims / d)
                best[masked_rows] = idx
                confidence[masked_rows] = d / dims
            empty_rows = counts == 0
            distances[empty_rows] = np.inf
            confidence[empty_rows] = 0.0
        labels, cth = self.labels, self.cth
        return [
            UNEXPLAINED
            if distance == math.inf and conf == 1.0
            else _classification(labels[index] if distance <= cth else None, distance, conf)
            for index, distance, conf in zip(
                best.tolist(), distances.tolist(), confidence.tolist()
            )
        ]

    def _beyond_reach(self, scaled: np.ndarray) -> np.ndarray:
        """Which scaled full rows no centroid explains, by a bound.

        A row's squared distance to the box the centroids span bounds its
        squared distance to every centroid from below.  A scored squared
        distance ``|r|^2 - 2 r.c + |c|^2`` errs by a few ulps of
        ``(|r| + |c|)^2 <= 2 (|r|^2 + |c|^2)``; the mask is ``True`` only
        for rows whose box distance, less that slack, lies beyond ``cth``.
        """
        gap = _row_sq(np.clip(scaled, *self._box) - scaled)
        gap -= (2.0 * _BOUND_SLACK) * _row_sq(scaled)
        return gap > self._far

    def composite_reachable(self, matrix: np.ndarray) -> np.ndarray:
        """Which of ``n`` full rows :meth:`pick_composites` may read as a
        key under some field-length restriction, as an ``(n,)`` mask.

        A row's squared distance to the box the grid cells span bounds
        its squared distance to every cell from below.  A row whose box
        distance, less the rounding slack of a scored distance, lies
        beyond the composite acceptance radius is no key under any
        restriction; the mask is ``False`` only for such rows.
        """
        grid = self._composite_grid()
        if not grid.norms.size:
            return np.zeros(len(matrix), dtype=bool)
        scaled = self._transform_rows(np.asarray(matrix, dtype=float) / self.scale)
        gap = _row_sq(np.maximum(grid.low - scaled, 0.0))
        gap += _row_sq(np.maximum(scaled - grid.high, 0.0))
        row_sq = _row_sq(scaled)
        slack = grid.reach * np.sqrt(row_sq)
        slack += row_sq + grid.magnitude
        slack *= _BOUND_SLACK
        radius = self.cth * COMPOSITE_CTH_FACTOR
        return gap - slack <= radius * radius * (1.0 + _BOUND_SLACK)

    def composite_scores(
        self, matrix: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Composite scores of ``n`` full rows, reduced per subtraction block.

        Returns ``(block_min, block_key, row_sq)``: ``block_min[r, s]`` is
        row r's best ``||g||^2 - 2 g.v`` over the grid cells that subtract
        candidate ``s``, ``block_key[r, s]`` the first key reaching it, and
        ``row_sq[r]`` the ``||v||^2`` that completes a squared distance.

        Only the blocks :meth:`_CompositeGrid.candidates` keeps are
        scored; the rest read ``inf``.  A dropped block's minimum lies
        above the row's dismiss minimum, and every length restriction
        keeps the dismiss blocks, so a dropped block is never a pick: the
        picks of :meth:`pick_composites` and their distances are the full
        grid's bit for bit.
        """
        grid = self._composite_grid()
        scaled = self._transform_rows(np.asarray(matrix, dtype=float) / self.scale)
        n, (blocks, keys) = len(scaled), grid.norms.shape
        block_min = np.full((n, blocks), np.inf)
        block_key = np.zeros((n, blocks), dtype=np.intp)
        row_sq = _row_sq(scaled)
        if n and blocks and keys:
            # -2 g.v for the cell g = s + k, as -2 s.v + -2 k.v: doubling
            # is exact, so this equals -2 (s.v + k.v) bit for bit
            sub_dot = -2.0 * _cross(scaled, grid.subs)
            key_dot = -2.0 * _cross(scaled, grid.keys)
            keep = grid.candidates(sub_dot, key_dot, row_sq)
            grid.score(sub_dot, key_dot, *np.nonzero(keep), block_min, block_key)
        return block_min, block_key, row_sq

    def pick_composites(
        self,
        block_min: np.ndarray,
        block_key: np.ndarray,
        row_sq: np.ndarray,
        field_lengths: Optional[Sequence[int]] = None,
    ) -> List[Classification]:
        """Every row's composite classification from its block scores.

        Fast typing can land the previous popup's dismissal — or a text
        field redraw (echo, cursor blink) — in the same counter read as
        the next key press; the composite change is then the sum of a
        known signature and a press signature, and the nearest
        ``vec - centroid`` residual names the press.

        ``field_lengths`` restricts field-family subtraction candidates to
        lengths near the correction tracker's current estimate (the
        attacker knows how long the input is, so distant lengths are
        impossible); it masks whole blocks, so each row's first minimal
        block and its first minimal key are the full grid's first-index
        argmin.  A row with no finite block is no key at infinite
        distance.
        """
        grid = self._composite_grid()
        n, blocks = block_min.shape
        if not blocks:
            return [Classification(label=None, distance=math.inf) for _ in range(n)]
        if field_lengths is not None:
            block_min = np.where(grid.allowed(field_lengths), block_min, np.inf)
        rows = np.arange(n)
        block = block_min.argmin(axis=1)
        best = block_min[rows, block]
        finite = np.isfinite(best)
        distance = np.sqrt(np.maximum(best + row_sq, 0.0))
        distance[~finite] = np.inf
        accept = finite & ~(distance > self.cth * COMPOSITE_CTH_FACTOR)
        labels, key_rows = self.labels, grid.key_rows
        return [
            _classification(labels[key_rows[key]] if ok else None, d)
            for key, ok, d in zip(
                block_key[rows, block].tolist(), accept.tolist(), distance.tolist()
            )
        ]

    def _composite_grid(self) -> "_CompositeGrid":
        if self._composite is None:
            self._composite = _CompositeGrid(self.labels, self._scaled)
        return self._composite

    # ------------------------------------------------------------------

    @property
    def key_labels(self) -> List[str]:
        return [label for label in self.labels if label.startswith(KEY_PREFIX)]

    @cached_property
    def key_totals(self) -> List[float]:
        """Each key centroid's raw total, in label order."""
        return [
            float(row.sum())
            for label, row in zip(self.labels, self.centroids)
            if label.startswith(KEY_PREFIX)
        ]

    def centroid(self, label: str) -> np.ndarray:
        return self.centroids[self.labels.index(label)]

    def size_bytes(self) -> int:
        """Serialized model size — the paper reports ~3.59 KB per model."""
        return len(self.to_json().encode("utf-8"))

    # ------------------------------------------------------------------
    # Serialization (the models are preloaded into the attack APK)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "model_key": self.model_key,
            "labels": self.labels,
            "centroids": [[round(x, 2) for x in row] for row in self.centroids.tolist()],
            "scale": [round(x, 4) for x in self.scale.tolist()],
            "cth": self.cth,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ClassificationModel":
        return cls(
            labels=list(data["labels"]),  # type: ignore[arg-type]
            centroids=np.array(data["centroids"], dtype=float),
            scale=np.array(data["scale"], dtype=float),
            cth=float(data["cth"]),  # type: ignore[arg-type]
            model_key=str(data.get("model_key", "")),
            metadata=dict(data.get("metadata") or {}),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassificationModel":
        import json

        return cls.from_dict(json.loads(text))


def _group_median(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column medians of consecutive row groups, ``counts[g]`` rows for
    group ``g``: one row per group, bit for bit ``np.median(group,
    axis=0)``.  Each group's columns are sorted, then the two middle
    values (the one middle value twice, for an odd count) are averaged
    as ``(a + b) / 2``, the mean of two that ``np.median`` takes.

    The columns are sorted all at once: each by value, and then, stably,
    by group, which leaves each group's rows in value order.  Groups are
    numbered in the smallest integer type that holds them, which numpy
    sorts stably by radix up to 16 bits."""
    ends = np.cumsum(counts)
    first = ends - counts
    columns = matrix.T
    group = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    by_value = columns.argsort(axis=1)
    by_group = group[by_value].argsort(axis=1, kind="stable")
    ranked = np.take_along_axis(columns, np.take_along_axis(by_value, by_group, axis=1), axis=1)
    medians = (ranked[:, first + (counts - 1) // 2] + ranked[:, first + counts // 2]) / 2
    return np.ascontiguousarray(medians.T)


def build_model(
    samples_by_label: Mapping[str, Sequence[np.ndarray]],
    model_key: str = "",
    metadata: Optional[Dict[str, object]] = None,
) -> ClassificationModel:
    """Fit centroids and the classification threshold from labeled samples.

    ``cth`` follows the paper's procedure: large enough to absorb the worst
    intra-class spread observed offline (times a safety margin) so genuine
    key presses are never rejected.  False positives on recurring system
    events are prevented structurally — every such event has its own
    reject centroid, which is always nearer than any key centroid — while
    out-of-vocabulary changes (merged events, other-app activity) fall
    outside ``cth`` of everything and classify as noise.  Pairs of nearly
    identical key popups (',' vs '.') remain nearest-centroid rivals, which
    is exactly where the paper's Fig 18 errors concentrate.
    """
    labels = sorted(label for label, vectors in samples_by_label.items() if len(vectors))
    if not labels:
        raise ValueError("no labeled samples to build a model from")
    blocks = [np.asarray(samples_by_label[label], dtype=float) for label in labels]
    centroids = _group_median(np.concatenate(blocks), np.array([len(b) for b in blocks]))
    # Only key classes matter for the scale and the threshold.  The
    # normalization scale must reflect the *discriminative* spread — the
    # differences between key popups — not the huge full-screen
    # transition classes, which would otherwise collapse all key clusters
    # onto each other in normalized space.  And cth must accept every
    # genuine key press; reject classes win by proximity, not by
    # threshold.
    relevant = [i for i, label in enumerate(labels) if label.startswith(KEY_PREFIX)]
    relevant = relevant or list(range(len(labels)))
    scale = features.robust_scale(np.concatenate([blocks[i] for i in relevant]))

    # Worst intra-class radius in normalized space.
    intra = 0.0
    for i in relevant:
        # the online lookups' expansion, on the BLAS product the pinned
        # model bytes were fitted with
        sq = scaled_sq_dists(blocks[i] / scale, (centroids[i] / scale)[None, :], blas=True)
        intra = max(intra, float(np.sqrt(np.max(sq))))

    cth = max(MIN_CTH, intra * CTH_MARGIN)
    return ClassificationModel(
        labels=labels,
        centroids=centroids,
        scale=scale,
        cth=cth,
        model_key=model_key,
        metadata=metadata,
    )
