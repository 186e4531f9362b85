"""Random forest classifier (from scratch, numpy only).

The strongest of the paper's Table 2 baselines (~14 %).  CART-style trees
with Gini impurity, bootstrap sampling and random feature subsets at each
split; prediction by majority vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np


@dataclass
class _Leaf:
    label: str


@dataclass
class _Split:
    feature: int
    threshold: float
    left: Union["_Split", _Leaf]
    right: Union["_Split", _Leaf]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


class DecisionTree:
    """A single CART tree on encoded integer labels.

    Each split tries ``sqrt(n_features)`` random features; a node with
    fewer than :attr:`MIN_SAMPLES_SPLIT` samples is a leaf.
    """

    MIN_SAMPLES_SPLIT = 2

    def __init__(
        self,
        max_depth: int = 12,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.max_depth = max_depth
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.classes_: List[str] = []
        self._root: Union[_Split, _Leaf, None] = None

    def fit(self, X: np.ndarray, y: Sequence[str]) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        self.classes_ = sorted(set(y))
        index = {label: i for i, label in enumerate(self.classes_)}
        codes = np.asarray([index[label] for label in y])
        self._root = self._build(X, codes, depth=0)
        return self

    def _majority(self, codes: np.ndarray) -> _Leaf:
        counts = np.bincount(codes, minlength=len(self.classes_))
        return _Leaf(label=self.classes_[int(np.argmax(counts))])

    def _build(self, X: np.ndarray, codes: np.ndarray, depth: int) -> Union[_Split, _Leaf]:
        if (
            depth >= self.max_depth
            or len(codes) < self.MIN_SAMPLES_SPLIT
            or len(np.unique(codes)) == 1
        ):
            return self._majority(codes)

        n_features = X.shape[1]
        k = max(1, int(np.sqrt(n_features)))
        candidates = self.rng.choice(n_features, size=min(k, n_features), replace=False)

        best_gain, best_feature, best_threshold = 0.0, None, 0.0
        parent_counts = np.bincount(codes, minlength=len(self.classes_))
        parent_gini = _gini(parent_counts)
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_vals = values[order]
            sorted_codes = codes[order]
            left_counts = np.zeros(len(self.classes_))
            right_counts = parent_counts.astype(float).copy()
            n = len(codes)
            for i in range(n - 1):
                c = sorted_codes[i]
                left_counts[c] += 1
                right_counts[c] -= 1
                if sorted_vals[i] == sorted_vals[i + 1]:
                    continue
                weight_l = (i + 1) / n
                gain = parent_gini - (
                    weight_l * _gini(left_counts) + (1 - weight_l) * _gini(right_counts)
                )
                if gain > best_gain:
                    best_gain = gain
                    best_feature = int(feature)
                    best_threshold = 0.5 * (sorted_vals[i] + sorted_vals[i + 1])

        if best_feature is None:
            return self._majority(codes)
        mask = X[:, best_feature] <= best_threshold
        left = self._build(X[mask], codes[mask], depth + 1)
        right = self._build(X[~mask], codes[~mask], depth + 1)
        return _Split(feature=best_feature, threshold=best_threshold, left=left, right=right)

    def predict_one(self, row: np.ndarray) -> str:
        node = self._root
        if node is None:
            raise RuntimeError("tree is not fitted")
        while isinstance(node, _Split):
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.label

    def predict(self, X: np.ndarray) -> List[str]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return [self.predict_one(row) for row in X]


class RandomForest:
    """Bagged decision trees with majority voting."""

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 12,
        seed: int = 0,
    ) -> None:
        if n_trees <= 0:
            raise ValueError("n_trees must be positive")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: List[DecisionTree] = []
        self.classes_: List[str] = []

    def fit(self, X: np.ndarray, y: Sequence[str]) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = list(y)
        self.classes_ = sorted(set(y))
        rng = np.random.default_rng(self.seed)
        self.trees = []
        n = X.shape[0]
        for _ in range(self.n_trees):
            rows = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                rng=np.random.default_rng(int(rng.integers(1 << 31))),
            )
            tree.fit(X[rows], [y[i] for i in rows])
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> List[str]:
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out: List[str] = []
        for row in X:
            votes: Dict[str, int] = {}
            for tree in self.trees:
                label = tree.predict_one(row)
                votes[label] = votes.get(label, 0) + 1
            out.append(max(sorted(votes), key=lambda k: votes[k]))
        return out

    def score(self, X: np.ndarray, y: Sequence[str]) -> float:
        predictions = self.predict(X)
        return sum(p == t for p, t in zip(predictions, y)) / len(y)
