"""Tests for the from-scratch classifiers and the Nvidia baseline substrate."""

import numpy as np
import pytest

from repro.baselines.knn import KNearestNeighbors
from repro.baselines.naive_bayes import GaussianNaiveBayes
from repro.baselines.nvidia import (
    DESKTOP_CONTEXTS,
    NVIDIA_METRICS,
    DesktopGpuSampler,
    GEDIT,
)
from repro.baselines.random_forest import DecisionTree, RandomForest


def separable_data(rng, n_per_class=30):
    """Three well-separated Gaussian blobs."""
    X, y = [], []
    for i, label in enumerate(["a", "b", "c"]):
        X.append(rng.normal(loc=i * 10.0, scale=0.5, size=(n_per_class, 4)))
        y.extend([label] * n_per_class)
    return np.vstack(X), y


class TestNaiveBayes:
    def test_high_accuracy_on_separable_data(self, rng):
        X, y = separable_data(rng)
        clf = GaussianNaiveBayes().fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianNaiveBayes().predict(np.zeros((1, 4)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes().fit(np.zeros(4), ["a"])
        with pytest.raises(ValueError):
            GaussianNaiveBayes().fit(np.zeros((2, 4)), ["a"])

    def test_constant_feature_does_not_crash(self, rng):
        X = np.ones((10, 3))
        X[:5, 0] = 2.0
        y = ["a"] * 5 + ["b"] * 5
        clf = GaussianNaiveBayes().fit(X, y)
        assert clf.predict(np.array([[2.0, 1.0, 1.0]])) == ["a"]

    def test_priors_break_ties(self, rng):
        X = np.vstack([np.zeros((9, 2)), np.zeros((1, 2))])
        y = ["common"] * 9 + ["rare"] * 1
        clf = GaussianNaiveBayes().fit(X, y)
        assert clf.predict(np.zeros((1, 2))) == ["common"]


class TestKnn:
    def test_high_accuracy_on_separable_data(self, rng):
        X, y = separable_data(rng)
        clf = KNearestNeighbors(3).fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(0)

    def test_needs_k_samples(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(3).fit(np.zeros((2, 2)), ["a", "b"])

    def test_single_neighbour_is_nearest(self, rng):
        X = np.array([[0.0], [10.0], [20.0]])
        y = ["a", "b", "c"]
        clf = KNearestNeighbors(1).fit(X, y)
        assert clf.predict(np.array([[9.0]])) == ["b"]

    def test_majority_vote(self, rng):
        X = np.array([[0.0], [0.1], [5.0]])
        y = ["a", "a", "b"]
        clf = KNearestNeighbors(3).fit(X, y)
        assert clf.predict(np.array([[0.05]])) == ["a"]

    def test_standardization_prevents_scale_domination(self, rng):
        # feature 0 separates classes; feature 1 is huge noise
        X = np.vstack(
            [
                np.column_stack([np.zeros(20), rng.normal(0, 1e6, 20)]),
                np.column_stack([np.ones(20), rng.normal(0, 1e6, 20)]),
            ]
        )
        y = ["a"] * 20 + ["b"] * 20
        clf = KNearestNeighbors(3).fit(X, y)
        test = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert clf.predict(test) == ["b", "a"]


class TestRandomForest:
    def test_high_accuracy_on_separable_data(self, rng):
        X, y = separable_data(rng)
        clf = RandomForest(n_trees=10, seed=1).fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_tree_carves_bimodal_class(self, rng):
        """A bimodal class (the split-read regime of the Nvidia substrate)
        needs two threshold cuts; the tree finds both modes."""
        xs = np.array([0.0, 10.0] * 20 + [5.0] * 20)[:, None]
        y = ["a"] * 40 + ["b"] * 20
        tree = DecisionTree(max_depth=4, rng=np.random.default_rng(0))
        tree.fit(xs, y)
        assert tree.predict(np.array([[5.0]])) == ["b"]
        assert tree.predict(np.array([[0.0]])) == ["a"]
        assert tree.predict(np.array([[10.0]])) == ["a"]

    def test_forest_is_deterministic_given_seed(self, rng):
        X, y = separable_data(rng)
        a = RandomForest(n_trees=5, seed=3).fit(X, y).predict(X[:10])
        b = RandomForest(n_trees=5, seed=3).fit(X, y).predict(X[:10])
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2)))


class TestNvidiaSubstrate:
    def test_three_contexts_from_table2(self):
        assert sorted(DESKTOP_CONTEXTS) == ["dropbox_client", "gedit", "gmail_web"]

    def test_five_metrics(self):
        assert len(NVIDIA_METRICS) == 5

    def test_features_have_metric_dimension(self, rng):
        sampler = DesktopGpuSampler(GEDIT, rng=rng)
        assert sampler.keypress_features("a").shape == (len(NVIDIA_METRICS),)

    def test_collect_shape(self, rng):
        sampler = DesktopGpuSampler(GEDIT, rng=rng)
        X, y = sampler.collect("abc", repeats=4)
        assert X.shape == (12, 5)
        assert y == list("abc") * 4

    def test_table2_regime_all_below_20_percent(self):
        """The headline Table 2 claim: workload-level counters cannot
        resolve key presses — every classifier stays under ~20 %."""
        chars = "abcdefghijklmnopqrstuvwxyz"
        sampler = DesktopGpuSampler(GEDIT, rng=np.random.default_rng(0))
        Xtr, ytr = sampler.collect(chars, repeats=10)
        Xte, yte = sampler.collect(chars, repeats=5)
        for clf in (
            GaussianNaiveBayes(),
            KNearestNeighbors(3),
            RandomForest(n_trees=20, seed=1),
        ):
            assert clf.fit(Xtr, ytr).score(Xte, yte) < 0.20

    def test_signal_is_above_chance_with_no_noise(self):
        """Sanity check on the signal model: with ambient noise silenced,
        characters are separable — the baseline's failure is the noise."""
        from repro.baselines.nvidia import DesktopContext

        quiet = DesktopContext(name="quiet", noise_scale=1e-6, baseline_load=0.1)
        sampler = DesktopGpuSampler(quiet, rng=np.random.default_rng(0))
        Xtr, ytr = sampler.collect("abcdefgh", repeats=8)
        Xte, yte = sampler.collect("abcdefgh", repeats=4)
        clf = RandomForest(n_trees=20, seed=1).fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.5
