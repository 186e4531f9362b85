"""Tests for the feature space, and for the delta rows tests build."""

import numpy as np
import pytest

from repro.core import features
from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER
from tests.oracles import PcDelta, delta_batch, vectorize


class TestVectorize:
    def test_dimensions(self):
        assert features.DIMENSIONS == 11
        assert len(COUNTER_ORDER) == 11

    def test_vectorize_places_values_in_canonical_order(self):
        delta = PcDelta(t=1.0, prev_t=0.9, values={pc.RAS_8X4_TILES.counter_id: 42})
        vec = vectorize(delta)
        index = features.counter_index(pc.RAS_8X4_TILES)
        assert vec[index] == 42
        assert vec.sum() == 42
        assert delta_batch([delta]).rows[0].tolist() == vec.tolist()

    def test_unknown_counter_ids_ignored(self):
        delta = PcDelta(t=1.0, prev_t=0.9, values={(pc.CounterGroup.RAS, 99): 10})
        assert vectorize(delta).sum() == 0
        assert not delta_batch([delta]).rows.any()

    def test_vectorize_many_shape(self):
        ds = [
            PcDelta(t=float(i), prev_t=float(i) - 0.1, values={pc.RAS_8X4_TILES.counter_id: i})
            for i in range(1, 4)
        ]
        batch = delta_batch(ds)
        assert len(batch) == 3
        assert batch.rows.shape == batch.unknown.shape == (3, 11)

    def test_vectorize_many_empty(self):
        batch = delta_batch([])
        assert len(batch) == 0
        assert batch.rows.shape == (0, 11)


class TestScaleAndDistance:
    def test_robust_scale_floors_constant_dims(self):
        matrix = np.ones((5, features.DIMENSIONS))
        scale = features.robust_scale(matrix)
        assert np.all(scale == 1.0)

    def test_robust_scale_uses_std(self):
        matrix = np.zeros((4, features.DIMENSIONS))
        matrix[:, 0] = [0, 10, 20, 30]
        scale = features.robust_scale(matrix)
        assert scale[0] == pytest.approx(np.std(matrix[:, 0]))

    def test_robust_scale_empty(self):
        scale = features.robust_scale(np.zeros((0, features.DIMENSIONS)))
        assert np.all(scale == 1.0)

    def test_normalized_distance(self):
        a = np.zeros(features.DIMENSIONS)
        b = np.zeros(features.DIMENSIONS)
        b[0] = 10.0
        scale = np.full(features.DIMENSIONS, 2.0)
        assert features.normalized_distance(a, b, scale) == pytest.approx(5.0)

    def test_distance_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=11), rng.normal(size=11)
        scale = np.abs(rng.normal(size=11)) + 0.1
        assert features.normalized_distance(a, b, scale) == pytest.approx(
            features.normalized_distance(b, a, scale)
        )
