"""Tests for the nearest-centroid classification model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import features
from repro.core.classifier import (
    Classification,
    ClassificationModel,
    _group_median,
    build_model,
)
from tests.oracles import classify_composite


def vec(**kw):
    v = np.zeros(features.DIMENSIONS)
    for index, value in kw.items():
        v[int(index[1:])] = value
    return v


def toy_model(cth=5.0):
    labels = ["key:a", "key:b", "field:3:on", "reject:dismiss:a"]
    centroids = np.vstack(
        [
            vec(d0=100, d1=10),
            vec(d0=200, d1=20),
            vec(d0=50, d2=5),
            vec(d0=80, d3=8),
        ]
    )
    scale = np.ones(features.DIMENSIONS)
    return ClassificationModel(labels=labels, centroids=centroids, scale=scale, cth=cth, model_key="toy")


class TestClassification:
    def test_nearest_centroid_wins(self):
        model = toy_model()
        result = model.classify(vec(d0=101, d1=10))
        assert result.label == "key:a"
        assert result.is_key
        assert result.key_char == "a"

    def test_threshold_rejects_far_points(self):
        model = toy_model(cth=2.0)
        result = model.classify(vec(d0=150, d1=15))
        assert result.label is None
        assert not result.is_key

    def test_field_parsing(self):
        model = toy_model()
        result = model.classify(vec(d0=50, d2=5))
        assert result.is_field
        assert result.field_length == 3
        assert result.key_char is None

    def test_key_char_multicharacter_labels(self):
        c = Classification(label="key::", distance=0.0)
        assert c.key_char == ":"

    def test_reject_class_is_neither_key_nor_field(self):
        model = toy_model()
        result = model.classify(vec(d0=80, d3=8))
        assert result.label == "reject:dismiss:a"
        assert not result.is_key and not result.is_field


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClassificationModel(
                labels=["a"], centroids=np.zeros((1, 3)), scale=np.ones(3), cth=1.0
            )

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClassificationModel(
                labels=["a", "b"],
                centroids=np.zeros((1, features.DIMENSIONS)),
                scale=np.ones(features.DIMENSIONS),
                cth=1.0,
            )

    def test_nonpositive_cth_rejected(self):
        with pytest.raises(ValueError):
            toy_model(cth=0.0)


class TestBuildModel:
    def test_builds_centroids_from_medians(self):
        samples = {
            "key:a": [vec(d0=10), vec(d0=12), vec(d0=11)],
            "key:b": [vec(d0=100), vec(d0=104)],
        }
        model = build_model(samples, model_key="m")
        a = model.centroid("key:a")
        assert a[0] == pytest.approx(11)

    def test_cth_covers_worst_key_spread(self):
        samples = {
            "key:a": [vec(d0=10), vec(d0=30)],  # radius 10 around median 20
            "key:b": [vec(d0=1000)],
        }
        model = build_model(samples)
        # every training sample must classify back to its own class
        for label, vectors in samples.items():
            for v in vectors:
                assert model.classify(v).label == label

    def test_reject_spread_does_not_inflate_cth(self):
        tight = {
            "key:a": [vec(d0=10), vec(d0=10.5)],
            "key:b": [vec(d0=50)],
        }
        noisy = dict(tight)
        noisy["reject:transient"] = [vec(d0=10000), vec(d0=90000)]
        assert build_model(noisy).cth == pytest.approx(build_model(tight).cth)

    def test_scale_comes_from_key_classes(self):
        samples = {
            "key:a": [vec(d0=10)],
            "key:b": [vec(d0=20)],
            "reject:transient": [vec(d0=10**7), vec(d1=10**7)],
        }
        model = build_model(samples)
        # the transient magnitude must not appear in the scale
        assert model.scale[0] < 100

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            build_model({})

    def test_metadata_preserved(self):
        model = build_model({"key:a": [vec(d0=1)]}, metadata={"app": "chase"})
        assert model.metadata["app"] == "chase"


#: A cell: a small count (ties are common), a count near the 2**48
#: counter wrap, or any non-negative float.
cells = st.one_of(
    st.integers(0, 6).map(float),
    st.integers(2**48 - 5, 2**48 + 5).map(float),
    st.floats(0, 1e12, allow_nan=False).map(abs),
)


class TestGroupMedian:
    @given(
        st.lists(
            st.integers(1, 9).flatmap(
                lambda n: st.lists(st.lists(cells, min_size=3, max_size=3), min_size=n, max_size=n)
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300)
    # odd and even counts, a single row, a tie across the middle pair
    @example([[[1.0, 2.0, 3.0]], [[4.0, 4.0, 4.0], [4.0, 5.0, 2.0**48 + 1]], [[0.0] * 3] * 3])
    def test_each_group_is_np_median_bit_for_bit(self, groups):
        blocks = [np.array(group) for group in groups]
        got = _group_median(np.concatenate(blocks), np.array([len(b) for b in blocks]))
        assert got.shape == (len(blocks), 3)
        for block, row in zip(blocks, got):
            assert row.tobytes() == np.median(block, axis=0).tobytes()


class TestSerialization:
    def test_roundtrip(self):
        model = toy_model()
        clone = ClassificationModel.from_json(model.to_json())
        assert clone.labels == model.labels
        assert clone.cth == model.cth
        assert np.allclose(clone.centroids, model.centroids)
        result = clone.classify(vec(d0=101, d1=10))
        assert result.label == "key:a"

    def test_size_bytes_positive(self):
        assert toy_model().size_bytes() > 100


class TestCompositeClassification:
    def test_subtracting_dismiss_reveals_key(self):
        model = toy_model()
        composite = vec(d0=180, d1=10, d3=8)  # key:a + reject:dismiss:a
        direct = model.classify(composite)
        assert direct.label is None or not direct.is_key
        recovered = classify_composite(model, composite)
        assert recovered.label == "key:a"

    def test_subtracting_field_reveals_key(self):
        model = toy_model()
        composite = vec(d0=150, d1=10, d2=5)  # key:a + field:3:on
        recovered = classify_composite(model, composite)
        assert recovered.label == "key:a"

    def test_random_vector_not_recovered(self):
        model = toy_model(cth=1.0)
        garbage = vec(d0=1234, d1=777, d4=55)
        assert classify_composite(model, garbage).label is None

    def test_no_subtract_classes_returns_none(self):
        model = ClassificationModel(
            labels=["key:a"],
            centroids=vec(d0=10)[None, :],
            scale=np.ones(features.DIMENSIONS),
            cth=1.0,
        )
        assert classify_composite(model, vec(d0=10)).label is None


class TestRealModel:
    """Against the offline-trained Chase model (session fixture)."""

    def test_all_centroids_self_classify(self, chase_model):
        for label in chase_model.labels:
            if label.startswith("reject:transient"):
                continue  # transient class has huge spread by design
            got = chase_model.classify(chase_model.centroid(label))
            assert got.label == label, label

    def test_key_class_count_covers_keyboard(self, chase_model):
        assert len(chase_model.key_labels) == 80

    def test_model_size_is_kilobytes(self, chase_model):
        """The paper reports ~3.6 KB models; ours carry ~200 classes of
        11 rounded floats, landing in the same order of magnitude."""
        assert 2_000 < chase_model.size_bytes() < 64_000

    def test_field_family_present_to_length_16(self, chase_model):
        lengths = {
            int(label.split(":")[1])
            for label in chase_model.labels
            if label.startswith("field:")
        }
        assert set(range(0, 17)) <= lengths
