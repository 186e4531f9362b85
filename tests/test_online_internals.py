"""Tests for the online engine's internal machinery: ambient deflation,
the ambient refit skip, noise-ring management, effective magnitudes,
plausible-length windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import features
from repro.core.classifier import ClassificationModel
from repro.core.online import OnlineEngine
from repro.gpu import counters as pc
from tests.oracles import PcDelta, vectorize

D0 = pc.SELECTED_COUNTERS[0].counter_id
D1 = pc.SELECTED_COUNTERS[1].counter_id
D2 = pc.SELECTED_COUNTERS[2].counter_id


def vec(**kw):
    v = np.zeros(features.DIMENSIONS)
    for index, value in kw.items():
        v[int(index[1:])] = value
    return v


def toy_model():
    labels = ["key:a", "key:b", "field:0:on", "field:1:on", "reject:dismiss:a"]
    centroids = np.vstack(
        [vec(d0=1000, d1=100), vec(d0=2000, d1=250), vec(d2=50), vec(d2=50, d1=20), vec(d0=400, d1=37)]
    )
    return ClassificationModel(
        labels=labels,
        centroids=centroids,
        scale=np.full(features.DIMENSIONS, 10.0),
        cth=2.0,
        model_key="toy",
    )


@pytest.fixture()
def model():
    return toy_model()


def delta(t, values, prev_dt=0.008):
    return PcDelta(t=t, prev_t=t - prev_dt, values=values)


def ambient_delta(t, magnitude):
    """Background contribution: fixed direction, varying magnitude."""
    return delta(t, {D0: int(60 * magnitude), D1: int(37 * magnitude), D2: int(11 * magnitude)})


class TestAmbientDirection:
    def test_no_direction_until_ring_full(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        for i in range(engine.AMBIENT_WINDOW - 1):
            engine._note_noise(vectorize(ambient_delta(i * 0.01, 10)))
        assert engine._ambient_direction() is None

    def test_coherent_ring_yields_direction(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        rng = np.random.default_rng(0)
        for i in range(engine.AMBIENT_WINDOW):
            engine._note_noise(vectorize(ambient_delta(i * 0.01, 5 + 20 * rng.random())))
        direction = engine._ambient_direction()
        assert direction is not None
        raw_dir, scaled_dir = direction
        truth = np.zeros(features.DIMENSIONS)
        truth[0], truth[1], truth[2] = 60, 37, 11
        truth = truth / np.linalg.norm(truth)
        assert float(raw_dir @ truth) > 0.999
        assert np.isclose(np.linalg.norm(scaled_dir), 1.0)

    def test_incoherent_ring_rejected(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        rng = np.random.default_rng(1)
        for i in range(engine.AMBIENT_WINDOW):
            values = {D0: int(rng.integers(1, 5000)), D1: int(rng.integers(1, 5000))}
            if i % 2:
                values = {D2: int(rng.integers(1, 5000))}
            engine._note_noise(vectorize(delta(i * 0.01, values)))
        assert engine._ambient_direction() is None

    def test_ring_is_bounded(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        for i in range(engine.AMBIENT_WINDOW * 3):
            engine._note_noise(vectorize(ambient_delta(i * 0.01, 10)))
        assert len(engine._ring[: engine._ring_len]) == engine.AMBIENT_WINDOW


def scratch_fit(engine):
    """The ambient fit from scratch over the engine's noise ring: the
    reference the engine's skip-aware fit must reproduce bit for bit."""
    if engine._ring_len < engine.AMBIENT_WINDOW:
        return None
    matrix = engine._ring
    norms = np.linalg.norm(matrix, axis=1)
    keep = norms > 0
    if keep.sum() < engine.AMBIENT_MIN_SAMPLES:
        return None
    units = matrix[keep] / norms[keep][:, None]
    mean_dir = units.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean_dir))
    if mean_norm <= 0:
        return None
    mean_dir = mean_dir / mean_norm
    inliers = units @ mean_dir > 0.9
    if inliers.sum() < max(engine.AMBIENT_MIN_SAMPLES, 0.5 * len(units)):
        return None
    refined = units[inliers].mean(axis=0)
    refined_norm = float(np.linalg.norm(refined))
    if refined_norm < 0.98:
        return None
    raw_dir = refined / refined_norm
    scaled = matrix[keep][inliers] / engine.model.scale[None, :]
    scaled_units = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    scaled_dir = scaled_units.mean(axis=0)
    scaled_dir = scaled_dir / np.linalg.norm(scaled_dir)
    return raw_dir, scaled_dir


def same_fit(got, want):
    if got is None or want is None:
        return got is None and want is None
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


#: Noise-stream segments: (kind, steps, magnitude, seed).  Runs of one
#: kind let a background take the ring over and lose it again.
NOISE_SEGMENTS = st.tuples(
    st.sampled_from(["random", "cluster", "mixed", "zero", "swap"]),
    st.integers(1, 30),
    st.floats(0.5, 200.0),
    st.integers(0, 2**31 - 1),
)


def run_noise_segments(model, segments):
    """Feed ``segments`` to an engine's noise ring, comparing its ambient
    fit with the scratch fit after every step; returns how many steps
    skipped the refit and how many found a direction."""
    engine = OnlineEngine(model, detect_switches=False)
    other = ClassificationModel(
        labels=model.labels,
        centroids=model.centroids,
        scale=np.linspace(4.0, 30.0, features.DIMENSIONS),
        cth=model.cth,
    )
    cluster = vec(d0=60, d1=37, d2=11, d5=5)
    skipped = directions = 0
    for kind, steps, magnitude, seed in segments:
        rng = np.random.default_rng(seed)
        for _ in range(1 if kind == "swap" else steps):
            if kind == "swap":
                engine.swap_model(other if engine.model is model else model)
            else:
                noisy = kind == "random" or (kind == "mixed" and rng.random() < 0.5)
                if kind == "zero":
                    values = np.zeros(features.DIMENSIONS)
                elif noisy:
                    values = rng.integers(0, 5000, features.DIMENSIONS)
                    values = values * (rng.random(features.DIMENSIONS) < 0.6)
                else:
                    values = np.round(cluster * magnitude * rng.uniform(0.5, 2.0))
                    values = values + rng.integers(0, 3, features.DIMENSIONS)
                engine._note_noise(np.asarray(values, dtype=float))
            full = engine._ring_len == engine.AMBIENT_WINDOW
            skipped += full and engine._refit_cannot_pass()
            want = scratch_fit(engine)
            assert same_fit(engine._ambient_direction(), want)
            directions += want is not None
    return skipped, directions


class TestAmbientRefitSkip:
    @given(segments=st.lists(NOISE_SEGMENTS, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_skip_aware_fit_equals_the_scratch_fit_at_every_step(self, segments):
        run_noise_segments(toy_model(), segments)

    def test_one_stream_both_skips_refits_and_finds_directions(self, model):
        """Incoherent noise, a background that takes the ring over, then
        noise again: refits are skipped and directions found."""
        segments = [
            ("random", 60, 1.0, 1),
            ("mixed", 30, 20.0, 2),
            ("cluster", 40, 20.0, 3),
            ("zero", 1, 1.0, 4),
            ("swap", 1, 1.0, 5),
            ("mixed", 40, 20.0, 6),
            ("random", 40, 1.0, 7),
        ]
        skipped, directions = run_noise_segments(model, segments)
        assert skipped > 50
        assert directions > 20


def assert_skip_state(engine):
    """The refit skip's incremental state equals its full recomputation:
    the exact zero-unit count, and since the last fit, each slot's
    cosine to the fit's direction and the unit sum's displacement."""
    assert engine._zero_units == int((~engine._ring[: engine._ring_len].any(axis=1)).sum())
    if engine._last_fit is None:
        return
    _, direction, fit_sum = engine._last_fit
    assert np.abs(engine._cosines - engine._units @ direction).max() <= 1e-12
    assert np.abs(engine._shift - (engine._units.sum(axis=0) - fit_sum)).max() <= 1e-12


def drive_skip_state(segments):
    """Note ``segments`` into an engine's noise ring and fit after every
    note, checking the skip state before and after each fit; returns the
    engine."""
    model = toy_model()
    other = ClassificationModel(
        labels=model.labels,
        centroids=model.centroids,
        scale=np.linspace(4.0, 30.0, features.DIMENSIONS),
        cth=model.cth,
    )
    engine = OnlineEngine(model, detect_switches=False)
    cluster = vec(d0=60, d1=37, d2=11, d5=5)
    for kind, steps, magnitude, seed in segments:
        rng = np.random.default_rng(seed)
        for _ in range(1 if kind == "swap" else steps):
            if kind == "swap":
                engine.swap_model(other if engine.model is model else model)
            elif kind == "zero":
                engine._note_noise(np.zeros(features.DIMENSIONS))
            else:
                if kind == "random" or (kind == "mixed" and rng.random() < 0.5):
                    values = rng.integers(0, 5000, features.DIMENSIONS)
                    values = values * (rng.random(features.DIMENSIONS) < 0.6)
                else:
                    # a tight cluster: near-parallel units
                    values = np.round(cluster * magnitude * rng.uniform(0.5, 2.0))
                engine._note_noise(np.asarray(values, dtype=float))
            assert_skip_state(engine)
            engine._ambient_direction()
            assert_skip_state(engine)
    return engine


class TestIncrementalSkipState:
    @given(segments=st.lists(NOISE_SEGMENTS, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_kept_state_matches_a_full_recomputation_at_every_step(self, segments):
        drive_skip_state(segments)

    def test_a_fitted_stream_updates_and_resums_the_state(self):
        """A cluster fits, then mixed noise, a zero row and a swap move
        the ring for well over one re-sum period."""
        engine = drive_skip_state(
            [
                ("cluster", 30, 20.0, 1),
                ("mixed", 50, 20.0, 2),
                ("zero", 1, 1.0, 3),
                ("swap", 1, 1.0, 4),
                ("random", 30, 1.0, 5),
            ]
        )
        assert engine._last_fit is not None
        assert engine._ring_version > 3 * engine.AMBIENT_WINDOW


class TestDeflationLifecycle:
    def _prime(self, engine):
        rng = np.random.default_rng(2)
        for i in range(engine.AMBIENT_WINDOW):
            engine._note_noise(vectorize(ambient_delta(i * 0.01, 5 + 20 * rng.random())))
        engine._refresh_deflation()

    def test_refresh_adopts_deflated_model(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        assert engine._active_model is model
        self._prime(engine)
        assert engine._deflation_u is not None
        assert engine._active_model is not model
        assert engine._active_model.deflate_direction is not None

    def test_refresh_is_stable_for_unchanged_direction(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        self._prime(engine)
        adopted = engine._active_model
        engine._refresh_deflation()
        assert engine._active_model is adopted

    def test_deflated_model_ignores_ambient_component(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        self._prime(engine)
        contaminated = vec(d0=1000 + 600, d1=100 + 370, d2=110)  # key:a + 10x ambient
        got = engine._active_model.classify(contaminated)
        assert got.label == "key:a"

    def test_effective_magnitude_shrinks_ambient(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        ambient = ambient_delta(1.0, 10)
        assert engine._effective_magnitude(ambient.total, vectorize(ambient)) == ambient.total
        self._prime(engine)
        residual = engine._effective_magnitude(ambient.total, vectorize(ambient))
        assert residual < 0.1 * ambient.total


class TestPlausibleLengths:
    def test_none_before_field_events(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        assert engine._plausible_lengths() is None

    def test_window_spans_tracker_bounds(self, model):
        engine = OnlineEngine(model, detect_switches=False)
        engine.corrections.observe(0.5, 3, keys_inferred_total=0)
        engine.corrections.observe(1.0, 5, keys_inferred_total=2)
        lengths = engine._plausible_lengths()
        assert lengths is not None
        assert set(range(2, 8)) <= set(lengths)

    def test_disabled_when_corrections_off(self, model):
        engine = OnlineEngine(model, detect_switches=False, track_corrections=False)
        assert engine._plausible_lengths() is None
