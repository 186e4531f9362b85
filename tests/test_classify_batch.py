"""Tests for the vectorized classifier hot path.

``ClassificationModel.classify_batch`` scores an (n, 11) matrix against
every centroid in one pass; ``classify`` / ``classify_vector_masked``
are one-row delegates, and ``OnlineEngine.feed`` primes itself with a
batch whose lookups feed the unchanged Algorithm-1 sequential pass.  The
kernels sum each entry in one fixed order, so distances match the
looped path bit for bit (``tests/test_engine_batching.py`` pins it for
the engine; the tests here keep ``pytest.approx`` on distances).
"""

import dataclasses

import numpy as np
import pytest

from repro.android.apps import app
from repro.api import simulate
from repro.core import features
from repro.core.classifier import Classification, ClassificationModel, scaled_sq_dists
from repro.core.online import OnlineEngine
from repro.gpu import counters as pc
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler
from tests.oracles import PcDelta, feed_deltas, nonzero_deltas, sample_range

D0 = pc.SELECTED_COUNTERS[0].counter_id
D1 = pc.SELECTED_COUNTERS[1].counter_id


def vec(values):
    v = np.zeros(features.DIMENSIONS)
    for i, x in values.items():
        v[i] = x
    return v


@pytest.fixture()
def model():
    labels = ["key:a", "key:b", "field:0:on", "reject:dismiss:a"]
    centroids = np.vstack(
        [
            vec({0: 1000, 1: 100}),
            vec({0: 2000, 1: 250}),
            vec({2: 50}),
            vec({0: 400, 1: 37}),
        ]
    )
    return ClassificationModel(
        labels=labels,
        centroids=centroids,
        scale=np.full(features.DIMENSIONS, 10.0),
        cth=2.0,
        model_key="toy",
    )


@pytest.fixture()
def rows(rng):
    """A mix of near-centroid hits, outliers and noise-floor rows."""
    base = [
        vec({0: 1000, 1: 100}),
        vec({0: 1990, 1: 248}),
        vec({2: 51}),
        vec({0: 407, 1: 36}),
        vec({5: 90000}),  # far from everything -> rejected
        np.zeros(features.DIMENSIONS),
    ]
    jitter = rng.normal(0, 3, size=(len(base), features.DIMENSIONS))
    return np.vstack(base) + jitter


def test_scaled_sq_dists_matches_naive(rng):
    rows = rng.normal(0, 5, size=(8, features.DIMENSIONS))
    cents = rng.normal(0, 5, size=(3, features.DIMENSIONS))
    sq = scaled_sq_dists(rows, cents)
    naive = np.array([[np.sum((r - c) ** 2) for c in cents] for r in rows])
    assert sq == pytest.approx(naive)
    assert np.all(sq >= 0.0)  # cancellation is clamped, never negative


def test_batch_matches_looped_classify(model, rows):
    batch = model.classify_batch(rows)
    looped = [model.classify(row) for row in rows]
    assert [c.label for c in batch] == [c.label for c in looped]
    assert [c.confidence for c in batch] == [c.confidence for c in looped]
    for b, l in zip(batch, looped):
        assert b.distance == pytest.approx(l.distance, abs=1e-9)


def test_batch_matches_looped_masked(model, rows, rng):
    masks = rng.random(size=rows.shape) > 0.3
    masks[0] = True  # keep one fully observed row in the mix
    masks[-1] = False  # and one fully reclaimed row
    batch = model.classify_batch(rows, masks)
    looped = [model.classify_vector_masked(r, m) for r, m in zip(rows, masks)]
    assert [c.label for c in batch] == [c.label for c in looped]
    assert [c.confidence for c in batch] == [c.confidence for c in looped]
    for b, l in zip(batch, looped):
        if np.isfinite(l.distance):
            assert b.distance == pytest.approx(l.distance, abs=1e-9)
        else:
            assert not np.isfinite(b.distance)


def test_fully_masked_row_rejects_with_zero_confidence(model):
    rows = np.vstack([vec({0: 1000, 1: 100})])
    masks = np.zeros_like(rows, dtype=bool)
    (c,) = model.classify_batch(rows, masks)
    assert c.label is None
    assert c.confidence == 0.0
    assert not np.isfinite(c.distance)


def test_masked_confidence_is_observed_fraction(model):
    row = vec({0: 1000, 1: 100})
    mask = np.ones(features.DIMENSIONS, dtype=bool)
    mask[7:] = False
    (c,) = model.classify_batch(row[None, :], mask[None, :])
    assert c.confidence == pytest.approx(7 / features.DIMENSIONS)


def test_empty_batch(model):
    assert model.classify_batch(np.empty((0, features.DIMENSIONS))) == []


def test_batch_results_are_ordinary_frozen_classifications(model, rows, rng):
    """The batch paths build results without the dataclass ``__init__``;
    they must equal, hash and freeze like constructed ones."""
    masks = rng.random(rows.shape) > 0.2
    for got in (model.classify_batch(rows), model.classify_batch(rows, masks)):
        for c in got:
            made = Classification(label=c.label, distance=c.distance, confidence=c.confidence)
            assert c == made and hash(c) == hash(made)
            assert dataclasses.asdict(c) == dataclasses.asdict(made)
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.label = "key:z"


def test_distant_rows_are_rejected(model):
    (c,) = model.classify_batch(vec({5: 90000})[None, :])
    assert c.label is None
    assert c.distance > model.cth


def test_feed_many_matches_feed_loop(model):
    def deltas():
        out = []
        for i in range(12):
            t = 0.1 + i * 0.05
            if i % 3 == 0:
                out.append(PcDelta(t=t, prev_t=t - 0.008, values={D0: 1000, D1: 100}))
            elif i % 3 == 1:
                out.append(PcDelta(t=t, prev_t=t - 0.008, values={D0: 2000, D1: 250}))
            else:
                out.append(
                    PcDelta(
                        t=t, prev_t=t - 0.008, values={D0: 1000}, missing=(D1,)
                    )
                )
        return out

    looped_engine = OnlineEngine(model, detect_switches=False)
    feed_deltas(looped_engine, deltas(), chunk=1)
    looped = looped_engine.finish()
    batched_engine = OnlineEngine(model, detect_switches=False)
    feed_deltas(batched_engine, deltas())
    batched = batched_engine.finish()
    assert [(k.char, k.t, k.low_confidence) for k in batched.keys] == [
        (k.char, k.t, k.low_confidence) for k in looped.keys
    ]
    assert batched.stats == looped.stats


def test_feed_many_end_to_end_matches_process(config, chase_model):
    """Real sampled deltas: the batched engine infers the same text,
    keys and stats as the sequential pass."""
    trace = simulate(config, app("chase"), "hunter2secret", seed=3)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(3))
    deltas = nonzero_deltas(sample_range(sampler, 0.0, trace.end_time_s))

    serial_engine = OnlineEngine(chase_model)
    feed_deltas(serial_engine, deltas, chunk=1)
    serial = serial_engine.finish()
    engine = OnlineEngine(chase_model)
    feed_deltas(engine, deltas)
    batched = engine.finish()
    assert batched.text == serial.text
    assert [(k.char, k.t, k.low_confidence) for k in batched.keys] == [
        (k.char, k.t, k.low_confidence) for k in serial.keys
    ]
    assert batched.stats == serial.stats
