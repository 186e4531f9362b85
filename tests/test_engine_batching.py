"""The batch is the engine's unit of work: batching must never change a
decision.

``OnlineEngine.feed`` scores a batch's lookups up front, in one pass
per stage (plain rows first, then half-scaled and split-merged rows,
then the composite grid), while every Algorithm-1 decision still runs
per delta.  The stage masks must cover every lookup a step asks for:
one they miss is not scored at all.
These properties pin that any chunking of a stream infers exactly what
feeding it one delta at a time infers — keys with their distances,
engine stats and every emitted trace event — also when a step changes
the active model mid-batch (ambient deflation, a hot swap), and that the
block-reduced composite search picks what a flat first-index argmin over
the whole composite grid picks, also when it prunes blocks by a bound.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import features
from repro.core.classifier import COMPOSITE_CTH_FACTOR, ClassificationModel, _cross
from repro.core.online import OnlineEngine
from repro.gpu.timeline import COUNTER_ORDER
from repro.runtime import RuntimeTrace
from tests.oracles import (
    PcDelta,
    classify_composite,
    delta_batch,
    merge,
    pick_composite,
    present_mask,
    scaled,
    vectorize,
)

DIMS = features.DIMENSIONS


def vec(**kw):
    v = np.zeros(DIMS)
    for index, value in kw.items():
        v[int(index[1:])] = value
    return v


LABELS = [
    "key:a",
    "key:b",
    "key:c",
    "field:0:on",
    "field:1:on",
    "field:2:on",
    "field:3:on",
    "reject:dismiss:a",
    "reject:dismiss:b",
]
CENTROIDS = np.vstack(
    [
        vec(d0=1000, d1=100),
        vec(d0=2000, d1=250),
        vec(d0=1500, d1=180, d4=40),
        vec(d2=50),
        vec(d2=50, d3=20),
        vec(d2=50, d3=40),
        vec(d2=50, d3=60),
        vec(d0=400, d1=37),
        vec(d0=500, d1=55),
    ]
)


def toy_model(stretch=1.0):
    return ClassificationModel(
        labels=LABELS,
        centroids=CENTROIDS * stretch,
        scale=np.full(DIMS, 10.0),
        cth=2.0,
        model_key=f"toy{stretch}",
    )


AMBIENT = vec(d5=60, d6=37, d7=11)


def _values(v):
    return {cid: int(x) for cid, x in zip(COUNTER_ORDER, v) if int(x)}


def make_stream(seed, n_events, ambient, mask_p, gap_p):
    """A random delta stream: keys, fields, dismisses, split and doubled
    presses, press+dismiss composites, bursts, noise and zero deltas,
    optionally riding on a coherent ambient background."""
    rng = np.random.default_rng(seed)
    keys, fields, dismisses = CENTROIDS[:3], CENTROIDS[3:7], CENTROIDS[7:]
    vectors = []
    for _ in range(n_events):
        kind = rng.choice(
            ["key", "field", "dismiss", "split", "double", "composite", "burst", "noise", "zero"],
            p=[0.2, 0.15, 0.1, 0.1, 0.08, 0.12, 0.03, 0.17, 0.05],
        )
        key = keys[rng.integers(len(keys))] + rng.integers(-3, 4, size=DIMS).clip(0)
        if kind == "key":
            vectors.append(key)
        elif kind == "field":
            vectors.append(fields[rng.integers(len(fields))])
        elif kind == "dismiss":
            vectors.append(dismisses[rng.integers(len(dismisses))])
        elif kind == "split":
            part = np.floor(key * rng.uniform(0.2, 0.8))
            vectors += [part, key - part]
        elif kind == "double":
            vectors.append(2 * key)
        elif kind == "composite":
            other = (dismisses if rng.random() < 0.5 else fields)
            vectors.append(key + other[rng.integers(len(other))])
        elif kind == "burst":
            vectors.append(key * 40)
        elif kind == "noise":
            vectors.append(rng.integers(0, 3000, size=DIMS) * (rng.random(DIMS) < 0.5))
        else:
            vectors.append(np.zeros(DIMS))
    deltas = []
    t = 0.1
    for v in vectors:
        span = 0.008
        gap = bool(rng.random() < gap_p)
        if gap:
            span = 0.03
        t += span
        if v.any() and ambient:
            v = v + np.round(AMBIENT * rng.uniform(0.8 * ambient, 1.2 * ambient))
        values = _values(v)
        missing = ()
        if values and rng.random() < mask_p:
            gone = COUNTER_ORDER[int(rng.integers(DIMS))]
            values.pop(gone, None)
            missing = (gone,)
        deltas.append(PcDelta(t=t, prev_t=t - span, values=values, missing=missing, gap=gap))
    return deltas


def run(deltas, chunks=None, swap_at=None, recover=True):
    """Feed ``deltas`` one at a time (``chunks=None``, batches of one) or
    as consecutive batches of the given sizes (cycled), each batch in one
    slice, or two around a swap."""
    trace = RuntimeTrace()
    engine = OnlineEngine(toy_model(), trace=trace, session="s", recover_collisions=recover)
    engine.begin()
    i = k = 0
    while i < len(deltas):
        size = 1 if chunks is None else chunks[k % len(chunks)]
        k += 1
        batch = delta_batch(deltas[i : i + size])
        cut = swap_at - i if swap_at is not None and i <= swap_at < i + len(batch) else None
        if cut is None:
            engine.feed(batch, 0, len(batch))
        else:
            if cut:
                engine.feed(batch, 0, cut)
            engine.swap_model(toy_model(1.02))
            engine.feed(batch, cut, len(batch))
        i += len(batch)
    result = engine.finish()
    events = [(e.t, e.stage, e.kind, dict(e.detail)) for e in trace.events]
    return result, events


def assert_same(got, want):
    (result, events), (ref, ref_events) = got, want
    assert result.keys == ref.keys
    assert result.stats == ref.stats
    assert events == ref_events
    assert result.latency.count == ref.latency.count


@given(
    seed=st.integers(0, 2**31 - 1),
    chunks=st.lists(st.integers(1, 64), min_size=1, max_size=4),
    ambient=st.sampled_from([0, 0, 8, 20]),
    mask_p=st.sampled_from([0.0, 0.1]),
    gap_p=st.sampled_from([0.0, 0.05]),
    swap_at=st.one_of(st.none(), st.integers(0, 80)),
    recover=st.booleans(),
)
@settings(max_examples=60, deadline=None)
# a composite lookup of a row whose split-merged lookup is explained but
# was not asked for, since its predecessor was consumed
@example(seed=1249, chunks=[1], ambient=0, mask_p=0.0, gap_p=0.0, swap_at=None, recover=True)
def test_any_chunking_infers_what_one_delta_at_a_time_infers(
    seed, chunks, ambient, mask_p, gap_p, swap_at, recover
):
    deltas = make_stream(seed, 70, ambient, mask_p, gap_p)
    want = run(deltas, swap_at=swap_at, recover=recover)
    got = run(deltas, chunks=chunks, swap_at=swap_at, recover=recover)
    assert_same(got, want)


def test_ambient_deflation_lands_mid_batch_without_changing_decisions():
    """The ambient stream deflates the model part way into a 64-delta
    batch; the batch re-scores its remaining rows and matches the
    one-at-a-time run."""
    deltas = make_stream(3, 120, ambient=20, mask_p=0.0, gap_p=0.0)
    want = run(deltas)
    got = run(deltas, chunks=[64])
    rows = {delta.t: i for i, delta in enumerate(deltas)}
    deflated_at = [rows[event[0]] for event in want[1] if event[2] == "ambient_deflation"]
    assert any(i % 64 for i in deflated_at), "the stream must deflate mid-batch"
    assert_same(got, want)


def test_swap_mid_batch_rescores_the_tail():
    deltas = make_stream(5, 60, ambient=0, mask_p=0.1, gap_p=0.05)
    assert_same(run(deltas, chunks=[64], swap_at=30), run(deltas, swap_at=30))


def test_a_skipped_row_reprimes_from_the_fed_one():
    """Feeding a batch's rows with gaps primes the engine again at each
    row that is not the next one: it infers what the fed rows infer."""
    deltas = make_stream(7, 60, ambient=0, mask_p=0.1, gap_p=0.05)
    fed = [row for row in range(len(deltas)) if row % 7 != 3]
    trace = RuntimeTrace()
    engine = OnlineEngine(toy_model(), trace=trace, session="s")
    batch = delta_batch(deltas)
    for row in fed:
        engine.feed(batch, row, row + 1)
    result = engine.finish()
    events = [(e.t, e.stage, e.kind, dict(e.detail)) for e in trace.events]
    assert_same((result, events), run([deltas[row] for row in fed]))


def test_a_key_merged_into_a_reject_leaves_its_successor_a_merge():
    """A row whose plain lookup is a key can still be left unconsumed:
    its split merge with the previous row reads as a closer reject.  The
    next row then asks for its own split-merged lookup, so stage B must
    score merges behind plain keys too."""
    dismiss, key_a, key_b = CENTROIDS[7], CENTROIDS[0], CENTROIDS[1]
    tail = key_a + vec(d0=8)  # key:a at distance 0.8
    head = dismiss - tail  # the merge is exactly reject:dismiss:a
    deltas = [
        PcDelta(t=1.0 + 0.008 * k, prev_t=0.992 + 0.008 * k, values=_values(v))
        for k, v in enumerate([head, tail, key_b])
    ]
    want = run(deltas)
    events = want[1]
    assert ("split_merge", "noise") == (events[1][2], events[2][2])
    assert events[2][3] == {"label": "reject:dismiss:a"}
    assert_same(run(deltas, chunks=[64]), want)


def test_batch_rows_score_what_pcdelta_merge_and_scaled_score():
    """A batch builds split-merged rows as ``V[j] + V[pred]`` and
    half-scaled rows by truncating ``V[j] / 2``; they must classify
    exactly like the ``merge`` / ``scaled(0.5)`` oracle deltas
    the sequential algorithm is written in (negative counts included)."""
    from repro.core.online import HALF, MERGED, _Batch

    model = toy_model()
    deltas = make_stream(9, 40, ambient=0, mask_p=0.2, gap_p=0.0)
    deltas.append(PcDelta(t=9.0, prev_t=8.992, values={COUNTER_ORDER[0]: -3, COUNTER_ORDER[1]: 7}))
    batch = _Batch(delta_batch(deltas), 0, None)
    batch.model = model
    # batch row r holds deltas[r - 1]; row 0 is the zero delta of a
    # batch primed while the engine held none
    held = [PcDelta(t=0.0, prev_t=0.0, values={}), *deltas]
    merged_rows = [r for r in range(2, batch.size) if batch.live[r]]
    half_rows = [r for r in merged_rows if not batch.masked[r]]
    want = np.zeros((5, batch.size), dtype=bool)
    want[MERGED, merged_rows] = want[HALF, half_rows] = True
    batch.score(want, 0)
    # the same pass over the oracle deltas, in the table's (kind, row) order
    oracle = [merge(held[r], held[batch.pred[r]]) for r in merged_rows]
    oracle += [scaled(held[r], 0.5) for r in half_rows]
    expected = model.classify_batch(
        np.vstack([vectorize(delta) for delta in oracle]),
        np.vstack([present_mask(delta) for delta in oracle]),
        bounded=True,
    )
    got = [batch.values[MERGED, r] for r in merged_rows]
    got += [batch.values[HALF, r] for r in half_rows]
    assert got == expected
    assert any(value.label is not None for value in got)


# ---------------------------------------------------------------------------
# block-reduced composite search


def flat_composite(model, row, field_lengths):
    """Reference: the full (S*K) composite score row and its first-index
    argmin, with disallowed field blocks set to inf."""
    sub_rows = [i for i, l in enumerate(model.labels) if l.startswith(("reject:dismiss", "field:"))]
    key_rows = [i for i, l in enumerate(model.labels) if l.startswith("key:")]
    scaled = model._transform_rows(row[None, :] / model.scale)[0]
    subs, keys = model._scaled[sub_rows], model._scaled[key_rows]
    grid = (subs[:, None, :] + keys[None, :, :]).reshape(-1, DIMS)
    norms = np.einsum("ij,ij->i", grid, grid).reshape(len(subs), len(keys))
    sub_dot = np.einsum("ij,kj->ik", scaled[None, :], subs)[0]
    key_dot = np.einsum("ij,kj->ik", scaled[None, :], keys)[0]
    scores = norms - 2.0 * (sub_dot[:, None] + key_dot[None, :])  # ||g||^2 - 2 g.v
    if field_lengths is not None:
        for s, r in enumerate(sub_rows):
            label = model.labels[r]
            if label.startswith("field:") and int(label.split(":")[1]) not in field_lengths:
                scores[s] = np.inf
    flat = scores.ravel()
    best = int(np.argmin(flat))
    if not np.isfinite(flat[best]):
        return None, float("inf")
    distance = float(np.sqrt(max(0.0, flat[best] + float(np.einsum("i,i->", scaled, scaled)))))
    if distance > model.cth * COMPOSITE_CTH_FACTOR:
        return None, distance
    return model.labels[key_rows[best % len(keys)]], distance


@pytest.mark.parametrize("duplicated", [False, True])
def test_block_min_pick_equals_flat_argmin(duplicated):
    """Random rows and length restrictions; with ``duplicated`` the model
    carries identical key and dismiss centroids, so scores tie exactly
    and only the first-index rule decides."""
    labels, centroids = list(LABELS), CENTROIDS
    if duplicated:
        labels = labels + ["key:z", "reject:dismiss:z"]
        centroids = np.vstack([CENTROIDS, CENTROIDS[0], CENTROIDS[7]])
    model = ClassificationModel(labels, centroids, np.full(DIMS, 10.0), cth=2.0)
    rng = np.random.default_rng(3)
    keys, subs = centroids[[0, 1, 2]], centroids[3:9]
    rows = np.vstack(
        [keys[rng.integers(3)] + subs[rng.integers(6)] + rng.normal(0, 3, DIMS) for _ in range(40)]
        + [keys[0] + subs[4]] * 3  # exact composite of tied centroids
        + [rng.integers(0, 5000, size=DIMS).astype(float) for _ in range(10)]
    )
    block_min, block_key, row_sq = model.composite_scores(rows)
    picks = 0
    for field_lengths in (None, (0, 1), (2, 3, 4), (7,)):
        for r, row in enumerate(rows):
            got = pick_composite(model, block_min[r], block_key[r], row_sq[r], field_lengths)
            one = classify_composite(model, row, field_lengths=field_lengths)
            label, distance = flat_composite(model, row, field_lengths)
            assert (got.label, got.distance) == (one.label, one.distance)
            assert got.label == label
            assert got.distance == pytest.approx(distance, rel=1e-12, abs=1e-9)
            picks += got.label is not None
    assert picks > 40
    if duplicated:
        # the tied key:a / key:z pair resolves to the first key
        tied = classify_composite(model, keys[0] + subs[4])
        assert tied.label == "key:a"


# ---------------------------------------------------------------------------
# bound-and-prune composite kernel


def full_block_scores(model, rows):
    """Reference: every (row, block, key) cell of the composite grid,
    summed as the kernel sums a cell, reduced to each block's (min,
    first argmin)."""
    grid = model._composite_grid()
    scaled = model._transform_rows(rows / model.scale)
    sub_dot = -2.0 * _cross(scaled, grid.subs)
    key_dot = -2.0 * _cross(scaled, grid.keys)
    cells = (sub_dot[:, :, None] + key_dot[:, None, :]) + grid.norms
    arg = cells.argmin(axis=2)
    return np.take_along_axis(cells, arg[..., None], axis=2)[..., 0], arg


def random_model(rng, tied, deflate):
    """Keys, dismisses, field lengths and one other reject class with
    random centroids; ``tied`` duplicates a key and a dismiss centroid."""
    n_keys, n_dismiss = rng.integers(1, 7), rng.integers(0, 4)
    n_fields = rng.integers(0 if n_dismiss else 1, 5)
    labels = [f"key:{chr(97 + i)}" for i in range(n_keys)]
    labels += [f"reject:dismiss:{i}" for i in range(n_dismiss)]
    labels += [f"field:{int(n)}:on" for n in rng.choice(12, n_fields, replace=False)]
    labels.append("reject:notification")
    centroids = rng.integers(0, 3000, (len(labels), DIMS)) * (rng.random((len(labels), DIMS)) < 0.7)
    centroids = centroids.astype(float)
    if tied:
        labels += ["key:z", "reject:dismiss:z"]
        centroids = np.vstack([centroids, centroids[0], centroids[n_keys if n_dismiss else 0]])
    model = ClassificationModel(
        labels, centroids, rng.uniform(5.0, 80.0, DIMS), cth=float(rng.uniform(0.5, 6.0))
    )
    if deflate:
        u = rng.normal(size=DIMS)
        model = model.with_deflation(u / np.linalg.norm(u))
    return model


def composite_rows(rng, model, n):
    """Exact composites, rows at the composite threshold, 1e6-scale
    garbage and plain noise, shuffled."""
    grid = model._composite_grid()
    keys, subs = model.centroids[grid.key_rows], model.centroids[grid.sub_rows]
    rows = []
    for _ in range(n):
        kind = rng.integers(4)
        if kind == 0:
            rows.append(keys[rng.integers(len(keys))] + subs[rng.integers(len(subs))])
        elif kind == 1:
            off = rng.normal(size=DIMS)
            radius = model.cth * COMPOSITE_CTH_FACTOR * (1 + rng.choice([-1e-9, 0.0, 1e-9]))
            off *= radius / np.linalg.norm(off)
            rows.append(keys[rng.integers(len(keys))] + subs[rng.integers(len(subs))] + off * model.scale)
        elif kind == 2:
            rows.append(rng.normal(0.0, 1e6, DIMS))
        else:
            rows.append(rng.integers(0, 6000, DIMS) * (rng.random(DIMS) < 0.5))
    return np.vstack(rows).astype(float)


@given(
    seed=st.integers(0, 2**31 - 1),
    tied=st.booleans(),
    deflate=st.booleans(),
    n=st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_pruned_composite_kernel_matches_the_full_grid(seed, tied, deflate, n):
    """Scored blocks carry the full grid's exact (min, argmin); a pruned
    block's minimum lies above the row's dismiss minimum, which every
    restriction keeps; so every pick is the full grid's pick."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, tied, deflate)
    grid = model._composite_grid()
    rows = composite_rows(rng, model, n)
    block_min, block_key, row_sq = model.composite_scores(rows)
    full_min, full_key = full_block_scores(model, rows)
    scored = np.isfinite(block_min)
    assert block_min[scored].tobytes() == full_min[scored].tobytes()
    assert (block_key[scored] == full_key[scored]).all()
    if len(grid.dismiss):
        dismiss_min = full_min[:, grid.dismiss].min(axis=1)
        assert (full_min > dismiss_min[:, None])[~scored].all()
    else:
        assert scored.all()
    lengths = [n for n in grid.lengths if n is not None]
    restrictions = [None, (), tuple(lengths[:1]), tuple(lengths[1::2]), (99,)]
    for field_lengths in restrictions:
        for r, row in enumerate(rows):
            got = pick_composite(model, block_min[r], block_key[r], row_sq[r], field_lengths)
            full = pick_composite(model, full_min[r], full_key[r], row_sq[r], field_lengths)
            assert got == full
            label, distance = flat_composite(model, row, field_lengths)
            assert got.label == label
            assert got.distance == pytest.approx(distance, rel=1e-9, abs=1e-6)


def blockless_model(rng):
    """Keys and a non-subtractable reject class only: no composite block."""
    labels = ["key:a", "key:b", "reject:notification"]
    centroids = rng.integers(0, 3000, (len(labels), DIMS)).astype(float)
    return ClassificationModel(labels, centroids, rng.uniform(5.0, 80.0, DIMS), cth=2.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    tied=st.booleans(),
    deflate=st.booleans(),
    blockless=st.booleans(),
    n=st.integers(0, 30),
    inf_rows=st.integers(0, 3),
    field_lengths=st.one_of(
        st.none(), st.just(()), st.lists(st.integers(0, 12), max_size=5).map(tuple)
    ),
)
@settings(max_examples=120, deadline=None)
def test_vector_picks_equal_the_scalar_oracle_row_by_row(
    seed, tied, deflate, blockless, n, inf_rows, field_lengths
):
    """Row k of ``pick_composites`` is the scalar oracle's pick for row k:
    the same label and a bit-equal distance, under every restriction,
    for tied and deflated models, rows with no finite block, and models
    without blocks."""
    rng = np.random.default_rng(seed)
    if blockless:
        model = blockless_model(rng)
        rows = rng.integers(0, 6000, (n, DIMS)).astype(float)
    else:
        model = random_model(rng, tied, deflate)
        rows = composite_rows(rng, model, n) if n else np.empty((0, DIMS))
    block_min, block_key, row_sq = model.composite_scores(rows)
    blocks = block_min.shape[1]
    block_min = np.vstack([block_min, np.full((inf_rows, blocks), np.inf)])
    block_key = np.vstack([block_key, np.zeros((inf_rows, blocks), dtype=np.intp)])
    row_sq = np.concatenate([row_sq, rng.uniform(0.0, 10.0, inf_rows)])
    picks = model.pick_composites(block_min, block_key, row_sq, field_lengths)
    assert len(picks) == n + inf_rows
    for r, got in enumerate(picks):
        want = pick_composite(model, block_min[r], block_key[r], row_sq[r], field_lengths)
        assert got.label == want.label
        assert np.float64(got.distance).tobytes() == np.float64(want.distance).tobytes()
        assert got == want
    assert all(pick.label is None and pick.distance == np.inf for pick in picks[n:])


@given(
    seed=st.integers(0, 2**31 - 1),
    tied=st.booleans(),
    deflate=st.booleans(),
    n=st.integers(1, 40),
)
@settings(max_examples=100, deadline=None)
def test_rows_the_box_bound_rules_out_pick_no_key_under_any_restriction(seed, tied, deflate, n):
    """``composite_reachable`` is False only for rows the full grid reads
    as no key, under every restriction, rows at the threshold included."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, tied, deflate)
    rows = composite_rows(rng, model, n)
    reachable = model.composite_reachable(rows)
    full_min, full_key = full_block_scores(model, rows)
    row_sq = model.composite_scores(rows)[2]
    lengths = [n for n in model._composite_grid().lengths if n is not None]
    for field_lengths in (None, (), tuple(lengths[:1]), tuple(lengths[1::2])):
        for r in np.flatnonzero(~reachable):
            pick = pick_composite(model, full_min[r], full_key[r], row_sq[r], field_lengths)
            assert not pick.is_key


@given(
    seed=st.integers(0, 2**31 - 1),
    tied=st.booleans(),
    deflate=st.booleans(),
    n=st.integers(16, 48),
)
@settings(max_examples=100, deadline=None)
def test_bounded_classify_leaves_only_unexplained_rows_unscored(seed, tied, deflate, n):
    """``classify_batch(bounded=True)`` gives every row the label full
    scoring gives it, and differs only by reading a row full scoring
    leaves unexplained as :data:`UNEXPLAINED`: also for rows a hair
    inside or outside ``cth`` of the centroid box, and masked rows."""
    from repro.core.classifier import UNEXPLAINED

    rng = np.random.default_rng(seed)
    model = random_model(rng, tied, deflate)
    low, high = model._box
    edge = []
    for _ in range(8):
        k = rng.integers(DIMS)
        out = high.copy()
        out[k] += model.cth * (1 + rng.choice([-1e-9, 0.0, 1e-9]))
        edge.append(out * model.scale)
    rows = np.vstack([composite_rows(rng, model, n), model.centroids, np.array(edge)])
    present = rng.random(rows.shape) > 0.05
    for mask in (None, present):
        exact = model.classify_batch(rows, mask)
        bounded = model.classify_batch(rows, mask, bounded=True)
        assert [b.label for b in bounded] == [e.label for e in exact]
        for e, b in zip(exact, bounded):
            assert b == e or (b is UNEXPLAINED and e.label is None)
    assert any(b is UNEXPLAINED for b in model.classify_batch(rows, bounded=True))


def test_box_bound_keeps_composites_and_drops_far_rows():
    model = toy_model()
    rows = np.vstack([CENTROIDS[0] + CENTROIDS[7], CENTROIDS[1] + CENTROIDS[4], vec(d9=5000)])
    assert model.composite_reachable(rows).tolist() == [True, True, False]
    assert classify_composite(model, rows[2]).label is None


def test_engines_on_threads_sharing_one_model_infer_what_each_infers_alone():
    """The fleet driver runs devices on a thread pool over one model
    store, so engines on several threads share a model, its lazily built
    composite grid included.  Each must infer what it infers alone."""
    streams = [make_stream(seed, 90, ambient=0, mask_p=0.1, gap_p=0.05) for seed in range(6)]
    want = [run(deltas, chunks=[16]) for deltas in streams]
    shared = toy_model()
    start = threading.Barrier(len(streams))

    def feed(deltas):
        trace = RuntimeTrace()
        engine = OnlineEngine(shared, trace=trace, session="s")
        engine.begin()
        start.wait()
        for lo in range(0, len(deltas), 16):
            batch = delta_batch(deltas[lo : lo + 16])
            engine.feed(batch, 0, len(batch))
        result = engine.finish()
        return result, [(e.t, e.stage, e.kind, dict(e.detail)) for e in trace.events]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(streams)) as pool:
            got = list(pool.map(feed, streams))
    finally:
        sys.setswitchinterval(interval)
    assert shared._composite is not None, "the streams must reach the composite grid"
    for g, w in zip(got, want):
        assert_same(g, w)


# ---------------------------------------------------------------------------
# long runs of noise


AMBIENT_UNIT = AMBIENT / np.linalg.norm(AMBIENT)


def make_quiet_stream(seed, n_events, pure_p, angle_deg, event_p):
    """Long runs of unexplained noise riding on the ambient direction:
    a ``pure_p`` share along it, the rest ``angle_deg`` (jittered) off
    it, near the ``acos(0.9)`` inlier cone, so the refit skip's verdict
    sits near its bound.  An ``event_p`` share of the deltas are keys,
    fields, zero or masked deltas and gaps, which end a run."""
    rng = np.random.default_rng(seed)
    keys, fields = CENTROIDS[:3], CENTROIDS[3:7]
    deltas = []
    t = 0.1
    for _ in range(n_events):
        span = 0.008
        missing = ()
        kind = rng.choice(["noise", "key", "field", "zero", "masked", "gap"], p=[
            1 - event_p, event_p * 0.3, event_p * 0.2, event_p * 0.1, event_p * 0.2, event_p * 0.2
        ])
        if kind == "key":
            v = keys[rng.integers(len(keys))]
        elif kind == "field":
            v = fields[rng.integers(len(fields))]
        elif kind == "zero":
            v = np.zeros(DIMS)
        else:
            off = vec(d8=rng.normal(), d9=rng.normal(), d10=rng.normal())
            off /= np.linalg.norm(off)
            angle = 0.0 if rng.random() < pure_p else np.radians(angle_deg + rng.normal(0.0, 2.0))
            v = np.round(rng.uniform(200, 1500) * (np.cos(angle) * AMBIENT_UNIT + np.sin(angle) * off))
            v = np.abs(v)
        if kind == "gap":
            span = 0.03
        t += span
        values = _values(v)
        if kind == "masked" and values:
            gone = COUNTER_ORDER[int(rng.integers(5, DIMS))]
            values.pop(gone, None)
            missing = (gone,)
        deltas.append(PcDelta(t=t, prev_t=t - span, values=values, missing=missing, gap=span > 0.02))
    return deltas


def ring_state(engine):
    fit = engine._fit_inputs
    return (
        engine._slots.tobytes(),
        engine._units.tobytes(),
        engine._cosines.tobytes(),
        engine._shift.tobytes(),
        engine._zero_units,
        engine._ring_version,
        engine._ring_len,
        list(engine._unit_norms),
        None if fit is None else (fit[0], fit[1].model_key),
        [v.tobytes() for v in engine.evidence],
    )


def run_states(deltas, chunks=None, swap_at=None, recover=True, evidence_cap=40):
    """:func:`run` with calibration evidence on (capped at
    ``evidence_cap``), also returning the ring state after every feed,
    keyed by the deltas fed so far."""
    trace = RuntimeTrace()
    engine = OnlineEngine(
        toy_model(), trace=trace, session="s", recover_collisions=recover, collect_evidence=True
    )
    engine.EVIDENCE_CAP = evidence_cap
    engine.begin()
    states = {}
    i = k = 0

    def feed(batch, lo, hi):
        engine.feed(batch, lo, hi)
        states[i + hi] = ring_state(engine)

    while i < len(deltas):
        size = 1 if chunks is None else chunks[k % len(chunks)]
        k += 1
        batch = delta_batch(deltas[i : i + size])
        cut = swap_at - i if swap_at is not None and i <= swap_at < i + len(batch) else None
        if cut is None:
            feed(batch, 0, len(batch))
        else:
            if cut:
                feed(batch, 0, cut)
            engine.swap_model(toy_model(1.02))
            feed(batch, cut, len(batch))
        i += len(batch)
    evidence = [v.tobytes() for v in engine.evidence]
    result = engine.finish()
    events = [(e.t, e.stage, e.kind, dict(e.detail)) for e in trace.events]
    return (result, events), states, evidence


@given(
    seed=st.integers(0, 2**31 - 1),
    chunks=st.lists(st.integers(1, 64), min_size=1, max_size=4),
    pure_p=st.sampled_from([0.35, 0.45, 0.5]),
    angle_deg=st.sampled_from([45.0, 60.0, 75.0]),
    event_p=st.sampled_from([0.0, 0.03, 0.08]),
    swap_at=st.one_of(st.none(), st.integers(0, 160)),
    recover=st.booleans(),
    evidence_cap=st.sampled_from([10, 40, 100]),
)
@settings(max_examples=60, deadline=None)
def test_slices_of_noise_runs_step_as_one_delta_at_a_time(
    seed, chunks, pure_p, angle_deg, event_p, swap_at, recover, evidence_cap
):
    """Feeding long runs of noise as slices of bounded passes leaves
    exactly what feeding them one delta at a time leaves: keys, stats,
    events, latency counts, the calibration evidence, and the ambient
    ring's state after every feed."""
    deltas = make_quiet_stream(seed, 160, pure_p, angle_deg, event_p)
    want, want_states, want_evidence = run_states(
        deltas, swap_at=swap_at, recover=recover, evidence_cap=evidence_cap
    )
    got, got_states, got_evidence = run_states(
        deltas, chunks=chunks, swap_at=swap_at, recover=recover, evidence_cap=evidence_cap
    )
    assert_same(got, want)
    assert got_evidence == want_evidence
    for fed, state in got_states.items():
        assert state == want_states[fed], f"ring state after {fed} deltas"
