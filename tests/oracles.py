"""Reference implementations that tests check production code against:
the scalar forms of the vectorised kernels in ``src/``, the per-delta
record they are written in and a builder of the delta arrays the
production path reads, the per-frame render timeline and session
materialize that the columnar ones replaced, scalar views of internal
state, a minimal event source, the one-row-per-event dispatch loop
the session runtime's slice dispatch is checked against, a ``PCG64``
state builder that puts a chosen raw word where a test needs it, numpy's
own draw and word count from such a state, and the per-frame jitter
draws the decoded ones are checked against.  They live
here, next to the properties that use them, because no production path
calls them."""

from __future__ import annotations

import functools
import heapq
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.android.geometry import Rect
from repro.core.classifier import (
    COMPOSITE_CTH_FACTOR,
    Classification,
    ClassificationModel,
)
import repro.android.device as device_mod
from repro.android.device import VictimDevice
from repro.core.corrections import CorrectionTracker
from repro.core.offline import frame_to_class_label
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, FrameRender, RenderTimeline
from repro.kgsl.sampler import (
    _BASE_JITTER_S,
    _COALESCE_DELAY_S,
    _COALESCE_PROB,
    _PREEMPT_DELAY_S,
    IDLE,
    DeltaBatch,
    PerfCounterSampler,
    ReadBatch,
    SystemLoad,
)
from repro.lifecycle.drift import DriftInjector
from repro.runtime.session import _END, Session, SessionRuntime


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


# ---------------------------------------------------------------------------
# frame increments


def merge_increments(a: pc.CounterIncrement, b: pc.CounterIncrement) -> pc.CounterIncrement:
    """The per-counter sum of two frames' increments: what rendering them
    separately adds to the registers."""
    merged = pc.CounterIncrement(values=dict(a.values))
    for counter_id, amount in b.values.items():
        merged.values[counter_id] = merged.values.get(counter_id, 0) + amount
    return merged


# ---------------------------------------------------------------------------
# the scalar randomness laws: wakeup scheduling and frame jitter


def scheduling_delay(rng: np.random.Generator, load: SystemLoad) -> Optional[float]:
    """One wakeup's actual-minus-nominal read latency, ``None`` if the
    read is skipped: the scalar form of the sampler's decoded scheduling
    law (``_WakeupDraws``), with numpy's scaled exponential draws."""
    cpu = load.cpu_utilization
    delay = float(rng.exponential(_BASE_JITTER_S))
    if rng.random() < _COALESCE_PROB:
        delay += float(rng.exponential(_COALESCE_DELAY_S))
    if cpu > 0 and rng.random() < cpu * 0.75:
        contention = cpu * cpu
        delay += float(rng.exponential(_PREEMPT_DELAY_S * (0.2 + 2.0 * contention)))
    drop_prob = max(0.0, cpu - 0.45) ** 2 * 0.55
    if rng.random() < drop_prob:
        return None
    return delay


def wakeups(
    rng: np.random.Generator, t0: float, t1: float, interval_s: float, load: SystemLoad = IDLE
) -> Iterator[Tuple[float, Optional[float]]]:
    """A chain-free sampler's wakeups over ``[t0, t1)``, one per ``next()``:
    ``(nominal, read time)``, the read time ``None`` for a dropped read.
    Reads stay 10 µs apart; a fresh device clock (at 0 <= ``t0``) never
    holds one back."""
    nominal = t0
    last_t = -1.0
    while nominal < t1:
        delay = scheduling_delay(rng, load)
        if delay is None:
            yield nominal, None
        else:
            last_t = max(nominal + delay, last_t + 1e-5)
            yield nominal, last_t
        nominal += interval_s


@functools.lru_cache(maxsize=None)
def ziggurat_tool():
    """``tools/gen_ziggurat_tables.py``, loaded as a module: the tables
    probe and the ``PCG64`` state builder both live there."""
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_ziggurat_tables.py"
    spec = importlib.util.spec_from_file_location("gen_ziggurat_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pcg64_emitting(word: int, at: int = 0, high: int = 1) -> np.random.Generator:
    """A ``PCG64`` generator whose raw word number ``at`` (0: the next)
    is ``word``; ``high`` picks the words before and after it."""
    bits = np.random.PCG64()
    bits.state = ziggurat_tool().state_before(word, high, at)
    return np.random.Generator(bits)


def numpy_draw(method: str, word: int, high: int = 1) -> Tuple[float, int]:
    """``Generator.<method>()`` when its first raw word is ``word`` (of
    :func:`pcg64_emitting`), and how many words it read."""
    rng = pcg64_emitting(word, high=high)
    value = getattr(rng, method)()
    after = rng.bit_generator.state
    count = pcg64_emitting(word, high=high).bit_generator
    for words in range(1, 1000):
        count.random_raw()
        if count.state == after:
            return value, words
    raise AssertionError(f"{method} read more than 999 words")


def jitter_draws(rng: np.random.Generator, counts: Sequence[int]) -> Tuple[List[float], np.ndarray]:
    """The scalar form of ``VictimDevice._jitter_draws``: per frame, one
    ``uniform`` submit delay and then ``standard_normal(k)``, one numpy
    call each; every frame's normals in one array."""
    submits, noise = [], []
    for k in counts:
        submits.append(float(rng.uniform(*device_mod.SUBMIT_DELAY_S)))
        if k:
            noise.append(rng.standard_normal(k))
    return submits, np.concatenate(noise) if noise else np.empty(0)


def jitter(
    device: VictimDevice, increment: pc.CounterIncrement, factor: float
) -> pc.CounterIncrement:
    """A frame's jittered increments, one scalar normal draw per jittered
    nonzero counter in ``SELECTED_COUNTERS`` order, with the
    ``JITTER_SIGMA`` in force when it runs."""
    sigmas = dict(device_mod.JITTER_SIGMA)
    values = dict(increment.values)
    for spec in pc.SELECTED_COUNTERS:
        sigma = sigmas.get(spec.counter_id)
        if sigma is None:
            continue
        amount = values.get(spec.counter_id, 0)
        if amount:
            noisy = int(round(amount * (1.0 + float(device.rng.normal(0.0, sigma * factor)))))
            values[spec.counter_id] = max(0, noisy)
    return pc.CounterIncrement(values=values)


def materialize(device: VictimDevice, timeline: RenderTimeline) -> None:
    """The per-frame form of ``VictimDevice._materialize``: each scheduled
    frame, in time order, gets its submit delay, is rendered afresh (no
    render cache), pays the wake-up latency and the cold jitter factor
    after GPU power collapse, has its counters jittered by :func:`jitter`
    and is added as one row."""
    last_end = -1e9
    for t, _, scene_fn, label in sorted(device._requests, key=lambda r: r[0]):
        start = device.builder.display.next_vsync(t) + float(
            device.rng.uniform(*device_mod.SUBMIT_DELAY_S)
        )
        stats = device.pipeline.render(scene_fn())
        render_time_s = stats.render_time_s * device.render_slowdown
        cold = start - last_end > device_mod.GPU_IDLE_COLLAPSE_S
        if cold:
            render_time_s += device_mod.WAKEUP_RENDER_S
        factor = device_mod.COLD_JITTER_FACTOR if cold else 1.0
        increment = jitter(device, stats.increment, factor)
        stats = FrameStats(increment, stats.pixels_touched, render_time_s)
        timeline.add_render(start, stats, label)
        last_end = max(last_end, start + render_time_s)
    device._requests = []


def without_label(timeline: RenderTimeline, label: str) -> RenderTimeline:
    """``timeline``'s frames but those labelled ``label``, as a new timeline."""
    keep = np.array([name != label for name in timeline.labels], dtype=bool)
    out = RenderTimeline()
    out.append(
        timeline.starts[keep],
        timeline.durations[keep],
        timeline.amounts[keep],
        [name for name in timeline.labels if name != label],
    )
    return out


class FrameListTimeline:
    """The per-frame render timeline the columnar one replaced: a list of
    :class:`FrameRender` kept in start order by a stable sort, answering
    every query with a scalar loop over it."""

    def __init__(self) -> None:
        self._frames: List[FrameRender] = []

    def add(self, frame: FrameRender) -> None:
        self._frames.append(frame)
        self._frames.sort(key=lambda f: f.start_s)

    @property
    def frames(self) -> List[FrameRender]:
        return list(self._frames)

    def values_at(self, t: float) -> List[int]:
        """Counter values at ``t``, in ``COUNTER_ORDER``: every frame
        started by ``t`` adds its increments, less the unaccrued share of
        each one still in flight."""
        column = {cid: j for j, cid in enumerate(COUNTER_ORDER)}
        totals = [0] * len(COUNTER_ORDER)
        started = [f for f in self._frames if f.start_s <= t]
        for frame in started:
            for cid, amount in frame.increment.values.items():
                totals[column[cid]] += amount
        max_duration = max((f.render_time_s for f in self._frames), default=0.0)
        window_start = t - max_duration - 1e-12
        for frame in started:
            if frame.start_s < window_start:
                continue
            progress = frame.progress(t)
            if progress >= 1.0:
                continue
            for cid, amount in frame.increment.values.items():
                accrued = int(round(amount * progress))
                totals[column[cid]] -= amount - accrued
        return totals

    def frames_overlapping(self, t0: float, t1: float) -> List[FrameRender]:
        return [f for f in self._frames if f.start_s < t1 and f.end_s > t0]


# ---------------------------------------------------------------------------
# the per-delta record, and the delta arrays built from it


@dataclass(frozen=True)
class PcDelta:
    """Per-counter change between two consecutive samples: the scalar
    view of one :class:`~repro.kgsl.sampler.DeltaBatch` row.

    ``missing`` lists counters whose change over this interval is
    unknown (absent from at least one endpoint sample); ``gap`` marks a
    delta spanning noticeably more than one nominal sampling interval.
    """

    t: float
    prev_t: float
    values: Dict[pc.CounterId, int]
    missing: Tuple[pc.CounterId, ...] = ()
    gap: bool = False

    @property
    def total(self) -> int:
        return sum(self.values.values())

    def __bool__(self) -> bool:
        return any(self.values.values())


def vectorize(delta: PcDelta) -> np.ndarray:
    """One delta as a float feature row in ``COUNTER_ORDER``: unknown and
    unselected counters read 0."""
    return np.array([delta.values.get(cid, 0) for cid in COUNTER_ORDER], dtype=float)


def present_mask(delta: PcDelta) -> np.ndarray:
    """``bool[11]``: the counters whose change ``delta`` observed."""
    return np.array([cid not in delta.missing for cid in COUNTER_ORDER])


def delta_batch(deltas: Sequence[PcDelta]) -> DeltaBatch:
    """The batch builder: ``deltas`` as the arrays the engine reads, an
    unknown counter's cell 0 as the extractor leaves it."""
    rows = np.array(
        [[d.values.get(cid, 0) for cid in COUNTER_ORDER] for d in deltas], dtype=np.int64
    ).reshape(-1, len(COUNTER_ORDER))
    unknown = ~np.array([present_mask(d) for d in deltas], dtype=bool).reshape(rows.shape)
    rows[unknown] = 0
    return DeltaBatch(
        prev_t=np.array([d.prev_t for d in deltas], dtype=float),
        t=np.array([d.t for d in deltas], dtype=float),
        rows=rows,
        unknown=unknown,
        gap=np.array([d.gap for d in deltas], dtype=bool),
    )


def batch_deltas(batch: DeltaBatch) -> List[PcDelta]:
    """Each row of ``batch`` as a :class:`PcDelta`, its unknown counters
    left out of ``values`` and listed in ``missing``."""
    out = []
    for prev_t, t, row, unknown, gap in zip(
        batch.prev_t.tolist(),
        batch.t.tolist(),
        batch.rows.tolist(),
        batch.unknown.tolist(),
        batch.gap.tolist(),
    ):
        out.append(
            PcDelta(
                t=t,
                prev_t=prev_t,
                values={cid: v for cid, v, u in zip(COUNTER_ORDER, row, unknown) if not u},
                missing=tuple(sorted(cid for cid, u in zip(COUNTER_ORDER, unknown) if u)),
                gap=gap,
            )
        )
    return out


def feed_deltas(engine, deltas: Sequence[PcDelta], chunk: Optional[int] = None):
    """Feed ``deltas`` to an :class:`~repro.core.online.OnlineEngine` row
    by row, built into batches of ``chunk`` (one batch when ``None``);
    opens the stream if needed and returns the live result."""
    deltas = list(deltas)
    size = chunk or max(1, len(deltas))
    if engine._result is None:
        engine.begin()
    for lo in range(0, len(deltas), size):
        batch = delta_batch(deltas[lo : lo + size])
        for row in range(len(batch)):
            engine.feed(batch, row, row + 1)
    return engine._result


# ---------------------------------------------------------------------------
# the scalar read path: per-read samples and pairwise deltas


def counter_delta(
    before: Mapping[pc.CounterId, int], after: Mapping[pc.CounterId, int]
) -> Dict[pc.CounterId, int]:
    """Per-counter difference between two snapshots, handling wraparound."""
    out: Dict[pc.CounterId, int] = {}
    for counter_id, end in after.items():
        diff = end - before.get(counter_id, 0)
        if diff < 0:
            diff += pc.WRAP
        out[counter_id] = diff
    return out


@dataclass(frozen=True)
class PcSample:
    """One read of the currently-available selected counters: the
    per-read view of one :class:`~repro.kgsl.sampler.ReadBatch` row.

    ``missing`` lists configured counters whose registers were not held
    at read time (reclaimed by another client, re-registration pending);
    their values are *unknown*, not zero.
    """

    nominal_t: float
    t: float
    values: Dict[pc.CounterId, int]
    missing: Tuple[pc.CounterId, ...] = ()


def batch_samples(batch: ReadBatch) -> List[PcSample]:
    """Each read of one batch as a :class:`PcSample` view."""
    return [
        PcSample(
            nominal_t=nominal,
            t=t,
            values={cid: v for cid, v, m in zip(COUNTER_ORDER, row, mask) if not m},
            missing=tuple(sorted(cid for cid, m in zip(COUNTER_ORDER, mask) if m)),
        )
        for nominal, t, row, mask in zip(
            batch.nominal.tolist(), batch.t.tolist(), batch.rows.tolist(), batch.mask.tolist()
        )
    ]


def sample_range(
    sampler: PerfCounterSampler, t0: float, t1: float, load: SystemLoad = IDLE
) -> List[PcSample]:
    """Run the whole sampling loop over ``[t0, t1)`` and materialize every
    read as a :class:`PcSample` view."""
    chunk = max(1, int((t1 - t0) / sampler.interval_s) + 1)
    samples = []
    for batch in sampler.iter_batches(t0, t1, load=load, chunk=chunk):
        samples += batch_samples(batch)
    return samples


def masked_delta(prev: PcSample, cur: PcSample) -> PcDelta:
    """Difference two samples whose counter sets may disagree.

    Only counters present in *both* endpoints are differenced — a counter
    re-registered after a reclamation window would otherwise produce a
    bogus delta equal to its whole cumulative value.  Counters absent
    from either endpoint are reported in ``missing``.
    """
    common = prev.values.keys() & cur.values.keys()
    diff = counter_delta(
        {cid: prev.values[cid] for cid in common},
        {cid: cur.values[cid] for cid in common},
    )
    missing = set(prev.missing) | set(cur.missing)
    missing.update(cid for cid in prev.values.keys() ^ cur.values.keys())
    return PcDelta(t=cur.t, prev_t=prev.t, values=diff, missing=tuple(sorted(missing)))


def deltas(samples: Sequence[PcSample]) -> List[PcDelta]:
    """Consecutive-sample differences, one pair at a time."""
    out: List[PcDelta] = []
    for prev, cur in zip(samples, samples[1:]):
        if prev.missing or cur.missing or prev.values.keys() != cur.values.keys():
            out.append(masked_delta(prev, cur))
            continue
        out.append(PcDelta(t=cur.t, prev_t=prev.t, values=counter_delta(prev.values, cur.values)))
    return out


def nonzero_deltas(samples: Sequence[PcSample]) -> List[PcDelta]:
    """The reference for :func:`~repro.kgsl.sampler.nonzero_deltas_vectorized`:
    only the deltas where some counter moved (screen changed)."""
    return [d for d in deltas(samples) if d]


# ---------------------------------------------------------------------------
# the offline labeller, one delta at a time


def label_deltas(
    timeline: RenderTimeline, deltas: Iterable[PcDelta]
) -> Tuple[Dict[str, List[np.ndarray]], int, int]:
    """The reference for :func:`~repro.core.offline.label_samples`: each
    delta's window checked against the frames overlapping it.  Returns
    the feature vectors per class label and the clean and discarded
    window counts."""
    vectors: Dict[str, List[np.ndarray]] = {}
    clean = discarded = 0
    for delta in deltas:
        # frames contributing to this window: any overlap with (prev_t, t]
        involved = timeline.frames_overlapping(delta.prev_t, delta.t)
        if len(involved) != 1:
            discarded += 1
            continue
        frame = involved[0]
        if frame.start_s <= delta.prev_t or frame.end_s > delta.t:
            # partially accrued (split across reads)
            discarded += 1
            continue
        label = frame_to_class_label(frame.label)
        if label is None:
            discarded += 1
            continue
        clean += 1
        vectors.setdefault(label, []).append(vectorize(delta))
    return vectors, clean, discarded


# ---------------------------------------------------------------------------
# PcDelta arithmetic: what the engine's merged and halved batch rows mean


def merge(later: PcDelta, earlier: PcDelta) -> PcDelta:
    """Combine ``later`` with an *earlier* delta (Algorithm 1's split
    recovery).

    ``earlier`` must cover an interval no later than ``later``; equal
    timestamps are allowed so :func:`split` parts recombine.  A swapped
    call would fabricate a delta whose ``prev_t`` postdates its ``t``,
    so ordering is validated rather than trusted.
    """
    if earlier.t > later.t or earlier.prev_t > later.prev_t:
        raise ValueError(
            "merge() expects the earlier delta as its second argument: it "
            f"covers [{earlier.prev_t:.4f}, {earlier.t:.4f}], which does not "
            f"precede [{later.prev_t:.4f}, {later.t:.4f}]"
        )
    merged = dict(earlier.values)
    for counter_id, value in later.values.items():
        merged[counter_id] = merged.get(counter_id, 0) + value
    missing = (
        tuple(sorted(set(later.missing) | set(earlier.missing)))
        if (later.missing or earlier.missing)
        else ()
    )
    return PcDelta(
        t=later.t,
        prev_t=earlier.prev_t,
        values=merged,
        missing=missing,
        gap=later.gap or earlier.gap,
    )


def scaled(delta: PcDelta, factor: float) -> PcDelta:
    """``delta`` scaled by ``factor`` (duplication-halving heuristic).

    Values are floored deterministically: round-half-to-even would lose
    or invent events when a halved delta is later re-merged, breaking
    the :func:`split` round trip.
    """
    if factor < 0:
        raise ValueError("scale factor must be non-negative")
    return PcDelta(
        t=delta.t,
        prev_t=delta.prev_t,
        values={cid: int(v * factor) for cid, v in delta.values.items()},
        missing=delta.missing,
        gap=delta.gap,
    )


def split(delta: PcDelta, factor: float = 0.5) -> Tuple[PcDelta, PcDelta]:
    """Split into ``(part, remainder)`` that merge back exactly: ``part``
    is :func:`scaled` by ``factor`` and ``remainder`` carries every event
    the floor dropped, so ``merge(remainder, part).values == delta.values``.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError("split factor must be in [0, 1]")
    part = scaled(delta, factor)
    remainder = PcDelta(
        t=delta.t,
        prev_t=delta.prev_t,
        values={cid: v - part.values[cid] for cid, v in delta.values.items()},
        missing=delta.missing,
        gap=delta.gap,
    )
    return part, remainder


# ---------------------------------------------------------------------------
# tile geometry: the per-tile loop behind Rect.tile_counts


def tiles(rect: Rect, tile_w: int, tile_h: int) -> Iterator[Rect]:
    """Yield the grid tiles of size ``tile_w x tile_h`` overlapping ``rect``.

    Tiles are aligned to the global (0, 0) origin, the way a binning GPU
    aligns its bins to the render-target origin, so a rectangle that is
    not tile-aligned touches partial tiles at its edges.
    """
    if rect.is_empty:
        return
    start_x = (rect.left // tile_w) * tile_w
    y = (rect.top // tile_h) * tile_h
    while y < rect.bottom:
        x = start_x
        while x < rect.right:
            yield Rect(x, y, x + tile_w, y + tile_h)
            x += tile_w
        y += tile_h


def contains(outer: Rect, inner: Rect) -> bool:
    """``inner`` lies inside ``outer`` (an empty ``inner`` always does)."""
    if inner.is_empty:
        return True
    return (
        outer.left <= inner.left
        and outer.top <= inner.top
        and outer.right >= inner.right
        and outer.bottom >= inner.bottom
    )


# ---------------------------------------------------------------------------
# scalar views of vectorised or internal state


def geometry_factor(injector: DriftInjector, key: Tuple[int, int], now: float) -> float:
    """One counter's geometry multiplier at device time ``now``: the
    scalar form of the drift injector's batch value hook."""
    if now + injector.time_offset < injector.plan.geometry_onset_s:
        return 1.0
    return injector._geometry_shift(key)


def current_length(tracker: CorrectionTracker) -> Optional[int]:
    """The tracker's last validated field length, if any."""
    return tracker._validated.length if tracker._validated is not None else None


class Rows:
    """A batch of arbitrary payloads at row times ``t``: the minimal row
    batch a session runtime slices."""

    def __init__(self, t: Sequence[float], items: Sequence[object]) -> None:
        self.t = np.asarray(t, dtype=float)
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)


class IterableSource:
    """An event source over precomputed ``(t, payload)`` pairs or payloads
    with a ``.t`` attribute, each yielded as a one-row :class:`Rows`
    batch: the minimal harness for driving the session runtime in
    tests."""

    def __init__(self, items: Iterable) -> None:
        self._items = items

    def events(self) -> Iterator[Tuple[float, object]]:
        for item in self._items:
            t, payload = item if isinstance(item, tuple) else (float(item.t), item)
            yield (t, (Rows([t], [payload]), 0, 1))


class PerDeltaRuntime(SessionRuntime):
    """The session runtime as it dispatched one row per event: every row
    pops its session off the heap, is dispatched as a one-row slice, and
    pushes the session back keyed by the row's time.  A mode switch
    abandons the rest of the batch.  Slice dispatch must reproduce its
    trace, counters, results and step log."""

    def _run(self, heap: List[Tuple[float, int, Session]]) -> None:
        self._start(heap)
        rows: Dict[str, List] = {}
        while heap:
            _, _, session = heapq.heappop(heap)
            e0 = self.trace.emitted
            if session.id not in rows:
                event = next(session._events(), _END)
                if event is _END:
                    self._end(session, e0)
                    continue
                _, (batch, lo, hi) = event
                rows[session.id] = [batch, lo, hi]
            cursor = rows[session.id]
            batch, row, hi = cursor
            cursor[1] += 1
            if cursor[1] == hi:
                del rows[session.id]
            t = float(batch.t[row])
            self.clock.advance_to(t)
            session.last_t = t
            session.events_dispatched += 1
            session.stage.on_event(session, t, (batch, row, row + 1))
            if session._replacement is not None and session.id in rows:
                abandon = getattr(session.source, "abandon", None)
                if abandon is not None:
                    abandon(*rows[session.id])
                del rows[session.id]
            if session._apply_switch():
                self.trace.emit(t, session.id, "runtime", "mode_switch")
            self._record("event", session, t, e0)
            self._push(heap, session)
