"""The lifecycle demo: drift degrades, recalibration recovers — one engine.

:func:`run_lifecycle` streams ``segments`` repeated credential entries
through a *single* :class:`~repro.core.online.OnlineEngine` session
while a :class:`~repro.lifecycle.drift.DriftPlan` reshapes the counter
stream underneath it.  The drift injector's ``time_offset`` carries one
thermal trajectory across the per-segment KGSL fds, so the engine
experiences exactly what a long-running attack service would: early
segments classify cleanly, the throttle ramps in, accuracy collapses,
the :class:`~repro.lifecycle.calibration.CalibrationService` trips on
the suspect signals, re-fits the signature, and the engine hot-swaps
the model mid-session (:meth:`OnlineEngine.swap_model`) — after which
accuracy recovers without any session restart.

The report splits segments into three phases for the headline numbers:

* **baseline** — drift not yet active, original model;
* **drifted** — drift active, still on a stale model (inference made
  before any re-fit took effect);
* **recovered** — drift active, classified by a recalibrated model.

``recovery_ratio`` (recovered / baseline exact-credential accuracy) is
the quantity the lifecycle bench pins: ≥ 0.9 with calibration on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.model_store import ModelStore, VersionedModelStore
from repro.core.online import EngineStats, OnlineEngine
from repro.kgsl.interpose import build_chain, open_sampler
from repro.kgsl.sampler import DEFAULT_INTERVAL_S
from repro.lifecycle.calibration import (
    CALIBRATION_SPEC,
    CalibrationPolicy,
    CalibrationService,
)
from repro.lifecycle.drift import DRIFT_SPEC, DriftInjector, DriftPlan, DriftStats
from repro.obs import MetricsRegistry, resolve_registry
from repro.runtime.source import ATTACK_SOURCE_CHUNK, SamplerDeltaSource

#: Stream-clock pause between two credential entries.
SEGMENT_GAP_S = 0.4
#: The one victim device the stream models; its calibration window and
#: every re-fit's lineage are keyed by this id.
DEVICE_ID = "device-0"
#: Offline seed of the store trained when none is passed.
TRAIN_SEED = 7


@dataclass
class SegmentReport:
    """One credential entry within the lifecycle stream."""

    index: int
    start_s: float
    inferred: str
    exact: bool
    char_accuracy: float
    keys_inferred: int
    noise_events: int
    low_confidence_keys: int
    thermal_factor: float
    drift_active: bool
    recalibrated: bool
    model_version: int

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class LifecycleReport:
    """Aggregate outcome of one drift → recalibrate → recover run."""

    credential: str
    segments: List[SegmentReport] = field(default_factory=list)
    recalibrations: int = 0
    model_swaps: int = 0
    store_versions: int = 0
    baseline_exact: Optional[float] = None
    drifted_exact: Optional[float] = None
    recovered_exact: Optional[float] = None
    baseline_chars: Optional[float] = None
    drifted_chars: Optional[float] = None
    recovered_chars: Optional[float] = None
    recovery_ratio: Optional[float] = None
    drift: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "segments"
        }
        out["segments"] = [segment.as_dict() for segment in self.segments]
        return out


def _char_accuracy(inferred: str, credential: str) -> float:
    from repro.analysis.metrics import edit_distance

    if not credential:
        return 1.0 if not inferred else 0.0
    return max(0.0, 1.0 - edit_distance(inferred, credential) / len(credential))


def _phase_mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def run_lifecycle(
    credential: str = "Tr0ub4dor&3",
    segments: int = 6,
    seed: int = 24,
    store: Optional[ModelStore] = None,
    drift: Union[DriftPlan, None, str] = "thermal-harsh",
    calibration: Union[CalibrationPolicy, None, str] = "default",
    metrics: Optional[MetricsRegistry] = None,
    model_dir=None,
) -> LifecycleReport:
    """Stream repeated credential entries through one engine under drift.

    Args:
        credential: the text the victim types, once per segment.
        segments: how many entries the stream spans.
        seed: base RNG seed (segment ``i`` simulates with ``seed + i``).
        store: preloaded model store; trained on the fly for the default
            configuration and Chase when ``None``.  The victim is always
            the default configuration typing into Chase.
        drift: a :class:`DriftPlan`, a profile name, or ``None``.
        calibration: a :class:`CalibrationPolicy`, a profile name, or
            ``None`` to run the frozen-model control arm.
        model_dir: when set, every model generation — the offline
            original and each re-fit — lands in a
            :class:`VersionedModelStore` rooted there, with lineage.
    """
    from repro.android.apps import app
    from repro.android.os_config import default_config
    from repro.core.pipeline import simulate_credential_entry, train_store

    if not credential:
        raise ValueError("run_lifecycle() needs a non-empty credential")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    device_config = default_config()
    target = app("chase")
    if store is None:
        store = train_store([(device_config, target)], seed=TRAIN_SEED)
    metrics = resolve_registry(metrics)
    drift_plan = DRIFT_SPEC.resolve(drift)
    policy = CALIBRATION_SPEC.resolve(calibration)

    versioned: Optional[VersionedModelStore] = None
    if model_dir is not None:
        versioned = VersionedModelStore(model_dir)
        versioned.save(store, lineage={"reason": "offline", "seed": TRAIN_SEED})

    service: Optional[CalibrationService] = None
    if policy is not None:
        service = CalibrationService(policy, store=versioned, metrics=metrics)

    model = store.get(store.keys()[0])
    engine = OnlineEngine(
        model,
        interval_s=DEFAULT_INTERVAL_S,
        detect_switches=True,
        # each segment re-enters the credential from an empty field; the
        # correction tracker would read every restart as mass deletion
        track_corrections=False,
        # the ambient-deflation estimator would adopt the *drifted key*
        # direction from the recurring unexplained deltas and project
        # the signal itself out — the lifecycle answer to drift is
        # recalibration, not deflation
        recover_collisions=False,
        metrics=metrics,
        collect_evidence=service is not None,
    )
    live = engine.begin()

    report = LifecycleReport(credential=credential)
    drift_totals = DriftStats()
    cursor = 0.0
    generation = 0  # model generations applied so far (swaps)
    for index in range(segments):
        trace = simulate_credential_entry(
            device_config, target, credential, seed=seed + index
        )
        # one device: the drift trajectory keeps the run's seed and
        # continues at the stream clock
        sampler = open_sampler(
            trace,
            DEFAULT_INTERVAL_S,
            np.random.default_rng(1000 + seed + index),
            build_chain(drift=drift_plan, seed=seed, time_offset=cursor),
        )
        kgsl = sampler.device_file
        drift_injector = kgsl.interposer(DriftInjector)
        source = SamplerDeltaSource(
            sampler, 0.0, trace.end_time_s, chunk=ATTACK_SOURCE_CHUNK,
            metrics=metrics,
        )
        batches = [batch for _, (batch, _, _) in source.events()]
        for stage in kgsl.interposers:
            stage.flush_metrics(metrics)

        keys_before = len(live.keys)
        stats_before = replace(live.stats)
        segment_generation = generation
        for batch in batches:
            # the engine lives on one stream clock: shift this segment's
            # device-local timestamps to where the stream currently is
            shifted = replace(batch, t=batch.t + cursor, prev_t=batch.prev_t + cursor)
            engine.feed(shifted, 0, len(shifted))
        inferred = "".join(
            key.char for key in live.keys[keys_before:] if not key.deleted
        )
        seg_stats = EngineStats(
            **{
                f.name: getattr(live.stats, f.name) - getattr(stats_before, f.name)
                for f in fields(EngineStats)
            }
        )

        seg_drift = drift_injector.stats if drift_injector is not None else DriftStats()
        drift_totals.reads_scaled += seg_drift.reads_scaled
        drift_totals.thermal_samples += seg_drift.thermal_samples
        drift_totals.geometry_samples += seg_drift.geometry_samples
        drift_totals.min_thermal_factor = min(
            drift_totals.min_thermal_factor, seg_drift.min_thermal_factor
        )

        recalibrated = False
        if service is not None:
            evidence = engine.drain_evidence()
            service.observe(DEVICE_ID, seg_stats, evidence=evidence)
            if service.should_recalibrate(DEVICE_ID):
                refit = service.recalibrate(DEVICE_ID, engine.model)
                if refit is not None:
                    engine.swap_model(refit)
                    generation += 1
                    recalibrated = True
                    report.recalibrations += 1

        report.segments.append(
            SegmentReport(
                index=index,
                start_s=round(cursor, 4),
                inferred=inferred,
                exact=inferred == credential,
                char_accuracy=round(_char_accuracy(inferred, credential), 4),
                keys_inferred=seg_stats.keys_inferred,
                noise_events=seg_stats.noise_events,
                low_confidence_keys=seg_stats.low_confidence_keys,
                thermal_factor=round(
                    drift_injector.thermal_factor(trace.end_time_s)
                    if drift_injector is not None
                    else 1.0,
                    4,
                ),
                drift_active=seg_drift.reads_scaled > 0,
                recalibrated=recalibrated,
                model_version=segment_generation,
            )
        )
        cursor += trace.end_time_s + SEGMENT_GAP_S

    engine.finish()
    report.model_swaps = engine.model_swaps
    report.store_versions = len(versioned) if versioned is not None else 0
    report.drift = drift_totals.as_dict()

    baseline = [s for s in report.segments if not s.drift_active]
    drifted = [
        s for s in report.segments if s.drift_active and s.model_version == 0
    ]
    # "recovered" is the stable regime: segments after the *last* re-fit
    # (mid-chase segments between re-fits are still converging and count
    # for neither phase)
    recal_indices = [s.index for s in report.segments if s.recalibrated]
    last_recal = recal_indices[-1] if recal_indices else None
    recovered = [
        s
        for s in report.segments
        if s.drift_active and last_recal is not None and s.index > last_recal
    ]
    report.baseline_exact = _phase_mean([float(s.exact) for s in baseline])
    report.drifted_exact = _phase_mean([float(s.exact) for s in drifted])
    report.recovered_exact = _phase_mean([float(s.exact) for s in recovered])
    report.baseline_chars = _phase_mean([s.char_accuracy for s in baseline])
    report.drifted_chars = _phase_mean([s.char_accuracy for s in drifted])
    report.recovered_chars = _phase_mean([s.char_accuracy for s in recovered])
    if report.baseline_exact:
        post = (
            report.recovered_exact
            if report.recovered_exact is not None
            else report.drifted_exact
        )
        if post is None:
            # no drift ever became active: accuracy was never threatened
            report.recovery_ratio = 1.0
        else:
            report.recovery_ratio = round(post / report.baseline_exact, 4)

    if metrics.enabled:
        metrics.counter("lifecycle.segments").inc(len(report.segments))
        if report.recalibrations:
            metrics.counter("lifecycle.recalibrations").inc(report.recalibrations)
    return report
