"""The lifecycle demo: drift degrades, recalibration recovers — one session.

:func:`run_lifecycle` streams ``segments`` repeated credential entries
as one runtime :class:`~repro.runtime.session.Session` through the
:class:`~repro.core.pipeline.AttackStage` every online attack runs,
while a :class:`~repro.lifecycle.drift.DriftPlan` throttles the counters
underneath it: early segments classify cleanly, accuracy collapses, the
stage's calibration step trips at a segment boundary and hot-swaps a
re-fit into the open engine, and accuracy recovers without a restart.
Every decision, re-fit and swap lands in the runtime's trace.

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
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.android.device import SessionTrace
from repro.core.model_store import ModelStore, VersionedModelStore
from repro.core.online import EngineStats, OnlineResult
from repro.kgsl.interpose import build_chain, open_sampler
from repro.kgsl.sampler import DEFAULT_INTERVAL_S
from repro.lifecycle.calibration import CalibrationPolicy
from repro.lifecycle.drift import DRIFT_SPEC, DriftInjector, DriftPlan, DriftStats
from repro.obs import MetricsRegistry, resolve_registry
from repro.runtime import SamplerDeltaSource, Session, SessionRuntime
from repro.runtime.source import ATTACK_SOURCE_CHUNK, SourceEvent

#: Stream-clock pause between two credential entries.
SEGMENT_GAP_S = 0.4
#: Offline seed of the store trained when none is passed.
TRAIN_SEED = 7
#: The :class:`DriftStats` fields the report sums over segments.
DRIFT_TALLIES = ("reads_scaled", "thermal_samples", "geometry_samples")


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "segments"}
        out["segments"] = [segment.as_dict() for segment in self.segments]
        return out


def _char_accuracy(inferred: str, credential: str) -> float:
    from repro.analysis.metrics import edit_distance

    return max(0.0, 1.0 - edit_distance(inferred, credential) / len(credential))


def _phase_mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


class SegmentStream:
    """The lifecycle session's source: the segments' fds on one clock.

    Segment ``i`` reads ``traces[i]`` with sampler RNG ``1000 + seed + i``
    and a drift chain seeded ``seed`` that continues the trajectory from
    the segment's stream-clock start; ``sampler`` is the current one.  The
    runtime pulls only once every row it holds is dispatched, so where the
    stream moves on, all of a segment's rows have reached the stage: there
    it flushes the segment's fd metrics and runs the stage's calibration
    step, as ``on_end`` does for the last.  Drift logs no fault notes.
    """

    def __init__(self, traces: Sequence[SessionTrace], drift, seed: int, metrics) -> None:
        self.traces, self.metrics = traces, metrics
        gaps = (trace.end_time_s + SEGMENT_GAP_S for trace in traces[:-1])
        self.starts = list(accumulate(gaps, initial=0.0))
        self.samplers = [
            open_sampler(
                trace,
                DEFAULT_INTERVAL_S,
                np.random.default_rng(1000 + seed + index),
                build_chain(drift=drift, seed=seed, time_offset=start),
            )
            for index, (trace, start) in enumerate(zip(traces, self.starts))
        ]
        self.sampler = self.samplers[0]
        #: the session this stream feeds, set while it runs
        self.session: Optional[Session] = None
        #: the session's (keys, stats, re-fits) at each segment boundary
        self.marks: List[Tuple[int, EngineStats, int]] = [(0, EngineStats(), 0)]

    def events(self) -> Iterator[SourceEvent]:
        for trace, start, sampler in zip(self.traces, self.starts, self.samplers):
            if sampler is not self.sampler:
                session = self.session
                self.sampler.flush_metrics(self.metrics)
                session.stage.calibrate(session, session.last_t)
                engine = session.stage.engine
                self.mark(engine.result if engine is not None else OnlineResult())
                self.sampler = sampler
            source = SamplerDeltaSource(
                sampler, 0.0, trace.end_time_s, chunk=ATTACK_SOURCE_CHUNK, metrics=self.metrics
            )
            for _, (batch, lo, hi) in source.events():
                batch = replace(batch, t=batch.t + start, prev_t=batch.prev_t + start)
                yield float(batch.t[0]), (batch, lo, hi)

    def mark(self, result: OnlineResult) -> None:
        """Record where the session stands at a segment boundary."""
        refits = self.session.trace.counters.get(("attack", "model_recalibrated"), 0)
        self.marks.append((len(result.keys), replace(result.stats), refits))


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
    """Stream repeated credential entries through one session under drift.

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
    from repro.api import AttackConfig, _attacker
    from repro.core.pipeline import AttackStage, simulate_credential_entry, train_store

    if not credential:
        raise ValueError("run_lifecycle() needs a non-empty credential")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    device_config = default_config()
    target = app("chase")
    if store is None:
        store = train_store([(device_config, target)], seed=TRAIN_SEED)
    metrics = resolve_registry(metrics)
    attack = _attacker(
        store,
        AttackConfig(
            recognize_device=False,
            # every segment restarts from an empty field, which the
            # correction tracker would read as mass deletion
            track_corrections=False,
            # ambient deflation would adopt the drifted key direction and
            # project the signal out: drift's answer is recalibration
            recover_collisions=False,
            fault_plan=None,
            drift=None,  # the stream builds each segment's drift chain
            calibration=calibration,
        ),
        metrics,
    )
    versioned: Optional[VersionedModelStore] = None
    if model_dir is not None:
        versioned = VersionedModelStore(model_dir)
        versioned.save(store, lineage={"reason": "offline", "seed": TRAIN_SEED})
        if attack.calibration is not None:
            attack.calibration.store = versioned

    traces = [
        simulate_credential_entry(device_config, target, credential, seed=seed + index)
        for index in range(segments)
    ]
    stream = SegmentStream(traces, DRIFT_SPEC.resolve(drift), seed, metrics)
    runtime = SessionRuntime(metrics=metrics)
    session = stream.session = runtime.add_session(
        Session("lifecycle", stream, AttackStage(attack, stream))
    )
    runtime.run()
    online = session.result.online
    stream.mark(online)
    stream.session = None  # no session <-> source cycle outlives the run

    report = LifecycleReport(credential=credential)
    injectors = [sampler.device_file.interposer(DriftInjector) for sampler in stream.samplers]
    for index, (trace, injector) in enumerate(zip(traces, injectors)):
        (key0, stats0, refits0), (key1, stats1, refits1) = stream.marks[index : index + 2]
        inferred = "".join(key.char for key in online.keys[key0:key1] if not key.deleted)
        seg_stats = stats1.since(stats0)
        report.segments.append(
            SegmentReport(
                index=index,
                start_s=round(stream.starts[index], 4),
                inferred=inferred,
                exact=inferred == credential,
                char_accuracy=round(_char_accuracy(inferred, credential), 4),
                keys_inferred=seg_stats.keys_inferred,
                noise_events=seg_stats.noise_events,
                low_confidence_keys=seg_stats.low_confidence_keys,
                thermal_factor=round(
                    injector.thermal_factor(trace.end_time_s) if injector is not None else 1.0, 4
                ),
                drift_active=injector is not None and injector.stats.reads_scaled > 0,
                recalibrated=refits1 > refits0,
                model_version=refits0,
            )
        )
    drifts = [injector.stats for injector in injectors if injector is not None]
    totals = DriftStats(*(sum(getattr(d, f) for d in drifts) for f in DRIFT_TALLIES))
    totals.min_thermal_factor = min([1.0] + [d.min_thermal_factor for d in drifts])
    report.drift = totals.as_dict()
    report.recalibrations = stream.marks[-1][2]
    report.model_swaps = session.stage.engine.model_swaps
    report.store_versions = len(versioned) if versioned is not None else 0

    segs = report.segments
    baseline = [s for s in segs if not s.drift_active]
    drifted = [s for s in segs if s.drift_active and s.model_version == 0]
    # "recovered" is the stable regime after the *last* re-fit (segments
    # between re-fits are still converging and count for neither phase)
    last_refit = max((s.index for s in segs if s.recalibrated), default=-1)
    recovered = [s for s in segs if s.drift_active and 0 <= last_refit < s.index]
    report.baseline_exact = _phase_mean([float(s.exact) for s in baseline])
    report.drifted_exact = _phase_mean([float(s.exact) for s in drifted])
    report.recovered_exact = _phase_mean([float(s.exact) for s in recovered])
    report.baseline_chars = _phase_mean([s.char_accuracy for s in baseline])
    report.drifted_chars = _phase_mean([s.char_accuracy for s in drifted])
    report.recovered_chars = _phase_mean([s.char_accuracy for s in recovered])
    if report.baseline_exact:
        post = report.drifted_exact if report.recovered_exact is None else report.recovered_exact
        # no drift ever became active: accuracy was never threatened
        report.recovery_ratio = 1.0 if post is None else round(post / report.baseline_exact, 4)

    if metrics.enabled:
        metrics.counter("lifecycle.segments").inc(len(report.segments))
        if report.recalibrations:
            metrics.counter("lifecycle.recalibrations").inc(report.recalibrations)
    return report
