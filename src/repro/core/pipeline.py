"""End-to-end attack pipeline: the public high-level API.

Ties together the full chain of the paper's Fig 4:

* **Offline**: :func:`train_model` / :func:`train_store` run the bot on
  attacker-controlled device configurations and preload the model store.
* **Online**: :class:`EavesdropAttack` builds a runtime session — a live
  counter sampler feeding an :class:`AttackStage` (device recognition +
  the Algorithm 1 engine) — and drives it on a
  :class:`~repro.runtime.session.SessionRuntime`.  The same session spec
  plugs into the monitoring service's mode switch and into
  :func:`run_sessions`, which multiplexes many victims on one runtime.

Typical use::

    store = train_store([(config, app)])
    attack = EavesdropAttack(store)
    trace = simulate_credential_entry(config, app, "hunter2secret", seed=1)
    result = attack.run_on_trace(trace)
    assert result.text == "hunter2secret"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults as faults_mod
from repro.android.apps import AppSpec
from repro.android.device import SessionTrace, VictimDevice
from repro.android.os_config import DeviceConfig
from repro.core.device_recognition import (
    MAX_RECOGNITION_DELTAS,
    DeviceRecognizer,
    RecognitionResult,
)
from repro.core.model_store import ModelStore
from repro.core.offline import OfflineTrainer
from repro.core.online import InferredKey, OnlineEngine, OnlineResult
from repro.core.classifier import ClassificationModel
from repro.kgsl.interpose import build_chain, open_sampler
from repro.lifecycle.calibration import (
    CALIBRATION_SPEC,
    CalibrationPolicy,
    CalibrationService,
)
from repro.lifecycle.drift import DRIFT_SPEC, DriftPlan
from repro.kgsl.sampler import (
    DEFAULT_INTERVAL_S,
    IDLE,
    DeltaBatch,
    SystemLoad,
)
from repro.mitigations.policy import MITIGATION_SPEC, MitigationPolicy
from repro.obs import MetricsRegistry, RunManifest, resolve_registry
from repro.runtime import (
    RuntimeTrace,
    SamplerDeltaSource,
    Session,
    SessionRuntime,
)
from repro.runtime.source import ATTACK_SOURCE_CHUNK
from repro.workloads.background import render_slowdown, with_background_load
from repro.workloads.behavior import typing_events
from repro.workloads.typing_model import TypingModel

#: Quiet time a simulated entry keeps rendering after its last key.
SESSION_TAIL_S = 1.2


def train_model(
    config: DeviceConfig,
    app: AppSpec,
    seed: int = 7,
    interval_s: float = DEFAULT_INTERVAL_S,
    sweep_repeats: int = 4,
):
    """Offline-train the classification model for one (config, app) pair."""
    trainer = OfflineTrainer(
        config, app, rng=np.random.default_rng(seed), interval_s=interval_s
    )
    return trainer.train(sweep_repeats=sweep_repeats)


def train_store(
    pairs: Iterable[Tuple[DeviceConfig, AppSpec]],
    seed: int = 7,
    interval_s: float = DEFAULT_INTERVAL_S,
    sweep_repeats: int = 4,
) -> ModelStore:
    """Offline phase over several configurations: the preloaded store."""
    store = ModelStore()
    for i, (config, app) in enumerate(pairs):
        store.add(
            train_model(
                config,
                app,
                seed=seed + i,
                interval_s=interval_s,
                sweep_repeats=sweep_repeats,
            )
        )
    return store


def simulate_credential_entry(
    config: DeviceConfig,
    app: AppSpec,
    text: str,
    seed: int = 1,
    speed_tier: Optional[str] = None,
    gpu_utilization: float = 0.0,
) -> SessionTrace:
    """Compile a victim session where ``text`` is typed into ``app``;
    sampling runs :data:`SESSION_TAIL_S` past the last key."""
    rng = np.random.default_rng(seed)
    typing = TypingModel(rng)
    events = typing_events(text, typing, start_s=0.6, speed_tier=speed_tier)
    slowdown = render_slowdown(gpu_utilization) if gpu_utilization else 1.0
    device = VictimDevice(config, app, rng=rng, render_slowdown=slowdown)
    end = (events[-1].t if events else 0.6) + SESSION_TAIL_S
    trace = device.compile(events, end_time_s=end)
    if gpu_utilization:
        trace.timeline = with_background_load(
            trace.timeline, config.gpu, config.display, gpu_utilization, end, rng=rng
        )
    return trace


@dataclass
class AttackResult:
    """Everything the attacking application would send home, plus
    diagnostics for the evaluation harness.

    Satisfies the :class:`~repro.core.results.SessionResult` protocol
    (``keys`` / ``text`` / ``stats`` / ``trace``).  ``faults`` carries
    the exact injected-fault tally when a fault plan was active, and
    ``degraded`` says whether the resilience layer had to intervene.
    """

    online: OnlineResult
    model_key: str
    recognition: Optional[RecognitionResult]
    reads_issued: int
    reads_dropped: int
    faults: Optional[faults_mod.FaultStats] = None
    degraded: bool = False
    trace: Optional[RuntimeTrace] = None
    manifest: Optional[RunManifest] = None

    @property
    def keys(self) -> List[InferredKey]:
        return self.online.keys

    @property
    def text(self) -> str:
        return self.online.text

    @property
    def stats(self):
        return self.online.stats

    @property
    def latency(self):
        """The per-inference classifier-latency histogram (Fig 25)."""
        return self.online.latency


class AttackStage:
    """Device recognition + the Algorithm 1 engine as one runtime stage.

    The stage consumes the nonzero-delta stream of ``source``, one
    ``(batch, lo, hi)`` slice of a batch's rows per event.  While the
    model is unresolved it buffers slices; once enough rows have arrived
    for :class:`DeviceRecognizer` (or immediately, when recognition is
    disabled or a model key is forced), it instantiates the engine,
    replays the buffer into it, and streams from there on, one
    :meth:`OnlineEngine.feed` per slice, split where a row raises a new
    degraded reason so its event lands between the same engine events
    as delta by delta.  ``on_end`` closes the engine and publishes the
    :class:`AttackResult` as the session's result.
    """

    name = "attack"

    def __init__(
        self,
        attack: "EavesdropAttack",
        source: SamplerDeltaSource,
        model_key: Optional[str] = None,
    ) -> None:
        self.attack = attack
        self.sampler = source.sampler
        self.kgsl = self.sampler.device_file
        self.faults = self.kgsl.interposer(faults_mod.FaultInjector)
        self.metrics = attack.metrics
        self.forced_model_key = model_key
        self.model_key: Optional[str] = None
        self.recognition: Optional[RecognitionResult] = None
        self.engine: Optional[OnlineEngine] = None
        #: buffered ``(batch, lo, hi)`` slices and their row count,
        #: replayed once resolved
        self._pending: List[Tuple[DeltaBatch, int, int]] = []
        self._buffered = 0
        self._recognize_after = (
            MAX_RECOGNITION_DELTAS
            if model_key is None
            and attack.recognize_device
            and len(attack.store) > 1
            else 0
        )

    # ------------------------------------------------------------------

    def _resolve(self, session, t: float) -> None:
        """Pick the classification model and spin up the engine; ``t`` is
        the time of the row that completed the recognition buffer."""
        attack = self.attack
        if self.forced_model_key is not None:
            self.model_key = self.forced_model_key
        elif self._recognize_after:
            # narrow the candidates with the unprivileged chip-id query
            from repro.kgsl.ioctl import (
                IOCTL_KGSL_DEVICE_GETPROPERTY,
                KGSL_PROP_DEVICE_INFO,
                KgslDeviceGetProperty,
            )

            prop = KgslDeviceGetProperty(type=KGSL_PROP_DEVICE_INFO)
            self.kgsl.ioctl(IOCTL_KGSL_DEVICE_GETPROPERTY, prop)
            recognizer = DeviceRecognizer(attack.store)
            self.recognition = recognizer.recognize(
                np.concatenate([batch.rows[lo:hi] for batch, lo, hi in self._pending]),
                present=~np.concatenate(
                    [batch.unknown[lo:hi] for batch, lo, hi in self._pending]
                ),
                adreno_model=prop.value.adreno_model,
            )
            self.model_key = self.recognition.model_key
            session.trace.emit(
                t,
                session.id,
                self.name,
                "device_recognized",
                model_key=self.model_key,
                score=self.recognition.score,
            )
        else:
            self.model_key = attack.store.keys()[0]
        model = attack.current_model(self.model_key)
        self.engine = OnlineEngine(
            model,
            interval_s=attack.interval_s,
            detect_switches=attack.detect_switches,
            track_corrections=attack.track_corrections,
            recover_collisions=attack.recover_collisions,
            trace=session.trace,
            session=session.id,
            metrics=self.metrics,
            collect_evidence=attack.calibration is not None,
        )
        self.engine.begin()
        for batch, lo, hi in self._pending:
            self.engine.feed(batch, lo, hi)
        self._pending = []

    # ------------------------------------------------------------------

    def _drain_faults(self, session, t: float) -> None:
        """Publish the sampler's resilience events into the shared trace.

        Covers injected-fault recovery *and* access-policy denials — both
        land in the sampler's fault log.  With neither active the log is
        always empty and this returns after one attribute check.
        """
        if not self.sampler.fault_log:
            return
        count_events = self.metrics.enabled
        for kind, detail in self.sampler.drain_fault_log():
            session.trace.emit(t, session.id, self.name, kind, **detail)
            session.mark_degraded(t, kind)
            if count_events:
                self.metrics.counter(f"faults.events.{kind}").inc()

    def on_event(self, session, t: float, rows: Tuple[DeltaBatch, int, int]) -> None:
        self._drain_faults(session, t)
        batch, lo, hi = rows
        if self.faults is not None:
            for row, reason in self._new_reasons(session, batch, lo, hi):
                self._feed(session, batch, lo, row)
                session.mark_degraded(float(batch.t[row]), reason)
                lo = row
        self._feed(session, batch, lo, hi)

    @staticmethod
    def _new_reasons(session, batch: DeltaBatch, lo: int, hi: int) -> List[Tuple[int, str]]:
        """The first row of ``[lo, hi)`` to raise each degraded reason the
        session has not recorded yet (a masked delta, else a gap), in row
        order."""
        recorded = session.degraded_reasons
        if "masked_delta" in recorded and "gap" in recorded:
            return []
        masked = batch.unknown[lo:hi].any(axis=1)
        firsts = []
        for reason, mask in (("masked_delta", masked), ("gap", batch.gap[lo:hi] & ~masked)):
            if reason not in recorded and mask.any():
                firsts.append((lo + int(mask.argmax()), reason))
        return sorted(firsts)

    def _feed(self, session, batch: DeltaBatch, lo: int, hi: int) -> None:
        """Rows ``[lo, hi)`` into the engine, or the recognition buffer
        until it resolves."""
        if lo == hi:
            return
        if self.engine is None:
            wanted = max(1, self._recognize_after)
            take = min(hi - lo, wanted - self._buffered)
            self._pending.append((batch, lo, lo + take))
            self._buffered += take
            if self._buffered < wanted:
                return
            lo += take
            self._resolve(session, float(batch.t[lo - 1]))
            if lo == hi:
                return
        self.engine.feed(batch, lo, hi)

    def on_end(self, session, t: float) -> None:
        self._drain_faults(session, t)
        if self.engine is None and (self._pending or not self._recognize_after):
            self._resolve(session, session.last_t)
        if self.engine is None:
            if self.sampler.counters_denied:
                # an access policy blinded the sampler: there is nothing
                # to recognize from, so fall back to the first model and
                # report an empty inference instead of crashing the run
                self._recognize_after = 0
                self._resolve(session, session.last_t)
            else:
                # recognition was required but the stream stayed empty
                raise ValueError("no nonzero PC changes to recognize from")
        online = self.engine.finish()
        service = self.attack.calibration
        if service is not None and self.model_key is not None:
            evidence = self.engine.drain_evidence()
            service.observe(self.model_key, online.stats, evidence=evidence)
            if service.should_recalibrate(self.model_key):
                refit = service.recalibrate(
                    self.model_key, self.attack.current_model(self.model_key)
                )
                if refit is not None:
                    self.attack._live_models[self.model_key] = refit
                    session.trace.emit(
                        t,
                        session.id,
                        self.name,
                        "model_recalibrated",
                        model_key=self.model_key,
                        generation=refit.metadata["recalibration"]["generation"],
                    )
        self.sampler.flush_metrics(self.metrics)
        for stage in self.kgsl.interposers:
            stage.flush_metrics(self.metrics)
        faults = self.faults.stats if self.faults is not None else None
        session.result = AttackResult(
            online=online,
            model_key=self.model_key,
            recognition=self.recognition,
            reads_issued=self.sampler.reads_issued,
            reads_dropped=self.sampler.reads_dropped,
            faults=faults,
            degraded=session.degraded or (faults is not None and faults.total > 0),
            trace=session.trace,
        )


class EavesdropAttack:
    """The online attacking application."""

    def __init__(
        self,
        store: ModelStore,
        interval_s: float = DEFAULT_INTERVAL_S,
        recognize_device: bool = True,
        detect_switches: bool = True,
        track_corrections: bool = True,
        recover_collisions: bool = True,
        fault_plan: Union[faults_mod.FaultPlan, None, str] = "auto",
        metrics: Optional[MetricsRegistry] = None,
        mitigation: Union[MitigationPolicy, None, str] = None,
        drift: Union[DriftPlan, None, str] = None,
        calibration: Union[CalibrationPolicy, None, str] = None,
    ) -> None:
        if len(store) == 0:
            raise ValueError("model store is empty — run the offline phase first")
        self.store = store
        self.interval_s = interval_s
        self.recognize_device = recognize_device
        self.detect_switches = detect_switches
        self.track_corrections = track_corrections
        self.recover_collisions = recover_collisions
        # the KGSL interposer specs: resolved once here, then every
        # session builds its own freshly seeded chain from them
        self.fault_plan = faults_mod.FAULT_SPEC.resolve(fault_plan)
        self.mitigation = MITIGATION_SPEC.resolve(mitigation)
        self.drift_plan = DRIFT_SPEC.resolve(drift)
        self.metrics = resolve_registry(metrics)
        policy = CALIBRATION_SPEC.resolve(calibration)
        #: Optional per-device recalibration; one service spans every
        #: session this attack runs, so suspect evidence accumulates
        #: across sessions and a re-fit carries to the next one.
        self.calibration: Optional[CalibrationService] = (
            CalibrationService(policy, metrics=self.metrics)
            if policy is not None
            else None
        )
        #: Latest model generation per model key — re-fits land here;
        #: the offline store itself is never mutated.
        self._live_models: Dict[str, ClassificationModel] = {}

    def current_model(self, model_key: str) -> ClassificationModel:
        """The newest generation for ``model_key`` — the offline model
        until the calibration service produces a re-fit for it."""
        live = self._live_models.get(model_key)
        return live if live is not None else self.store.get(model_key)

    def session_spec(
        self,
        trace: SessionTrace,
        load: SystemLoad = IDLE,
        seed: int = 99,
        model_key: Optional[str] = None,
    ) -> Tuple[SamplerDeltaSource, AttackStage]:
        """Build the (source, stage) pair for one attack-mode session.

        Opens a fresh KGSL fd on the victim timeline with this attack's
        interposer chain seeded from ``seed``, wires up the 8 ms sampler,
        and returns the runtime pieces; both :meth:`run_on_trace` and the
        monitoring service's escalation plug these into a
        :class:`SessionRuntime`.
        """
        sampler = open_sampler(
            trace,
            self.interval_s,
            np.random.default_rng(seed),
            build_chain(self.fault_plan, self.mitigation, self.drift_plan, seed),
        )
        source = SamplerDeltaSource(
            sampler, 0.0, trace.end_time_s, load=load, chunk=ATTACK_SOURCE_CHUNK,
            metrics=self.metrics,
        )
        return source, AttackStage(self, source, model_key=model_key)

    def run_on_trace(
        self,
        trace: SessionTrace,
        load: SystemLoad = IDLE,
        seed: int = 99,
        model_key: Optional[str] = None,
        runtime_trace: Optional[RuntimeTrace] = None,
    ) -> AttackResult:
        """Sample the victim timeline and infer the typed credential.

        Args:
            trace: compiled victim session.
            load: concurrent CPU/GPU utilization (Section 7.3).
            seed: RNG seed for the sampler's scheduling jitter and for the
                session's interposer chain.
            model_key: skip recognition and force a specific model.
            runtime_trace: optional shared event log to record decisions in.
        """
        runtime = SessionRuntime(trace=runtime_trace, metrics=self.metrics)
        source, stage = self.session_spec(
            trace, load=load, seed=seed, model_key=model_key
        )
        session = runtime.add_session(Session("attack", source, stage))
        runtime.run()
        result = session.result
        if self.metrics.enabled:
            result.manifest = self.metrics.manifest(sessions=1)
        return result


class SessionBatch(List[AttackResult]):
    """The results of one batched run — a plain list of
    :class:`AttackResult`, plus the batch-level :attr:`manifest`
    (``None`` unless the attack carried an enabled metrics registry)."""

    manifest: Optional[RunManifest] = None


def run_sessions(
    attack: EavesdropAttack,
    traces: Sequence[SessionTrace],
    load: SystemLoad = IDLE,
    seed: int = 99,
    runtime_trace: Optional[RuntimeTrace] = None,
) -> SessionBatch:
    """Batched online phase: N victim sessions on one session runtime.

    Every trace becomes its own runtime session (own KGSL fd, own
    scheduling RNG seeded ``seed + i``), all multiplexed on a single
    virtual timeline in one process.  Results are byte-identical to
    running each trace alone with the same seed — the scheduler
    interleaves but never perturbs sessions.
    """
    runtime = SessionRuntime(trace=runtime_trace, metrics=attack.metrics)
    sessions = []
    for i, trace in enumerate(traces):
        source, stage = attack.session_spec(trace, load=load, seed=seed + i)
        sessions.append(runtime.add_session(Session(f"attack-{i}", source, stage)))
    runtime.run()
    batch = SessionBatch(s.result for s in sessions)
    if attack.metrics.enabled:
        batch.manifest = attack.metrics.manifest(sessions=len(sessions))
    return batch
