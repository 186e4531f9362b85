"""The stable public API of the reproduction.

Everything an application, example, or the CLI needs lives here — one
flat namespace with the facade functions, one unified configuration
object, and the supporting types its consumers import:

* :func:`train` — offline phase over (device config, app) pairs;
* :func:`attack` — online phase against one victim session trace;
* :func:`run_sessions` — the batched online phase (N victims, one
  session runtime; ``workers=N`` shards the batch across processes);
* :func:`monitor` — the full background-service pipeline (idle watch,
  launch detection, attack escalation);
* :func:`simulate` — compile a victim credential-entry session;
* :func:`run_fleet` — N simulated devices streaming results into one
  backpressured collector service (see ``docs/collector.md``);
* :class:`AttackConfig` — every tunable of the pipeline in one
  serializable dataclass (sampler cadence, engine toggles, service
  windows, system load, fault plan).

Import stability contract: ``examples/`` and ``repro.cli`` import only
from this module (enforced by a test), so internal reorganizations of
``repro.core`` / ``repro.runtime`` never break downstream code.  The
export list holds only what is used: a name stays in ``__all__`` only
if the examples, the CLI, the package docstring, the benchmarks or the
docs import it, or if it types a facade parameter, return value or
:class:`AttackConfig` field (also enforced by a test).  All
run-level results satisfy :class:`~repro.core.results.SessionResult` —
the shared ``keys`` / ``text`` / ``stats`` / ``trace`` accessors.

The full reference — facade signatures, every :class:`AttackConfig`
field, the result protocol, and the ``workers=`` semantics — lives in
``docs/api.md``; the layer-by-layer architecture narrative is
``docs/architecture.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.faults import FAULT_PROFILE_ENV, FAULT_SPEC, FaultPlan
from repro.android.apps import APP_REGISTRY, AppSpec, app
from repro.android.device import SessionTrace, VictimDevice
from repro.android.events import BackspacePress, KeyPress
from repro.android.keyboard import (
    KEYBOARD_REGISTRY,
    KEYBOARDS,
    KeyboardSpec,
    keyboard,
    register_keyboard,
)
from repro.android.os_config import PHONE_REGISTRY, DeviceConfig, default_config, phone
from repro.analysis.defense import format_defense_matrix, run_defense_matrix
from repro.analysis.experiments import (
    cached_model,
    run_per_key_sweep,
    single_model_attack,
)
from repro.analysis.metrics import align, edit_distance
from repro.analysis.report import bar_chart, generate_report
from repro.analysis.traces import TraceSummary, annotate, render_trace
from repro.collector import (
    CollectorClient,
    CollectorConfig,
    CollectorHandle,
    FleetDriver,
    FleetReport,
    KillDrill,
    SessionResultPayload,
)
from repro.core.guessing import CandidateGenerator
from repro.core.model_store import ModelStore
from repro.core.pipeline import (
    AttackResult,
    EavesdropAttack,
    SessionBatch,
    simulate_credential_entry,
    train_model,
    train_store,
)
from repro.core.pipeline import run_sessions as _pipeline_run_sessions
from repro.core.results import SessionResult
from repro.core.service import MonitoringService, ServiceReport
from repro.gpu import counters
from repro.kgsl.device_file import DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.ioctl import IoctlError
from repro.kgsl.sampler import DEFAULT_INTERVAL_S, PerfCounterSampler, SystemLoad
from repro.lifecycle import (
    CALIBRATION_PROFILES,
    CALIBRATION_SPEC,
    DRIFT_PROFILES,
    DRIFT_SPEC,
    CalibrationPolicy,
    DriftPlan,
    run_lifecycle,
)
from repro.mitigations.policy import (
    MITIGATION_REGISTRY,
    MITIGATION_SPEC,
    MitigationPolicy,
    compose,
    mitigation,
    mitigation_names,
    register_mitigation,
)
from repro.mitigations.popup_disable import config_with_popups_disabled
from repro.obs import MetricsRegistry
from repro.parallel import ShardedRuntime
from repro.registry import UnknownNameError, spec_from_dict, spec_to_dict
from repro.runtime import RuntimeTrace, SamplerDeltaSource
from repro.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    register_scenario,
    scenario,
    scenario_names,
)

# Collision-safe alias: facade internals use this so a ``scenario=``
# keyword or field never shadows the lookup function.
from repro.scenarios import scenario as _scenario_lookup
from repro.workloads.credentials import (
    character_group,
    credential_batch,
    scenario_credential,
)

__all__ = [
    # facade
    "AttackConfig",
    "train",
    "attack",
    "run_sessions",
    "monitor",
    "simulate",
    "run_fleet",
    # results
    "SessionResult",
    "AttackResult",
    "ServiceReport",
    "SessionBatch",
    # engine / model
    "EavesdropAttack",
    "ModelStore",
    "CandidateGenerator",
    "train_model",
    "simulate_credential_entry",
    # device registry
    "AppSpec",
    "app",
    "APP_REGISTRY",
    "DeviceConfig",
    "phone",
    "PHONE_REGISTRY",
    "KeyboardSpec",
    "keyboard",
    "register_keyboard",
    "KEYBOARD_REGISTRY",
    "KEYBOARDS",
    "default_config",
    # scenarios
    "Scenario",
    "scenario",
    "scenario_names",
    "register_scenario",
    "SCENARIO_REGISTRY",
    "UnknownNameError",
    # victim-side simulation
    "SessionTrace",
    "VictimDevice",
    "KeyPress",
    "BackspacePress",
    # low-level KGSL access
    "DeviceClock",
    "ProcessContext",
    "open_kgsl",
    "PerfCounterSampler",
    "SamplerDeltaSource",
    "IoctlError",
    "counters",
    # analysis helpers
    "align",
    "edit_distance",
    "bar_chart",
    "generate_report",
    "cached_model",
    "run_per_key_sweep",
    "single_model_attack",
    "TraceSummary",
    "annotate",
    "render_trace",
    # fleet collection
    "FleetReport",
    "KillDrill",
    "CollectorHandle",
    "CollectorClient",
    "CollectorConfig",
    "SessionResultPayload",
    # observability
    "RuntimeTrace",
    "MetricsRegistry",
    # workloads
    "credential_batch",
    "character_group",
    "scenario_credential",
    # faults / mitigations
    "FaultPlan",
    "config_with_popups_disabled",
    "MitigationPolicy",
    "MITIGATION_REGISTRY",
    "compose",
    "mitigation",
    "mitigation_names",
    "register_mitigation",
    "run_defense_matrix",
    "format_defense_matrix",
    # signature lifecycle (drift / recalibration)
    "DriftPlan",
    "DRIFT_PROFILES",
    "CalibrationPolicy",
    "CALIBRATION_PROFILES",
    "run_lifecycle",
]


#: The spec-valued :class:`AttackConfig` fields.  Each takes a name, a
#: spec instance or ``None`` (``fault_plan`` also takes ``"auto"``, its
#: environment variable); this table drives their validation,
#: serialization and resolution.
_SPEC_FIELDS = {
    "fault_plan": FAULT_SPEC,
    "mitigation": MITIGATION_SPEC,
    "drift": DRIFT_SPEC,
    "calibration": CALIBRATION_SPEC,
}


@dataclass(frozen=True)
class AttackConfig:
    """Every tunable of the attack pipeline in one place.

    Consumed by the facade functions and the CLI; serializes round-trip
    through :meth:`to_dict` / :meth:`from_dict` (a spec-valued field
    serializes as its name, its full dict, or ``None``).
    """

    #: Attack-mode sampling interval (the paper's 8 ms).
    interval_s: float = DEFAULT_INTERVAL_S
    #: Run device recognition before picking a model (multi-model stores).
    recognize_device: bool = True
    #: Engine toggles (Sections 5.2 / 5.3 / collision recovery).
    detect_switches: bool = True
    track_corrections: bool = True
    recover_collisions: bool = True
    #: Concurrent system load on the victim device (Section 7.3).
    cpu_utilization: float = 0.0
    gpu_utilization: float = 0.0
    #: Offline-phase sweep repeats and RNG seed.
    sweep_repeats: int = 4
    train_seed: int = 7
    #: Fault plan: "auto" (environment), a profile name, a plan, or None.
    fault_plan: Union[FaultPlan, None, str] = "auto"
    #: Attack scenario by registry name (or a :class:`Scenario`, stored
    #: as its name).  Fills device config, target app, typing tier and
    #: default fault profile wherever the facade accepts them.
    scenario: Optional[Union[Scenario, str]] = None
    #: Victim-side defense: a registered policy name, a
    #: :class:`MitigationPolicy`, or None (the default: byte-identical
    #: to the undefended pipeline — the golden-parity contract).
    mitigation: Union[MitigationPolicy, None, str] = None
    #: Environmental signature drift: a drift profile name, a
    #: :class:`DriftPlan`, or None (the default: byte-identical to the
    #: driftless pipeline, same as ``mitigation=None``).
    drift: Union[DriftPlan, None, str] = None
    #: Online per-device recalibration: a calibration profile name, a
    #: :class:`CalibrationPolicy`, or None (frozen models, the default).
    calibration: Union[CalibrationPolicy, None, str] = None

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        for name in ("cpu_utilization", "gpu_utilization"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.sweep_repeats < 1:
            raise ValueError("sweep_repeats must be >= 1")
        if self.scenario is not None:
            # normalize to the registry name; resolve now so a typo'd
            # scenario fails at construction, not mid-attack
            name = (
                self.scenario.name
                if isinstance(self.scenario, Scenario)
                else self.scenario
            )
            _scenario_lookup(name)
            object.__setattr__(self, "scenario", name)
        for name, spec in _SPEC_FIELDS.items():
            spec.validate(getattr(self, name))

    @property
    def load(self) -> SystemLoad:
        return SystemLoad(
            cpu_utilization=self.cpu_utilization,
            gpu_utilization=self.gpu_utilization,
        )

    def resolved_scenario(self) -> Optional[Scenario]:
        """The configured :class:`Scenario`, or ``None``."""
        return _scenario_lookup(self.scenario) if self.scenario else None

    def resolved_fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan the run executes under.

        Precedence for ``fault_plan="auto"``: the environment profile
        (``REPRO_FAULT_PROFILE``) if set, else the scenario's default
        profile, else no faults.  Explicit plans/profiles/None win over
        both, so golden parity runs pin ``fault_plan=None``.
        """
        if (
            self.fault_plan == "auto"
            and self.scenario
            and not os.environ.get(FAULT_PROFILE_ENV)
        ):
            return FAULT_SPEC.resolve(self.resolved_scenario().fault_plan())
        return self._resolved("fault_plan")

    def resolved_mitigation(self) -> Optional[MitigationPolicy]:
        """The mitigation policy the run enforces (``None``: undefended)."""
        return self._resolved("mitigation")

    def resolved_drift_plan(self) -> Optional[DriftPlan]:
        """The signature drift the run executes under (``None``: none)."""
        return self._resolved("drift")

    def resolved_calibration(self) -> Optional[CalibrationPolicy]:
        """The recalibration policy, or ``None`` for frozen models."""
        return self._resolved("calibration")

    def _resolved(self, name: str):
        # a name or spec resolves through the field's registry, and None
        # pins the golden-parity pipeline (see repro.registry.SpecType)
        return _SPEC_FIELDS[name].resolve(getattr(self, name))

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out = spec_to_dict(self)
        for name, spec in _SPEC_FIELDS.items():
            out[name] = spec.to_json(out[name])
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AttackConfig":
        kwargs = {
            name: _SPEC_FIELDS[name].from_json(value) if name in _SPEC_FIELDS else value
            for name, value in data.items()
        }
        return spec_from_dict(cls, kwargs)


_DEFAULT_CONFIG = AttackConfig()


def _attacker(
    store: ModelStore,
    config: AttackConfig,
    metrics: Optional[MetricsRegistry] = None,
) -> EavesdropAttack:
    return EavesdropAttack(
        store,
        interval_s=config.interval_s,
        recognize_device=config.recognize_device,
        detect_switches=config.detect_switches,
        track_corrections=config.track_corrections,
        recover_collisions=config.recover_collisions,
        fault_plan=config.resolved_fault_plan(),
        metrics=metrics,
        mitigation=config.resolved_mitigation(),
        drift=config.resolved_drift_plan(),
        calibration=config.resolved_calibration(),
    )


def _service(
    store: ModelStore,
    config: AttackConfig,
    metrics: Optional[MetricsRegistry] = None,
) -> MonitoringService:
    """The monitoring service ``config`` describes, escalating into the
    same attack :func:`attack` runs."""
    return MonitoringService(_attacker(store, config, metrics))


def _attach_manifest(result, metrics, config: AttackConfig, **meta) -> None:
    """Embed the resolved config and the facade's meta in the run
    manifest the lower layer attached (its one registry snapshot)."""
    if metrics is not None and metrics.enabled:
        result.manifest.config, result.manifest.meta = config.to_dict(), meta


def _device_and_target(
    caller: str,
    config: AttackConfig,
    device_config: Optional[DeviceConfig],
    target: Optional[AppSpec],
) -> Tuple[DeviceConfig, AppSpec]:
    """``device_config`` and ``target``, each falling back to the
    config's scenario when omitted."""
    scn = config.resolved_scenario()
    if scn is None and (device_config is None or target is None):
        missing = "a device_config" if device_config is None else "a target app"
        raise ValueError(
            f"{caller}() needs {missing} or an AttackConfig with a scenario set"
        )
    if device_config is None:
        device_config = scn.device_config()
    if target is None:
        target = scn.app_spec()
    return device_config, target


def train(
    pairs: Optional[Iterable[Tuple[DeviceConfig, AppSpec]]] = None,
    config: Optional[AttackConfig] = None,
) -> ModelStore:
    """Offline phase: train one model per (device config, app) pair.

    With ``pairs=None`` the single pair comes from the config's
    scenario: ``train(config=AttackConfig(scenario="pinpad"))``.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    if pairs is None:
        scn = config.resolved_scenario()
        if scn is None:
            raise ValueError(
                "train() needs explicit (device config, app) pairs or an "
                "AttackConfig with a scenario set"
            )
        pairs = [(scn.device_config(), scn.app_spec())]
    return train_store(
        pairs,
        seed=config.train_seed,
        interval_s=config.interval_s,
        sweep_repeats=config.sweep_repeats,
    )


def simulate(
    device_config: Optional[DeviceConfig] = None,
    target: Optional[AppSpec] = None,
    credential: str = "",
    seed: int = 1,
    config: Optional[AttackConfig] = None,
    speed_tier: Optional[str] = None,
) -> SessionTrace:
    """Compile a victim session where ``credential`` is typed into
    ``target`` (GPU background load comes from the config).

    ``device_config``, ``target`` and ``speed_tier`` each fall back to
    the config's scenario when omitted, so a full victim session needs
    only ``simulate(credential="1932", config=AttackConfig(scenario="pinpad"))``.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    device_config, target = _device_and_target(
        "simulate", config, device_config, target
    )
    if not credential:
        raise ValueError("simulate() needs a non-empty credential")
    if speed_tier is None and config.scenario:
        speed_tier = config.resolved_scenario().speed_tier
    mit = config.resolved_mitigation()
    if mit is not None:
        # victim-side rendering changes (e.g. popup disable) land on the
        # simulated device, not the attacker's training config
        device_config = mit.apply_to_device_config(device_config)
    return simulate_credential_entry(
        device_config,
        target,
        credential,
        seed=seed,
        speed_tier=speed_tier,
        gpu_utilization=config.gpu_utilization,
    )


def attack(
    store: ModelStore,
    trace: SessionTrace,
    seed: int = 99,
    config: Optional[AttackConfig] = None,
    model_key: Optional[str] = None,
    runtime_trace: Optional[RuntimeTrace] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> AttackResult:
    """Online phase: sample one victim session and infer the credential.

    Pass a :class:`MetricsRegistry` as ``metrics`` to collect sampler,
    engine, and scheduler instrumentation for the run; the resulting
    :class:`RunManifest` is attached as ``result.manifest``.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    result = _attacker(store, config, metrics=metrics).run_on_trace(
        trace,
        load=config.load,
        seed=seed,
        model_key=model_key,
        runtime_trace=runtime_trace,
    )
    _attach_manifest(result, metrics, config, command="attack", sessions=1)
    return result


def run_sessions(
    store: ModelStore,
    traces: Sequence[SessionTrace],
    seed: int = 99,
    config: Optional[AttackConfig] = None,
    runtime_trace: Optional[RuntimeTrace] = None,
    metrics: Optional[MetricsRegistry] = None,
    workers: int = 1,
) -> SessionBatch:
    """Batched online phase: N victim sessions on one session runtime.

    Returns a :class:`SessionBatch` — a list of :class:`AttackResult`
    whose ``manifest`` attribute carries the batch-level
    :class:`RunManifest` when ``metrics`` is an enabled registry.

    ``workers=N`` (N > 1) shards the batch across N worker processes
    via :class:`~repro.parallel.ShardedRuntime`.  Session ``i`` is
    seeded ``seed + i`` either way, so the sharded output — keys, text,
    merged trace event order, manifest counters — is byte-identical to
    ``workers=1`` (parity-tested); a crashed worker surfaces its
    sessions as ``degraded`` placeholder results rather than dropping
    them.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1:
        batch = ShardedRuntime(
            store, config=config, workers=workers, metrics=metrics
        ).run_sessions(traces, seed=seed, runtime_trace=runtime_trace)
    else:
        batch = _pipeline_run_sessions(
            _attacker(store, config, metrics=metrics),
            traces,
            load=config.load,
            seed=seed,
            runtime_trace=runtime_trace,
        )
    extra = {"workers": workers} if workers > 1 else {}
    _attach_manifest(
        batch, metrics, config, command="run_sessions", sessions=len(traces),
        **extra,
    )
    return batch


def monitor(
    store: ModelStore,
    trace: SessionTrace,
    seed: int = 1234,
    config: Optional[AttackConfig] = None,
    watch_model_key: Optional[str] = None,
    runtime_trace: Optional[RuntimeTrace] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServiceReport:
    """Run the full background monitoring service over a victim session.

    With an enabled ``metrics`` registry, the report's ``manifest``
    carries the full run rollup (idle + attack sampler tallies, fault
    events, inference-latency histogram, scheduler throughput).
    """
    config = config if config is not None else _DEFAULT_CONFIG
    report = _service(store, config, metrics=metrics).run(
        trace,
        load=config.load,
        seed=seed,
        watch_model_key=watch_model_key,
        runtime_trace=runtime_trace,
    )
    _attach_manifest(report, metrics, config, command="monitor", sessions=1)
    return report


def run_fleet(
    store: ModelStore,
    device_config: Optional[DeviceConfig] = None,
    target: Optional[AppSpec] = None,
    credential: str = "",
    devices: int = 3,
    sessions_per_device: int = 2,
    seed: int = 7,
    config: Optional[AttackConfig] = None,
    workers: int = 1,
    collector: Optional[CollectorConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    device_threads: Optional[int] = None,
    drill: Optional[KillDrill] = None,
) -> FleetReport:
    """Run ``devices`` simulated victims streaming into one collector.

    Each device runs a full attack pass (``sessions_per_device``
    sessions, seeded from its device index; ``workers=N`` shards the
    per-device batch across processes) and reports every result to an
    in-process :class:`CollectorServer` over TCP or a unix socket, with
    retry-until-acked delivery and seq-number deduplication.  The
    config's fault plan injects both KGSL-layer faults inside each
    device and connection drops / slow reads on the uplink.

    ``collector`` is the tier's :class:`CollectorConfig` — transport,
    backpressure bound, retry schedule.  ``collector.shards > 1``
    scales the tier to N collector *processes* behind the deterministic
    :class:`~repro.collector.router.DeviceRouter`, each with a
    write-ahead journal (``collector.journal_dir``; a scratch
    directory when unset); ``drill`` scripts a SIGKILL/restart of one
    shard mid-run to exercise journal replay
    (:class:`~repro.collector.fleet.KillDrill`).

    Returns a :class:`FleetReport` — ingested payloads in (device,
    session) order, loss/duplicate/retry accounting, and the merged run
    manifest (folded into ``metrics`` when an enabled registry is
    passed).  ``report.lost == 0`` is the delivery contract: retries
    absorb injected drops.

    ``device_config`` and ``target`` fall back to the config's scenario
    when omitted, mirroring :func:`simulate`.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    device_config, target = _device_and_target(
        "run_fleet", config, device_config, target
    )
    if not credential:
        raise ValueError("run_fleet() needs a non-empty credential")
    driver = FleetDriver(
        store,
        device_config,
        target,
        credential,
        devices=devices,
        sessions_per_device=sessions_per_device,
        config=config,
        seed=seed,
        workers=workers,
        collector=collector,
        metrics=metrics,
        device_threads=device_threads,
        drill=drill,
    )
    return driver.run()
