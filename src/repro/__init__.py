"""Reproduction of "Eavesdropping User Credentials via GPU Side Channels
on Smartphones" (ASPLOS 2022).

The package simulates the full hardware/software stack the paper attacks —
Qualcomm Adreno tiled rendering with performance counters, the KGSL
device-file interface, Android UI scenes and keyboards — and implements
the attack itself: offline model training, online Algorithm 1 inference,
app-switch detection and correction tracking.

The stable, supported surface is :mod:`repro.api` — facade functions
plus a typed :class:`~repro.api.AttackConfig`.  Quickstart::

    from repro.api import AttackConfig, app, attack, default_config, simulate, train

    config = default_config()
    chase = app("chase")
    cfg = AttackConfig(recognize_device=False)
    store = train([(config, chase)], config=cfg)
    trace = simulate(config, chase, "hunter2secret", seed=1)
    result = attack(store, trace, config=cfg)
    print(result.text)

Keyboards, apps, phones and full attack scenarios are addressed by name
through registries (see :mod:`repro.scenarios` and docs/scenarios.md)::

    from repro.api import AttackConfig, scenario, scenario_names

    print(scenario_names())  # 'gboard-chase', 'pinpad', ...
    cfg = AttackConfig(scenario="pinpad")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from repro.android.apps import (
    TARGET_APPS,
    AppSpec,
    app,
)
from repro.android.device import SessionTrace, VictimDevice
from repro.android.session_io import load_session, save_session
from repro.android.display import Display, Resolution
from repro.android.keyboard import KEYBOARDS, KeyboardSpec, keyboard
from repro.android.os_config import (
    ANDROID_VERSIONS,
    PHONE_MODELS,
    DeviceConfig,
    PhoneModel,
    default_config,
    phone,
)
from repro.analysis.keystroke_dynamics import TypistIdentifier, timing_features
from repro.analysis.metrics import AccuracyReport, align, edit_distance
from repro.core.results import SessionResult
from repro.faults import FAULT_PROFILE_ENV, FaultInjector, FaultPlan, FaultStats
from repro.core.classifier import ClassificationModel, build_model
from repro.core.guessing import CandidateGenerator
from repro.core.launch import LaunchDetector
from repro.core.service import MonitoringService, ServiceReport
from repro.core.model_store import ModelStore
from repro.core.offline import OfflineTrainer
from repro.core.online import OnlineEngine, OnlineResult
from repro.core.pipeline import (
    AttackResult,
    EavesdropAttack,
    run_sessions,
    simulate_credential_entry,
    train_model,
    train_store,
)
from repro.runtime import (
    RuntimeEvent,
    RuntimeTrace,
    SamplerDeltaSource,
    Session,
    SessionRuntime,
    VirtualClock,
)
from repro.gpu.adreno import ADRENO_MODELS, AdrenoSpec, adreno
from repro.gpu.counters import SELECTED_COUNTERS, CounterGroup, CounterSpec
from repro.kgsl.device_file import KGSL_DEVICE_PATH, KgslDeviceFile, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, SystemLoad
from repro.registry import Registry, UnknownNameError
from repro.scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.workloads.typing_model import TypingModel, VOLUNTEERS

__version__ = "1.0.0"

__all__ = [
    "ADRENO_MODELS",
    "ANDROID_VERSIONS",
    "AccuracyReport",
    "AdrenoSpec",
    "AppSpec",
    "AttackResult",
    "CandidateGenerator",
    "LaunchDetector",
    "MonitoringService",
    "ClassificationModel",
    "CounterGroup",
    "CounterSpec",
    "DeviceConfig",
    "Display",
    "EavesdropAttack",
    "FAULT_PROFILE_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "KEYBOARDS",
    "KGSL_DEVICE_PATH",
    "KeyboardSpec",
    "KgslDeviceFile",
    "ModelStore",
    "OfflineTrainer",
    "OnlineEngine",
    "OnlineResult",
    "PHONE_MODELS",
    "PerfCounterSampler",
    "PhoneModel",
    "Registry",
    "Resolution",
    "RuntimeEvent",
    "RuntimeTrace",
    "SCENARIO_REGISTRY",
    "SELECTED_COUNTERS",
    "SamplerDeltaSource",
    "Session",
    "SessionResult",
    "SessionRuntime",
    "SessionTrace",
    "Scenario",
    "SystemLoad",
    "TARGET_APPS",
    "TypingModel",
    "TypistIdentifier",
    "UnknownNameError",
    "VOLUNTEERS",
    "VictimDevice",
    "VirtualClock",
    "adreno",
    "align",
    "app",
    "build_model",
    "default_config",
    "edit_distance",
    "keyboard",
    "load_session",
    "open_kgsl",
    "phone",
    "register_scenario",
    "run_sessions",
    "save_session",
    "scenario",
    "scenario_names",
    "ServiceReport",
    "simulate_credential_entry",
    "timing_features",
    "train_model",
    "train_store",
]
