"""Tests for the stable public facade (:mod:`repro.api`).

The facade is the supported surface for downstream users: typed
configuration, six entry points, a shared result protocol, a
guarantee that the examples and the CLI consume nothing else, and an
export list in which every name has a consumer.
"""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api import (
    AttackConfig,
    AttackResult,
    FaultPlan,
    ServiceReport,
    SessionResult,
    app,
    attack,
    monitor,
    run_sessions,
    simulate,
    train,
)
from repro.core.online import OnlineResult
from repro.core.pipeline import EavesdropAttack
from repro.faults import FAULT_PROFILE_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent

FACADE = ("train", "attack", "run_sessions", "monitor", "simulate", "run_fleet")


def facade_imports(text):
    """Names a source or doc text takes from the facade, through
    ``from repro.api import ...`` or ``api.X`` (doctest prompts too)."""
    text = re.sub(r"^\s*(>>>|\.\.\.) ?", "", text, flags=re.M)
    names = set(re.findall(r"\bapi\.([A-Za-z_]\w*)", text))
    for match in re.finditer(r"from\s+repro\.api\s+import\s+(\([^)]*\)|[^\n]*)", text):
        for part in match.group(1).strip("()").split(","):
            name = part.split("#")[0].split(" as ")[0].strip()
            if name:
                names.add(name)
    return names


def annotation_names(annotations):
    """Every bare name in a mapping of (string) annotations."""
    return {
        node.id
        for annotation in annotations.values()
        for node in ast.walk(ast.parse(str(annotation)))
        if isinstance(node, ast.Name)
    }


def imported_modules(text):
    """Dotted names a Python source imports: each ``import`` target, and
    for ``from M import N`` both ``M`` and ``M.N`` (N may be a module)."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module)
            out |= {f"{node.module}.{alias.name}" for alias in node.names}
    return out

CREDENTIAL = "secretpw1"


@pytest.fixture(scope="module")
def cfg():
    return AttackConfig(recognize_device=False)


@pytest.fixture(scope="module")
def trace(config, cfg):
    return simulate(config, app("chase"), CREDENTIAL, seed=3, config=cfg)


def launch_session(config, text="secret12"):
    """A victim session with an app-launch burst, for the service path."""
    device = api.VictimDevice(config, app("chase"), rng=np.random.default_rng(31))
    events = [api.KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate(text)]
    return device.compile(events, end_time_s=9.0, launch_at_s=1.2)


class TestAttackConfig:
    def test_defaults_are_valid(self):
        cfg = AttackConfig()
        assert cfg.interval_s > 0
        assert cfg.fault_plan == "auto"
        assert cfg.load.cpu_utilization == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0.0},
        {"idle_interval_s": -0.1},
        {"attack_window_s": 0.0},
        {"cpu_utilization": 1.5},
        {"gpu_utilization": -0.2},
        {"sweep_repeats": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AttackConfig().interval_s = 0.1  # type: ignore[misc]

    def test_dict_round_trip_with_defaults(self):
        cfg = AttackConfig()
        assert AttackConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_with_nested_fault_plan(self):
        cfg = AttackConfig(fault_plan=FaultPlan.from_profile("mild", seed=9))
        data = cfg.to_dict()
        assert isinstance(data["fault_plan"], dict)
        assert AttackConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown AttackConfig fields"):
            AttackConfig.from_dict({"interva1_s": 0.008})

    def test_resolved_fault_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        assert AttackConfig(fault_plan=None).resolved_fault_plan() is None
        assert AttackConfig().resolved_fault_plan() is None
        plan = AttackConfig(fault_plan="harsh").resolved_fault_plan()
        assert plan is not None and plan.profile == "harsh"


class TestFacade:
    def test_train_matches_pipeline_defaults(self, config, chase_model, cfg):
        store = train([(config, app("chase"))], config=cfg)
        assert store.keys() == [chase_model.model_key]
        assert store.get(store.keys()[0]).cth == chase_model.cth

    def test_attack_matches_direct_pipeline(self, chase_store, trace, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        via_facade = attack(chase_store, trace, seed=77, config=cfg)
        direct = EavesdropAttack(
            chase_store, recognize_device=False, fault_plan=None
        ).run_on_trace(trace, seed=77)
        assert via_facade.text == direct.text
        assert via_facade.reads_issued == direct.reads_issued

    def test_run_sessions_batches(self, chase_store, config, cfg, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        traces = [
            simulate(config, app("chase"), CREDENTIAL, seed=3 + i, config=cfg)
            for i in range(2)
        ]
        results = run_sessions(chase_store, traces, seed=55, config=cfg)
        assert len(results) == 2
        assert all(isinstance(r, AttackResult) for r in results)

    def test_monitor_runs_the_service(self, chase_store, config, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        report = monitor(chase_store, launch_session(config), seed=77)
        assert isinstance(report, ServiceReport)
        assert report.launch_detected_at is not None
        assert report.text == "secret12"

    def test_monitor_honours_the_engine_toggles(self, chase_store, config):
        # the service escalates into the attack the config describes, so
        # with correction tracking off it reports no deletions, as attack()
        session = api.VictimDevice(
            config, app("chase"), rng=np.random.default_rng(31)
        ).compile(
            [api.KeyPress(t=3.0 + 0.45 * i, char=c) for i, c in enumerate("secret1")]
            + [api.BackspacePress(t=6.6)],
            end_time_s=9.0,
            launch_at_s=1.2,
        )
        pinned = dict(fault_plan=None, mitigation=None, drift=None)
        tracking = AttackConfig(**pinned)
        assert monitor(chase_store, session, seed=77, config=tracking).deletions_detected
        off = AttackConfig(
            detect_switches=False,
            track_corrections=False,
            recover_collisions=False,
            **pinned,
        )
        assert attack(chase_store, session, seed=77, config=off).stats.deletions_detected == 0
        assert monitor(chase_store, session, seed=77, config=off).deletions_detected == 0

    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []


class TestResultProtocol:
    """Every result type exposes keys / text / stats / trace."""

    def test_attack_result_satisfies_protocol(self, chase_store, trace, cfg):
        result = attack(chase_store, trace, seed=77, config=cfg)
        assert isinstance(result, SessionResult)
        assert result.text == "".join(k.char for k in result.keys if not k.deleted)
        assert result.stats is result.online.stats
        assert result.trace is not None

    def test_online_result_satisfies_protocol(self):
        assert isinstance(OnlineResult(), SessionResult)

    def test_service_report_satisfies_protocol(self, chase_store, config):
        report = monitor(chase_store, launch_session(config), seed=77)
        assert isinstance(report, SessionResult)
        assert report.text == report.inferred_text


class TestConsumersUseOnlyTheFacade:
    """Meta-test: examples and the CLI must import repro.api only."""

    CONSUMERS = sorted(
        list((REPO_ROOT / "examples").glob("*.py"))
        + [REPO_ROOT / "src" / "repro" / "cli.py"]
    )

    @pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: p.name)
    def test_imports_only_repro_api(self, path):
        source = path.read_text()
        offenders = [
            line.strip()
            for line in source.splitlines()
            if re.match(r"^(from|import)\s+repro", line)
            and not re.match(r"^from\s+repro\.api\s+import\b", line)
        ]
        assert offenders == [], f"{path.name} bypasses repro.api: {offenders}"

    @pytest.mark.parametrize(
        "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_names_are_exported(self, path):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api"
            for alias in node.names
        }
        assert sorted(imported - set(api.__all__)) == []

    def test_every_export_has_a_consumer(self):
        # keep-rule: a name is exported only if the examples, the CLI,
        # the package docstring, the benchmarks or the docs import it,
        # or it types a facade parameter, return value or config field
        src = REPO_ROOT / "src" / "repro"
        consumers = (
            list((REPO_ROOT / "examples").glob("*.py"))
            + [src / "cli.py", src / "__init__.py"]
            + list((REPO_ROOT / "bench").rglob("*.py"))
            + list((REPO_ROOT / "benchmarks").rglob("*.py"))
            + list((REPO_ROOT / "docs").glob("*.md"))
            + [REPO_ROOT / "README.md"]
        )
        used = set().union(*(facade_imports(p.read_text()) for p in consumers))
        for name in FACADE:
            used |= annotation_names(getattr(api, name).__annotations__)
        used |= annotation_names(AttackConfig.__annotations__)
        assert sorted(set(api.__all__) - used) == []

    def test_every_module_has_a_non_test_importer(self):
        src = REPO_ROOT / "src"
        modules = set()
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        importers = [
            path
            for folder in ("src", "examples", "bench", "benchmarks", "tools")
            for path in (REPO_ROOT / folder).rglob("*.py")
        ]
        imported = set().union(*(imported_modules(p.read_text()) for p in importers))
        # importing a module imports every package that encloses it
        reached = {
            name.rsplit(".", depth)[0]
            for name in imported
            for depth in range(name.count(".") + 1)
        }
        entry_points = {"repro.__main__", "repro.cli"}
        assert sorted(modules - reached - entry_points) == []
