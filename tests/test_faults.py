"""Tests for the fault-injection subsystem and the resilient sampling path.

Covers the :mod:`repro.faults` plan/injector machinery in isolation, the
parity guarantee (no plan == disabled plan == pre-fault behavior, byte
for byte), and the end-to-end degradation contract of the ``mild`` and
``harsh`` CI profiles.
"""

import types

import pytest

from repro.android.apps import app
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry
from repro.faults import (
    FAULT_PROFILE_ENV,
    FAULT_SPEC,
    PROFILES,
    FaultInjector,
    FaultPlan,
    FaultStats,
)

resolve_plan = FAULT_SPEC.resolve
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_READ,
    IoctlError,
)

CREDENTIAL = "hunter2secret"


@pytest.fixture(scope="module")
def trace(config):
    return simulate_credential_entry(config, app("chase"), CREDENTIAL, seed=1)


def run_attack(store, trace, fault_plan, seed=101):
    attack = EavesdropAttack(store, recognize_device=False, fault_plan=fault_plan)
    return attack.run_on_trace(trace, seed=seed)


def key_sequence(result):
    return [(k.t, k.char, k.deleted) for k in result.online.keys]


class TestFaultStats:
    def test_total_sums_every_field(self):
        stats = FaultStats(read_errors=2, get_errors=1, reclaims=3, drops=4,
                           jitter_events=5, corruptions=6)
        assert stats.total == 21

    def test_as_dict_round_trips(self):
        stats = FaultStats(read_errors=7, drops=1)
        assert FaultStats(**stats.as_dict()) == stats


class TestFaultPlan:
    def test_default_plan_is_disabled(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert plan.injector() is None

    def test_enabled_when_any_rate_positive(self):
        assert FaultPlan(drop_prob=0.01).enabled
        assert FaultPlan(reclaim_rate_hz=0.5).enabled
        assert isinstance(FaultPlan(jitter_prob=0.1).injector(), FaultInjector)

    @pytest.mark.parametrize("kwargs", [
        {"read_error_prob": 1.5},
        {"drop_prob": -0.1},
        {"reclaim_rate_hz": -1.0},
        {"jitter_s": -0.001},
        {"max_reclaims": -1},
    ])
    def test_validation_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_dict_round_trip(self):
        plan = FaultPlan.from_profile("harsh", seed=17)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"read_error_prob": 0.1, "typo_field": 1})

    def test_from_profile_seeds_the_plan(self):
        plan = FaultPlan.from_profile("mild", seed=42)
        assert plan.profile == "mild"
        assert plan.seed == 42
        assert plan.enabled

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultPlan.from_profile("catastrophic")

    def test_profiles_registry_is_consistent(self):
        assert set(PROFILES) == {"none", "mild", "harsh"}
        assert not PROFILES["none"].enabled
        assert PROFILES["mild"].max_reclaims == 1
        assert PROFILES["harsh"].corrupt_prob > 0


class TestResolution:
    def test_env_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        assert resolve_plan("auto") is None

    def test_env_selects_profile(self, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "mild")
        plan = resolve_plan("auto")
        assert plan is not None and plan.profile == "mild"

    def test_env_none_profile_means_no_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "none")
        assert resolve_plan("auto") is None

    def test_resolve_none_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "harsh")
        assert resolve_plan(None) is None

    def test_resolve_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "harsh")
        plan = resolve_plan("auto")
        assert plan is not None and plan.profile == "harsh"

    def test_resolve_profile_name(self, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        assert resolve_plan("mild").profile == "mild"
        assert resolve_plan("none") is None

    def test_resolve_passes_plans_through(self):
        plan = FaultPlan(drop_prob=0.5)
        assert resolve_plan(plan) is plan
        assert resolve_plan(FaultPlan()) is None


class FakeDevice:
    """Minimal device stand-in for reclamation unit tests."""

    def __init__(self):
        self.clock = types.SimpleNamespace(now=0.0)
        self._reserved = [(0, 1), (0, 2), (3, 4)]
        self.revoked = []

    def reserved_counters(self):
        return list(self._reserved)

    def revoke_counter(self, key):
        self._reserved.remove(key)
        self.revoked.append(key)


class TestInjector:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=5, drop_prob=0.3, jitter_prob=0.3, jitter_s=0.001)
        a, b = plan.injector(seed_offset=9), plan.injector(seed_offset=9)
        seq_a = [(a.drop_sample(), a.extra_delay()) for _ in range(200)]
        seq_b = [(b.drop_sample(), b.extra_delay()) for _ in range(200)]
        assert seq_a == seq_b
        assert a.stats == b.stats

    def test_seed_offset_decorrelates_sessions(self):
        plan = FaultPlan(seed=5, drop_prob=0.3)
        a, b = plan.injector(seed_offset=1), plan.injector(seed_offset=2)
        assert [a.drop_sample() for _ in range(200)] != [b.drop_sample() for _ in range(200)]

    def test_reclamation_revokes_and_blocks_get(self):
        plan = FaultPlan(reclaim_rate_hz=1000.0, reclaim_window_s=0.5, max_reclaims=1)
        injector = plan.injector()
        device = FakeDevice()
        injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_READ, None)  # arms the clock
        device.clock.now = 0.1
        injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_READ, None)
        assert injector.stats.reclaims == 1
        assert len(device.revoked) == 1
        (key,) = tuple(sorted(injector._reclaimed))
        arg = types.SimpleNamespace(groupid=key[0], countable=key[1])
        with pytest.raises(IoctlError) as exc:
            injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_GET, arg)
        assert exc.value.errno == 16  # EBUSY while the other client holds it

    def test_reclaimed_register_released_after_window(self):
        plan = FaultPlan(reclaim_rate_hz=1000.0, reclaim_window_s=0.5, max_reclaims=1)
        injector = plan.injector()
        device = FakeDevice()
        injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_READ, None)
        device.clock.now = 0.1
        injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_READ, None)
        (key,) = tuple(sorted(injector._reclaimed))
        device.clock.now = 0.1 + 0.5 + 0.01
        arg = types.SimpleNamespace(groupid=key[0], countable=key[1])
        injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_GET, arg)  # must not raise
        assert tuple(sorted(injector._reclaimed)) == ()

    def test_max_reclaims_caps_the_injector(self):
        plan = FaultPlan(reclaim_rate_hz=1000.0, max_reclaims=1)
        injector = plan.injector()
        device = FakeDevice()
        for step in range(1, 6):
            device.clock.now = step * 0.1
            injector.on_ioctl(device, IOCTL_KGSL_PERFCOUNTER_READ, None)
        assert injector.stats.reclaims == 1


class TestParity:
    """Disabled fault machinery must be invisible, byte for byte."""

    def test_none_plan_matches_no_plan(self, chase_store, trace):
        clean = run_attack(chase_store, trace, fault_plan=None)
        disabled = run_attack(chase_store, trace, fault_plan=FaultPlan.from_profile("none"))
        assert clean.text == disabled.text == CREDENTIAL
        assert key_sequence(clean) == key_sequence(disabled)
        assert clean.reads_issued == disabled.reads_issued
        assert clean.reads_dropped == disabled.reads_dropped == 0
        assert clean.online.stats == disabled.online.stats

    def test_auto_with_env_unset_matches_no_plan(self, chase_store, trace, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        clean = run_attack(chase_store, trace, fault_plan=None)
        auto = run_attack(chase_store, trace, fault_plan="auto")
        assert key_sequence(clean) == key_sequence(auto)
        assert clean.reads_issued == auto.reads_issued

    def test_clean_run_reports_no_faults(self, chase_store, trace):
        clean = run_attack(chase_store, trace, fault_plan=None)
        assert clean.faults is None
        assert clean.degraded is False


class TestResilience:
    def test_transient_read_errors_are_retried_through(self, chase_store, trace):
        plan = FaultPlan(seed=2, read_error_prob=0.05)
        result = run_attack(chase_store, trace, fault_plan=plan)
        assert result.faults.read_errors > 0
        assert result.degraded
        assert result.text == CREDENTIAL  # retries keep the channel intact

    def test_reclamation_triggers_reregistration(self, chase_store, trace):
        plan = FaultPlan(seed=3, reclaim_rate_hz=2.0, reclaim_window_s=0.2)
        result = run_attack(chase_store, trace, fault_plan=plan)
        assert result.faults.reclaims > 0
        kinds = {ev.kind for ev in result.trace.events}
        assert "counter_lost" in kinds
        assert "counter_restored" in kinds
        assert "masked_delta" in kinds
        assert result.text == CREDENTIAL

    def test_degraded_events_visible_in_runtime_trace(self, chase_store, trace):
        plan = FaultPlan.from_profile("mild", seed=0)
        result = run_attack(chase_store, trace, fault_plan=plan)
        degraded_reasons = {
            ev.detail.get("detail")
            for ev in result.trace.events
            if ev.kind == "degraded"
        }
        assert degraded_reasons  # at least one distinct degradation reason
        assert result.degraded

    def test_runs_are_reproducible(self, chase_store, trace):
        plan = FaultPlan.from_profile("mild", seed=1)
        a = run_attack(chase_store, trace, fault_plan=plan)
        b = run_attack(chase_store, trace, fault_plan=plan)
        assert key_sequence(a) == key_sequence(b)
        assert a.faults == b.faults
        assert a.reads_issued == b.reads_issued


class TestProfiles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mild_profile_stays_accurate(self, chase_store, trace, seed):
        plan = FaultPlan.from_profile("mild", seed=seed)
        result = run_attack(chase_store, trace, fault_plan=plan)
        assert result.text == CREDENTIAL
        assert result.degraded
        assert result.faults.total > 0
        assert result.faults.reclaims <= 1  # mild caps reclamations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_harsh_profile_completes_and_reports(self, chase_store, trace, seed):
        plan = FaultPlan.from_profile("harsh", seed=seed)
        result = run_attack(chase_store, trace, fault_plan=plan)  # must not raise
        assert result.degraded
        assert result.faults.total > 0
        assert result.trace is not None

    def test_env_profile_reaches_default_attack(self, chase_store, trace, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "mild")
        attack = EavesdropAttack(chase_store, recognize_device=False)
        result = attack.run_on_trace(trace, seed=101)
        assert result.faults is not None
        assert result.faults.total > 0
