"""The online signature lifecycle, proven end to end.

Covers the four legs the lifecycle stands on:

* **drift plans** (`repro.lifecycle.drift`) — seeded, serializable,
  deterministic; ``drift=None`` installs nothing (golden-parity side is
  in ``test_golden_traces.py``);
* **recalibration** (`repro.lifecycle.calibration`) — the suspect-signal
  triggers, the self-supervised ratio re-fit, lineage, and persistence
  into the versioned store;
* **hot model swap** (:meth:`OnlineEngine.swap_model`) — stream state
  carries over, deflation is re-applied, and a swap mid batch
  re-scores the tail without double-classifying or skipping a delta;
* **the full arc** (:func:`run_lifecycle`) — accuracy degrades under
  drift, the service trips, the engine swaps mid-session, accuracy
  recovers (the ≥ 0.9 floor itself is pinned by
  ``benchmarks/test_lifecycle_recovery.py``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.online import OnlineEngine
from repro.core.model_store import VersionedModelStore
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.interpose import build_chain
from repro.kgsl.sampler import PerfCounterSampler
from repro.lifecycle import (
    CALIBRATION_PROFILES,
    CALIBRATION_SPEC,
    DRIFT_PROFILES,
    DRIFT_SPEC,
    CalibrationPolicy,
    CalibrationService,
    DriftPlan,
    run_lifecycle,
)

resolve_drift_plan = DRIFT_SPEC.resolve
resolve_calibration = CALIBRATION_SPEC.resolve
from repro.lifecycle.calibration import estimate_refit, rescale_model
from tests.oracles import feed_deltas, geometry_factor, nonzero_deltas, sample_range


# ---------------------------------------------------------------------------
# drift plans


class TestDriftPlan:
    def test_default_plan_is_disabled(self):
        assert not DriftPlan().enabled
        assert DriftPlan().injector() is None

    def test_validation(self):
        with pytest.raises(ValueError, match="thermal_scale"):
            DriftPlan(thermal_scale=0.0)
        with pytest.raises(ValueError, match="thermal_scale"):
            DriftPlan(thermal_scale=2.5)
        with pytest.raises(ValueError, match="thermal_mode"):
            DriftPlan(thermal_mode="bogus")
        with pytest.raises(ValueError, match="geometry_shift"):
            DriftPlan(geometry_shift=1.0)
        with pytest.raises(ValueError, match="thermal_ramp_s"):
            DriftPlan(thermal_ramp_s=-1.0)

    def test_profiles_round_trip(self):
        for name, plan in DRIFT_PROFILES.items():
            assert DriftPlan.from_profile(name) == plan
            assert DriftPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown drift profile"):
            DriftPlan.from_profile("nope")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown DriftPlan fields"):
            DriftPlan.from_dict({"thermal_scale": 0.5, "bogus": 1})

    def test_resolve_semantics(self):
        assert resolve_drift_plan(None) is None
        assert resolve_drift_plan("none") is None  # disabled profile
        plan = resolve_drift_plan("thermal-mild")
        assert plan is not None and plan.enabled
        assert resolve_drift_plan(plan) is plan
        # only fault plans read the environment: "auto" names no profile
        with pytest.raises(ValueError, match="unknown drift profile"):
            resolve_drift_plan("auto")


class TestDriftInjector:
    def test_thermal_ramp_shape(self):
        plan = DriftPlan(
            thermal_scale=0.5, thermal_mode="ramp",
            thermal_onset_s=10.0, thermal_ramp_s=10.0,
        )
        injector = plan.injector()
        assert injector.thermal_factor(0.0) == 1.0
        assert injector.thermal_factor(10.0) == 1.0
        assert injector.thermal_factor(15.0) == pytest.approx(0.75)
        assert injector.thermal_factor(20.0) == pytest.approx(0.5)
        assert injector.thermal_factor(100.0) == pytest.approx(0.5)

    def test_thermal_step_shape(self):
        plan = DriftPlan(
            thermal_scale=0.6, thermal_mode="step", thermal_onset_s=5.0
        )
        injector = plan.injector()
        assert injector.thermal_factor(4.99) == 1.0
        assert injector.thermal_factor(5.0) == pytest.approx(0.6)

    def test_time_offset_continues_trajectory(self):
        plan = DriftPlan(
            thermal_scale=0.5, thermal_mode="ramp",
            thermal_onset_s=6.0, thermal_ramp_s=10.0,
        )
        fresh = plan.injector()
        resumed = plan.injector(time_offset=8.0)
        # the resumed injector at local t sees the trajectory at t + 8
        assert resumed.thermal_factor(3.0) == pytest.approx(
            fresh.thermal_factor(11.0)
        )

    def test_geometry_factor_deterministic_per_key(self):
        plan = DriftPlan(geometry_shift=0.3, geometry_onset_s=0.0)
        a = plan.injector()
        b = plan.injector()
        key = (2, 5)
        assert geometry_factor(a, key, 1.0) == geometry_factor(b, key, 1.0)
        # a different counter id draws a different (still seeded) factor
        assert geometry_factor(a, (2, 5), 1.0) != geometry_factor(a, (2, 6), 1.0) or (
            geometry_factor(a, (2, 7), 1.0) != geometry_factor(a, (2, 5), 1.0)
        )

    @staticmethod
    def drifted(injector, raw, now, column=0):
        """One served cumulative value through the injector's batch form."""
        rows = np.zeros((1, 11), dtype=np.int64)
        served = np.zeros((1, 11), dtype=bool)
        rows[0, column], served[0, column] = raw, True
        injector.drift_value(np.array([now]), rows, served)
        return int(rows[0, column])

    def test_drift_value_scales_increments_cumulatively(self):
        plan = DriftPlan(thermal_scale=0.5, thermal_mode="step", thermal_onset_s=0.0)
        injector = plan.injector()
        assert self.drifted(injector, 100, 1.0) == 50
        # next read: +100 raw -> +50 drifted, on top of the drifted base
        assert self.drifted(injector, 200, 2.0) == 100
        assert injector.stats.reads_scaled == 2
        assert injector.stats.min_thermal_factor == pytest.approx(0.5)

    def test_counter_reset_passes_through(self):
        plan = DriftPlan(thermal_scale=0.5, thermal_mode="step", thermal_onset_s=0.0)
        injector = plan.injector()
        self.drifted(injector, 1000, 1.0)
        # a smaller raw value means the counter reset; don't invent a delta
        assert self.drifted(injector, 10, 2.0) <= 10

    def test_kgsl_boundary_injection(self, config, chase_store):
        """Drift rewrites reads at the device file, not in the engine."""
        from repro.core.pipeline import simulate_credential_entry

        trace = simulate_credential_entry(
            config, _chase(), "pw123456", seed=3
        )
        plan = DriftPlan(thermal_scale=0.5, thermal_mode="step", thermal_onset_s=0.0)
        clean = open_kgsl(
            trace.timeline, clock=DeviceClock(), adreno_model=trace.config.gpu.model
        )
        drifted = open_kgsl(
            trace.timeline,
            clock=DeviceClock(),
            adreno_model=trace.config.gpu.model,
            interposers=(plan.injector(),),
        )
        clean_deltas = nonzero_deltas(
            sample_range(
                PerfCounterSampler(clean, rng=np.random.default_rng(1)), 0.0, trace.end_time_s
            )
        )
        drift_deltas = nonzero_deltas(
            sample_range(
                PerfCounterSampler(drifted, rng=np.random.default_rng(1)), 0.0, trace.end_time_s
            )
        )
        clean_total = sum(sum(d.values.values()) for d in clean_deltas)
        drift_total = sum(sum(d.values.values()) for d in drift_deltas)
        assert drift_total < clean_total
        assert drift_total == pytest.approx(clean_total * 0.5, rel=0.05)


def _chase():
    from repro.android.apps import app

    return app("chase")


def _drifted_deltas(config, credential, seed, plan, time_offset=0.0):
    from repro.core.pipeline import simulate_credential_entry

    trace = simulate_credential_entry(config, _chase(), credential, seed=seed)
    kgsl = open_kgsl(
        trace.timeline,
        clock=DeviceClock(),
        adreno_model=trace.config.gpu.model,
        interposers=build_chain(drift=plan, time_offset=time_offset),
    )
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(1000 + seed))
    return (
        nonzero_deltas(sample_range(sampler, 0.0, trace.end_time_s)),
        trace,
    )


class TestDriftDegradesAccuracy:
    def test_harsh_thermal_breaks_frozen_model(self, config, chase_model):
        credential = "Tr0ub4dor&3"
        plan = DriftPlan(thermal_scale=0.55, thermal_mode="step", thermal_onset_s=0.0)
        clean, _ = _drifted_deltas(config, credential, 24, None)
        drifted, _ = _drifted_deltas(config, credential, 24, plan)

        def infer(deltas):
            engine = OnlineEngine(
                chase_model, track_corrections=False, recover_collisions=False
            )
            feed_deltas(engine, deltas)
            return engine.finish()

        assert infer(clean).text == credential
        assert infer(drifted).text != credential


# ---------------------------------------------------------------------------
# calibration: policy, triggers, re-fit math


class TestCalibrationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="low_confidence_threshold"):
            CalibrationPolicy(low_confidence_threshold=0)
        with pytest.raises(ValueError, match="suspect_ratio"):
            CalibrationPolicy(suspect_ratio=0.0)
        with pytest.raises(ValueError, match="max_refits"):
            CalibrationPolicy(max_refits=-1)

    def test_profiles_round_trip(self):
        for name, policy in CALIBRATION_PROFILES.items():
            assert CalibrationPolicy.from_profile(name) == policy
            assert CalibrationPolicy.from_dict(policy.to_dict()) == policy

    def test_resolve_semantics(self):
        assert resolve_calibration(None) is None
        assert resolve_calibration("off") is None  # max_refits=0
        policy = resolve_calibration("eager")
        assert policy is not None and policy.enabled
        assert resolve_calibration(policy) is policy
        # only fault plans read the environment: "auto" names no profile
        with pytest.raises(ValueError, match="unknown calibration profile"):
            resolve_calibration("auto")


class TestEstimateRefit:
    def test_uniform_ratio_recovered(self, chase_model):
        ratio_true = 0.55
        evidence = [
            chase_model.centroids[i] * ratio_true
            for i in range(0, len(chase_model.labels), 3)
        ]
        refit = estimate_refit(chase_model, evidence)
        assert refit is not None
        ratio, cth = refit
        np.testing.assert_allclose(ratio, ratio_true, rtol=1e-6)
        assert chase_model.cth <= cth <= 2.0 * chase_model.cth

    def test_rescale_preserves_normalized_geometry(self, chase_model):
        """(v − r·c) / (r·s) == (v/r − c)/s: a perfectly re-fit model
        classifies drifted centroids exactly like the original
        classifies undrifted ones."""
        ratio = np.full(chase_model.centroids.shape[1], 0.55)
        refit = rescale_model(chase_model, ratio)
        for i in (0, 5, 11):
            label = chase_model.labels[i]
            drifted_press = chase_model.centroids[i] * 0.55
            result = refit.classify(drifted_press)
            assert result.label == label
            assert result.distance == pytest.approx(0.0, abs=1e-9)

    def test_refit_records_lineage_generation(self, chase_model):
        ratio = np.full(chase_model.centroids.shape[1], 0.7)
        gen1 = rescale_model(chase_model, ratio, lineage={"device_id": "d0"})
        assert gen1.metadata["recalibration"]["generation"] == 1
        assert gen1.metadata["recalibration"]["device_id"] == "d0"
        gen2 = rescale_model(gen1, ratio)
        assert gen2.metadata["recalibration"]["generation"] == 2

    def test_unmatched_evidence_returns_none(self, chase_model):
        noise = [np.full(chase_model.centroids.shape[1], -1.0)]
        # anti-correlated junk matches no centroid above the cosine gate
        assert estimate_refit(chase_model, noise) is None
        assert estimate_refit(chase_model, []) is None


class TestCalibrationService:
    class Stats:
        def __init__(self, deltas=0, noise=0, lowconf=0, keys=0):
            self.deltas_seen = deltas
            self.noise_events = noise
            self.low_confidence_keys = lowconf
            self.keys_inferred = keys

    def test_low_confidence_trigger(self, chase_model):
        service = CalibrationService(CalibrationPolicy(min_evidence=1))
        evidence = [chase_model.centroids[0] * 0.6]
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
        assert service.should_recalibrate("d0")

    def test_suspect_fraction_trigger_needs_min_observations(self, chase_model):
        policy = CalibrationPolicy(
            min_evidence=1, min_observations=12, suspect_ratio=0.35
        )
        service = CalibrationService(policy)
        evidence = [chase_model.centroids[0] * 0.6] * 6
        service.observe("d0", self.Stats(deltas=8, noise=6), evidence=evidence)
        assert not service.should_recalibrate("d0")  # too few deltas yet
        service.observe("d0", self.Stats(deltas=8, noise=6), evidence=evidence)
        assert service.should_recalibrate("d0")  # 12/16 unexplained

    def test_healthy_reject_noise_does_not_trip(self):
        """Popup dismissals classify as reject-class noise — a big slice
        of a healthy stream.  Only *unexplained* deltas count."""
        service = CalibrationService(CalibrationPolicy(min_evidence=1))
        # lots of explained noise events, no evidence vectors
        service.observe("d0", self.Stats(deltas=40, noise=15, keys=11))
        assert not service.should_recalibrate("d0")

    def test_min_evidence_gates_refit(self, chase_model):
        service = CalibrationService(CalibrationPolicy(min_evidence=6))
        service.observe(
            "d0",
            self.Stats(deltas=30, lowconf=5),
            evidence=[chase_model.centroids[0] * 0.6] * 5,
        )
        assert not service.should_recalibrate("d0")

    def test_max_refits_cap(self, chase_model):
        policy = CalibrationPolicy(min_evidence=1, max_refits=1)
        service = CalibrationService(policy)
        evidence = [chase_model.centroids[i] * 0.6 for i in range(8)]
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
        assert service.should_recalibrate("d0")
        assert service.recalibrate("d0", chase_model) is not None
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
        assert not service.should_recalibrate("d0")  # cap reached

    @pytest.mark.parametrize("policy", ["capped", "off"])
    def test_evidence_is_not_kept_once_no_refit_can_use_it(self, chase_model, policy):
        service = CalibrationService(
            CalibrationPolicy(min_evidence=1, max_refits=1)
            if policy == "capped"
            else CalibrationPolicy(max_refits=0)
        )
        evidence = [chase_model.centroids[i] * 0.6 for i in range(8)]
        if policy == "capped":
            service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
            assert service.recalibrate("d0", chase_model) is not None
        for _ in range(300):
            service.observe("d0", self.Stats(deltas=16, lowconf=1), evidence=evidence)
        window = service.window("d0")
        assert window.evidence == []
        assert window.evidence_seen == 300 * len(evidence)
        assert window.suspect_fraction == (300 * len(evidence) + 300) / (300 * 16)
        assert not service.should_recalibrate("d0")

    def test_rejected_refit_resets_window(self, chase_model):
        service = CalibrationService(CalibrationPolicy(min_evidence=1))
        junk = [np.full(chase_model.centroids.shape[1], -1.0)] * 6
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=junk)
        assert service.should_recalibrate("d0")
        assert service.recalibrate("d0", chase_model) is None
        # the evidence was consumed either way
        assert not service.should_recalibrate("d0")
        assert service.window("d0").refits == 0

    def test_refits_fit_against_base_model(self, chase_model):
        """Generation N is base × fresh ratio — estimation noise never
        compounds through intermediate generations."""
        service = CalibrationService(CalibrationPolicy(min_evidence=1))
        evidence = [chase_model.centroids[i] * 0.5 for i in range(8)]
        first = service.recalibrate("d0", chase_model)
        assert first is None  # no evidence yet: consumed-empty window
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
        gen1 = service.recalibrate("d0", chase_model)
        np.testing.assert_allclose(gen1.centroids, chase_model.centroids * 0.5)
        # second round of evidence at a *different* ratio: the re-fit is
        # against the base, so centroids land at base × 0.25, not
        # gen1 × 0.25
        evidence2 = [chase_model.centroids[i] * 0.25 for i in range(8)]
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence2)
        gen2 = service.recalibrate("d0", gen1)
        np.testing.assert_allclose(gen2.centroids, chase_model.centroids * 0.25)
        assert gen2.metadata["recalibration"]["generation"] == 2

    def test_versioned_store_persistence(self, chase_model, tmp_path):
        store = VersionedModelStore(tmp_path / "lineage")
        service = CalibrationService(
            CalibrationPolicy(min_evidence=1), store=store
        )
        evidence = [chase_model.centroids[i] * 0.5 for i in range(8)]
        service.observe("d0", self.Stats(deltas=30, lowconf=3), evidence=evidence)
        refit = service.recalibrate("d0", chase_model)
        assert refit is not None
        assert store.versions() == [1]
        lineage = store.load(1).lineage
        assert lineage["device_id"] == "d0"
        assert lineage["generation"] == 1
        loaded = store.load().get(chase_model.model_key)
        np.testing.assert_allclose(loaded.centroids, refit.centroids, atol=0.01)


# ---------------------------------------------------------------------------
# hot model swap


class _SwapOnFirstBatch:
    """Model proxy that hot-swaps the engine on its first batch call —
    simulating a recalibration landing while the engine is mid-batch."""

    def __init__(self, inner, replacement):
        self._inner = inner
        self._replacement = replacement
        self.engine = None
        self.batch_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def classify_batch(self, matrix, masks, **options):
        self.batch_calls += 1
        if self.batch_calls == 1 and self.engine is not None:
            self.engine.swap_model(self._replacement)
        return self._inner.classify_batch(matrix, masks, **options)


class TestSwapModel:
    def test_swap_preserves_stream_state(self, config, chase_model):
        deltas, trace = _drifted_deltas(config, "pw123456", 3, None)
        engine = OnlineEngine(
            chase_model, track_corrections=False, recover_collisions=False
        )
        engine.begin()
        half = len(deltas) // 2
        feed_deltas(engine, deltas[:half])
        keys_before = engine._result.stats.keys_inferred
        engine.swap_model(chase_model)
        feed_deltas(engine, deltas[half:])
        result = engine.finish()
        assert engine.model_swaps == 1
        # swapping in the same model must not perturb the inference
        assert result.text == "pw123456"
        assert result.stats.keys_inferred >= keys_before

    def test_swap_emits_trace_event_and_counter(self, chase_model):
        from repro.obs import MetricsRegistry
        from repro.runtime import RuntimeTrace

        trace = RuntimeTrace()
        metrics = MetricsRegistry()
        engine = OnlineEngine(chase_model, trace=trace, session="s0", metrics=metrics)
        engine.begin()
        engine.swap_model(chase_model)
        assert metrics.counter("engine.model_swaps").value == 1
        assert any(e.kind == "model_swap" for e in trace.events)

    def test_swap_mid_feed_many_rebatches_tail(self, config, chase_model):
        """A swap landing inside a batch re-scores the tail against the
        new model: every delta classified exactly once."""
        deltas, _ = _drifted_deltas(config, "pw123456", 3, None)
        proxy = _SwapOnFirstBatch(chase_model, chase_model)
        engine = OnlineEngine(
            proxy, track_corrections=False, recover_collisions=False
        )
        proxy.engine = engine
        feed_deltas(engine, deltas)
        result = engine.finish()
        assert engine.model_swaps == 1
        # the tail was re-batched against the (identical) replacement,
        # so the inference matches the no-swap run exactly
        assert result.text == "pw123456"
        assert result.stats.deltas_seen == len([d for d in deltas if d])
        # first batch bailed after one consumed delta; the replacement
        # covered the tail — the proxy itself was only asked once
        assert proxy.batch_calls == 1

    def test_swap_reapplies_deflation(self, chase_model):
        engine = OnlineEngine(chase_model, recover_collisions=True)
        engine.begin()
        direction = np.zeros(chase_model.centroids.shape[1])
        direction[0] = 1.0
        engine._deflation_u = direction
        engine.swap_model(chase_model)
        # the active view is the deflated wrapper, not the raw model
        assert engine._active_model is not chase_model
        assert engine.model is chase_model


# ---------------------------------------------------------------------------
# low-confidence flagging (the masked-centroid suspect signal)


class TestLowConfidenceFlagging:
    class _Classification:
        """Duck-typed classification WITHOUT a confidence attribute."""

        def __init__(self, char, distance=0.1):
            self.key_char = char
            self.distance = distance

    def _engine(self, chase_model):
        engine = OnlineEngine(chase_model, detect_switches=False)
        engine.begin()
        return engine

    def test_confidence_below_one_flags_key(self, chase_model):
        from repro.core.classifier import Classification

        engine = self._engine(chase_model)
        result = engine._result
        cls = Classification(label="key:a", distance=0.1, confidence=0.7)
        engine._infer_key(result, 0.1, cls, from_split=False)
        assert result.stats.low_confidence_keys == 1
        assert result.keys[-1].low_confidence

    def test_full_confidence_not_flagged(self, chase_model):
        from repro.core.classifier import Classification

        engine = self._engine(chase_model)
        result = engine._result
        cls = Classification(label="key:a", distance=0.1, confidence=1.0)
        engine._infer_key(result, 0.1, cls, from_split=False)
        assert result.stats.low_confidence_keys == 0
        assert not result.keys[-1].low_confidence

    def test_missing_confidence_attribute_defaults_to_confident(
        self, chase_model
    ):
        """The getattr fallback: a classification object without a
        ``confidence`` attribute counts as fully confident."""
        engine = self._engine(chase_model)
        result = engine._result
        engine._infer_key(
            result, 0.1, self._Classification("b"), from_split=False
        )
        assert result.stats.low_confidence_keys == 0
        assert not result.keys[-1].low_confidence

    def test_low_confidence_keys_survive_worker_merge(self, config, chase_store):
        """The suspect signal feeds recalibration decisions — a sharded
        run must deliver the same per-session counts as the serial run."""
        from repro.api import AttackConfig, run_sessions, simulate
        from repro.faults import FaultPlan
        from repro.parallel.sharded import ShardedRuntime

        target = _chase()
        traces = [
            simulate(config, target, credential, seed=5 + i)
            for i, credential in enumerate(["Tr0ub4dor&3", "hunter2", "pw123456"])
        ]
        cfg = AttackConfig(
            recognize_device=False,
            fault_plan=FaultPlan.from_profile("harsh", seed=3),
            drift=None,
        )
        serial = run_sessions(chase_store, traces, seed=99, config=cfg)
        sharded = ShardedRuntime(
            chase_store, config=cfg, workers=2, mp_context="inline"
        ).run_sessions(traces, seed=99)
        serial_counts = [r.stats.low_confidence_keys for r in serial]
        sharded_counts = [r.stats.low_confidence_keys for r in sharded]
        assert serial_counts == sharded_counts
        assert sum(serial_counts) >= 1  # the harsh profile masks reads


# ---------------------------------------------------------------------------
# the full arc


class TestRunLifecycle:
    def test_validation(self):
        with pytest.raises(ValueError, match="credential"):
            run_lifecycle(credential="")
        with pytest.raises(ValueError, match="segments"):
            run_lifecycle(segments=0)

    def test_driftless_run_is_all_baseline(self, chase_store):
        report = run_lifecycle(
            segments=2, seed=24, store=chase_store, drift=None, calibration=None
        )
        assert all(not s.drift_active for s in report.segments)
        assert report.recalibrations == 0
        assert report.baseline_exact == 1.0
        assert report.recovery_ratio == 1.0
        assert report.drift["reads_scaled"] == 0

    def test_frozen_model_control_arm_stays_broken(self, chase_store):
        report = run_lifecycle(
            segments=4,
            seed=24,
            store=chase_store,
            drift="thermal-harsh",
            calibration=None,
        )
        assert report.recalibrations == 0
        assert report.model_swaps == 0
        drifted = [s for s in report.segments if s.thermal_factor < 0.6]
        assert drifted and all(not s.exact for s in drifted)

    def test_degrade_recalibrate_recover(self, chase_store, tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        report = run_lifecycle(
            segments=6,
            seed=24,
            store=chase_store,
            drift="thermal-harsh",
            calibration="default",
            metrics=metrics,
            model_dir=tmp_path / "lineage",
        )
        # the arc: clean baseline, collapse under drift, recovery after
        # the last re-fit — all inside ONE engine session
        assert report.baseline_exact == 1.0
        assert report.drifted_exact == 0.0
        assert report.recovered_exact == 1.0
        assert report.recovery_ratio == 1.0
        assert report.recalibrations >= 1
        assert report.model_swaps == report.recalibrations
        # every generation persisted: offline v1 + one per re-fit
        assert report.store_versions == 1 + report.recalibrations
        store = VersionedModelStore(tmp_path / "lineage")
        assert store.load(1).lineage["reason"] == "offline"
        assert store.load(2).lineage["device_id"] == "device-0"
        # the counters the manifest rolls up
        assert metrics.counter("calibration.refits").value == report.recalibrations
        assert metrics.counter("engine.model_swaps").value == report.model_swaps
        assert metrics.counter("drift.reads_scaled").value > 0
        assert metrics.counter("lifecycle.segments").value == 6
        assert 0.0 < metrics.gauge("drift.min_thermal_factor").value < 1.0
        # report serializes (the CLI embeds it in the run manifest)
        as_dict = report.as_dict()
        assert as_dict["recovery_ratio"] == 1.0
        assert len(as_dict["segments"]) == 6


class TestAttackLevelCalibration:
    def test_cross_session_recalibration_recovers(self, config, chase_store):
        """The EavesdropAttack path: evidence accumulates across
        *sessions*, the re-fit lands in the attack's live-model map, and
        later sessions classify with the recalibrated generation."""
        from repro.core.pipeline import EavesdropAttack, simulate_credential_entry

        plan = DriftPlan(
            thermal_scale=0.55, thermal_mode="step", thermal_onset_s=0.0
        )
        attack = EavesdropAttack(
            chase_store,
            recognize_device=False,
            track_corrections=False,
            recover_collisions=False,
            fault_plan=None,
            drift=plan,
            calibration=CalibrationPolicy(min_evidence=6, profile=""),
        )
        texts = []
        for i in range(4):
            trace = simulate_credential_entry(
                config, _chase(), "Tr0ub4dor&3", seed=24 + i
            )
            texts.append(attack.run_on_trace(trace, seed=24 + i).text)
        assert attack.calibration is not None
        key = chase_store.keys()[0]
        window = attack.calibration.window(key)
        assert window.refits >= 1
        # drifted sessions before the re-fit fail; once the live model
        # is the recalibrated generation, sessions recover
        assert texts[0] != "Tr0ub4dor&3"
        assert texts[-1] == "Tr0ub4dor&3"
        refit = attack.current_model(key)
        assert refit is not chase_store.get(key)
        assert refit.metadata["recalibration"]["generation"] == window.refits
