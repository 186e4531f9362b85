"""Property-based tests for the invariants the runtime leans on.

Two algebras carry correctness arguments elsewhere in the codebase and
were only example-tested until now:

* :class:`~repro.kgsl.sampler.PcDelta` — Algorithm 1's split recovery
  assumes ``merge``/``scaled``/``split`` (the oracles in
  ``tests/oracles.py``) behave like exact interval
  arithmetic (no events lost or invented), and masked-counter reads
  must *fail loudly* rather than read as zero;
* :class:`~repro.parallel.plan.ShardPlan` — the sharded runtime's
  byte-parity merge assumes the partition is a permutation of the
  session indices, deterministic under its seed, and balanced within
  one session.

A third property guards the scenario registry: every registered
scenario — builtin or plugin — must compile a scene and round-trip
through its dict form.

Hypothesis generates the cases; the assertions are the invariants, not
specific values.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.android.display import Display
from repro.api import AttackConfig
from repro.collector import CollectorConfig, RetryPolicy
from repro.faults import FaultPlan
from repro.lifecycle.calibration import CALIBRATION_PROFILES, CalibrationPolicy
from repro.mitigations.policy import MitigationPolicy, mitigation, mitigation_names
from repro.android.keyboard import KeyboardLayout
from repro.gpu import counters as pc
from repro.kgsl.sampler import PcDelta
from repro.parallel.plan import ShardPlan
from repro.scenarios import Scenario, scenario, scenario_names
from tests import oracles

SPECS = list(pc.SELECTED_COUNTERS)


@st.composite
def pc_deltas(draw, min_values=0):
    """A well-formed PcDelta: disjoint value/missing sets, ordered times."""
    n_values = draw(st.integers(min_values, len(SPECS)))
    shuffled = draw(st.permutations(SPECS))
    value_specs = shuffled[:n_values]
    n_missing = draw(st.integers(0, len(SPECS) - n_values))
    missing_specs = shuffled[n_values : n_values + n_missing]
    prev_t = draw(st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))
    dt = draw(st.floats(0.001, 2.0, allow_nan=False, allow_infinity=False))
    return PcDelta(
        t=prev_t + dt,
        prev_t=prev_t,
        values={
            s.counter_id: draw(st.integers(0, 10**6)) for s in value_specs
        },
        missing=tuple(sorted(s.counter_id for s in missing_specs)),
        gap=draw(st.booleans()),
    )


factors = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


class TestPcDeltaAlgebra:
    @given(pc_deltas(), factors)
    @settings(max_examples=80)
    def test_split_round_trips_exactly(self, delta, factor):
        part, remainder = oracles.split(delta, factor)
        rebuilt = oracles.merge(remainder, part)
        assert rebuilt.values == delta.values
        assert rebuilt.t == delta.t
        assert rebuilt.prev_t == delta.prev_t
        assert set(rebuilt.missing) == set(delta.missing)
        assert rebuilt.gap == delta.gap
        # no events invented on either side of the split
        assert part.total + remainder.total == delta.total

    @given(pc_deltas(), factors)
    @settings(max_examples=80)
    def test_scaled_floors_and_never_goes_negative(self, delta, factor):
        scaled = oracles.scaled(delta, factor)
        for cid, value in delta.values.items():
            assert scaled.values[cid] == int(value * factor)
            assert 0 <= scaled.values[cid] <= value
        assert scaled.missing == delta.missing
        assert scaled.gap == delta.gap

    @given(pc_deltas())
    @settings(max_examples=40)
    def test_scale_by_one_is_identity_and_negative_rejected(self, delta):
        assert oracles.scaled(delta, 1.0).values == delta.values
        with pytest.raises(ValueError, match="non-negative"):
            oracles.scaled(delta, -0.1)

    @given(pc_deltas(), pc_deltas())
    @settings(max_examples=80)
    def test_merge_sums_values_and_unions_masks(self, earlier, later):
        # place `earlier` strictly before `later` in both endpoints
        shift = max(0.0, earlier.t - later.prev_t) + 1.0
        later = PcDelta(
            t=later.t + shift + earlier.t,
            prev_t=later.prev_t + shift + earlier.t,
            values=later.values,
            missing=later.missing,
            gap=later.gap,
        )
        merged = oracles.merge(later, earlier)
        all_cids = set(earlier.values) | set(later.values)
        for cid in all_cids:
            assert merged.values[cid] == earlier.values.get(cid, 0) + later.values.get(cid, 0)
        assert set(merged.missing) == set(earlier.missing) | set(later.missing)
        assert merged.gap == (earlier.gap or later.gap)
        assert merged.prev_t == earlier.prev_t
        assert merged.t == later.t
        # and the swapped call is rejected rather than fabricating time
        with pytest.raises(ValueError, match="earlier delta"):
            oracles.merge(earlier, later)

    @given(pc_deltas())
    @settings(max_examples=80)
    def test_masked_counters_raise_instead_of_reading_zero(self, delta):
        masked = set(delta.missing)
        for spec in SPECS:
            cid = spec.counter_id
            if cid in delta.values:
                assert delta.get(spec) == delta.values[cid]
                # an explicit default never shadows a real value
                assert delta.get(spec, default=-1) == delta.values[cid]
            elif cid in masked:
                with pytest.raises(KeyError, match="masked"):
                    delta.get(spec)
                assert delta.get(spec, default=17) == 17
            else:
                # never selected: zero change is a fact, not a guess
                assert delta.get(spec) == 0
                assert delta.get(spec, default=17) == 17

    @given(pc_deltas())
    @settings(max_examples=40)
    def test_truthiness_and_degraded_flags(self, delta):
        assert bool(delta) == any(delta.values.values())
        assert delta.degraded == (bool(delta.missing) or delta.gap)
        assert delta.total == sum(delta.values.values())


class TestShardPlanProperties:
    plan_args = (
        st.integers(0, 200),  # n_sessions
        st.integers(1, 17),  # workers
        st.integers(0, 10_000),  # seed
    )

    @given(*plan_args)
    @settings(max_examples=100)
    def test_partition_is_a_permutation(self, n, workers, seed):
        plan = ShardPlan(n, workers, seed=seed)
        shards = plan.shards()
        assert len(shards) == workers
        flattened = [i for shard in shards for i in shard]
        assert sorted(flattened) == list(range(n))
        # ascending within each shard (merge relies on it)
        for shard in shards:
            assert shard == sorted(shard)

    @given(*plan_args)
    @settings(max_examples=100)
    def test_deterministic_under_seed(self, n, workers, seed):
        assert (
            ShardPlan(n, workers, seed=seed).shards()
            == ShardPlan(n, workers, seed=seed).shards()
        )

    @given(*plan_args)
    @settings(max_examples=100)
    def test_balanced_within_one(self, n, workers, seed):
        sizes = [len(s) for s in ShardPlan(n, workers, seed=seed).shards()]
        assert max(sizes) - min(sizes) <= 1

    @given(*plan_args)
    @settings(max_examples=100)
    def test_shard_of_agrees_with_shards(self, n, workers, seed):
        plan = ShardPlan(n, workers, seed=seed)
        shards = plan.shards()
        for index in range(n):
            assert index in shards[plan.shard_of(index)]

    @given(st.integers(1, 200), st.integers(1, 17), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_seed_rotates_assignment_not_shape(self, n, workers, seed):
        base = [len(s) for s in ShardPlan(n, workers, seed=seed).shards()]
        rotated = ShardPlan(n, workers, seed=seed + 1)
        assert sorted(base) == sorted(len(s) for s in rotated.shards())
        # the rotation law itself
        for index in range(n):
            assert rotated.shard_of(index) == (seed + 1 + index) % workers

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ShardPlan(4, 0)
        with pytest.raises(ValueError, match="n_sessions"):
            ShardPlan(-1, 2)
        with pytest.raises(IndexError):
            ShardPlan(3, 2).shard_of(3)
        with pytest.raises(IndexError):
            ShardPlan(3, 2).shard_of(-1)


class TestScenarioRegistryProperties:
    """Every registered scenario is a *runnable* cell: its axes resolve,
    its pool is typeable, and it compiles a popup scene.  Sampling from
    the live registry means plugin-registered scenarios (the PIN pad
    today, anything from ``REPRO_SCENARIO_MODULES`` tomorrow) are held
    to the same bar as the paper matrix."""

    @given(name=st.sampled_from(scenario_names()))
    @settings(max_examples=60, deadline=None)
    def test_every_scenario_compiles_a_scene(self, name):
        scn = scenario(name)
        scene = scn.compile_scene()
        assert len(scene) > 0
        pool = scn.credential_pool()
        assert pool
        # every pool character must be typeable on the scenario's layout
        layout = KeyboardLayout(
            scn.keyboard_spec(),
            Display(resolution=scn.phone_spec().resolution),
        )
        assert all(layout.has_key(c) for c in pool)

    @given(name=st.sampled_from(scenario_names()))
    @settings(max_examples=60, deadline=None)
    def test_scenario_dict_round_trip_identity(self, name):
        scn = scenario(name)
        assert Scenario.from_dict(scn.to_dict()) == scn
        with pytest.raises(ValueError, match="unknown Scenario fields"):
            Scenario.from_dict({**scn.to_dict(), "no_such_field": 1})


fault_plans = st.builds(
    FaultPlan.from_profile, st.sampled_from(["none", "mild", "harsh"]), st.integers(0, 2**31 - 1)
)
retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 20),
    base_delay_s=st.floats(0.0, 1.0),
    max_delay_s=st.floats(0.0, 5.0),
    multiplier=st.floats(1.0, 4.0),
    jitter_frac=st.floats(0.0, 1.0),
)
calibration_policies = st.sampled_from(sorted(CALIBRATION_PROFILES)).map(
    CalibrationPolicy.from_profile
) | st.builds(
    CalibrationPolicy,
    min_evidence=st.integers(1, 20),
    match_cosine=st.floats(0.05, 1.0),
    max_refits=st.integers(0, 10),
)
mitigation_policies = st.sampled_from(mitigation_names()).map(mitigation)

#: A strategy per frozen config that round-trips through a plain dict
#: (``Scenario`` and ``DriftPlan`` have their own properties).
SPEC_STRATEGIES = {
    FaultPlan: fault_plans,
    CalibrationPolicy: calibration_policies,
    MitigationPolicy: mitigation_policies,
    RetryPolicy: retry_policies,
    CollectorConfig: st.builds(
        CollectorConfig,
        shards=st.integers(1, 8),
        queue_size=st.integers(1, 1024),
        journal_sync=st.sampled_from(["flush", "fsync"]),
        retry=retry_policies,
    ),
    AttackConfig: st.builds(
        AttackConfig,
        recognize_device=st.booleans(),
        sweep_repeats=st.integers(1, 6),
        train_seed=st.integers(0, 1000),
        fault_plan=st.sampled_from([None, "auto", "mild"]) | fault_plans,
        mitigation=st.sampled_from([None, "rbac"]) | mitigation_policies,
        calibration=st.sampled_from([None, "eager"]) | calibration_policies,
        scenario=st.sampled_from([None, *scenario_names()]),
    ),
}


@pytest.mark.parametrize("cls", list(SPEC_STRATEGIES), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spec_dict_round_trip_identity(cls, data):
    spec = data.draw(SPEC_STRATEGIES[cls])
    assert cls.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match=f"unknown {cls.__name__} fields"):
        cls.from_dict({**spec.to_dict(), "no_such_field": 1})


class TestDeviceRouterProperties:
    """The collector tier's device→shard mapping must be a total,
    deterministic partition — a device that hashed to a different shard
    across processes (or across a config round-trip) would split its
    ``(device_id, seq)`` dedup state and break exactly-once."""

    router_args = (
        st.integers(1, 17),  # shards
        st.integers(0, 10_000),  # seed
        st.lists(st.text(min_size=1, max_size=32), min_size=1, max_size=50),
    )

    @given(*router_args)
    @settings(max_examples=100)
    def test_partition_is_total_and_in_range(self, shards, seed, device_ids):
        from repro.collector import DeviceRouter

        router = DeviceRouter(shards=shards, seed=seed)
        groups = router.partition(device_ids)
        assert set(groups) == set(range(shards))
        flattened = [d for group in groups.values() for d in group]
        assert sorted(flattened) == sorted(device_ids)
        for device_id in device_ids:
            assert 0 <= router.shard_of(device_id) < shards

    @given(*router_args)
    @settings(max_examples=100)
    def test_deterministic_across_instances(self, shards, seed, device_ids):
        from repro.collector import DeviceRouter

        a = DeviceRouter(shards=shards, seed=seed)
        b = DeviceRouter(shards=shards, seed=seed)
        assert [a.shard_of(d) for d in device_ids] == [
            b.shard_of(d) for d in device_ids
        ]

    @given(*router_args)
    @settings(max_examples=100)
    def test_stable_under_config_round_trip(self, shards, seed, device_ids):
        from repro.collector import CollectorConfig, DeviceRouter

        config = CollectorConfig(shards=shards)
        restored = CollectorConfig.from_dict(config.to_dict())
        assert restored.shards == shards
        before = DeviceRouter.from_config(config, seed=seed)
        after = DeviceRouter.from_config(restored, seed=seed)
        assert [before.shard_of(d) for d in device_ids] == [
            after.shard_of(d) for d in device_ids
        ]

    def test_rejects_zero_shards(self):
        from repro.collector import DeviceRouter

        with pytest.raises(ValueError, match="shards"):
            DeviceRouter(shards=0)


class TestDriftPlanProperties:
    """DriftPlan serialization: the dict form is the plan, exactly."""

    plan_args = st.builds(
        dict,
        seed=st.integers(0, 2**31 - 1),
        thermal_scale=st.floats(0.05, 2.0, allow_nan=False),
        thermal_mode=st.sampled_from(["ramp", "step"]),
        thermal_onset_s=st.floats(0.0, 60.0, allow_nan=False),
        thermal_ramp_s=st.floats(0.1, 60.0, allow_nan=False),
        geometry_shift=st.floats(0.0, 0.99, allow_nan=False),
        geometry_onset_s=st.floats(0.0, 60.0, allow_nan=False),
    )

    @given(plan_args)
    @settings(max_examples=100)
    def test_dict_round_trip_is_identity(self, kwargs):
        from repro.lifecycle.drift import DriftPlan

        plan = DriftPlan(**kwargs)
        restored = DriftPlan.from_dict(plan.to_dict())
        assert restored == plan
        # and the round trip is a fixed point at the dict level too
        assert restored.to_dict() == plan.to_dict()
        with pytest.raises(ValueError, match="unknown DriftPlan fields"):
            DriftPlan.from_dict({**plan.to_dict(), "no_such_field": 1})

    @given(plan_args, st.integers(0, 1000), st.floats(0.0, 100.0, allow_nan=False))
    @settings(max_examples=50)
    def test_injector_determinism(self, kwargs, seed_offset, t):
        from repro.lifecycle.drift import DriftPlan

        plan = DriftPlan(**kwargs)
        a = plan.injector(seed_offset=seed_offset)
        b = plan.injector(seed_offset=seed_offset)
        if a is None:
            assert b is None
            return
        key = (3, 7)
        assert a.thermal_factor(t) == b.thermal_factor(t)
        assert oracles.geometry_factor(a, key, t) == oracles.geometry_factor(b, key, t)


class TestModelStoreProperties:
    """The checksummed envelope: round-trip exact, corruption loud."""

    @staticmethod
    def _store(values, cth, version, lineage_tag):
        import numpy as np

        from repro.core import features
        from repro.core.classifier import ClassificationModel
        from repro.core.model_store import ModelStore

        centroids = np.array(values, dtype=float).reshape(
            2, features.DIMENSIONS
        )
        store = ModelStore()
        store.add(
            ClassificationModel(
                labels=["key:a", "key:b"],
                centroids=centroids,
                scale=np.ones(features.DIMENSIONS),
                cth=cth,
                model_key="prop/chase",
            )
        )
        store.version = version
        store.lineage = {"tag": lineage_tag}
        return store

    store_args = dict(
        # the model wire form rounds centroids to 2 decimals (the paper's
        # ~3.59 KB size claim), so generate at that precision: the
        # envelope itself must add no loss on top
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=22,
            max_size=22,
        ),
        cth=st.floats(0.01, 100.0, allow_nan=False),
        version=st.integers(0, 10_000),
        lineage_tag=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=12,
        ),
    )
    # tmp_path is function-scoped but each example fully overwrites the
    # one store file, so reuse across examples is safe
    fixture_ok = settings(
        max_examples=50,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    @given(**store_args)
    @fixture_ok
    def test_save_load_round_trip(self, values, cth, version, lineage_tag, tmp_path):
        import numpy as np

        from repro.core.model_store import ModelStore

        store = self._store(values, cth, version, lineage_tag)
        path = tmp_path / "store.json"
        store.save(path)
        loaded = ModelStore.load(path)
        assert loaded.keys() == store.keys()
        assert loaded.version == version
        assert loaded.lineage == {"tag": lineage_tag}
        np.testing.assert_array_equal(
            loaded.get("prop/chase").centroids, store.get("prop/chase").centroids
        )
        assert loaded.get("prop/chase").cth == store.get("prop/chase").cth

    @given(data=st.data(), **store_args)
    @fixture_ok
    def test_any_single_byte_corruption_detected(
        self, values, cth, version, lineage_tag, data, tmp_path
    ):
        from repro.core.model_store import ModelIntegrityError, ModelStore

        store = self._store(values, cth, version, lineage_tag)
        path = tmp_path / "store.json"
        store.save(path)
        raw = bytearray(path.read_bytes())
        index = data.draw(st.integers(0, len(raw) - 1))
        flip = data.draw(st.integers(1, 255))
        raw[index] ^= flip
        path.write_bytes(bytes(raw))
        # a corrupted store must raise — never load with silently wrong
        # centroids and misclassify from then on
        with pytest.raises(ModelIntegrityError):
            ModelStore.load(path)

    @given(data=st.data(), **store_args)
    @fixture_ok
    def test_any_truncation_detected(
        self, values, cth, version, lineage_tag, data, tmp_path
    ):
        from repro.core.model_store import ModelIntegrityError, ModelStore

        store = self._store(values, cth, version, lineage_tag)
        path = tmp_path / "store.json"
        store.save(path)
        raw = path.read_bytes()
        keep = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:keep])
        with pytest.raises(ModelIntegrityError):
            ModelStore.load(path)
