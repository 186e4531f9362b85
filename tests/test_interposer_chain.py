"""Properties of the KGSL interposer chain (:mod:`repro.kgsl.interpose`).

Whatever drift plan, mitigation and fault plan are stacked on an fd —
the harsh fault profile and RBAC among them:

* requests (each ioctl, the counters it names, each sampling wakeup)
  visit the stages outer to inner, and a stage that fails a request
  hides it from every stage inside it; each batch of values visits the
  stages inner to outer, once;
* served values are ``faults ∘ policy ∘ drift`` of the raw counters,
  and each stage's batch hook agrees with a per-slot fold of its scalar
  rule (kept here, in the test, as the reference);
* a read attempt that fails at slot k feeds exactly its first k slots
  to the value step, and its row never reaches the reader;
* a counter denied with ``EACCES`` stays masked for good;
* counters stay monotone.

Spies at both ends of the chain, and wrapped around every real stage,
record each hook call with the stage's position (0 = innermost).
"""

import copy
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultStats
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from repro.kgsl.device_file import SLOT_COLUMN, DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.interpose import Interposer, build_chain
from repro.kgsl.sampler import PerfCounterSampler
from repro.lifecycle.drift import DriftInjector, DriftPlan, DriftStats
from repro.mitigations.policy import (
    MitigationPolicy,
    MitigationStats,
    PolicyEnforcer,
    mitigation,
)
from tests.oracles import geometry_factor, sample_range

REQUEST_HOOKS = ("ioctl", "counter", "wakeup")
KEYS = list(SLOT_COLUMN)
UNTRUSTED = ProcessContext()
PROFILER = ProcessContext(selinux_context="graphics_profiler")


def build_timeline(seed: int) -> RenderTimeline:
    rng = np.random.default_rng(seed)
    timeline = RenderTimeline()
    for i in range(10):
        inc = pc.CounterIncrement()
        for spec in pc.SELECTED_COUNTERS:
            inc.add(spec, int(rng.integers(0, 6000)))
        timeline.add_render(
            0.05 * (i + 1),
            FrameStats(increment=inc, pixels_touched=100, render_time_s=0.004),
        )
    return timeline


# -- the per-slot reference: each stage's scalar rule, one value at a time


class ScalarDrift:
    """The drift rule per slot: scaled increments on the last output."""

    def __init__(self, plan: DriftPlan, seed: int) -> None:
        self.plan = plan
        self.geometry = plan.injector(seed_offset=seed)
        self.stats = DriftStats()
        self.state: dict = {}

    def thermal_factor(self, now: float) -> float:
        plan = self.plan
        if plan.thermal_scale == 1.0:
            return 1.0
        t = now + self.geometry.time_offset - plan.thermal_onset_s
        if t < 0.0:
            return 1.0
        if plan.thermal_mode == "step" or plan.thermal_ramp_s <= 0.0:
            return plan.thermal_scale
        return 1.0 + (plan.thermal_scale - 1.0) * min(1.0, t / plan.thermal_ramp_s)

    def __call__(self, key, raw: int, now: float) -> int:
        prev_raw, prev_out = self.state.get(key, (0, 0))
        increment = raw - prev_raw
        if increment < 0:
            prev_raw, prev_out, increment = 0, 0, raw
        thermal = self.thermal_factor(now)
        geometry = geometry_factor(self.geometry, key, now)
        factor = thermal * geometry
        if factor == 1.0:
            out = prev_out + increment
        else:
            out = prev_out + int(round(increment * factor))
            if increment:
                self.stats.reads_scaled += 1
        if thermal < 1.0:
            self.stats.thermal_samples += 1
            self.stats.min_thermal_factor = min(self.stats.min_thermal_factor, thermal)
        if geometry != 1.0:
            self.stats.geometry_samples += 1
        self.state[key] = (raw, out)
        return out


class ScalarPolicy:
    """The mitigation value pipeline per slot, in its canonical order."""

    def __init__(self, policy: MitigationPolicy, seed: int) -> None:
        self.policy = policy
        self.stats = MitigationStats()
        self.rng = (
            np.random.default_rng((policy.noise_seed, seed)) if policy.noise_strength > 0 else None
        )
        self.walk: dict = {}
        self.snapshot: dict = {}

    def __call__(self, context, key, value: int, now: float) -> int:
        policy = self.policy
        if context.selinux_context in policy.privileged_contexts or not policy.enforces_kgsl:
            return value
        self.stats.filtered_values += 1
        if policy.local_only:
            self.stats.local_zeroed += 1
            return 0
        if policy.rate_limit_hz is not None:
            cached = self.snapshot.get(key)
            if cached is not None and now - cached[0] < 1.0 / policy.rate_limit_hz:
                self.stats.stale_serves += 1
                return cached[1]
        served = value
        if policy.quantize_step is not None:
            served -= served % policy.quantize_step
            self.stats.quantized += 1
        if self.rng is not None:
            step = int(self.rng.exponential(2000.0 * policy.noise_strength))
            self.walk[key] = self.walk.get(key, 0) + step
            served += self.walk[key]
            self.stats.noised += 1
        if policy.rate_limit_hz is not None:
            self.snapshot[key] = (now, served)
        return served


def scalar_corrupt(plan: FaultPlan, rng, values: dict) -> int:
    """The fault stage's corruption of one completed read, slot by slot;
    returns how many slots it corrupted."""
    corrupted = 0
    for key in list(values):
        if rng.random() < plan.corrupt_prob:
            corrupted += 1
            factor = 1.0 + float(rng.normal(0.0, plan.corrupt_rel))
            values[key] = max(0, int(values[key] * factor))
    return corrupted


def fold(stage, context, times, rows, served):
    """``rows`` with every served value passed through a per-slot rule."""
    out = rows.copy()
    for k, t in enumerate(times.tolist()):
        for j in np.flatnonzero(served[k]).tolist():
            if isinstance(stage, ScalarDrift):
                out[k, j] = stage(KEYS[j], int(rows[k, j]), t)
            else:
                out[k, j] = stage(context, KEYS[j], int(rows[k, j]), t)
    return out


# -- the spied chain


class Spy(Interposer):
    """Logs every hook call, then delegates to ``stage``."""

    def __init__(self, position: int, log: list, stage: Interposer = None) -> None:
        self.position = position
        self.log = log
        self.stage = stage if stage is not None else Interposer()

    def on_ioctl(self, device, request, arg):
        self.log.append((self.position, "ioctl"))
        self.stage.on_ioctl(device, request, arg)

    def on_counter(self, device, operation, keys):
        self.log.append((self.position, "counter", operation, tuple(keys), device.clock.now))
        self.stage.on_counter(device, operation, keys)

    def after_read(self, device, keys):
        rng = getattr(self.stage, "rng", None)
        state = copy.deepcopy(rng.bit_generator.state) if rng is not None else None
        self.log.append((self.position, "after_read", tuple(keys), state))
        self.stage.after_read(device, keys)

    def on_wakeup(self):
        self.log.append((self.position, "wakeup"))
        return self.stage.on_wakeup()

    def on_rows(self, device, times, rows, served, kept):
        before = rows.copy()
        self.stage.on_rows(device, times, rows, served, kept)
        self.log.append(
            (self.position, "rows", times.copy(), before, rows.copy(), served.copy(), kept.copy())
        )


#: Drift that throttles or reshapes values within the sampled window.
active_drift = st.builds(
    DriftPlan,
    seed=st.integers(0, 99),
    thermal_scale=st.floats(0.4, 0.9),
    thermal_mode=st.sampled_from(["ramp", "step"]),
    thermal_onset_s=st.floats(0.0, 0.2),
    thermal_ramp_s=st.floats(0.0, 0.5),
    geometry_shift=st.floats(0.0, 0.5),
    geometry_onset_s=st.floats(0.0, 0.2),
)
drift_plans = st.one_of(st.none(), active_drift)


def active_policies(rbac=st.just(False)):
    """A policy whose value pipeline rewrites what the GPU counted."""
    return st.builds(
        MitigationPolicy,
        name=st.just("spec"),
        rbac=rbac,
        rate_limit_hz=st.one_of(st.none(), st.floats(1.0, 200.0)),
        quantize_step=st.one_of(st.none(), st.integers(64, 8192)),
        noise_strength=st.floats(0.0, 3.0),
        noise_seed=st.integers(0, 99),
    )


def policies(rbac):
    local_only = st.builds(MitigationPolicy, name=st.just("local"), local_only=st.just(True))
    return st.one_of(st.none(), local_only, active_policies(rbac))


def fault_plans(corrupt_prob=st.just(0.0)):
    return st.one_of(
        st.none(),
        st.builds(
            FaultPlan.from_profile, st.just("harsh"), seed=st.integers(0, 99)
        ),
        st.builds(
            FaultPlan,
            seed=st.integers(0, 99),
            read_error_prob=st.floats(0.0, 0.4),
            get_error_prob=st.floats(0.0, 0.4),
            reclaim_rate_hz=st.floats(0.0, 6.0),
            reclaim_window_s=st.floats(0.0, 0.3),
            drop_prob=st.floats(0.0, 0.2),
            jitter_prob=st.floats(0.0, 0.3),
            jitter_s=st.floats(0.0, 0.005),
            corrupt_prob=corrupt_prob,
            corrupt_rel=st.floats(0.0, 0.6),
        ),
    )


def spied_run(timeline_seed, drift, mitigation_, faults, seed, context=UNTRUSTED):
    """Sample 0.6 s through a spied chain: (hook log, spies, samples)."""
    log: list = []
    stages = (Interposer(), *build_chain(faults, mitigation_, drift, seed), Interposer())
    chain = [Spy(i, log, stage) for i, stage in enumerate(stages)]
    kgsl = open_kgsl(
        build_timeline(timeline_seed), clock=DeviceClock(), context=context, interposers=chain
    )
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(seed))
    samples = sample_range(sampler, 0.0, 0.6)
    return log, chain, samples


def value_steps(log, n):
    """Each value step's ``rows`` entries, innermost first."""
    rows = [entry for entry in log if entry[1] == "rows"]
    return [rows[i : i + n] for i in range(0, len(rows), n)]


class TestChainOrder:
    @given(
        st.integers(0, 50),
        drift_plans,
        policies(st.booleans()),
        fault_plans(st.floats(0.0, 0.3)),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_requests_run_outer_to_inner(self, timeline_seed, drift, mitigation_, faults, seed):
        log, chain, _ = spied_run(timeline_seed, drift, mitigation_, faults, seed)
        n = len(chain)
        for hook in REQUEST_HOOKS:
            positions = [entry[0] for entry in log if entry[1] == hook]
            # a run starts at the outermost spy and steps inward one stage
            # at a time; a stage that fails the request ends the run early
            for prev, cur in zip([n] + positions, positions):
                assert cur == n - 1 or cur == prev - 1, (hook, positions)
        # the outermost spy sees every request, the innermost only those
        # every real stage let through
        assert any(entry[:2] == (n - 1, "ioctl") for entry in log)
        # values: every stage once per value step, innermost first, each
        # handing the next the array it rewrote
        steps = value_steps(log, n)
        for step in steps:
            assert [entry[0] for entry in step] == list(range(n))
            for inner, outer in zip(step, step[1:]):
                assert np.array_equal(inner[4], outer[3])
        # a value hook runs per batch, never per read or per slot: the
        # whole window is one batch
        assert len(steps) <= 1

    @given(
        st.integers(0, 50),
        drift_plans,
        policies(st.booleans()),
        fault_plans(st.floats(0.0, 0.3)),
        st.integers(0, 1000),
        st.sampled_from([UNTRUSTED, PROFILER]),
    )
    # a zero-length reclaim after transient retries spent the read budget
    @example(
        0,
        DriftPlan(seed=0, thermal_scale=0.5, thermal_mode="ramp"),
        MitigationPolicy(name="spec", quantize_step=64),
        FaultPlan(
            seed=55,
            read_error_prob=0.3359375,
            reclaim_rate_hz=1.0,
            reclaim_window_s=0.0,
            drop_prob=0.015625,
            jitter_prob=0.125,
            jitter_s=0.0,
        ),
        788,
        UNTRUSTED,
    )
    @settings(max_examples=25, deadline=None)
    def test_values_are_the_stagewise_composition(
        self, timeline_seed, drift, mitigation_, faults, seed, context
    ):
        log, chain, samples = spied_run(timeline_seed, drift, mitigation_, faults, seed, context)
        n = len(chain)
        timeline = build_timeline(timeline_seed)
        references = {}
        for spy in chain:
            if isinstance(spy.stage, DriftInjector):
                references[spy.position] = ScalarDrift(drift, seed)
            elif isinstance(spy.stage, PolicyEnforcer):
                references[spy.position] = ScalarPolicy(mitigation_, seed)
        fault_position = next(
            (spy.position for spy in chain if isinstance(spy.stage, FaultInjector)), None
        )
        planned: list = []
        corrupted = 0
        handed_back = []
        for entry in log:
            position, hook = entry[:2]
            if hook == "after_read" and position == fault_position:
                planned.append(entry)
            if hook != "rows":
                continue
            _, _, times, before, after, served, kept = entry
            if position == 0:
                # the innermost stage sees what the GPU counted
                raw = timeline.values_at_many(times)
                raw[~served] = 0
                assert np.array_equal(before, raw)
            expected = before.copy()
            if position in references:
                expected = fold(references[position], context, times, before, served)
            elif position == fault_position:
                for k, (_, _, keys, state) in zip(np.flatnonzero(kept), planned):
                    rng = np.random.default_rng()
                    rng.bit_generator.state = state
                    values = {key: int(expected[k, SLOT_COLUMN[key]]) for key in keys}
                    corrupted += scalar_corrupt(faults, rng, values)
                    for key, value in values.items():
                        expected[k, SLOT_COLUMN[key]] = value
                assert len(planned) == np.count_nonzero(kept)
                planned = []
            assert np.array_equal(after, expected), (position, type(chain[position].stage))
            if position == n - 1:
                handed_back.extend(after[kept].tolist())
        # the outermost stage's rows are what the reader gets (a read of
        # nothing, every counter masked, made no request)
        reads = [
            [sample.values.get(cid, 0) for cid in COUNTER_ORDER] for sample in samples if sample.values
        ]
        assert handed_back == reads
        for spy in chain:
            reference = references.get(spy.position)
            if reference is not None:
                tally = spy.stage.stats.as_dict()
                if isinstance(spy.stage, PolicyEnforcer):
                    # the value-step tallies: checks count requests
                    tally.update(checks=0, denials=0)
                assert tally == reference.stats.as_dict()
        if fault_position is not None:
            assert chain[fault_position].stage.stats.corruptions == corrupted

    @given(st.integers(0, 50), drift_plans, st.integers(0, 1000), st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_failed_read_advanced_only_earlier_slots(
        self, timeline_seed, drift, seed, fault_seed
    ):
        # frequent reclamation: reads regularly fail EINVAL mid-slot list
        faults = FaultPlan(seed=fault_seed, reclaim_rate_hz=20.0, reclaim_window_s=0.05)
        mitigation_ = MitigationPolicy(name="noise", noise_strength=1.0)
        log, _, _ = spied_run(timeline_seed, drift, mitigation_, faults, seed)
        # each request the innermost stage saw: the slots it reached, and
        # whether it completed (after_read ran)
        requested = []
        for entry in log:
            if entry[:3] == (0, "counter", "read"):
                requested.append([entry[3], entry[4], False])
            elif entry[:2] == (0, "after_read"):
                requested[-1][2] = True
        expected = []
        for keys, now, completed in requested:
            # a failed read stopped at its last reached slot, unserved
            columns = [SLOT_COLUMN[key] for key in (keys if completed else keys[:-1])]
            if columns:
                expected.append((now, columns, completed))
        attempts = []
        for entry in log:
            if entry[:2] == (0, "rows"):
                _, _, times, _, _, served, kept = entry
                for t, row, completed in zip(times.tolist(), served, kept.tolist()):
                    attempts.append((t, np.flatnonzero(row).tolist(), completed))
        assert attempts == expected


class TestBatchParity:
    """Each stage's batch hook against the per-slot fold of its scalar
    rule, over random attempt plans split into value steps."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        active_drift,
        st.one_of(
            active_policies(),
            st.builds(MitigationPolicy, name=st.just("local"), local_only=st.just(True)),
        ),
        st.floats(0.0, 0.5),
        st.sampled_from([UNTRUSTED, PROFILER]),
        st.integers(0, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_hooks_equal_the_per_slot_fold(
        self, plan_seed, n, drift, policy, corrupt_prob, context, seed
    ):
        rng = np.random.default_rng(plan_seed)
        # attempt times: non-decreasing, with retries at the same time
        times = np.cumsum(rng.choice([0.0, 0.004, 0.008, 0.03], size=n))
        raw = np.cumsum(rng.integers(0, 6000, size=(n, 11)) * (rng.random((n, 11)) < 0.7), axis=0)
        if rng.random() < 0.3:
            # the timeline restarts under the injector: raw values drop
            restart = int(rng.integers(n))
            raw[restart:] -= raw[restart - 1] if restart else 0
        served = np.zeros((n, 11), dtype=bool)
        kept = rng.random(n) < 0.7
        for k in range(n):
            active = np.flatnonzero(rng.random(11) < 0.9) if rng.random() < 0.3 else np.arange(11)
            # a failed attempt serves a strict prefix of what it named
            reached = len(active) if kept[k] else int(rng.integers(0, max(1, len(active))))
            served[k, active[:reached]] = True
        faults = FaultPlan(seed=seed, corrupt_prob=corrupt_prob, corrupt_rel=0.5)
        device = SimpleNamespace(context=context)
        drift_stage, policy_stage = drift.injector(seed_offset=seed), policy.enforcer(seed=seed)
        fault_stage = faults.injector(seed)
        stages = [stage for stage in (drift_stage, policy_stage, fault_stage) if stage is not None]
        rows = np.where(served, raw, 0)
        # the batch form: request-step draws, then one value step per batch
        cuts = sorted(set(rng.integers(0, n + 1, size=2).tolist()) | {0, n})
        for lo, hi in zip(cuts, cuts[1:]):
            for k in range(lo, hi):
                if kept[k]:
                    for stage in stages:
                        stage.after_read(device, [KEYS[j] for j in np.flatnonzero(served[k])])
            for stage in stages:
                stage.on_rows(device, times[lo:hi], rows[lo:hi], served[lo:hi], kept[lo:hi])
        # the per-slot fold, read by read
        scalar_drift, scalar_policy = ScalarDrift(drift, seed), ScalarPolicy(policy, seed)
        fault_rng = np.random.default_rng((faults.seed, seed))
        expected = np.zeros_like(raw)
        corrupted = 0
        for k, t in enumerate(times.tolist()):
            values = {}
            for j in np.flatnonzero(served[k]).tolist():
                value = scalar_drift(KEYS[j], int(raw[k, j]), t)
                values[KEYS[j]] = scalar_policy(context, KEYS[j], value, t)
            if kept[k] and corrupt_prob:
                corrupted += scalar_corrupt(faults, fault_rng, values)
            for key, value in values.items():
                expected[k, SLOT_COLUMN[key]] = value
        assert rows.tolist() == expected.tolist()
        assert drift_stage.stats == scalar_drift.stats
        if policy_stage is not None:
            assert policy_stage.stats == scalar_policy.stats
        if fault_stage is not None:
            assert fault_stage.stats == FaultStats(corruptions=corrupted)


class TestEaccesMasking:
    @given(
        st.integers(0, 50),
        drift_plans,
        fault_plans(),
        st.integers(0, 1000),
        st.integers(0, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_denied_counters_stay_masked(self, timeline_seed, drift, faults, seed, revoke_after):
        chain = build_chain(faults, MitigationPolicy(name="noise", noise_strength=1.0), drift, seed)
        kgsl = open_kgsl(build_timeline(timeline_seed), clock=DeviceClock(), interposers=chain)
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(seed))
        denied = set()
        for i, batch in enumerate(sampler.iter_batches(0.0, 0.6, chunk=8)):
            if denied:
                # a denied counter is never read again
                masked = np.flatnonzero(batch.mask.all(axis=0))
                assert {COUNTER_ORDER[j] for j in masked} >= denied
                assert not batch.rows[batch.mask].any()
            if i == revoke_after:
                # the policy lands mid-session (an OTA applying the rule)
                kgsl.interposers = (*kgsl.interposers, mitigation("rbac").enforcer(seed=0))
            now_denied = {spec.counter_id for spec in sampler._denied}
            assert now_denied >= denied
            denied = now_denied


class TestMonotone:
    @given(
        st.integers(0, 50),
        drift_plans,
        policies(st.booleans()),
        fault_plans(st.floats(0.0, 0.3)),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_counters_never_run_backwards(self, timeline_seed, drift, mitigation_, faults, seed):
        log, chain, samples = spied_run(timeline_seed, drift, mitigation_, faults, seed)
        # what the faults stage is handed never runs backwards...
        fault_position = next(
            (spy.position for spy in chain if isinstance(spy.stage, FaultInjector)), len(chain)
        )
        outermost_clean = fault_position - 1
        last = np.zeros(11, dtype=np.int64)
        for entry in log:
            if entry[:2] == (outermost_clean, "rows"):
                _, _, _, _, after, served, _ = entry
                for row, mask in zip(after, served):
                    assert (row[mask] >= last[mask]).all()
                    last[mask] = row[mask]
        # ...and with no value corruption, neither does what the reader gets
        if faults is not None and faults.corrupt_prob:
            return
        previous: dict = {}
        for sample in samples:
            for counter_id, value in sample.values.items():
                assert value >= previous.get(counter_id, 0), counter_id
                previous[counter_id] = value
