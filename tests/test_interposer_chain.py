"""Properties of the KGSL interposer chain (:mod:`repro.kgsl.interpose`).

Whatever drift plan, mitigation and fault plan are stacked on an fd:

* requests (each ioctl, each counter it names, each sampling wakeup)
  visit the stages outer to inner, and a stage that fails a request
  hides it from every stage inside it;
* values visit the stages inner to outer, so with no value corruption
  every served value is ``faults ∘ policy ∘ drift`` of the raw counter;
* a read that fails at slot k has run the value hooks for exactly the
  slots before k;
* counters stay monotone.

Spies at both ends of the chain, and wrapped around every real stage,
record each hook call with the stage's position (0 = innermost).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.interpose import Interposer, build_chain
from repro.kgsl.sampler import PerfCounterSampler
from repro.lifecycle.drift import DriftPlan
from repro.mitigations.policy import MitigationPolicy

REQUEST_HOOKS = ("ioctl", "counter", "wakeup")


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


class Spy(Interposer):
    """Logs every hook call, then delegates to ``stage``."""

    def __init__(self, position: int, log: list, stage: Interposer = None) -> None:
        self.position = position
        self.log = log
        self.stage = stage if stage is not None else Interposer()

    def on_ioctl(self, device, request, arg):
        self.log.append((self.position, "ioctl"))
        self.stage.on_ioctl(device, request, arg)

    def on_counter(self, device, operation, groupid, countable):
        self.log.append((self.position, "counter"))
        self.stage.on_counter(device, operation, groupid, countable)

    def on_value(self, device, key, value):
        out = self.stage.on_value(device, key, value)
        self.log.append((self.position, "value", key, value, device.clock.now))
        return out

    def after_read(self, device, slots):
        self.stage.after_read(device, slots)
        self.log.append((self.position, "after_read", [slot.value for slot in slots]))

    def on_wakeup(self):
        self.log.append((self.position, "wakeup"))
        return self.stage.on_wakeup()


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
        quantize_step=st.integers(64, 8192),
        noise_strength=st.floats(0.0, 3.0),
        noise_seed=st.integers(0, 99),
    )


def policies(rbac):
    local_only = st.builds(MitigationPolicy, name=st.just("local"), local_only=st.just(True))
    return st.one_of(st.none(), local_only, active_policies(rbac))


fault_plans = st.one_of(
    st.none(),
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
    ),
)


def spied_run(timeline_seed, drift, mitigation, faults, seed):
    """Sample 0.6 s through a spied chain: (hook log, chain length, samples)."""
    log: list = []
    stages = (Interposer(), *build_chain(faults, mitigation, drift, seed), Interposer())
    chain = [Spy(i, log, stage) for i, stage in enumerate(stages)]
    kgsl = open_kgsl(build_timeline(timeline_seed), clock=DeviceClock(), interposers=chain)
    sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(seed))
    samples = sampler.sample_range(0.0, 0.6)
    return log, len(chain), samples


class TestChainOrder:
    @given(
        st.integers(0, 50),
        drift_plans,
        policies(st.booleans()),
        fault_plans,
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_requests_run_outer_to_inner(self, timeline_seed, drift, mitigation, faults, seed):
        log, n, _ = spied_run(timeline_seed, drift, mitigation, faults, seed)
        for hook in REQUEST_HOOKS:
            positions = [entry[0] for entry in log if entry[1] == hook]
            # a run starts at the outermost spy and steps inward one stage
            # at a time; a stage that fails the request ends the run early
            for prev, cur in zip([n] + positions, positions):
                assert cur == n - 1 or cur == prev - 1, (hook, positions)
        # the outermost spy sees every request, the innermost only those
        # every real stage let through
        assert any(entry[:2] == (n - 1, "ioctl") for entry in log)

    @given(
        st.integers(0, 50),
        active_drift,
        active_policies(),
        fault_plans,
        st.integers(0, 1000),
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
    )
    @settings(max_examples=25, deadline=None)
    def test_values_are_the_stagewise_composition(
        self, timeline_seed, drift, mitigation, faults, seed
    ):
        log, n, _ = spied_run(timeline_seed, drift, mitigation, faults, seed)
        values = [entry for entry in log if entry[1] == "value"]
        # every slot's value visits all n stages, innermost first
        assert [entry[0] for entry in values] == list(range(n)) * (len(values) // n)
        raw = values[0::n]
        served = [entry[3] for entry in values[n - 1 :: n]]
        # replay the raw stream through fresh, identically seeded stages
        # in the documented order: drift, then policy (faults never
        # rewrite a value without corruption)
        drift_stage = drift.injector(seed_offset=seed)
        policy_stage = mitigation.enforcer(seed=seed)
        context = ProcessContext()
        expected = []
        for _, _, key, value, now in raw:
            value = drift_stage.drift_value(key, value, now)
            expected.append(
                policy_stage.filter_value(context, key[0], key[1], value, now)
            )
        assert served == expected
        # and those are the values the read hands back to the caller
        outer: list = []
        for entry in log:
            if entry[:2] == (n - 1, "value"):
                outer.append(entry[3])
            elif entry[:2] == (n - 1, "after_read"):
                assert entry[2] == outer[len(outer) - len(entry[2]) :]

    @given(st.integers(0, 50), drift_plans, st.integers(0, 1000), st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_failed_read_advanced_only_earlier_slots(
        self, timeline_seed, drift, seed, fault_seed
    ):
        # frequent reclamation: reads regularly fail EINVAL mid-slot list
        faults = FaultPlan(seed=fault_seed, reclaim_rate_hz=20.0, reclaim_window_s=0.05)
        mitigation = MitigationPolicy(name="noise", noise_strength=1.0)
        log, n, _ = spied_run(timeline_seed, drift, mitigation, faults, seed)
        slots_checked = slots_valued = 0
        for entry in log:
            if entry[:2] == (n - 1, "ioctl"):
                slots_checked = slots_valued = 0
            elif entry[:2] == (0, "counter"):
                slots_checked += 1
                # the innermost spy checks slot k only after slot k-1
                # passed the reservation check and ran every value hook
                assert slots_valued == slots_checked - 1
            elif entry[:2] == (0, "value"):
                slots_valued += 1
                assert slots_valued == slots_checked


class TestMonotone:
    @given(
        st.integers(0, 50),
        drift_plans,
        policies(st.just(False)),
        fault_plans,
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_counters_never_run_backwards(self, timeline_seed, drift, mitigation, faults, seed):
        _, _, samples = spied_run(timeline_seed, drift, mitigation, faults, seed)
        last: dict = {}
        for sample in samples:
            for counter_id, value in sample.values.items():
                assert value >= last.get(counter_id, 0), counter_id
                last[counter_id] = value
