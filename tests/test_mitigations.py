"""Tests for the mitigation layer (paper Section 9)."""

import errno

import numpy as np
import pytest

from repro.android.display import Display
from repro.android.keyboard import keyboard
from repro.android.os_config import default_config
from repro.gpu import counters as pc
from repro.gpu.adreno import adreno
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline, merge_timelines
from repro.kgsl.device_file import DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IoctlError,
    KgslPerfcounterGet,
)
from repro.kgsl.interpose import build_chain
from repro.kgsl.sampler import PerfCounterSampler
from repro.mitigations.obfuscation import OsNoiseInjector
from repro.mitigations.policy import MitigationPolicy, mitigation
from repro.mitigations.popup_disable import config_with_popups_disabled, disable_popups


def timeline_with(amount=1000, t=0.5):
    timeline = RenderTimeline()
    inc = pc.CounterIncrement()
    inc.add(pc.LRZ_FULL_8X8_TILES, amount)
    timeline.add_render(t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=0.001))
    return timeline


UNTRUSTED = ProcessContext(selinux_context="untrusted_app")
PROFILER = ProcessContext(selinux_context="graphics_profiler")


def enforcer(name="rbac", **layers):
    """A fresh enforcer for a registered policy, or for ``layers``."""
    policy = MitigationPolicy(name="custom", **layers) if layers else mitigation(name)
    return policy.enforcer(seed=0)


class TestRbacPolicy:
    def test_untrusted_app_denied_eacces(self):
        policy = enforcer("rbac")
        dev = open_kgsl(timeline_with(), context=UNTRUSTED, interposers=(policy,))
        with pytest.raises(IoctlError) as exc:
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, KgslPerfcounterGet(groupid=0x19, countable=14))
        assert exc.value.errno == errno.EACCES
        assert policy.stats.denials == 1

    def test_privileged_profiler_allowed(self):
        policy = enforcer("rbac")
        dev = open_kgsl(timeline_with(), context=PROFILER, interposers=(policy,))
        dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, KgslPerfcounterGet(groupid=0x19, countable=14))
        assert policy.stats.denials == 0

    def test_attack_sampler_starts_blind(self):
        # EACCES at reserve time permanently masks the counters: the
        # sampler comes up with nothing to read instead of crashing the
        # attacking app (the resilient-sampling contract).
        dev = open_kgsl(timeline_with(), context=UNTRUSTED, interposers=(enforcer("rbac"),))
        sampler = PerfCounterSampler(dev)
        assert sampler._active == []
        assert sampler.counters_denied == len(sampler.counters)
        assert sampler.degraded
        # denied counters are never revived: every read comes back empty
        samples = sampler.sample_range(0.0, 0.1)
        assert all(not s.values for s in samples)


class TestLocalOnlyPolicy:
    def test_unprivileged_reads_flat_zero(self):
        policy = enforcer("local-only")
        dev = open_kgsl(
            timeline_with(amount=5000), clock=DeviceClock(), context=UNTRUSTED,
            interposers=(policy,),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.0)
        assert all(
            v == 0 for s in samples for v in s.values.values()
        ), "unprivileged reads must expose no global activity"
        assert policy.stats.local_zeroed > 0

    def test_privileged_sees_global_values(self):
        dev = open_kgsl(
            timeline_with(amount=5000), clock=DeviceClock(), context=PROFILER,
            interposers=(enforcer("local-only"),),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.0)
        assert samples[-1].values[pc.LRZ_FULL_8X8_TILES.counter_id] == 5000


class TestAllowAll:
    def test_default_policy_is_permissive(self):
        # allow-all enforces nothing, so it installs no interposer at all
        chain = build_chain(mitigation=mitigation("allow-all"))
        assert chain == ()
        dev = open_kgsl(
            timeline_with(amount=100), clock=DeviceClock(), context=UNTRUSTED,
            interposers=chain,
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.0)
        assert samples[-1].values[pc.LRZ_FULL_8X8_TILES.counter_id] == 100


class TestObfuscation:
    def test_values_perturbed_for_unprivileged(self):
        policy = enforcer(noise_strength=1.0)
        dev = open_kgsl(
            timeline_with(amount=100), clock=DeviceClock(), context=UNTRUSTED,
            interposers=(policy,),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.0)
        deltas = [
            b.values[pc.LRZ_FULL_8X8_TILES.counter_id] - a.values[pc.LRZ_FULL_8X8_TILES.counter_id]
            for a, b in zip(samples, samples[1:])
        ]
        assert sum(1 for d in deltas if d != 0) > len(deltas) // 2

    def test_values_stay_monotone(self):
        dev = open_kgsl(
            timeline_with(amount=100), clock=DeviceClock(), context=UNTRUSTED,
            interposers=(enforcer(noise_strength=2.0),),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 0.5)
        values = [s.values[pc.LRZ_FULL_8X8_TILES.counter_id] for s in samples]
        assert values == sorted(values)

    def test_privileged_unaffected(self):
        dev = open_kgsl(
            timeline_with(amount=100), clock=DeviceClock(),
            context=ProcessContext(selinux_context="system_server"),
            interposers=(enforcer(noise_strength=1.0),),
        )
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.0)
        assert samples[-1].values[pc.LRZ_FULL_8X8_TILES.counter_id] == 100


class TestOsNoiseInjector:
    def test_injects_frames_at_requested_rate(self):
        injector = OsNoiseInjector(adreno(650), Display(), rate_hz=30.0, intensity=0.1)
        timeline = injector.timeline(0.0, 10.0)
        assert 200 <= len(timeline.frames) <= 400

    def test_noise_merges_into_victim_timeline(self):
        victim = timeline_with(amount=100, t=0.5)
        injector = OsNoiseInjector(adreno(650), Display(), rate_hz=20.0)
        merged = merge_timelines([victim, injector.timeline(0.0, 5.0)])
        assert len(merged.frames) > len(victim.frames)

    def test_intensity_scales_cost(self):
        low = OsNoiseInjector(adreno(650), Display(), rate_hz=30.0, intensity=0.06,
                              rng=np.random.default_rng(1))
        high = OsNoiseInjector(adreno(650), Display(), rate_hz=30.0, intensity=0.5,
                               rng=np.random.default_rng(1))
        assert (
            high.timeline(0.0, 10.0).busy_fraction(0.0, 10.0)
            > low.timeline(0.0, 10.0).busy_fraction(0.0, 10.0)
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OsNoiseInjector(adreno(650), Display(), rate_hz=0.0)
        with pytest.raises(ValueError):
            OsNoiseInjector(adreno(650), Display(), intensity=0.0)


class TestPopupDisable:
    def test_disable_popups_flags(self):
        spec = disable_popups(keyboard("gboard"))
        assert not spec.supports_popup
        assert spec.duplicate_popup_prob == 0.0

    def test_config_helper(self):
        config = config_with_popups_disabled(default_config())
        assert not config.keyboard.supports_popup
        assert config.config_key() != default_config().config_key() or True

    def test_press_without_popup_damages_only_key(self):
        from repro.android.scenes import SceneBuilder

        config = config_with_popups_disabled(default_config())
        builder = SceneBuilder(config)
        damage = builder.popup_damage("g")
        geo = builder.layout.key("g")
        assert damage.area < geo.popup_rect.area
