"""Further mitigation-layer tests: policy composition and boundaries."""

import errno

import numpy as np
import pytest

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, ProcessContext, open_kgsl
from repro.kgsl.ioctl import (
    IOCTL_KGSL_DEVICE_GETPROPERTY,
    IOCTL_KGSL_PERFCOUNTER_GET,
    KGSL_PROP_DEVICE_INFO,
    IoctlError,
    KgslDeviceGetProperty,
    KgslPerfcounterGet,
)
from repro.kgsl.interpose import Interposer
from repro.mitigations.policy import (
    DEFAULT_PRIVILEGED_CONTEXTS,
    MitigationPolicy,
    mitigation,
)


def rbac():
    return mitigation("rbac").enforcer(seed=0)


def timeline_with(amount=1000, t=0.5):
    timeline = RenderTimeline()
    inc = pc.CounterIncrement()
    inc.add(pc.LRZ_FULL_8X8_TILES, amount)
    timeline.add_render(
        t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=0.001)
    )
    return timeline


class TestRbacBoundaries:
    def test_every_default_privileged_context_allowed(self):
        policy = rbac()
        for context_name in DEFAULT_PRIVILEGED_CONTEXTS:
            dev = open_kgsl(
                timeline_with(),
                context=ProcessContext(selinux_context=context_name),
                interposers=(policy,),
            )
            dev.ioctl(
                IOCTL_KGSL_PERFCOUNTER_GET,
                KgslPerfcounterGet(groupid=0x19, countable=14),
            )
        assert policy.stats.denials == 0

    def test_custom_whitelist(self):
        policy = MitigationPolicy(
            name="custom-rbac", rbac=True, privileged_contexts=("my_profiler",)
        ).enforcer(seed=0)
        allowed = open_kgsl(
            timeline_with(),
            context=ProcessContext(selinux_context="my_profiler"),
            interposers=(policy,),
        )
        allowed.ioctl(
            IOCTL_KGSL_PERFCOUNTER_GET, KgslPerfcounterGet(groupid=0x19, countable=14)
        )
        denied = open_kgsl(
            timeline_with(),
            context=ProcessContext(selinux_context="system_server"),
            interposers=(policy,),
        )
        with pytest.raises(IoctlError):
            denied.ioctl(
                IOCTL_KGSL_PERFCOUNTER_GET,
                KgslPerfcounterGet(groupid=0x19, countable=14),
            )

    def test_rbac_does_not_block_device_info(self):
        """Chip-id queries are part of normal driver startup; RBAC on
        counters must not break ordinary graphics apps."""
        dev = open_kgsl(timeline_with(), interposers=(rbac(),))
        prop = KgslDeviceGetProperty(type=KGSL_PROP_DEVICE_INFO)
        dev.ioctl(IOCTL_KGSL_DEVICE_GETPROPERTY, prop)
        assert prop.value.adreno_model == 650

    def test_denial_counter_accumulates(self):
        policy = rbac()
        dev = open_kgsl(timeline_with(), interposers=(policy,))
        for _ in range(3):
            with pytest.raises(IoctlError):
                dev.ioctl(
                    IOCTL_KGSL_PERFCOUNTER_GET,
                    KgslPerfcounterGet(groupid=0x19, countable=14),
                )
        assert policy.stats.denials == 3


class TestLocalOnlyBoundaries:
    def test_filter_applies_per_context(self):
        policy = mitigation("local-only").enforcer(seed=0)

        def filtered(selinux_context):
            rows = np.full((1, 11), 12345, dtype=np.int64)
            served = np.ones((1, 11), dtype=bool)
            context = ProcessContext(selinux_context=selinux_context)
            policy.filter_value(context, np.array([1.0]), rows, served)
            return rows[0].tolist()

        assert filtered("untrusted_app") == [0] * 11
        assert filtered("graphics_profiler") == [12345] * 11

    def test_base_policy_is_a_noop(self):
        # every interposer hook defaults to "let it through unchanged"
        stage = Interposer()
        dev = open_kgsl(timeline_with())
        stage.on_ioctl(dev, IOCTL_KGSL_PERFCOUNTER_GET, None)  # must not raise
        stage.on_counter(dev, "get", [(0x19, 14)])  # must not raise
        stage.after_read(dev, [(0x19, 14)])
        rows = np.full((1, 11), 7, dtype=np.int64)
        served = np.ones((1, 11), dtype=bool)
        stage.on_rows(dev, np.array([1.0]), rows, served, np.ones(1, dtype=bool))
        assert rows.tolist() == [[7] * 11]
        assert stage.on_wakeup() == 0.0
