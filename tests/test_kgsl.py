"""Tests for the KGSL device file and ioctl interface."""

import errno

import numpy as np
import pytest

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, KgslDeviceFile, ProcessContext, open_kgsl
from repro.kgsl.interpose import Interposer
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_PUT,
    IOCTL_KGSL_PERFCOUNTER_READ,
    KGSL_PERFCOUNTER_GROUP_LRZ,
    KGSL_PERFCOUNTER_GROUP_RAS,
    KGSL_PERFCOUNTER_GROUP_VPC,
    IoctlError,
    KgslPerfcounterGet,
    KgslPerfcounterPut,
    KgslPerfcounterRead,
    KgslPerfcounterReadGroup,
)


def timeline_with_increment(amount=1234, t=1.0):
    timeline = RenderTimeline()
    inc = pc.CounterIncrement()
    inc.add(pc.LRZ_FULL_8X8_TILES, amount)
    timeline.add_render(t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=0.001))
    return timeline


def reserve(dev, group=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14):
    get = KgslPerfcounterGet(groupid=group, countable=countable)
    dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, get)
    return get


def read_one(dev, group=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14):
    req = KgslPerfcounterRead(reads=[KgslPerfcounterReadGroup(groupid=group, countable=countable)])
    dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, req)
    return req.reads[0].value


class TestIoctlCodes:
    def test_group_ids_from_paper_fig9(self):
        assert KGSL_PERFCOUNTER_GROUP_VPC == 0x5
        assert KGSL_PERFCOUNTER_GROUP_RAS == 0x7
        assert KGSL_PERFCOUNTER_GROUP_LRZ == 0x19

    def test_request_codes_distinct(self):
        codes = {
            IOCTL_KGSL_PERFCOUNTER_GET,
            IOCTL_KGSL_PERFCOUNTER_PUT,
            IOCTL_KGSL_PERFCOUNTER_READ,
        }
        assert len(codes) == 3

    def test_request_codes_encode_iowr_nr(self):
        # low byte is the command number from msm_kgsl.h
        assert IOCTL_KGSL_PERFCOUNTER_GET & 0xFF == 0x38
        assert IOCTL_KGSL_PERFCOUNTER_PUT & 0xFF == 0x39
        assert IOCTL_KGSL_PERFCOUNTER_READ & 0xFF == 0x3B


class TestDeviceFileSemantics:
    def test_get_then_read(self):
        dev = open_kgsl(timeline_with_increment(777), clock=DeviceClock())
        reserve(dev)
        dev.clock.set(2.0)
        assert read_one(dev) == 777

    def test_get_assigns_register_offset(self):
        dev = open_kgsl(timeline_with_increment())
        get = reserve(dev)
        assert get.offset > 0

    def test_reserving_again_returns_the_same_register(self):
        # the driver refcounts a reserved countable: GET A, GET B, GET A
        # hands back A's register, not the most recently assigned one
        dev = open_kgsl(timeline_with_increment())
        first = reserve(dev, countable=14).offset
        other = reserve(dev, countable=15).offset
        assert reserve(dev, countable=14).offset == first != other

    def test_read_without_get_is_einval(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            read_one(dev)
        assert exc.value.errno == errno.EINVAL

    def test_put_releases_reservation(self):
        dev = open_kgsl(timeline_with_increment())
        reserve(dev)
        dev.ioctl(
            IOCTL_KGSL_PERFCOUNTER_PUT,
            KgslPerfcounterPut(groupid=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14),
        )
        with pytest.raises(IoctlError):
            read_one(dev)

    def test_unknown_group_rejected(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            reserve(dev, group=0x42)
        assert exc.value.errno == errno.EINVAL

    def test_unknown_request_is_enotty(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            dev.ioctl(0xDEAD, None)
        assert exc.value.errno == errno.ENOTTY

    def test_closed_fd_is_ebadf(self):
        dev = open_kgsl(timeline_with_increment())
        dev.close()
        with pytest.raises(IoctlError) as exc:
            reserve(dev)
        assert exc.value.errno == errno.EBADF

    def test_empty_read_buffer_rejected(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError):
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, KgslPerfcounterRead(reads=[]))

    def test_wrong_struct_is_efault(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, object())
        assert exc.value.errno == errno.EFAULT

    def test_context_manager_closes(self):
        with open_kgsl(timeline_with_increment()) as dev:
            reserve(dev)
        with pytest.raises(IoctlError):
            reserve(dev)

    def test_batched_read_is_n_blockreads(self):
        dev = open_kgsl(timeline_with_increment(50), clock=DeviceClock())
        with pytest.raises(IoctlError) as exc:
            dev.perfcounter_read_many([0.5])
        assert exc.value.errno == errno.EINVAL
        for spec in pc.SELECTED_COUNTERS:
            reserve(dev, group=int(spec.group), countable=spec.countable)
        rows = dev.perfcounter_read_many([0.5, 1.0005, 2.0])
        assert dev.ioctl_count == len(pc.SELECTED_COUNTERS) + 3
        assert dev.clock.now == 2.0
        column = pc.SELECTED_COUNTERS.index(pc.LRZ_FULL_8X8_TILES)
        assert rows[:, column].tolist() == [0, 25, 50]
        assert read_one(dev) == 50  # the per-slot read agrees at the clock

    def test_batched_read_runs_the_value_hooks(self):
        class Halve(Interposer):
            def on_rows(self, device, times, rows, served, kept):
                rows[served] //= 2

        dev = open_kgsl(timeline_with_increment(50), interposers=(Halve(),))
        for spec in pc.SELECTED_COUNTERS:
            reserve(dev, group=int(spec.group), countable=spec.countable)
        rows = dev.perfcounter_read_many([0.5, 2.0])
        column = pc.SELECTED_COUNTERS.index(pc.LRZ_FULL_8X8_TILES)
        assert rows[:, column].tolist() == [0, 25]
        assert read_one(dev) == 25  # the one-row value step of ioctl()
        dev.close()
        with pytest.raises(IoctlError) as exc:
            dev.perfcounter_read_many([3.0])
        assert exc.value.errno == errno.EBADF

    def test_batched_read_times_must_not_run_backwards(self):
        dev = open_kgsl(timeline_with_increment(50), clock=DeviceClock())
        for spec in pc.SELECTED_COUNTERS:
            reserve(dev, group=int(spec.group), countable=spec.countable)
        dev.clock.set(1.0)
        for times in ([0.2, 0.1, 1.5], [0.5, 1.5], [1.2, 1.1, 1.5]):
            with pytest.raises(ValueError):
                dev.perfcounter_read_many(times)
        assert dev.clock.now == 1.0
        rows = dev.perfcounter_read_many([1.0, 1.0, 1.5])
        assert len(rows) == 3 and dev.clock.now == 1.5
        # a value step of requested reads may not reach behind one served
        served = np.ones((1, 11), dtype=bool)
        with pytest.raises(ValueError):
            dev.perfcounter_read_many([1.2], served, [True])

    def test_ioctl_count_tracks_calls(self):
        dev = open_kgsl(timeline_with_increment())
        reserve(dev)
        dev.clock.set(2.0)
        read_one(dev)
        assert dev.ioctl_count == 2

    def test_values_reflect_clock_time(self):
        dev = open_kgsl(timeline_with_increment(100, t=1.0), clock=DeviceClock())
        reserve(dev)
        dev.clock.set(0.5)
        assert read_one(dev) == 0
        dev.clock.set(2.0)
        assert read_one(dev) == 100

    def test_blockread_multiple_counters(self):
        dev = open_kgsl(timeline_with_increment(50), clock=DeviceClock())
        for spec in pc.SELECTED_COUNTERS:
            reserve(dev, group=int(spec.group), countable=spec.countable)
        dev.clock.set(2.0)
        req = KgslPerfcounterRead(
            reads=[
                KgslPerfcounterReadGroup(groupid=int(s.group), countable=s.countable)
                for s in pc.SELECTED_COUNTERS
            ]
        )
        dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, req)
        values = {(s.groupid, s.countable): s.value for s in req.reads}
        assert values[(KGSL_PERFCOUNTER_GROUP_LRZ, 14)] == 50
        assert values[(KGSL_PERFCOUNTER_GROUP_RAS, 5)] == 0


class TestDeviceClock:
    def test_cannot_go_backwards(self):
        clock = DeviceClock()
        clock.set(5.0)
        with pytest.raises(ValueError):
            clock.set(4.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_advance(self):
        clock = DeviceClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)


class TestProcessContext:
    def test_default_is_unprivileged(self):
        ctx = ProcessContext()
        assert ctx.selinux_context == "untrusted_app"
        assert ctx.uid >= 10000  # an app UID, not a system UID
