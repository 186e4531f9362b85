"""The simulated ``/dev/kgsl-3d0`` device file (paper Section 4, Fig 7).

In Android, the KGSL device file is the interface user-space GPU drivers
use to reach the hardware; because those drivers run in the calling app's
process, the file is accessible to unprivileged applications — which is
the access-control gap the paper exploits.  The simulation reproduces the
semantics the attack relies on:

* ``PERFCOUNTER_GET`` reserves a counter register and makes it countable
  (the "notify the GPU hardware to prepare the I/O" step of Fig 10);
* ``PERFCOUNTER_READ`` blockreads the *global* cumulative counter values,
  regardless of which process caused the GPU work;
* a chain of :class:`~repro.kgsl.interpose.Interposer` stages can fail
  any request or rewrite returned values: signature drift, the paper's
  RBAC / SELinux and obfuscation mitigations (Sections 9.2 / 9.3), and
  measurement faults.

Counter values are served from a :class:`~repro.gpu.timeline.RenderTimeline`
at the device clock's current time, so reads that land mid-render observe
partially accrued increments — the *split* factor of Section 5.1.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from repro.gpu import counters as pc
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.ioctl import (
    IOCTL_KGSL_DEVICE_GETPROPERTY,
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_PUT,
    IOCTL_KGSL_PERFCOUNTER_READ,
    KGSL_PROP_DEVICE_INFO,
    IoctlError,
    KgslDeviceGetProperty,
    KgslDeviceInfo,
    KgslPerfcounterGet,
    KgslPerfcounterPut,
    KgslPerfcounterRead,
)

#: KGSL device node path on Adreno phones.
KGSL_DEVICE_PATH = "/dev/kgsl-3d0"


@dataclass
class DeviceClock:
    """Simulated wall clock shared by the device file and the sampler."""

    now: float = 0.0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot go backwards")
        self.now += dt

    def set(self, t: float) -> None:
        if t < self.now:
            raise ValueError("clock cannot go backwards")
        self.now = t


@dataclass
class ProcessContext:
    """The SELinux-ish identity of the process issuing ioctl calls."""

    pid: int = 4242
    uid: int = 10123
    selinux_context: str = "untrusted_app"
    package: str = "com.example.benign"


class KgslDeviceFile:
    """A file descriptor on the KGSL device node.

    One instance corresponds to one ``open("/dev/kgsl-3d0", O_RDWR)``.
    ``interposers`` is the fd's chain, inner to outer (drift → policy →
    faults; see :mod:`repro.kgsl.interpose`): requests visit it outer to
    inner, values inner to outer.
    """

    def __init__(
        self,
        timeline: RenderTimeline,
        clock: Optional[DeviceClock] = None,
        context: Optional[ProcessContext] = None,
        adreno_model: int = 650,
        interposers: Sequence = (),
    ) -> None:
        self.timeline = timeline
        self.clock = clock if clock is not None else DeviceClock()
        self.context = context if context is not None else ProcessContext()
        self.adreno_model = adreno_model
        self.interposers = interposers
        self._reserved: Set[Tuple[int, int]] = set()
        self._closed = False
        self.ioctl_count = 0

    @property
    def interposers(self) -> Tuple:
        """The interposer chain, inner to outer."""
        return self._chain

    @interposers.setter
    def interposers(self, chain: Sequence) -> None:
        self._chain = tuple(chain)
        self._outer_first = self._chain[::-1]

    def interposer(self, kind: type):
        """The first interposer on this fd that is a ``kind``, or ``None``."""
        return next((stage for stage in self._chain if isinstance(stage, kind)), None)

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._reserved.clear()

    def __enter__(self) -> "KgslDeviceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def ioctl(self, request: int, arg) -> int:
        """Dispatch an ioctl request, mutating ``arg`` like the kernel does.

        Returns 0 on success; raises :class:`IoctlError` with a POSIX errno
        on failure, mirroring the syscall contract.
        """
        if self._closed:
            raise IoctlError(errno.EBADF, "device file is closed")
        self.ioctl_count += 1
        for stage in self._outer_first:
            # may raise a transient error or steal a reserved register,
            # exactly where the real driver's failures surface
            stage.on_ioctl(self, request, arg)
        if request == IOCTL_KGSL_PERFCOUNTER_GET:
            return self._perfcounter_get(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_PUT:
            return self._perfcounter_put(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_READ:
            return self._perfcounter_read(arg)
        if request == IOCTL_KGSL_DEVICE_GETPROPERTY:
            return self._device_getproperty(arg)
        raise IoctlError(errno.ENOTTY, f"unsupported ioctl request {request:#x}")

    # ------------------------------------------------------------------

    def _perfcounter_get(self, arg: KgslPerfcounterGet) -> int:
        if not isinstance(arg, KgslPerfcounterGet):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_GET needs kgsl_perfcounter_get")
        for stage in self._outer_first:
            stage.on_counter(self, "get", arg.groupid, arg.countable)
        if not self._known_group(arg.groupid):
            # real driver: -EINVAL for a group the GPU does not expose
            raise IoctlError(errno.EINVAL, f"unknown counter group {arg.groupid:#x}")
        self._reserved.add((arg.groupid, arg.countable))
        # The register offset is an opaque MMIO offset in the real driver.
        arg.offset = 0x4000 + len(self._reserved) * 8
        return 0

    def _perfcounter_put(self, arg: KgslPerfcounterPut) -> int:
        if not isinstance(arg, KgslPerfcounterPut):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_PUT needs kgsl_perfcounter_put")
        self._reserved.discard((arg.groupid, arg.countable))
        return 0

    def _perfcounter_read(self, arg: KgslPerfcounterRead) -> int:
        if not isinstance(arg, KgslPerfcounterRead):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_READ needs kgsl_perfcounter_read")
        if arg.count == 0:
            raise IoctlError(errno.EINVAL, "empty read buffer")
        values = self.timeline.values_at(self.clock.now)
        chain, outer_first = self._chain, self._outer_first
        # one slot at a time: a read that fails at slot k has already
        # advanced every stage's state for the slots before it
        for slot in arg.reads:
            for stage in outer_first:
                stage.on_counter(self, "read", slot.groupid, slot.countable)
            key = (slot.groupid, slot.countable)
            if key not in self._reserved:
                raise IoctlError(
                    errno.EINVAL,
                    f"counter (group={slot.groupid:#x}, countable={slot.countable}) "
                    "not reserved; call PERFCOUNTER_GET first",
                )
            value = values.get(self._counter_id(slot.groupid, slot.countable), 0)
            for stage in chain:
                value = stage.on_value(self, key, value)
            slot.value = value
        for stage in chain:
            stage.after_read(self, arg.reads)
        return 0

    def _device_getproperty(self, arg: KgslDeviceGetProperty) -> int:
        """``KGSL_PROP_DEVICE_INFO``: identify the GPU, as every user-space
        driver does at startup.  Always permitted — which is why the attack
        can use it for device recognition without privilege."""
        if not isinstance(arg, KgslDeviceGetProperty):
            raise IoctlError(errno.EFAULT, "DEVICE_GETPROPERTY needs kgsl_device_getproperty")
        if arg.type != KGSL_PROP_DEVICE_INFO:
            raise IoctlError(errno.EINVAL, f"unsupported property {arg.type:#x}")
        model = self.adreno_model
        chip_id = ((model // 100) << 24) | (((model // 10) % 10) << 16) | ((model % 10) << 8)
        arg.value = KgslDeviceInfo(device_id=0, chip_id=chip_id, gpu_id=model)
        return 0

    # ------------------------------------------------------------------

    def reserved_counters(self) -> Tuple[Tuple[int, int], ...]:
        """The (groupid, countable) registers this fd currently holds."""
        return tuple(sorted(self._reserved))

    def revoke_counter(self, key: Tuple[int, int]) -> None:
        """Another client reclaimed this register: drop the reservation.

        Subsequent PERFCOUNTER_READs that still name the register fail
        with ``EINVAL`` until the caller re-registers it, which is the
        contention behaviour the resilient sampler must survive.
        """
        self._reserved.discard(key)

    @staticmethod
    def _known_group(groupid: int) -> bool:
        return groupid in {int(group) for group in pc.CounterGroup}

    @staticmethod
    def _counter_id(groupid: int, countable: int) -> pc.CounterId:
        return (pc.CounterGroup(groupid), countable)


def open_kgsl(
    timeline: RenderTimeline,
    clock: Optional[DeviceClock] = None,
    context: Optional[ProcessContext] = None,
    adreno_model: int = 650,
    interposers: Sequence = (),
) -> KgslDeviceFile:
    """``open("/dev/kgsl-3d0", O_RDWR)`` equivalent for the simulation."""
    return KgslDeviceFile(
        timeline=timeline,
        clock=clock,
        context=context,
        adreno_model=adreno_model,
        interposers=interposers,
    )
