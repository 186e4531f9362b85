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

A ``PERFCOUNTER_READ`` runs in two steps, and this module is the only
read-path code that touches the timeline.  The **request step**
(:meth:`KgslDeviceFile.perfcounter_request`) runs each stage's request
hooks once and checks the reservations; a read that fails at slot k has
served slots ``0 .. k-1``.  The **value step**
(:meth:`KgslDeviceFile.perfcounter_read_many`) serves a whole run of
requested reads as one ``int64[n, 11]`` array that each stage rewrites
in one call.  ``ioctl(PERFCOUNTER_READ)`` is a request step plus a
one-row value step; the reader of an fd whose chain is empty skips the
request step.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import AbstractSet, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
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

#: Counter groups the simulated GPU exposes.
_KNOWN_GROUPS = frozenset(int(group) for group in pc.CounterGroup)

#: ``(groupid, countable)`` of each selected counter -> its timeline column.
SLOT_COLUMN: Dict[Tuple[int, int], int] = {
    (int(group), countable): column
    for column, (group, countable) in enumerate(COUNTER_ORDER)
}


def _served(slots) -> np.ndarray:
    """``bool[1, 11]``: one read serving ``slots`` (a counter outside the
    selected set has no column, and reads 0)."""
    served = np.zeros((1, len(COUNTER_ORDER)), dtype=bool)
    for slot in slots:
        column = SLOT_COLUMN.get((slot.groupid, slot.countable))
        if column is not None:
            served[0, column] = True
    return served


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
        #: register offset of every counter this fd has reserved, kept
        #: across PUT/GET so a counter keeps its register
        self._offsets: Dict[Tuple[int, int], int] = {}
        self._closed = False
        self.ioctl_count = 0
        #: time of the latest read the value step served
        self._served_until = float("-inf")

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
        self._enter(request, arg)
        if request == IOCTL_KGSL_PERFCOUNTER_GET:
            return self._perfcounter_get(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_PUT:
            return self._perfcounter_put(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_READ:
            return self._perfcounter_read(arg)
        if request == IOCTL_KGSL_DEVICE_GETPROPERTY:
            return self._device_getproperty(arg)
        raise IoctlError(errno.ENOTTY, f"unsupported ioctl request {request:#x}")

    def _enter(self, request: int, arg) -> None:
        """What every request does before its dispatch."""
        if self._closed:
            raise IoctlError(errno.EBADF, "device file is closed")
        self.ioctl_count += 1
        for stage in self._outer_first:
            # may raise a transient error or steal a reserved register,
            # exactly where the real driver's failures surface
            stage.on_ioctl(self, request, arg)

    # ------------------------------------------------------------------

    def _perfcounter_get(self, arg: KgslPerfcounterGet) -> int:
        if not isinstance(arg, KgslPerfcounterGet):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_GET needs kgsl_perfcounter_get")
        key = (arg.groupid, arg.countable)
        for stage in self._outer_first:
            stage.on_counter(self, "get", (key,))
        if arg.groupid not in _KNOWN_GROUPS:
            # real driver: -EINVAL for a group the GPU does not expose
            raise IoctlError(errno.EINVAL, f"unknown counter group {arg.groupid:#x}")
        self._reserved.add(key)
        # The register offset is an opaque MMIO offset in the real driver,
        # which refcounts a reserved countable: asking again returns the
        # register it already assigned.
        arg.offset = self._offsets.setdefault(key, 0x4000 + (len(self._offsets) + 1) * 8)
        return 0

    def _perfcounter_put(self, arg: KgslPerfcounterPut) -> int:
        if not isinstance(arg, KgslPerfcounterPut):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_PUT needs kgsl_perfcounter_put")
        self._reserved.discard((arg.groupid, arg.countable))
        return 0

    def _perfcounter_read(self, arg: KgslPerfcounterRead) -> int:
        now = (self.clock.now,)
        try:
            self._read_request(arg)
        except IoctlError as exc:
            if exc.served:
                # the slots served before the failure still reach the
                # value hooks; the read itself returns nothing
                self.perfcounter_read_many(now, _served(arg.reads[: exc.served]), (False,))
            raise
        [row] = self.perfcounter_read_many(now, _served(arg.reads), (True,)).tolist()
        for slot in arg.reads:
            column = SLOT_COLUMN.get((slot.groupid, slot.countable))
            slot.value = 0 if column is None else row[column]
        return 0

    def perfcounter_request(self, arg: KgslPerfcounterRead) -> None:
        """The request step of ``ioctl(PERFCOUNTER_READ, arg)``, without
        its value step: no slot value is filled in.

        Counts one ioctl; every stage sees it (``on_ioctl``) and the slots
        it names (``on_counter``, once for the whole read), outer to inner;
        each named counter must be reserved (``EINVAL``); a completed read
        then runs ``after_read``.  Raises :class:`IoctlError` on failure,
        whose ``served`` counts the slots served before it.  The caller
        serves the completed reads, and the served slots of failed ones,
        later with :meth:`perfcounter_read_many`, in request order.
        """
        self._enter(IOCTL_KGSL_PERFCOUNTER_READ, arg)
        self._read_request(arg)

    def _read_request(self, arg: KgslPerfcounterRead) -> None:
        if not isinstance(arg, KgslPerfcounterRead):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_READ needs kgsl_perfcounter_read")
        if arg.count == 0:
            raise IoctlError(errno.EINVAL, "empty read buffer")
        keys = [(slot.groupid, slot.countable) for slot in arg.reads]
        # the driver walks the slots in order and stops at the first one
        # this fd does not hold; the stages see every slot it reached
        served = len(keys)
        if not self._reserved.issuperset(keys):
            served = next(k for k, key in enumerate(keys) if key not in self._reserved)
        for stage in self._outer_first:
            stage.on_counter(self, "read", keys[: served + 1])
        if served < len(keys):
            groupid, countable = keys[served]
            raise IoctlError(
                errno.EINVAL,
                f"counter (group={groupid:#x}, countable={countable}) "
                "not reserved; call PERFCOUNTER_GET first",
                served=served,
            )
        for stage in self._chain:
            stage.after_read(self, keys)

    def perfcounter_read_many(
        self,
        times: Sequence[float],
        served: Optional[np.ndarray] = None,
        kept: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """The value step: the selected counters of ``len(times)`` reads,
        one per time, as ``int64[n, 11]`` in :data:`COUNTER_ORDER`.

        One :meth:`~repro.gpu.timeline.RenderTimeline.values_at_many` call,
        then each stage's ``on_rows`` over the whole array, inner to outer.
        The reads' requests ran through :meth:`perfcounter_request`, in
        this order: ``served[k, j]`` marks the counters read k's request
        reached (the rest read 0) and ``kept[k]`` whether it completed;
        only the completed reads' rows are returned.  Without ``served``
        the requests are made here, as on an fd whose chain is empty: each
        read names every selected counter, counts one ioctl and cannot
        fail but for an unreserved counter (``EINVAL``), and the clock is
        left at ``times[-1]``.

        ``times`` must be non-decreasing and start no earlier than the
        clock (requests made here) or the last read served (``ValueError``).
        """
        if self._closed:
            raise IoctlError(errno.EBADF, "device file is closed")
        times = np.asarray(times, dtype=float)
        start = self.clock.now if served is None else self._served_until
        if len(times) and (times[0] < start or (times[1:] < times[:-1]).any()):
            raise ValueError(f"read times must be non-decreasing and start at or after {start}")
        if served is None:
            if not self._reserved.issuperset(SLOT_COLUMN):
                raise IoctlError(errno.EINVAL, "read names an unreserved counter")
            self.ioctl_count += len(times)
            if len(times):
                self.clock.set(float(times[-1]))
        rows = self.timeline.values_at_many(times)
        if not len(times):
            return rows
        self._served_until = times[-1]
        if served is None:
            if not self._chain:
                return rows
            served, kept = np.ones(rows.shape, dtype=bool), [True] * len(times)
        kept = np.asarray(kept, dtype=bool)
        rows[~served] = 0
        for stage in self._chain:
            stage.on_rows(self, times, rows, served, kept)
        return rows[kept]

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

    def holds(self, keys: AbstractSet[Tuple[int, int]]) -> bool:
        """Whether this fd holds every (groupid, countable) register of
        ``keys``."""
        return self._reserved.issuperset(keys)

    def revoke_counter(self, key: Tuple[int, int]) -> None:
        """Another client reclaimed this register: drop the reservation.

        Subsequent PERFCOUNTER_READs that still name the register fail
        with ``EINVAL`` until the caller re-registers it, which is the
        contention behaviour the resilient sampler must survive.
        """
        self._reserved.discard(key)


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
