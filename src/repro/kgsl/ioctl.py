"""KGSL ioctl request codes and data structures (paper Fig 8/9).

These mirror ``msm_kgsl.h`` from the Qualcomm KGSL driver: the perf
counter group IDs, the ``_IOWR``-style request codes for
``IOCTL_KGSL_PERFCOUNTER_GET`` / ``_READ`` / ``_PUT``, and the structs the
user passes through :func:`repro.kgsl.device_file.ioctl`.  The attack
(and the mitigation layer) interact with the simulated GPU exclusively
through this interface, the way the real attack bypasses OpenGL ES and
talks straight to ``/dev/kgsl-3d0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

# --- msm_kgsl.h constants -------------------------------------------------

KGSL_IOC_TYPE = 0x09

KGSL_PERFCOUNTER_GROUP_VPC = 0x5
KGSL_PERFCOUNTER_GROUP_RAS = 0x7
KGSL_PERFCOUNTER_GROUP_LRZ = 0x19

_IOC_NRBITS = 8
_IOC_TYPEBITS = 8
_IOC_SIZEBITS = 14
_IOC_NRSHIFT = 0
_IOC_TYPESHIFT = _IOC_NRSHIFT + _IOC_NRBITS
_IOC_SIZESHIFT = _IOC_TYPESHIFT + _IOC_TYPEBITS
_IOC_DIRSHIFT = _IOC_SIZESHIFT + _IOC_SIZEBITS
_IOC_WRITE = 1
_IOC_READ = 2


def _iowr(ioc_type: int, nr: int, size: int) -> int:
    """Linux ``_IOWR`` macro: encode direction/type/nr/size into a code."""
    return (
        ((_IOC_READ | _IOC_WRITE) << _IOC_DIRSHIFT)
        | (ioc_type << _IOC_TYPESHIFT)
        | (nr << _IOC_NRSHIFT)
        | (size << _IOC_SIZESHIFT)
    )


# struct sizes as on 64-bit Android (for request-code fidelity only)
_SIZEOF_PERFCOUNTER_GET = 12
_SIZEOF_PERFCOUNTER_PUT = 8
_SIZEOF_PERFCOUNTER_READ = 16
_SIZEOF_DEVICE_GETPROPERTY = 16

IOCTL_KGSL_PERFCOUNTER_GET = _iowr(KGSL_IOC_TYPE, 0x38, _SIZEOF_PERFCOUNTER_GET)
IOCTL_KGSL_PERFCOUNTER_PUT = _iowr(KGSL_IOC_TYPE, 0x39, _SIZEOF_PERFCOUNTER_PUT)
IOCTL_KGSL_PERFCOUNTER_READ = _iowr(KGSL_IOC_TYPE, 0x3B, _SIZEOF_PERFCOUNTER_READ)
IOCTL_KGSL_DEVICE_GETPROPERTY = _iowr(KGSL_IOC_TYPE, 0x02, _SIZEOF_DEVICE_GETPROPERTY)

#: ``KGSL_PROP_DEVICE_INFO``: chip id, device id, MMU enablement, ...
KGSL_PROP_DEVICE_INFO = 0x1


# --- structs ----------------------------------------------------------------


@dataclass
class KgslPerfcounterGet:
    """``struct kgsl_perfcounter_get``: reserve a physical counter register.

    The kernel fills ``offset`` with the assigned register on success.
    """

    groupid: int
    countable: int
    offset: int = 0
    offset_hi: int = 0


@dataclass
class KgslPerfcounterPut:
    """``struct kgsl_perfcounter_put``: release a reserved counter."""

    groupid: int
    countable: int


@dataclass
class KgslPerfcounterReadGroup:
    """``struct kgsl_perfcounter_read_group``: one counter slot in a read."""

    groupid: int
    countable: int
    value: int = 0


@dataclass
class KgslPerfcounterRead:
    """``struct kgsl_perfcounter_read``: blockread of counter values."""

    reads: List[KgslPerfcounterReadGroup] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.reads)


@dataclass
class KgslDeviceInfo:
    """``struct kgsl_devinfo`` as returned by ``KGSL_PROP_DEVICE_INFO``.

    The attack uses the chip id (e.g. ``0x06050000`` for Adreno 650) to
    narrow device recognition to the right GPU family — the same query
    every user-space GPU driver issues at startup, so it is always
    permitted to unprivileged processes.
    """

    device_id: int = 0
    chip_id: int = 0
    mmu_enabled: int = 1
    gmem_gpubaseaddr: int = 0x100000
    gpu_id: int = 0
    gmem_sizebytes: int = 1 << 20

    @property
    def adreno_model(self) -> int:
        """Marketing model number decoded from the chip id."""
        core = (self.chip_id >> 24) & 0xFF
        major = (self.chip_id >> 16) & 0xFF
        minor = (self.chip_id >> 8) & 0xFF
        return core * 100 + major * 10 + minor


@dataclass
class KgslDeviceGetProperty:
    """``struct kgsl_device_getproperty``: generic property query."""

    type: int
    value: object = None


class IoctlError(OSError):
    """An ioctl failure, carrying the errno the kernel would return.

    ``served`` counts the slots a failed ``PERFCOUNTER_READ`` served
    before it failed: the driver walks the slot list in order, so a read
    that fails at slot k has already served slots ``0 .. k-1``.
    """

    def __init__(self, errno_value: int, message: str, served: int = 0) -> None:
        super().__init__(errno_value, message)
        self.served = served
