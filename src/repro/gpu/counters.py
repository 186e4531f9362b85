"""Adreno GPU performance counter registers (paper Table 1).

Performance counters are cumulative hardware registers grouped by pipeline
stage.  The attack uses 11 counters from three groups related to overdraw
(Section 2.2): Low Resolution Z (LRZ), Rasterization (RAS) and Vertex
Cache (VPC).  Group IDs match the KGSL driver header ``msm_kgsl.h``
reproduced in the paper's Fig 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List, Mapping, Tuple


class CounterGroup(IntEnum):
    """KGSL performance counter group IDs (msm_kgsl.h)."""

    VPC = 0x5
    RAS = 0x7
    LRZ = 0x19


#: (group, countable) pair uniquely identifying a hardware counter register.
CounterId = Tuple[CounterGroup, int]


@dataclass(frozen=True)
class CounterSpec:
    """One performance counter register from the paper's Table 1."""

    group: CounterGroup
    countable: int
    name: str

    @property
    def counter_id(self) -> CounterId:
        return (self.group, self.countable)


# Table 1 of the paper: the 11 PCs used for eavesdropping.
LRZ_VISIBLE_PRIM_AFTER_LRZ = CounterSpec(CounterGroup.LRZ, 13, "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ")
LRZ_FULL_8X8_TILES = CounterSpec(CounterGroup.LRZ, 14, "PERF_LRZ_FULL_8X8_TILES")
LRZ_PARTIAL_8X8_TILES = CounterSpec(CounterGroup.LRZ, 15, "PERF_LRZ_PARTIAL_8X8_TILES")
LRZ_VISIBLE_PIXEL_AFTER_LRZ = CounterSpec(CounterGroup.LRZ, 18, "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ")
RAS_SUPERTILE_ACTIVE_CYCLES = CounterSpec(CounterGroup.RAS, 1, "PERF_RAS_SUPERTILE_ACTIVE_CYCLES")
RAS_SUPER_TILES = CounterSpec(CounterGroup.RAS, 4, "PERF_RAS_SUPER_TILES")
RAS_8X4_TILES = CounterSpec(CounterGroup.RAS, 5, "PERF_RAS_8X4_TILES")
RAS_FULLY_COVERED_8X4_TILES = CounterSpec(CounterGroup.RAS, 8, "PERF_RAS_FULLY_COVERED_8X4_TILES")
VPC_PC_PRIMITIVES = CounterSpec(CounterGroup.VPC, 9, "PERF_VPC_PC_PRIMITIVES")
VPC_SP_COMPONENTS = CounterSpec(CounterGroup.VPC, 10, "PERF_VPC_SP_COMPONENTS")
VPC_LRZ_ASSIGN_PRIMITIVES = CounterSpec(CounterGroup.VPC, 12, "PERF_VPC_LRZ_ASSIGN_PRIMITIVES")

#: All counters selected for eavesdropping, in Table 1 order.
SELECTED_COUNTERS: List[CounterSpec] = [
    LRZ_VISIBLE_PRIM_AFTER_LRZ,
    LRZ_FULL_8X8_TILES,
    LRZ_PARTIAL_8X8_TILES,
    LRZ_VISIBLE_PIXEL_AFTER_LRZ,
    RAS_SUPERTILE_ACTIVE_CYCLES,
    RAS_SUPER_TILES,
    RAS_8X4_TILES,
    RAS_FULLY_COVERED_8X4_TILES,
    VPC_PC_PRIMITIVES,
    VPC_SP_COMPONENTS,
    VPC_LRZ_ASSIGN_PRIMITIVES,
]


@dataclass
class CounterIncrement:
    """Per-counter increments produced by rendering one frame."""

    values: Dict[CounterId, int] = field(default_factory=dict)

    def add(self, spec: CounterSpec, amount: int) -> None:
        if amount < 0:
            raise ValueError(f"counter increments are non-negative, got {amount}")
        if amount:
            self.values[spec.counter_id] = self.values.get(spec.counter_id, 0) + amount

    def get(self, spec: CounterSpec) -> int:
        return self.values.get(spec.counter_id, 0)

    def merge(self, other: "CounterIncrement") -> "CounterIncrement":
        merged = CounterIncrement(values=dict(self.values))
        for counter_id, amount in other.values.items():
            merged.values[counter_id] = merged.values.get(counter_id, 0) + amount
        return merged

    def scaled(self, factor: float) -> "CounterIncrement":
        """Increment scaled by ``factor`` (used for partial-frame reads)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CounterIncrement(
            values={cid: int(round(v * factor)) for cid, v in self.values.items()}
        )

    @property
    def total(self) -> int:
        return sum(self.values.values())

    def __bool__(self) -> bool:
        return any(self.values.values())


class CounterBank:
    """The cumulative hardware counter registers of one GPU.

    Registers saturate at 2**48 and wrap, like real free-running hardware
    counters; the attack computes deltas so wrapping is transparent as long
    as at most one wrap happens between reads.
    """

    WRAP = 1 << 48

    def __init__(self) -> None:
        self._values: Dict[CounterId, int] = {
            spec.counter_id: 0 for spec in SELECTED_COUNTERS
        }

    def apply(self, increment: CounterIncrement) -> None:
        for counter_id, amount in increment.values.items():
            if counter_id not in self._values:
                raise KeyError(f"unknown counter id {counter_id}")
            self._values[counter_id] = (self._values[counter_id] + amount) % self.WRAP

    def read(self, spec: CounterSpec) -> int:
        return self._values[spec.counter_id]

    def read_id(self, counter_id: CounterId) -> int:
        return self._values[counter_id]

    def snapshot(self) -> Dict[CounterId, int]:
        return dict(self._values)

    def load(self, values: Mapping[CounterId, int]) -> None:
        for counter_id, value in values.items():
            if counter_id not in self._values:
                raise KeyError(f"unknown counter id {counter_id}")
            self._values[counter_id] = value % self.WRAP

    def __iter__(self) -> Iterator[Tuple[CounterId, int]]:
        return iter(self._values.items())


def delta(before: Mapping[CounterId, int], after: Mapping[CounterId, int]) -> Dict[CounterId, int]:
    """Per-counter difference between two snapshots, handling wraparound."""
    out: Dict[CounterId, int] = {}
    for counter_id, end in after.items():
        start = before.get(counter_id, 0)
        diff = end - start
        if diff < 0:
            diff += CounterBank.WRAP
        out[counter_id] = diff
    return out
