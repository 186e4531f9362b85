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
from typing import Dict, List, Tuple


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

    @property
    def total(self) -> int:
        return sum(self.values.values())

    def __bool__(self) -> bool:
        return any(self.values.values())


#: Hardware counter registers saturate at 2**48 and wrap, like real
#: free-running counters; a delta between two reads is exact as long as
#: at most one wrap happens between them.
WRAP = 1 << 48
