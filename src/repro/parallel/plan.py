"""Deterministic partitioning of a session batch across workers.

A :class:`ShardPlan` assigns each global session index to a shard with
``(seed + index) % workers`` — a seed-keyed round-robin.  The properties
the sharded runtime depends on:

* **deterministic** — the same ``(n_sessions, workers, seed)`` triple
  always yields the same assignment, on any platform, so a re-run (or a
  crashed shard's post-mortem) can name exactly which sessions each
  worker owned;
* **balanced** — shard sizes differ by at most one;
* **seed-keyed** — changing the batch seed rotates which sessions ride
  together, so a pathological co-location (e.g. the two slowest victims
  on one worker) is not pinned to the index layout forever.

Shards may be empty (``workers > n_sessions``); the runtime simply does
not spawn a process for them, and the merge step treats an empty shard
as contributing nothing — one of the tested edge cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ShardPlan:
    """The assignment of ``n_sessions`` global indices to ``workers`` shards."""

    n_sessions: int
    workers: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n_sessions < 0:
            raise ValueError("n_sessions must be >= 0")

    def shard_of(self, index: int) -> int:
        """The shard that owns global session ``index``."""
        if not 0 <= index < self.n_sessions:
            raise IndexError(f"session index {index} out of range")
        return (self.seed + index) % self.workers

    def shards(self) -> List[List[int]]:
        """Global session indices per shard, ascending within each shard."""
        out: List[List[int]] = [[] for _ in range(self.workers)]
        for index in range(self.n_sessions):
            out[self.shard_of(index)].append(index)
        return out
