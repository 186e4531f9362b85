"""Multi-process session sharding: scale the runtime across cores.

The serial :class:`~repro.runtime.session.SessionRuntime` interleaves
every victim session on one core.  This package shards a batch across
worker processes and merges the results back **byte-identically** to
the serial run:

* :class:`ShardPlan` — deterministic, seed-keyed partition of session
  indices across workers;
* :class:`ShardedRuntime` — the process-pool driver (spawn-safe
  payloads, crash containment, metrics merge);
* :mod:`repro.parallel.worker` — the picklable worker entry point;
* :mod:`repro.parallel.merge` — the scheduler-replay merge that
  reconstructs the serial trace order from per-shard step logs.

The facade surface is ``repro.api.run_sessions(..., workers=N)``; the
CLI flag is ``--workers``.
See ``docs/parallel.md`` for the design and the parity contract.
"""

from repro.parallel.merge import merge_attack_outputs, synthesize_crashed_shard
from repro.parallel.plan import ShardPlan
from repro.parallel.sharded import ShardedRuntime

__all__ = [
    "ShardPlan",
    "ShardedRuntime",
    "merge_attack_outputs",
    "synthesize_crashed_shard",
]
