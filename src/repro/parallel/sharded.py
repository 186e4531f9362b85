"""The process-pool sharded runtime.

:class:`ShardedRuntime` fans a session batch out over worker processes
(one :class:`~repro.runtime.session.SessionRuntime` per worker), then
merges the per-shard traces, results and metrics back into one result
that is **byte-identical** to the serial run for the same seeds — same
keys, same text, same trace event order, same manifest counters.  See
:mod:`repro.parallel.merge` for why the merge replays the scheduler
instead of sorting.

Spawn safety: workers receive only picklable payloads (the
``AttackConfig`` dict, the model store dict *or a path to it*, the
victim traces, global indices and the seed) and rebuild everything else
themselves — see :mod:`repro.parallel.worker`.  The default start
method is ``fork`` where the platform offers it (cheapest), otherwise
``spawn``; pass ``mp_context="inline"`` to run shards sequentially in
the parent process (no pool), which keeps tests deterministic and fast
while exercising the identical payload/merge path.

Failure containment: a worker that raises, or a crash that breaks the
whole pool (``BrokenProcessPool``), degrades only the sessions of the
affected shards — each lost session comes back as a
``degraded=True`` placeholder result with a ``degraded`` event in the
merged trace (reason ``worker_crashed``), never as a missing index.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.model_store import ModelStore
from repro.obs import MetricsRegistry, resolve_registry
from repro.parallel.merge import merge_attack_outputs, synthesize_crashed_shard
from repro.parallel.plan import ShardPlan
from repro.parallel.worker import ShardOutput, run_shard
from repro.runtime.trace import RuntimeTrace

#: Start methods tried in order when none is requested.
_PREFERRED_START_METHODS = ("fork", "spawn")


def _default_start_method() -> str:
    available = multiprocessing.get_all_start_methods()
    for method in _PREFERRED_START_METHODS:
        if method in available:
            return method
    return available[0]


class ShardedRuntime:
    """Run session batches across worker processes with serial-parity merge.

    Args:
        store: the preloaded model store — either a live
            :class:`~repro.core.model_store.ModelStore` (shipped as its
            dict form) or a path to a saved store that each worker loads
            itself.
        config: the :class:`~repro.api.AttackConfig` for every session;
            defaults to ``AttackConfig()``.
        workers: number of shards (= maximum worker processes).
        metrics: optional parent :class:`~repro.obs.MetricsRegistry`;
            when enabled, every worker records into a private registry
            and the snapshots are merged back here (counters sum,
            histograms add bucket-wise, gauges last-wins).
        mp_context: ``"fork"`` / ``"spawn"`` / ``"forkserver"`` to force
            a start method, ``"inline"`` to run shards in-process, or
            ``None`` for the platform default.
    """

    def __init__(
        self,
        store: Union[ModelStore, str, Path],
        config=None,
        workers: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if config is None:
            from repro.api import AttackConfig

            config = AttackConfig()
        self.config = config
        self.workers = workers
        self.metrics = resolve_registry(metrics)
        self.mp_context = mp_context
        if isinstance(store, (str, Path)):
            self._store_path: Optional[str] = str(store)
            self._store_dict = None
        else:
            self._store_path = None
            self._store_dict = store.to_dict()

    # ------------------------------------------------------------------

    def _payload(
        self, shard: int, indices: List[int], traces, seed: int
    ) -> Dict[str, object]:
        return {
            "shard": shard,
            "config": self.config.to_dict(),
            "store_path": self._store_path,
            "store": self._store_dict,
            "indices": indices,
            "traces": [traces[i] for i in indices],
            "seed": seed,
            "metrics": self.metrics.enabled,
        }

    def _execute(self, payloads: List[Dict[str, object]]):
        """Run every shard payload; returns (outputs, crashed_payloads)."""
        outputs: List[ShardOutput] = []
        crashed: List[Dict[str, object]] = []
        if self.mp_context == "inline":
            for payload in payloads:
                try:
                    outputs.append(run_shard(payload))
                except Exception:
                    crashed.append(payload)
            return outputs, crashed
        method = self.mp_context or _default_start_method()
        context = multiprocessing.get_context(method)
        max_workers = max(1, min(self.workers, len(payloads)))
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=context) as pool:
            futures = [(payload, pool.submit(run_shard, payload)) for payload in payloads]
            for payload, future in futures:
                try:
                    outputs.append(future.result())
                except Exception:
                    # includes BrokenProcessPool: a hard-killed worker
                    # takes down the pool, and every unfinished shard
                    # lands here and degrades
                    crashed.append(payload)
        return outputs, crashed

    # ------------------------------------------------------------------

    def run_sessions(
        self,
        traces: Sequence,
        seed: int = 99,
        runtime_trace: Optional[RuntimeTrace] = None,
    ):
        """The sharded equivalent of :func:`repro.core.pipeline.run_sessions`.

        Returns a :class:`~repro.core.pipeline.SessionBatch` in global
        session order with the merged trace attached to every result;
        output is byte-identical to the serial batch for the same seeds.
        """
        from repro.core.pipeline import SessionBatch

        plan = ShardPlan(len(traces), self.workers, seed=seed)
        payloads = [
            self._payload(shard, indices, traces, seed)
            for shard, indices in enumerate(plan.shards())
            if indices
        ]
        wall_start = time.perf_counter()
        outputs, crashed = self._execute(payloads)
        for payload in crashed:
            outputs.append(synthesize_crashed_shard(payload["shard"], payload["indices"]))
        if self.metrics.enabled:
            for output in sorted(outputs, key=lambda o: o.shard):
                if output.snapshot is not None:
                    self.metrics.merge_snapshot(output.snapshot)
            if crashed:
                self.metrics.counter("parallel.worker_crashes").inc(len(crashed))
            self.metrics.gauge("parallel.workers").set(self.workers)
            self.metrics.gauge("parallel.shards_run").set(len(payloads))
            self.metrics.gauge("parallel.wall_s").set(time.perf_counter() - wall_start)
        trace = runtime_trace if runtime_trace is not None else RuntimeTrace()
        results_by_index = merge_attack_outputs(outputs, trace)
        if set(results_by_index) != set(range(len(traces))):
            missing = sorted(set(range(len(traces))) - set(results_by_index))
            raise RuntimeError(f"merge lost sessions {missing}")
        results = []
        for index in range(len(traces)):
            result = results_by_index[index]
            result.trace = trace
            if getattr(result, "online", None) is not None:
                result.online.trace = trace
            results.append(result)
        batch = SessionBatch(results)
        if self.metrics.enabled:
            batch.manifest = self.metrics.manifest(sessions=len(traces))
        return batch
