"""The sharded collector tier: N collector processes behind one router.

One :class:`~repro.collector.server.CollectorServer` tops out at one
process — one event loop, one aggregator, one GIL.  The tier scales it
horizontally the same way :class:`~repro.parallel.plan.ShardPlan`
scales session compute: a **deterministic partition**.
:class:`DeviceRouter` maps every device id to one of ``shards``
collectors with a seed-keyed hash, so a device always reports to the
same shard (its ``(device_id, seq)`` dedup state lives in exactly one
place), any device's routing can be recomputed offline from the config
alone, and no shard ever needs to know about the others.

Each shard is a real OS process (:func:`_shard_worker`, spawned — not
forked — so no event-loop or RNG state leaks across), running a
:class:`~repro.collector.server.CollectorHandle` with its own
write-ahead journal (:mod:`repro.collector.journal`).  The parent
:class:`CollectorTier` owns the lifecycle:

* ``start()`` spawns every shard and waits for each to publish its
  bound endpoint (a JSON file in the journal directory — TCP ports are
  kernel-assigned on first bind, so the parent cannot know them ahead
  of time);
* ``kill(k)`` SIGKILLs shard ``k`` mid-run — the fault this tier is
  built to survive — and ``restart(k)`` respawns it **on the same
  endpoint**, where it replays its journal and resumes exactly-once
  aggregation;
* ``stop()`` SIGTERMs every live shard; each drains gracefully and
  writes its :class:`~repro.obs.RunManifest` to a file, and the parent
  merges them (:meth:`RunManifest.merge`) into the run-level manifest.

Reporting after kills: a shard that died by SIGKILL never wrote a
manifest, but its *restarted* life replayed the journal, so its final
manifest already counts everything the dead life admitted — the merge
counts every unique session exactly once.  The ingested payloads
themselves are recovered by reading the journals back
(:meth:`CollectorTier.journal_results`), deduped ``(device_id, seq)``
first-seen-wins.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.collector.config import CollectorConfig
from repro.collector.journal import dedupe_records, journal_path, read_journal
from repro.obs import RunManifest

#: How long ``CollectorTier.start``/``restart`` waits for a shard to
#: publish its endpoint before declaring the spawn dead.
SHARD_START_TIMEOUT_S = 30.0

#: How long ``stop()`` gives each shard to drain after SIGTERM.
SHARD_STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class DeviceRouter:
    """Seed-keyed deterministic device → shard partition.

    The hash is :func:`hashlib.blake2b` over the device id bytes —
    *not* Python's builtin ``hash()``, whose per-process salt would
    route the same device to different shards in different processes.
    ``seed`` offsets the partition exactly like
    :class:`~repro.parallel.plan.ShardPlan` offsets session→worker
    assignment, so two runs with different seeds spread hot devices
    differently while each stays fully reproducible.
    """

    shards: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @classmethod
    def from_config(cls, config: CollectorConfig, seed: int = 0) -> "DeviceRouter":
        return cls(shards=config.shards, seed=seed)

    def shard_of(self, device_id: str) -> int:
        """Which shard ``device_id`` reports to — stable across processes."""
        digest = blake2b(device_id.encode("utf-8"), digest_size=8).digest()
        return (self.seed + int.from_bytes(digest, "big")) % self.shards

    def partition(self, device_ids: Iterable[str]) -> Dict[int, List[str]]:
        """Group device ids by their shard (offline routing table)."""
        out: Dict[int, List[str]] = {k: [] for k in range(self.shards)}
        for device_id in device_ids:
            out[self.shard_of(device_id)].append(device_id)
        return out


# -- shard process ------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _shard_worker(
    shard_index: int,
    config_dict: Dict[str, object],
    endpoint_file: str,
    manifest_file: str,
) -> None:
    """One collector shard: serve until SIGTERM, then drain and report.

    Runs in a spawned child process.  Publishes the bound endpoint to
    ``endpoint_file`` once serving (the parent polls for it), then
    parks until SIGTERM.  A graceful stop drains in-flight connections
    and writes the shard manifest; a SIGKILL skips all of that — which
    is exactly what the journal exists to absorb.
    """
    from repro.collector.server import CollectorHandle

    config = CollectorConfig.from_dict(config_dict)
    handle = CollectorHandle(config, shard_index=shard_index, keep_results=False)
    endpoint = handle.start()

    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: done.set())

    _atomic_write(Path(endpoint_file), json.dumps(list(endpoint)))
    done.wait()
    handle.stop(drain=True)
    manifest = handle.server.report(shard=shard_index)
    _atomic_write(Path(manifest_file), manifest.to_json())


class CollectorTier:
    """N journaled collector shards as one start/kill/restart/stop unit.

    Args:
        config: the tier-wide :class:`CollectorConfig`.  ``shards`` is
            the process count and ``journal_dir`` (required) holds each
            shard's journal plus the endpoint/manifest control files.
            ``transport="tcp"`` binds each shard a kernel-assigned port
            (re-pinned on restart); ``transport="unix"`` gives each
            shard its own socket at ``journal_dir/shard-NNNN.sock``.
        seed: keys the :class:`DeviceRouter` partition.
    """

    def __init__(self, config: CollectorConfig, seed: int = 0) -> None:
        if config.journal_dir is None:
            raise ValueError("CollectorTier requires config.journal_dir")
        self.config = config
        self.shards = config.shards
        self.seed = seed
        self.router = DeviceRouter.from_config(config, seed=seed)
        self.journal_dir = Path(config.journal_dir)
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.shards
        self._endpoints: List[Optional[Tuple]] = [None] * self.shards
        self._started = False

    # -- paths ----------------------------------------------------------

    def _endpoint_file(self, k: int) -> Path:
        return self.journal_dir / f"shard-{k:04d}.endpoint.json"

    def _manifest_file(self, k: int) -> Path:
        return self.journal_dir / f"shard-{k:04d}.manifest.json"

    def journal_file(self, k: int) -> Path:
        return journal_path(self.journal_dir, k)

    def _shard_config(self, k: int) -> CollectorConfig:
        """The child's config: same knobs, shard-private bind address."""
        overrides: Dict[str, object] = {}
        if self.config.transport == "unix":
            overrides["unix_path"] = str(self.journal_dir / f"shard-{k:04d}.sock")
        else:
            endpoint = self._endpoints[k]
            # port 0 on first start (kernel assigns); a restart re-pins
            # the learned port so clients mid-retry reconnect unchanged
            overrides["port"] = endpoint[2] if endpoint is not None else 0
        return self.config.with_overrides(**overrides)

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, k: int) -> None:
        endpoint_file = self._endpoint_file(k)
        if endpoint_file.exists():
            endpoint_file.unlink()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                k,
                self._shard_config(k).to_dict(),
                str(endpoint_file),
                str(self._manifest_file(k)),
            ),
            name=f"repro-collector-{k}",
            daemon=True,
        )
        proc.start()
        self._procs[k] = proc

    def _await_endpoint(self, k: int) -> Tuple:
        """Poll for the shard's published endpoint; fail fast if it died."""
        endpoint_file = self._endpoint_file(k)
        deadline = time.monotonic() + SHARD_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if endpoint_file.exists():
                try:
                    endpoint = tuple(
                        json.loads(endpoint_file.read_text(encoding="utf-8"))
                    )
                except (json.JSONDecodeError, OSError):
                    pass  # torn read of the atomic replace; retry
                else:
                    self._endpoints[k] = endpoint
                    return endpoint
            proc = self._procs[k]
            if proc is not None and not proc.is_alive():
                raise RuntimeError(
                    f"collector shard {k} died during startup "
                    f"(exitcode {proc.exitcode})"
                )
            time.sleep(0.01)
        raise RuntimeError(f"collector shard {k} did not publish an endpoint")

    def start(self) -> List[Tuple]:
        """Spawn every shard; returns their endpoints in shard order."""
        if self._started:
            raise RuntimeError("collector tier already started")
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        for k in range(self.shards):
            self._spawn(k)
        for k in range(self.shards):
            self._await_endpoint(k)
        self._started = True
        return list(self._endpoints)

    @property
    def endpoints(self) -> List[Tuple]:
        return [e for e in self._endpoints if e is not None]

    def endpoint_for(self, device_id: str) -> Tuple:
        """Where ``device_id`` reports: the router's shard's endpoint."""
        endpoint = self._endpoints[self.router.shard_of(device_id)]
        if endpoint is None:
            raise RuntimeError("collector tier is not started")
        return endpoint

    def is_alive(self, k: int) -> bool:
        proc = self._procs[k]
        return proc is not None and proc.is_alive()

    def kill(self, k: int) -> None:
        """SIGKILL shard ``k`` — no drain, no manifest, no goodbye."""
        proc = self._procs[k]
        if proc is None:
            raise RuntimeError(f"shard {k} was never started")
        proc.kill()
        proc.join(timeout=SHARD_STOP_TIMEOUT_S)

    def restart(self, k: int) -> Tuple:
        """Respawn a dead shard on its old endpoint; journal replay
        restores its dedup set and aggregation totals."""
        proc = self._procs[k]
        if proc is not None and proc.is_alive():
            raise RuntimeError(f"shard {k} is still alive; kill it first")
        self._spawn(k)
        return self._await_endpoint(k)

    def stop(self) -> None:
        """SIGTERM every live shard and wait for their graceful drains."""
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=SHARD_STOP_TIMEOUT_S)

    def __enter__(self) -> "CollectorTier":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- reporting ------------------------------------------------------

    def shard_manifests(self) -> List[RunManifest]:
        """Every manifest the gracefully stopped shards wrote."""
        manifests = []
        for k in range(self.shards):
            path = self._manifest_file(k)
            if path.exists():
                manifests.append(RunManifest.load(path))
        return manifests

    def merged_manifest(self, **meta) -> RunManifest:
        """The cross-shard run manifest (counters sum, spans combine)."""
        meta.setdefault("shards", self.shards)
        manifests = self.shard_manifests()
        if not manifests:
            return RunManifest(meta=dict(meta))
        return RunManifest.merge(manifests, **meta)

    def journal_results(self):
        """Every unique journaled payload, across all shards.

        Returns ``(payloads, dupes)``: the deduped payload list in
        ``(device_id, session seq)`` arrival order per shard, and how
        many journal records were duplicates (a shard killed between
        journal-append and ack can journal a frame its restarted life
        journals again on the resend).
        """
        payloads = []
        dupes = 0
        for k in range(self.shards):
            records = read_journal(self.journal_file(k)).records
            unique, shard_dupes = dedupe_records(records)
            dupes += shard_dupes
            payloads.extend(frame.payload for frame in unique)
        return payloads, dupes
