"""The benchmark's four workloads, driven through the public ``repro.api``.

Each workload is a closed loop of *operations* run from one process.  The
runner calls :meth:`prepare` (the timed set-up, repeated), :meth:`start`
(fresh per-loop state) and then :meth:`op` with ``i = 0, 1, ...`` in
whole cycles of ``cycle_ops`` operations until its time is up.  Operation
``i`` draws its inputs from ``(seed, i)`` alone, so any prefix of a run
can be replayed exactly and compared.

Why these four (see README.md for the full table):

* ``train`` — the offline phase: scene compile, tile render and the KGSL
  read path, with labeling and fit on top; the online engine never runs.
* ``attack`` — the clean online attack, where only a few percent of reads
  carry a nonzero delta, so the read path dominates.
* ``attack-defended`` — faults, drift, obfuscation and recalibration:
  every read carries noise, so the engine and classifier dominate and
  every interposer hook fires.
* ``ingest`` — the collector alone: framing, codec, admission, journal,
  acks.  Every attack layer is idle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import api

#: One (phone, keyboard, app) configuration per phone of the registry.
TRAIN_PAIRS = (
    ("oneplus8pro", "gboard", "chase"),
    ("oneplus7pro", "swift", "schwab"),
    ("galaxy_s21", "sogou", "amex"),
    ("oneplus9", "go", "fidelity"),
    ("pixel2", "grammarly", "experian"),
    ("lg_v30", "pinyin", "myfico"),
)

#: The attack workloads' victim: the paper's default Table 2 cell.
SCENARIO = "gboard-chase"

#: Sessions replayed on a fresh attacker to check the run is deterministic.
REPLAY_SESSIONS = 3

#: ``attack`` must recover at least this share of credentials exactly.
EXACT_RATE_FLOOR = 0.7

#: ``train``: the stores must still recover typed text this well.
TRAIN_CHAR_ACCURACY_FLOOR = 0.8

#: ``ingest``: results uploaded per round.
ROUND_RESULTS = 8_000

Check = Tuple[str, bool, str]


@dataclass
class Op:
    """One operation's measurements and outputs."""

    #: Wall time the operation took.
    busy_s: float
    #: Units attempted (configurations, sessions, results) and failed.
    units: int
    failed: int = 0
    #: Work done, in the unit ``throughput_per_s`` counts per second.
    work: float = 0.0
    #: JSON-able outputs: digested, replayed and compared.
    record: object = None
    #: The machine's slowness just before the operation (``reference.py``).
    slowness: float = 1.0


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def char_accuracy(text: str, truth: str) -> float:
    return max(0.0, 1.0 - api.edit_distance(text, truth) / len(truth))


def clean_frac(store) -> float:
    """Share of offline sample windows the labeler kept."""
    clean = sum(m.metadata.get("clean_windows", 0) for m in store)
    total = clean + sum(m.metadata.get("discarded_windows", 0) for m in store)
    return clean / total if total else 0.0


def _undefended(**overrides) -> "api.AttackConfig":
    # pin every "auto" field so the environment cannot change the run
    return api.AttackConfig(fault_plan=None, mitigation=None, drift=None, **overrides)


class Train:
    """The offline phase over six configurations, one per phone.

    An operation trains one configuration's model (``train()`` on one
    pair); operations cycle through the six pairs and a run holds whole
    cycles only, so every run's median covers the same mix of phones.
    Models train at ``sweep_repeats=1`` so a run holds several cycles;
    the collection sessions and the read path they drive are the same at
    every repeat count.  The warm-up trains all six once, filling the
    process-wide render cache, so every measured model is a warm one.
    """

    name = "train"
    units_per_op = 1
    cycle_ops = len(TRAIN_PAIRS)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs: List = []
        self.configs: List = []
        self.models: List = []

    @property
    def store(self):
        """A store of the newest model of each configuration."""
        store = api.ModelStore()
        for model in self.models:
            store.add(model)
        return store

    def prepare(self) -> None:
        self.pairs = [
            (api.DeviceConfig(phone=api.phone(p), keyboard=api.keyboard(k)), api.app(a))
            for p, k, a in TRAIN_PAIRS
        ]
        # the same per-pair seeds train(pairs) would use for the store
        self.configs = [
            _undefended(sweep_repeats=1, train_seed=self.seed + k)
            for k in range(len(self.pairs))
        ]
        self.models = [
            next(iter(api.train([pair], config=config)))
            for pair, config in zip(self.pairs, self.configs)
        ]

    def start(self) -> None:
        pass

    def op(self, i: int) -> Op:
        k = i % len(self.pairs)
        t0 = time.perf_counter()
        store = api.train([self.pairs[k]], config=self.configs[k])
        busy = time.perf_counter() - t0
        self.models[k] = next(iter(store))
        return Op(
            busy_s=busy,
            units=1,
            work=1.0,
            record={"pair": k, "model_sha256": sha256_json(store.to_dict())},
        )

    def checks(self, ops: Sequence[Op]) -> List[Check]:
        records = [op.record for op in ops if op.record is not None]
        distinct = {(r["pair"], r["model_sha256"]) for r in records}
        pairs = {r["pair"] for r in records}
        out = [
            (
                "determinism",
                len(distinct) == len(pairs),
                f"{len(distinct)} distinct models for {len(pairs)} configurations",
            )
        ]
        # the six-model store must still steal credentials (device
        # recognition picks the gboard/chase model out of six)
        config = _undefended(scenario=SCENARIO)
        attacker = api.EavesdropAttack(
            self.store, fault_plan=None, mitigation=None, drift=None
        )
        rng = np.random.default_rng((self.seed, 0xC4EC))
        accuracies = []
        for _ in range(REPLAY_SESSIONS):
            credential = api.scenario_credential(rng, api.scenario(SCENARIO))
            sim_seed, attack_seed = (int(s) for s in rng.integers(2**31, size=2))
            trace = api.simulate(credential=credential, seed=sim_seed, config=config)
            result = attacker.run_on_trace(trace, seed=attack_seed)
            accuracies.append(char_accuracy(result.text, credential))
        mean = float(np.mean(accuracies))
        out.append(
            (
                "char_accuracy",
                mean >= TRAIN_CHAR_ACCURACY_FLOOR,
                f"{mean:.3f} >= {TRAIN_CHAR_ACCURACY_FLOOR}",
            )
        )
        return out

    def summary(self, ops: Sequence[Op]) -> Dict[str, float]:
        return {"configs": sum(op.units - op.failed for op in ops)}


class Attack:
    """Closed loop of victim sessions against one attacker.

    An operation simulates one victim typing a fresh credential
    (``simulate``) and runs the attack on it (``run_on_trace``).  The work
    is the victim session's length in seconds, done in the time both steps
    took: throughput is how many victims one process could follow in real
    time, and it does not swing with how long each random credential took
    to type (a session's cost tracks its length).  One attacker serves
    every session, so recalibration carries across sessions.  The model
    store is trained at the default seed: runs with different seeds
    differ in their victims only.
    """

    units_per_op = 1

    def __init__(
        self,
        name: str,
        seed: int,
        config: "api.AttackConfig",
        length: Optional[int],
        cycle_ops: int,
        exact_rate_floor: Optional[float],
    ) -> None:
        self.name = name
        self.seed = seed
        self.config = config
        self.length = length
        self.cycle_ops = cycle_ops
        self.exact_rate_floor = exact_rate_floor
        self.scenario = api.scenario(SCENARIO)
        self.store = None
        self.attacker = None

    def prepare(self) -> None:
        self.store = api.train(config=self.config)
        self.start()

    def start(self) -> None:
        config = self.config
        self.attacker = api.EavesdropAttack(
            self.store,
            interval_s=config.interval_s,
            fault_plan=config.resolved_fault_plan(),
            mitigation=config.resolved_mitigation(),
            drift=config.resolved_drift_plan(),
            calibration=config.resolved_calibration(),
        )

    def op(self, i: int) -> Op:
        rng = np.random.default_rng((self.seed, i))
        credential = api.scenario_credential(rng, self.scenario, length=self.length)
        sim_seed, attack_seed = (int(s) for s in rng.integers(2**31, size=2))
        t0 = time.perf_counter()
        trace = api.simulate(credential=credential, seed=sim_seed, config=self.config)
        result = self.attacker.run_on_trace(
            trace, load=self.config.load, seed=attack_seed
        )
        busy = time.perf_counter() - t0
        return Op(
            busy_s=busy,
            units=1,
            work=trace.end_time_s,
            record={
                "credential": credential,
                "text": result.text,
                "key_t": [key.t for key in result.keys],
                "reads": result.reads_issued,
                "stats": dataclasses.asdict(result.stats),
            },
        )

    def checks(self, ops: Sequence[Op]) -> List[Check]:
        replay = [op for op in ops[:REPLAY_SESSIONS] if not op.failed]
        self.start()
        again = [self.op(i).record for i in range(len(replay))]
        out = [
            (
                "replay",
                again == [op.record for op in replay],
                f"first {len(replay)} sessions on a fresh attacker",
            )
        ]
        if self.exact_rate_floor is not None:
            rate = self.summary(ops)["exact_rate"]
            out.append(
                ("exact_rate", rate >= self.exact_rate_floor, f"{rate:.3f} >= {self.exact_rate_floor}")
            )
        return out

    def summary(self, ops: Sequence[Op]) -> Dict[str, float]:
        records = [op.record for op in ops if not op.failed]
        if not records:
            return {"sessions": 0, "exact_rate": 0.0, "char_accuracy": 0.0}
        return {
            "sessions": len(records),
            "exact_rate": float(np.mean([r["text"] == r["credential"] for r in records])),
            "char_accuracy": float(
                np.mean([char_accuracy(r["text"], r["credential"]) for r in records])
            ),
        }


class Ingest:
    """Backlog uploads into one in-process collector.

    An operation is one round: a fresh collector (binary codec, journal
    flushed per admission) takes one pipelined connection carrying
    ``ROUND_RESULTS`` prebuilt 11-delta results.  A fresh collector per
    round keeps memory flat however many rounds a run holds.  One
    connection, not one per core: a second sender thread contends with
    the server thread for the interpreter lock, and the rate then swings
    by a quarter from one few-second window to the next.  No network
    faults are injected: their seeded drops and backoff sleeps spread the
    rate far more than a code change would move it.
    """

    name = "ingest"
    units_per_op = ROUND_RESULTS
    cycle_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.store = None
        self.payloads: List = []
        self.sent: List[Tuple[str, int]] = []

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        deltas = rng.integers(0, 60_000, size=(ROUND_RESULTS, 11))
        texts = rng.integers(0, 26, size=(ROUND_RESULTS, 8))
        device_id = f"bench-{self.seed}"
        self.payloads = [
            api.SessionResultPayload(
                device_id,
                i,
                "".join(chr(97 + int(c)) for c in texts[i]),
                8,
                exact=True,
                deltas=tuple(int(v) for v in deltas[i]),
                mask=0x7FF,
            )
            for i in range(ROUND_RESULTS)
        ]
        self.sent = [(device_id, i) for i in range(ROUND_RESULTS)]

    def start(self) -> None:
        pass

    def op(self, i: int) -> Op:
        journal_dir = tempfile.mkdtemp(prefix="ingest-", dir=self.workdir)
        config = api.CollectorConfig(
            codec="binary",
            pipeline_depth=32,
            journal_dir=journal_dir,
            journal_sync="flush",
        )
        handle = api.CollectorHandle(config)
        try:
            handle.start()
            client = api.CollectorClient(handle.endpoint, self.payloads[0].device_id, config=config)
            t0 = time.perf_counter()
            with client:
                client.send_results(self.payloads)
            busy = time.perf_counter() - t0
        finally:
            handle.stop()
            shutil.rmtree(journal_dir, ignore_errors=True)
        ingested = sorted(
            (p.device_id, p.session_index) for p in handle.server.results
        )
        lost = len(set(self.sent) - set(ingested))
        return Op(
            busy_s=busy,
            units=len(self.sent),
            failed=lost,
            work=float(len(self.sent) - lost),
            record={
                "ingested_sha256": sha256_json(ingested),
                "exact": ingested == self.sent,
            },
        )

    def checks(self, ops: Sequence[Op]) -> List[Check]:
        bad = sum(1 for op in ops if op.record is None or not op.record["exact"])
        return [("ingested_equals_sent", bad == 0, f"{bad} of {len(ops)} rounds differ")]

    def summary(self, ops: Sequence[Op]) -> Dict[str, float]:
        return {"rounds": len(ops)}


def make(name: str, seed: int, workdir: Path):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "train":
        return Train(seed)
    if name == "attack":
        return Attack(
            name,
            seed,
            _undefended(scenario=SCENARIO),
            length=None,
            cycle_ops=20,
            exact_rate_floor=EXACT_RATE_FLOOR,
        )
    if name == "attack-defended":
        return Attack(
            name,
            seed,
            api.AttackConfig(
                scenario=SCENARIO,
                fault_plan="mild",
                drift="thermal-mild",
                mitigation="obfuscate-mild",
                calibration="default",
            ),
            length=8,
            cycle_ops=5,
            exact_rate_floor=None,
        )
    if name == "ingest":
        return Ingest(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
