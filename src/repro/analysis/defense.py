"""Defense evaluation: the threat × mitigation matrix (paper Section 9).

The paper's defense argument is an arms race tally — each mitigation is
scored by how far it degrades the attack (text- and key-level accuracy)
against what it costs the platform (denied ioctls, stale reads served,
wall-clock overhead).  :func:`run_defense_matrix` drives the existing
attack pipeline over ``scenarios × mitigations`` cells and returns one
:class:`DefenseCell` per combination; ``repro defenses sweep`` and
``benchmarks/test_defense_matrix.py`` (→ ``BENCH_defense.json``) are
thin wrappers over it.  See ``docs/defenses.md`` for the handbook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.experiments import cached_model
from repro.analysis.metrics import align
from repro.core.model_store import ModelStore
from repro.mitigations.policy import MitigationPolicy
from repro.mitigations.policy import mitigation as _mitigation_lookup
from repro.obs import MetricsRegistry
from repro.scenarios import Scenario
from repro.scenarios import scenario as _scenario_lookup
from repro.workloads.credentials import scenario_credential

#: Manifest counters folded into each cell (zero when absent).
_MITIGATION_COUNTERS = (
    "denials",
    "stale_serves",
    "quantized",
    "noised",
    "local_zeroed",
)


@dataclass(frozen=True)
class DefenseCell:
    """One (scenario, mitigation) cell of the threat × mitigation matrix."""

    scenario: str
    mitigation: str
    sessions: int
    #: Sessions whose credential was recovered exactly (Fig 17a metric).
    exact: int
    #: Key presses aligned correct / total (Fig 17b metric).
    keys_correct: int
    keys_total: int
    #: Enforcement tallies from the policy enforcer + sampler.
    denials: int
    stale_serves: int
    quantized: int
    noised: int
    local_zeroed: int
    #: Overhead proxies: reads the sampler issued, and wall time.
    reads_issued: int
    wall_s: float
    degraded_sessions: int = 0

    @property
    def exact_rate(self) -> float:
        return self.exact / self.sessions if self.sessions else 0.0

    @property
    def key_accuracy(self) -> float:
        return self.keys_correct / self.keys_total if self.keys_total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "mitigation": self.mitigation,
            "sessions": self.sessions,
            "exact": self.exact,
            "exact_rate": self.exact_rate,
            "keys_correct": self.keys_correct,
            "keys_total": self.keys_total,
            "key_accuracy": self.key_accuracy,
            "denials": self.denials,
            "stale_serves": self.stale_serves,
            "quantized": self.quantized,
            "noised": self.noised,
            "local_zeroed": self.local_zeroed,
            "reads_issued": self.reads_issued,
            "wall_s": self.wall_s,
            "degraded_sessions": self.degraded_sessions,
        }


def _policy_label(policy: Union[MitigationPolicy, str, None]) -> str:
    if policy is None:
        return "none"
    if isinstance(policy, MitigationPolicy):
        return policy.name
    return policy


def run_defense_matrix(
    scenarios: Sequence[Union[Scenario, str]],
    mitigations: Sequence[Union[MitigationPolicy, str, None]],
    sessions: int = 3,
    length: int = 8,
    seed: int = 7,
    fault_plan: Union[object, None, str] = None,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> List[DefenseCell]:
    """Run the attack fleet across ``scenarios × mitigations``.

    Per cell: the attacker trains on the *clean* device config (the
    paper's attacker profiles their own phone, which the victim's
    mitigations do not touch), the victim types ``sessions`` random
    credentials under the mitigation — popup changes land on the
    simulated device, KGSL-boundary layers land on the attacker's
    reads — and the cell scores exact/key accuracy plus enforcement
    and overhead tallies.  Credentials are seeded per scenario, so
    every mitigation of one scenario attacks the same texts.

    When ``metrics`` is an enabled registry, each cell additionally
    lands as ``defense.<scenario>.<mitigation>.*`` gauges — the shape
    ``BENCH_defense.json`` is built from.
    """
    from repro import api  # local import: repro.api re-exports this module

    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    cells: List[DefenseCell] = []
    for s_index, scn_ref in enumerate(scenarios):
        scn = (
            scn_ref
            if isinstance(scn_ref, Scenario)
            else _scenario_lookup(scn_ref)
        )
        store = ModelStore()
        store.add(cached_model(scn.device_config(), scn.app_spec(), seed=seed))
        rng = np.random.default_rng((seed, s_index))
        creds = [scenario_credential(rng, scn, length=length) for _ in range(sessions)]
        for policy_ref in mitigations:
            policy = (
                _mitigation_lookup(policy_ref)
                if isinstance(policy_ref, str)
                else policy_ref
            )
            label = _policy_label(policy)
            config = api.AttackConfig(
                scenario=scn.name,
                mitigation=policy,
                fault_plan=fault_plan,
                recognize_device=False,
            )
            cell_metrics = MetricsRegistry()
            started = time.perf_counter()
            traces = [
                api.simulate(credential=cred, seed=seed + 17 * i + 1, config=config)
                for i, cred in enumerate(creds)
            ]
            batch = api.run_sessions(
                store,
                traces,
                seed=seed + 100 * s_index,
                config=config,
                metrics=cell_metrics,
                workers=workers,
            )
            wall_s = time.perf_counter() - started
            counters = batch.manifest.counters if batch.manifest else {}
            exact = sum(
                1 for cred, result in zip(creds, batch) if result.text == cred
            )
            keys_correct = sum(
                align(cred, result.text).correct
                for cred, result in zip(creds, batch)
            )
            cell = DefenseCell(
                scenario=scn.name,
                mitigation=label,
                sessions=sessions,
                exact=exact,
                keys_correct=keys_correct,
                keys_total=sum(len(c) for c in creds),
                denials=int(counters.get("mitigation.denials", 0)),
                stale_serves=int(counters.get("mitigation.stale_serves", 0)),
                quantized=int(counters.get("mitigation.quantized", 0)),
                noised=int(counters.get("mitigation.noised", 0)),
                local_zeroed=int(counters.get("mitigation.local_zeroed", 0)),
                reads_issued=int(counters.get("sampler.reads_issued", 0)),
                wall_s=wall_s,
                degraded_sessions=sum(1 for r in batch if r.degraded),
            )
            cells.append(cell)
            if metrics is not None and metrics.enabled:
                prefix = f"defense.{cell.scenario}.{cell.mitigation}"
                metrics.gauge(f"{prefix}.exact_rate").set(cell.exact_rate)
                metrics.gauge(f"{prefix}.key_accuracy").set(cell.key_accuracy)
                metrics.gauge(f"{prefix}.denials").set(cell.denials)
                metrics.gauge(f"{prefix}.stale_serves").set(cell.stale_serves)
                metrics.gauge(f"{prefix}.reads_issued").set(cell.reads_issued)
                metrics.gauge(f"{prefix}.wall_s").set(cell.wall_s)
    return cells


def format_defense_matrix(cells: Sequence[DefenseCell]) -> str:
    """Render cells as the aligned text matrix the CLI prints."""
    header = (
        "scenario", "mitigation", "exact", "key-acc",
        "denials", "stale", "reads", "wall-s",
    )
    rows = [header]
    for cell in cells:
        rows.append(
            (
                cell.scenario,
                cell.mitigation,
                f"{cell.exact}/{cell.sessions}",
                f"{cell.key_accuracy:.2f}",
                str(cell.denials),
                str(cell.stale_serves),
                str(cell.reads_issued),
                f"{cell.wall_s:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
