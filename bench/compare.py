"""Compare benchmark runs of a parent commit and a change, metric by metric.

Usage, from the repository root::

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py RUNS.jsonl

Each file holds the JSON lines ``bench/run.py --out`` appends.  With two
files, the i-th run of a workload in one is paired with the i-th run of
that workload in the other; make at least ten pairs, alternating which
side runs first.  Every (workload, metric) row gives both sides' median
and quartiles, the share of pairs the change won (ties count for
neither) and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``gain`` — the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` — the parent's own spread (IQR / median) exceeds the
  bound, and not every change run beats every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``unchanged`` — none of these.

Per-layer metrics have no bound; their rows carry no verdict.  With one
file the rows give the runs' median, quartiles and spread against the
bound, which is how a benchmark is shown to repeat.  Exit status 1 when
any row is a regression, or with one file when a spread exceeds its
bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, in file order."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            for name, metric in run["metrics"].items():
                out[(run["workload"], name)].append(float(metric["value"]))
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> Tuple[float, str]:
    """(share of pairs the change won, verdict) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs)
    if bound is None:
        return win_share, ""
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if win_share >= WIN_SHARE and sign * (cm - pm) > p3 - p1:
        return win_share, "gain"
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if spread(parent) > bound and not every_run_better:
        return win_share, "unresolved"
    if -sign * (cm - pm) > bound * abs(pm):
        return win_share, "regression"
    return win_share, "unchanged"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load_runs(Path(p)) for p in argv]
    failing = False
    if len(sides) == 1:
        print(f"{'workload':<16} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
        for (workload, name), values in sorted(sides[0].items()):
            meta = declared.get(name, {})
            bound = meta.get("bound")
            q1, median, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if bound is not None:
                flag = f"{bound:.2f}" + (" OVER" if s > bound else "")
                failing |= s > bound
            print(
                f"{workload:<16} {name:<34} {len(values):>3} {median:12.4f} {q1:12.4f} "
                f"{q3:12.4f} {s:8.4f} {flag}"
            )
        return 1 if failing else 0

    parent, change = sides
    print(
        f"{'workload':<16} {'metric':<34} {'pairs':>5} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'wins':>5} verdict"
    )
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        meta = declared.get(name, {"better": "lower"})
        n = min(len(parent[key]), len(change[key]))
        p, c = parent[key][:n], change[key][:n]
        win_share, word = verdict(p, c, meta["better"], meta.get("bound"))
        failing |= word == "regression"
        pq, cq = quartiles(p), quartiles(c)
        print(
            f"{workload:<16} {name:<34} {n:>5} "
            f"{pq[1]:12.4f} [{pq[0]:.4f}, {pq[2]:.4f}] "
            f"{cq[1]:12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {win_share:5.2f} {word}"
        )
    short = sorted({w for (w, _), v in parent.items() if len(v) < MIN_PAIRS})
    if short:
        print(f"note: fewer than {MIN_PAIRS} pairs for {', '.join(short)}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
