"""One-command evaluation report: the artifact's "reproduce everything".

``generate_report`` runs a configurable-scale subset of the paper's
evaluation and writes each figure as rendered text into a directory,
plus a ``summary.md`` comparing against the paper's headline numbers.
The figures are aligned ASCII tables and bar charts (no plotting
dependencies), so a report reads like the paper's evaluation section.
The full assertion-checked versions of these experiments live in
``benchmarks/``; this module is the human-facing rendering of the same
harness (``repro.analysis.experiments``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.experiments import (
    cached_model,
    run_credential_batch,
    run_per_key_sweep,
)
from repro.analysis.stats import accuracy_interval
from repro.android.apps import app
from repro.android.os_config import DeviceConfig, default_config, phone
from repro.baselines.knn import KNearestNeighbors
from repro.baselines.naive_bayes import GaussianNaiveBayes
from repro.baselines.nvidia import DESKTOP_CONTEXTS, DesktopGpuSampler
from repro.baselines.random_forest import RandomForest
from repro.kgsl.sampler import PowerModel

_BLOCKS = " ▏▎▍▌▋▊▉█"

#: Bar lengths, in characters, of :func:`bar_chart` and of each series
#: in :func:`grouped_bar_chart`.
BAR_WIDTH = 40
GROUPED_BAR_WIDTH = 30


def _bar(value: float, vmax: float, width: int) -> str:
    """A unicode bar of ``width`` cells for value in [0, vmax]."""
    if vmax <= 0:
        return ""
    cells = max(0.0, min(1.0, value / vmax)) * width
    full = int(cells)
    frac = int((cells - full) * (len(_BLOCKS) - 1))
    bar = "█" * full
    if frac and full < width:
        bar += _BLOCKS[frac]
    return bar


def bar_chart(
    rows: Mapping[str, float],
    title: str = "",
    vmax: Optional[float] = None,
) -> str:
    """A horizontal bar chart, one row per label."""
    if not rows:
        return title
    limit = vmax if vmax is not None else max(rows.values()) or 1.0
    label_w = max(len(str(label)) for label in rows)
    lines = [title] if title else []
    for label, value in rows.items():
        lines.append(
            f"{str(label):>{label_w}s} │{_bar(value, limit, BAR_WIDTH):<{BAR_WIDTH}s}│ "
            f"{value:.3f}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    rows: Mapping[str, Tuple[float, float]],
    series: Tuple[str, str],
    title: str = "",
) -> str:
    """Two-series bars per label, like the paper's paired accuracy plots."""
    if not rows:
        return title
    label_w = max(len(str(label)) for label in rows)
    lines = [title] if title else []
    lines.append(f"{'':{label_w}s}  {series[0]} ░ / {series[1]} █")
    for label, (a, b) in rows.items():
        bar_a = _bar(a, 1.0, GROUPED_BAR_WIDTH).replace("█", "░")
        bar_b = _bar(b, 1.0, GROUPED_BAR_WIDTH)
        lines.append(f"{str(label):>{label_w}s} │{bar_a:<{GROUPED_BAR_WIDTH}}│ {a:.3f}")
        lines.append(f"{'':{label_w}s} │{bar_b:<{GROUPED_BAR_WIDTH}}│ {b:.3f}")
    return "\n".join(lines)


def table(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width table (Table 2 style)."""
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(f"{h:>{w}s}" for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(f"{cell:>{w}s}" for cell, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], vmax: Optional[float] = None) -> str:
    """A one-line trend (for time series like Fig 26's battery curves)."""
    if not values:
        return ""
    limit = vmax if vmax is not None else max(values) or 1.0
    out = []
    for value in values:
        idx = int(max(0.0, min(1.0, value / limit)) * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[idx] if idx else _BLOCKS[1])
    return "".join(out)


def _fig17(config: DeviceConfig, scale: int) -> str:
    rows: Dict[str, float] = {}
    key_rows: Dict[str, float] = {}
    all_exact = all_total = 0
    for length in range(8, 17):
        batch = run_credential_batch(
            config, app("chase"), n_texts=4 * scale, length=length, seed=1700 + length
        )
        rows[str(length)] = batch.text_accuracy
        key_rows[str(length)] = batch.key_accuracy
        all_exact += batch.report.exact_traces
        all_total += batch.report.traces
    interval = accuracy_interval(all_exact, all_total)
    chart = grouped_bar_chart(
        {k: (rows[k], key_rows[k]) for k in rows},
        series=("text", "per-key"),
        title="Fig 17 — accuracy vs credential length (paper: 81.3% / 98.3%)",
    )
    return f"{chart}\n\noverall text accuracy: {interval}\n"


def _fig18(config: DeviceConfig, scale: int) -> str:
    stats = run_per_key_sweep(config, app("chase"), repeats=3 * scale)
    accuracy = {c: correct / total for c, (correct, total) in stats.items() if total}
    worst = dict(sorted(accuracy.items(), key=lambda kv: kv[1])[:15])
    overall = sum(c for c, _ in stats.values()) / max(1, sum(t for _, t in stats.values()))
    chart = bar_chart(
        worst, title="Fig 18 — weakest keys (paper: symbols weakest)", vmax=1.0
    )
    return f"{chart}\n\noverall per-key accuracy: {overall:.3f} (paper: 0.983)\n"


def _table2(scale: int) -> str:
    chars = "abcdefghijklmnopqrstuvwxyz"
    rows = []
    for name, context in DESKTOP_CONTEXTS.items():
        sampler = DesktopGpuSampler(context, rng=np.random.default_rng(2))
        Xtr, ytr = sampler.collect(chars, repeats=5 * scale)
        Xte, yte = sampler.collect(chars, repeats=4 * scale)
        rows.append(
            [
                name,
                f"{GaussianNaiveBayes().fit(Xtr, ytr).score(Xte, yte):.3f}",
                f"{KNearestNeighbors(3).fit(Xtr, ytr).score(Xte, yte):.3f}",
                f"{RandomForest(n_trees=30, max_depth=10, seed=3).fit(Xtr, ytr).score(Xte, yte):.3f}",
            ]
        )
    return (
        table(
            ["target", "NaiveBayes", "KNN3", "RandomForest"],
            rows,
            title="Table 2 — desktop Nvidia baseline (paper: 8.7-14.2%)",
        )
        + "\n"
    )


def _fig26() -> str:
    lines = ["Fig 26 — extra battery %, 30/60/90/120 min (paper: <=4%)"]
    for name in ("lg_v30", "oneplus8pro", "pixel2", "oneplus7pro"):
        spec = phone(name)
        model = PowerModel(battery_mwh=spec.battery_mwh)
        series = [
            model.extra_consumption_percent(
                m * 60.0, gpu_sample_power_mw=spec.gpu.sample_power_mw
            )
            for m in (30, 60, 90, 120)
        ]
        lines.append(
            f"  {name:12s} {sparkline(series, vmax=4.0)}  "
            + " ".join(f"{v:4.2f}" for v in series)
        )
    return "\n".join(lines) + "\n"


def generate_report(output_dir: Union[str, Path], scale: int = 1) -> Dict[str, Path]:
    """Write the report figures; returns {figure name: file path}.

    ``scale=1`` takes roughly a minute; ``scale=3`` gives tighter
    intervals at a few minutes.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = default_config()
    model = cached_model(config, app("chase"))

    figures = {
        "fig17_accuracy.txt": _fig17(config, scale),
        "fig18_per_key.txt": _fig18(config, scale),
        "table2_baseline.txt": _table2(scale),
        "fig26_power.txt": _fig26(),
    }
    written: Dict[str, Path] = {}
    for name, content in figures.items():
        path = out / name
        path.write_text(content)
        written[name] = path

    summary = (
        "# Evaluation report\n\n"
        f"configuration: {config.config_key()} / {app('chase').name}\n\n"
        f"model: {len(model.key_labels)} key classes, cth={model.cth:.3f}, "
        f"{model.size_bytes() / 1024:.1f} KB\n\n"
        "Figures:\n"
        + "\n".join(f"- {name}" for name in figures)
        + "\n\nFull assertion-checked experiments: `pytest benchmarks/ "
        "--benchmark-only`; paper-vs-measured comparison in EXPERIMENTS.md.\n"
    )
    summary_path = out / "summary.md"
    summary_path.write_text(summary)
    written["summary.md"] = summary_path
    return written
