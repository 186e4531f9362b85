"""Annotated trace inspection: what the attacker saw, against the truth.

During development of a side channel (the paper's Offline Phase) the
central debugging artifact is the aligned view of (a) counter deltas as
the attacker observes them and (b) the ground-truth frames that produced
them.  This module builds that view from a compiled session — the same
tooling that produced the paper's Figs 5, 11 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.android.device import SessionTrace
from repro.core.classifier import ClassificationModel
from repro.core.features import counter_index
from repro.gpu import counters as pc
from repro.kgsl.sampler import DeltaBatch


@dataclass(frozen=True)
class AnnotatedDelta:
    """One nonzero PC change with everything known about it."""

    t: float
    prev_t: float
    total: int
    lrz13: int
    truth_labels: tuple
    classified: Optional[str]
    distance: float
    is_split: bool

    @property
    def truth_kinds(self) -> tuple:
        return tuple(sorted({label.split(":")[0] for label in self.truth_labels}))


def annotate(
    trace: SessionTrace,
    deltas: Iterable[Tuple[DeltaBatch, int, int]],
    model: Optional[ClassificationModel] = None,
) -> List[AnnotatedDelta]:
    """Align every nonzero delta with its ground truth.

    ``deltas`` are ``(batch, lo, hi)`` slices of delta rows, as the
    payloads a :class:`~repro.runtime.source.SamplerDeltaSource` yields.
    The rows of each slice are classified in one pass, their unknown
    counters masked out as the engine masks them.
    """
    out: List[AnnotatedDelta] = []
    column = counter_index(pc.LRZ_VISIBLE_PRIM_AFTER_LRZ)
    for batch, lo, hi in deltas:
        rows = slice(lo, hi)
        matrix = batch.rows[rows]
        labels: List[Tuple[Optional[str], float]] = [(None, float("nan"))] * len(matrix)
        if model is not None:
            labels = [
                (c.label, c.distance)
                for c in model.classify_batch(matrix, ~batch.unknown[rows])
            ]
        for start, end, total, lrz13, (label, distance) in zip(
            batch.prev_t[rows].tolist(),
            batch.t[rows].tolist(),
            matrix.sum(axis=1).tolist(),
            # display-only: a masked counter renders as 0 here
            matrix[:, column].tolist(),
            labels,
        ):
            involved = trace.timeline.frames_overlapping(start, end)
            out.append(
                AnnotatedDelta(
                    t=end,
                    prev_t=start,
                    total=total,
                    lrz13=lrz13,
                    truth_labels=tuple(f.label for f in involved),
                    classified=label,
                    distance=distance,
                    # a frame is split if a read boundary lands inside its
                    # render; the reads bracketing a delta are
                    # consecutive, so only its own two endpoints can
                    is_split=any(f.start_s < start or f.end_s > end for f in involved),
                )
            )
    return out


def render_trace(annotated: Sequence[AnnotatedDelta], limit: int = 40) -> str:
    """A readable, aligned dump of an annotated delta stream."""
    lines = [
        f"{'t':>8s} {'ΔLRZ13':>7s} {'Δtotal':>9s} {'classified':22s} {'d':>6s}  truth"
    ]
    for entry in list(annotated)[:limit]:
        mark = "⚡" if entry.is_split else " "
        dist = f"{entry.distance:6.2f}" if entry.distance == entry.distance else "   n/a"
        lines.append(
            f"{entry.t:8.3f} {entry.lrz13:7d} {entry.total:9d} "
            f"{str(entry.classified):22s} {dist} {mark} {', '.join(entry.truth_labels)}"
        )
    if len(annotated) > limit:
        lines.append(f"... {len(annotated) - limit} more")
    return "\n".join(lines)


@dataclass
class TraceSummary:
    """Aggregate statistics of one annotated session."""

    deltas: int = 0
    splits: int = 0
    by_truth_kind: Dict[str, int] = field(default_factory=dict)
    classified: int = 0
    rejected: int = 0

    @classmethod
    def from_annotated(cls, annotated: Sequence[AnnotatedDelta]) -> "TraceSummary":
        summary = cls()
        for entry in annotated:
            summary.deltas += 1
            summary.splits += entry.is_split
            for kind in entry.truth_kinds:
                summary.by_truth_kind[kind] = summary.by_truth_kind.get(kind, 0) + 1
            if entry.classified is not None:
                summary.classified += 1
            else:
                summary.rejected += 1
        return summary
