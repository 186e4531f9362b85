"""Annotated trace inspection: what the attacker saw, against the truth.

During development of a side channel (the paper's Offline Phase) the
central debugging artifact is the aligned view of (a) counter deltas as
the attacker observes them and (b) the ground-truth frames that produced
them.  This module builds that view from a compiled session — the same
tooling that produced the paper's Figs 5, 11 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.android.device import SessionTrace
from repro.core.classifier import ClassificationModel
from repro.gpu import counters as pc
from repro.kgsl.sampler import PcDelta


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
    deltas: Iterable[PcDelta],
    model: Optional[ClassificationModel] = None,
) -> List[AnnotatedDelta]:
    """Align every nonzero delta with its ground truth."""
    out: List[AnnotatedDelta] = []
    for delta in deltas:
        involved = trace.timeline.frames_overlapping(delta.prev_t, delta.t)
        # a frame is split if a read boundary lands inside its render; the
        # reads bracketing a delta are consecutive, so only its own two
        # endpoints can
        split = any(
            frame.start_s < delta.prev_t or frame.end_s > delta.t
            for frame in involved
        )
        label, distance = None, float("nan")
        if model is not None:
            classification = model.classify(delta)
            label, distance = classification.label, classification.distance
        out.append(
            AnnotatedDelta(
                t=delta.t,
                prev_t=delta.prev_t,
                total=delta.total,
                # display-only: a masked counter renders as 0 here, but the
                # mask still travels in the delta for real consumers
                lrz13=delta.get(pc.LRZ_VISIBLE_PRIM_AFTER_LRZ, default=0),
                truth_labels=tuple(f.label for f in involved),
                classified=label,
                distance=distance,
                is_split=split,
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
