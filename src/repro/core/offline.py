"""The Offline Phase: bot-driven data collection and model training.

Section 3.2 / Section 6 of the paper: on attacker-controlled rooted
devices, a bot emulates every key press over each (device model,
configuration) pair, the resulting GPU PC data is labeled, and a
classification model is built and preloaded into the attack application.

Here the "rooted device" is the simulator itself — the trainer compiles
bot scripts on a :class:`~repro.android.device.VictimDevice`, samples the
counters exactly as the online attack would, and labels each PC value
change from the ground-truth frame log (which the attacker has, because
they control the training device).  Ambiguous windows (two frames merged
in one read, partially accrued renders) are discarded, like any sane data
cleaning pass would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.android.apps import AppSpec
from repro.android.device import VictimDevice
from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    UserEvent,
)
from repro.android.glyphs import KEYBOARD_CHARACTERS
from repro.android.os_config import DeviceConfig
from repro.core.classifier import ClassificationModel, build_model
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.interpose import open_sampler
from repro.kgsl.sampler import DEFAULT_INTERVAL_S, nonzero_deltas_vectorized

#: Characters the ladder session types, one field length per key.
LADDER_LENGTH = 16
#: Reads pulled per batch while collecting.  Collection reads whole
#: sessions with no mode switch, so batches only need to stay bounded in
#: memory; every chunk size yields the same deltas.
OFFLINE_SOURCE_CHUNK = 1024


def frame_to_class_label(frame_label: str) -> Optional[str]:
    """Map a ground-truth frame label to a training class label.

    Returns None for frames the classifier should not learn as a class
    (handled by other subsystems or too rare to matter).
    """
    head, _, rest = frame_label.partition(":")
    if head in ("press", "press_dup"):
        return f"key:{rest}"
    if head == "echo":
        return f"field:{rest}:on"
    if head == "cursor_blink":
        return f"field:{rest}"
    if head == "backspace":
        return f"field:{rest}:on"
    if head == "dismiss":
        return f"reject:dismiss:{rest}"
    if head == "notification":
        return "reject:notification"
    if head.startswith("shade") or head.startswith("switch"):
        return "reject:transient"
    if head in ("other_app", "initial") or head.startswith("anim"):
        return "reject:transient"
    return None


@dataclass
class TrainingData:
    """Labeled feature rows from the offline phase: one float matrix per class label."""

    vectors_by_label: Dict[str, np.ndarray] = field(default_factory=dict)
    discarded_windows: int = 0
    clean_windows: int = 0


def label_samples(
    timeline: RenderTimeline, prev_t: np.ndarray, t: np.ndarray, rows: np.ndarray, data: TrainingData
) -> None:
    """Label a session's nonzero deltas from the ground-truth frame log.

    Window ``k`` spans ``(prev_t[k], t[k]]`` and moved by ``rows[k]``, as
    :func:`~repro.kgsl.sampler.nonzero_deltas_vectorized` returns them.  It is
    clean when exactly one frame overlaps it, that frame rendered wholly
    inside it and its label maps to a class; every other window is
    discarded.
    """
    starts, ends = timeline.starts, timeline.ends
    if not len(starts):
        data.discarded_windows += len(t)
        return
    # class labels in order of first appearance, mapped once per distinct
    # frame label
    names = {name: frame_to_class_label(name) for name in dict.fromkeys(timeline.labels)}
    classes = {label: c for c, label in enumerate(dict.fromkeys(filter(None, names.values())))}
    code_of = {name: classes.get(label, -1) for name, label in names.items()}
    codes = np.array([code_of[name] for name in timeline.labels])
    # frames overlapping (prev_t, t]: those started before t, less those
    # that ended by prev_t (each of which also started before t)
    hi = np.searchsorted(starts, t, side="left")
    count = hi - np.searchsorted(np.sort(ends), prev_t, side="right")
    # a lone frame rendered wholly inside the window is the last one
    # started before t
    last = np.maximum(hi - 1, 0)
    clean = (count == 1) & (starts[last] > prev_t) & (ends[last] <= t) & (codes[last] >= 0)
    data.clean_windows += int(np.count_nonzero(clean))
    data.discarded_windows += int(np.count_nonzero(~clean))
    # each present class's rows, in window order: one stable sort by
    # class, cut where the class changes
    code = codes[last[clean]]
    order = code.argsort(kind="stable")
    present, first = np.unique(code[order], return_index=True)
    matrix = rows[clean][order].astype(float)
    labels = list(classes)
    ends = [*first[1:].tolist(), len(matrix)]
    for c, lo, hi in zip(present.tolist(), first.tolist(), ends):
        old = data.vectors_by_label.get(labels[c])
        block = matrix[lo:hi]
        data.vectors_by_label[labels[c]] = block if old is None else np.concatenate((old, block))


class OfflineTrainer:
    """Builds the classification model for one (configuration, app) pair."""

    def __init__(
        self,
        config: DeviceConfig,
        app: AppSpec,
        rng: Optional[np.random.Generator] = None,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        self.config = config
        self.app = app
        self.rng = rng if rng is not None else np.random.default_rng(7)
        self.interval_s = interval_s

    @property
    def model_key(self) -> str:
        return f"{self.config.config_key()}/{self.app.name}"

    def trainable_characters(self) -> List[str]:
        """Fig 18 characters that exist on this keyboard's layout."""
        from repro.android.keyboard import keyboard_layout

        layout = keyboard_layout(self.config.keyboard, self.config.display)
        return [c for c in KEYBOARD_CHARACTERS if layout.has_key(c)]

    # ------------------------------------------------------------------

    def _run_session(self, events: Sequence[UserEvent], end_time_s: float, data: TrainingData) -> None:
        device = VictimDevice(self.config, self.app, rng=self.rng)
        trace = device.compile(events, end_time_s=end_time_s)
        # sampled exactly as the online attack samples: same fd, same
        # extractor, the trainer's RNG driving the reads
        sampler = open_sampler(trace, self.interval_s, self.rng)
        moved, prev = [], None
        for batch in sampler.iter_batches(0.0, end_time_s, chunk=OFFLINE_SOURCE_CHUNK):
            moved.append(nonzero_deltas_vectorized(batch, prev))
            prev = batch
        prev_t, t, rows = (
            np.concatenate([getattr(d, name) for d in moved]) for name in ("prev_t", "t", "rows")
        )
        label_samples(trace.timeline, prev_t, t, rows, data)

    def _key_sweep_events(self, chars: Sequence[str], repeats: int) -> Tuple[List[UserEvent], float]:
        """Press + backspace each character ``repeats`` times."""
        events: List[UserEvent] = []
        t = 0.8
        for _ in range(repeats):
            for char in chars:
                events.append(KeyPress(t=t, char=char, duration=0.08))
                events.append(BackspacePress(t=t + 0.26))
                t += 0.55
        return events, t + 0.5

    def _ladder_events(self) -> Tuple[List[UserEvent], float]:
        """Type a :data:`LADDER_LENGTH` string slowly to cover every
        field length up to it."""
        events: List[UserEvent] = []
        chars = self.trainable_characters()
        t = 0.8
        for i in range(LADDER_LENGTH):
            events.append(KeyPress(t=t, char=chars[i % len(chars)], duration=0.08))
            t += 1.35  # slow enough to catch cursor blinks at each length
        return events, t + 2.0

    def _noise_events(self) -> Tuple[List[UserEvent], float]:
        events: List[UserEvent] = [
            NotificationArrival(t=1.1),
            NotificationArrival(t=2.3),
            AppSwitchAway(t=4.0),
            AppSwitchBack(t=7.5),
            NotificationArrival(t=9.2),
        ]
        return events, 11.0

    # ------------------------------------------------------------------

    def collect(self, sweep_repeats: int = 4) -> TrainingData:
        """Run all offline data-collection sessions."""
        data = TrainingData()
        chars = self.trainable_characters()
        events, end = self._key_sweep_events(chars, sweep_repeats)
        self._run_session(events, end, data)
        events, end = self._ladder_events()
        self._run_session(events, end, data)
        events, end = self._noise_events()
        self._run_session(events, end, data)
        return data

    def train(self, sweep_repeats: int = 4) -> ClassificationModel:
        """Collect the training data and fit the classification model."""
        data = self.collect(sweep_repeats=sweep_repeats)
        missing = [
            c for c in self.trainable_characters() if f"key:{c}" not in data.vectors_by_label
        ]
        if missing:
            # a couple of sweeps can lose single keys to unlucky merges;
            # rerun one extra sweep for the missing ones
            events, end = self._key_sweep_events(missing, repeats=3)
            self._run_session(events, end, data)
        return build_model(
            data.vectors_by_label,
            model_key=self.model_key,
            metadata={
                "config": self.config.config_key(),
                "app": self.app.name,
                "clean_windows": data.clean_windows,
                "discarded_windows": data.discarded_windows,
            },
        )
