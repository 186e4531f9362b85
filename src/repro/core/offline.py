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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.core import features
from repro.core.classifier import ClassificationModel, build_model
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.interpose import open_sampler
from repro.kgsl.sampler import DEFAULT_INTERVAL_S, PcDelta
from repro.runtime.source import ATTACK_SOURCE_CHUNK, SamplerDeltaSource

#: Characters the ladder session types, one field length per key.
LADDER_LENGTH = 16


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
    """Labeled feature vectors collected during the offline phase."""

    vectors_by_label: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    discarded_windows: int = 0
    clean_windows: int = 0

    def add(self, label: str, vector: np.ndarray) -> None:
        self.vectors_by_label.setdefault(label, []).append(vector)

    def merge(self, other: "TrainingData") -> None:
        for label, vectors in other.vectors_by_label.items():
            self.vectors_by_label.setdefault(label, []).extend(vectors)
        self.discarded_windows += other.discarded_windows
        self.clean_windows += other.clean_windows

    def counts(self) -> Dict[str, int]:
        return {label: len(v) for label, v in self.vectors_by_label.items()}


def label_samples(
    timeline: RenderTimeline, deltas: Iterable[PcDelta], data: TrainingData
) -> None:
    """Label each nonzero delta from the ground-truth frame log."""
    for delta in deltas:
        # frames contributing to this window: any overlap with (prev_t, t]
        involved = timeline.frames_overlapping(delta.prev_t, delta.t)
        if len(involved) != 1:
            data.discarded_windows += 1
            continue
        frame = involved[0]
        if frame.start_s <= delta.prev_t or frame.end_s > delta.t:
            # partially accrued (split across reads) — discard for training
            data.discarded_windows += 1
            continue
        label = frame_to_class_label(frame.label)
        if label is None:
            data.discarded_windows += 1
            continue
        data.clean_windows += 1
        data.add(label, features.vectorize(delta))


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
        from repro.android.display import Display
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
        source = SamplerDeltaSource(sampler, 0.0, end_time_s, chunk=ATTACK_SOURCE_CHUNK)
        deltas = [delta for _, delta in source.events()]
        label_samples(trace.timeline, deltas, data)

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

    def train(
        self, data: Optional[TrainingData] = None, sweep_repeats: int = 4
    ) -> ClassificationModel:
        """Collect (if needed) and fit the classification model."""
        if data is None:
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
