"""Application-switch recognition (paper Section 5.2, Fig 13).

App switches produce "fierce value changes ... at the beginning and end of
the app switch procedure, and the interval between these value changes
(e.g. <50 ms) is much smaller than that between human typings".  The
detector recognizes such bursts and tracks whether the user is currently
in the target application, so the online engine only eavesdrops while
they are.

Bursts toggle the away/in-target state: the overview animation plays once
when leaving and once when returning (pulling the notification shade also
produces a pair of bursts, so the state survives shade views).  As a
safety net, any PC change that classifies into the target app's text-field
family forces the state back to in-target — only the target app's login
screen produces those changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.classifier import Classification

#: Maximum gap between burst frames (paper: "<50 ms").
BURST_GAP_S = 0.050
#: Consecutive rapid large changes needed to call a burst.
MIN_BURST_LENGTH = 3
#: Quiet time after which a burst is considered finished.
BURST_COOLDOWN_S = 0.15


@dataclass
class SwitchObservation:
    """Detector verdict for one PC value change."""

    suppress: bool
    in_target: bool
    in_burst: bool


class AppSwitchDetector:
    """Stateful burst detector over the nonzero-delta stream."""

    def __init__(self, big_threshold: float) -> None:
        if big_threshold <= 0:
            raise ValueError("big_threshold must be positive")
        self.big_threshold = big_threshold

        self.in_target = True
        self.bursts_seen = 0
        self._run_length = 0
        self._last_big_t: Optional[float] = None
        self._burst_active = False

    def _finish_burst_if_quiet(self, t: float) -> None:
        if (
            self._burst_active
            and self._last_big_t is not None
            and t - self._last_big_t > BURST_COOLDOWN_S
        ):
            self._burst_active = False
            self._run_length = 0
            self.in_target = not self.in_target
            self.bursts_seen += 1

    def observe(
        self, t: float, magnitude: float, classification: Classification
    ) -> SwitchObservation:
        """Update state with the nonzero delta read at ``t``; say whether
        to suppress it.

        ``magnitude`` is the delta's size: the engine passes the
        ambient-corrected total so a steady background workload does not
        masquerade as an app-switch burst.
        """
        self._finish_burst_if_quiet(t)

        is_big = magnitude >= self.big_threshold
        if is_big:
            if self._last_big_t is not None and t - self._last_big_t <= BURST_GAP_S:
                self._run_length += 1
            else:
                self._run_length = 1
            self._last_big_t = t
            if self._run_length >= MIN_BURST_LENGTH:
                self._burst_active = True
        # small changes inside an active burst window do not end it;
        # quiet time does (checked on the next observation)

        # Self-healing: the text-field family only exists in the target app.
        if classification.is_field and not self._burst_active:
            self.in_target = True

        suppress = self._burst_active or not self.in_target
        return SwitchObservation(
            suppress=suppress, in_target=self.in_target, in_burst=self._burst_active
        )

    def flush(self, t: float) -> None:
        """Account for a pending burst at end-of-stream."""
        self._finish_burst_if_quiet(t)
