"""User behavior scripts: from clean typing to messy practical sessions.

Three tiers of realism, matching the paper's experiments:

* :func:`typing_events` — clean credential entry (Section 7.1 experiments);
* :func:`typing_with_corrections` — typos corrected with backspace
  (Section 5.3);
* :func:`practical_session` — the Section 8 usage sessions: 3 minutes of
  typing over several apps with random app switches, corrections,
  notification-bar views and free use of other apps (Fig 27).

All functions return event lists for :meth:`VictimDevice.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.android.events import (
    AppSwitchAway,
    AppSwitchBack,
    BackspacePress,
    KeyPress,
    NotificationArrival,
    UserEvent,
    ViewNotificationShade,
)
from repro.workloads.credentials import PASSWORD_POOL, random_credential
from repro.workloads.typing_model import TypingModel

#: Section 8 volunteer behaviour: mean rates of app switches, notification
#: shade views and background notifications, and the chance of a typo
#: (corrected by backspace) per credential character.
SWITCH_RATE_HZ = 1.0 / 25.0
SHADE_RATE_HZ = 1.0 / 45.0
NOTIFICATION_RATE_HZ = 1.0 / 30.0
PRACTICAL_TYPO_PROB = 0.07


def typing_events(
    text: str,
    typing: TypingModel,
    start_s: float = 0.5,
    speed_tier: Optional[str] = None,
) -> List[UserEvent]:
    """Clean entry of ``text``: one KeyPress per character."""
    interval_range = typing.speed_tier_range(speed_tier) if speed_tier else None
    timings = typing.timings(len(text), start_s=start_s, interval_range=interval_range)
    return [
        KeyPress(t=timing.start_s, char=char, duration=timing.duration_s)
        for char, timing in zip(text, timings)
    ]


def typing_with_corrections(
    text: str,
    typing: TypingModel,
    rng: np.random.Generator,
    typo_prob: float = 0.08,
) -> Tuple[List[UserEvent], str]:
    """Entry of ``text``, from t = 0.5 s, with occasional typos from the
    password pool corrected by backspace.

    Returns the event list and the final text (== ``text``: every typo is
    corrected).  Mirrors Section 5.3's input-correction behaviour.
    """
    events: List[UserEvent] = []
    t = 0.5
    for char in text:
        if rng.random() < typo_prob:
            wrong = PASSWORD_POOL[int(rng.integers(len(PASSWORD_POOL)))]
            duration = typing.profiles[0].sample_duration(rng)
            events.append(KeyPress(t=t, char=wrong, duration=duration))
            t += max(0.35, float(rng.normal(0.5, 0.1)))  # noticing the typo
            events.append(BackspacePress(t=t))
            t += max(0.15, float(rng.normal(0.3, 0.08)))
        duration = typing.profiles[0].sample_duration(rng)
        events.append(KeyPress(t=t, char=char, duration=duration))
        t += typing.profiles[0].sample_interval(rng)
    return events, text


@dataclass
class PracticalSession:
    """A Section 8 usage session with its scoring ground truth."""

    events: List[UserEvent]
    credential: str
    duration_s: float
    volunteer: str
    switches: int = 0
    corrections: int = 0
    shade_views: int = 0


def practical_session(
    rng: np.random.Generator,
    typing: TypingModel,
    volunteer_index: int = 0,
    duration_s: float = 180.0,
) -> PracticalSession:
    """One 3-minute practical session (Section 8).

    The volunteer types a random credential in the target app,
    occasionally makes corrections, randomly switches to other apps and
    comes back, views the notification bar, and receives background
    notifications.
    """
    profile = typing.profiles[volunteer_index % len(typing.profiles)]
    credential = random_credential(rng)

    events: List[UserEvent] = []
    session = PracticalSession(
        events=events,
        credential=credential,
        duration_s=duration_s,
        volunteer=profile.name,
    )

    final_chars: List[str] = []
    t = 1.0
    index = 0
    away_until: Optional[float] = None

    while index < len(credential) and t < duration_s - 8.0:
        roll = rng.random()
        if roll < SWITCH_RATE_HZ * 4.0 and away_until is None and index > 0:
            # wander off to another app for a while, then come back
            events.append(AppSwitchAway(t=t))
            away = float(rng.uniform(3.0, 12.0))
            events.append(AppSwitchBack(t=t + away))
            session.switches += 1
            t += away + 1.2
            continue
        if roll < (SWITCH_RATE_HZ + SHADE_RATE_HZ) * 4.0:
            events.append(ViewNotificationShade(t=t))
            session.shade_views += 1
            t += float(rng.uniform(1.5, 3.0))
            continue

        char = credential[index]
        if rng.random() < PRACTICAL_TYPO_PROB:
            wrong = PASSWORD_POOL[int(rng.integers(len(PASSWORD_POOL)))]
            events.append(KeyPress(t=t, char=wrong, duration=profile.sample_duration(rng)))
            t += max(0.35, float(rng.normal(0.55, 0.12)))
            events.append(BackspacePress(t=t))
            session.corrections += 1
            t += max(0.15, float(rng.normal(0.3, 0.08)))
        events.append(KeyPress(t=t, char=char, duration=profile.sample_duration(rng)))
        final_chars.append(char)
        index += 1
        t += profile.sample_interval(rng)

    # free use of other apps for the remainder of the session
    if t < duration_s - 2.0:
        events.append(AppSwitchAway(t=t + 0.8))
        events.append(AppSwitchBack(t=duration_s - 1.0))
        session.switches += 1

    # background notifications arrive throughout
    notif_t = float(rng.exponential(1.0 / NOTIFICATION_RATE_HZ))
    while notif_t < duration_s:
        events.append(NotificationArrival(t=notif_t))
        notif_t += float(rng.exponential(1.0 / NOTIFICATION_RATE_HZ))

    session.credential = "".join(final_chars)
    return session
