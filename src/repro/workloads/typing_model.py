"""Human typing model: key-press durations and inter-key intervals.

The paper collects typing traces from 5 student volunteers on a Oneplus 8
Pro (Fig 16): durations cluster around 60-120 ms and intervals spread from
~0.1 s to ~1 s with per-volunteer heterogeneity.  Section 7.2 then splits
the collected intervals into three equal-sized speed tiers: fast
(<0.24 s), medium (0.24-0.4 s) and slow (>0.4 s).

We model each volunteer with log-normal duration/interval distributions
whose parameters are fitted to the figure's clouds, and reproduce the
speed-tier split by resampling the pooled intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Speed-tier boundaries from Section 7.2 (seconds between key presses).
FAST_MAX_INTERVAL_S = 0.24
MEDIUM_MAX_INTERVAL_S = 0.40

#: Physiological floor: the shortest interval between two deliberate key
#: presses (Section 5.1 cites [43] and uses 75 ms for the dedup window).
MIN_HUMAN_INTERVAL_S = 0.075


@dataclass(frozen=True)
class VolunteerProfile:
    """Log-normal typing parameters for one volunteer."""

    name: str
    duration_median_s: float
    duration_sigma: float
    interval_median_s: float
    interval_sigma: float

    def sample_duration(self, rng: np.random.Generator) -> float:
        value = float(rng.lognormal(np.log(self.duration_median_s), self.duration_sigma))
        return float(np.clip(value, 0.03, 0.35))

    def sample_interval(self, rng: np.random.Generator) -> float:
        value = float(rng.lognormal(np.log(self.interval_median_s), self.interval_sigma))
        return float(np.clip(value, MIN_HUMAN_INTERVAL_S, 2.5))


#: The five volunteers of Fig 16.  Medians/sigmas chosen so the pooled
#: interval distribution splits near the paper's 0.24 s / 0.4 s tier edges.
VOLUNTEERS: Tuple[VolunteerProfile, ...] = (
    VolunteerProfile("volunteer1", 0.072, 0.25, 0.21, 0.42),
    VolunteerProfile("volunteer2", 0.085, 0.30, 0.30, 0.38),
    VolunteerProfile("volunteer3", 0.066, 0.22, 0.26, 0.45),
    VolunteerProfile("volunteer4", 0.095, 0.28, 0.42, 0.40),
    VolunteerProfile("volunteer5", 0.078, 0.26, 0.34, 0.50),
)


def volunteer(name: str) -> VolunteerProfile:
    for profile in VOLUNTEERS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown volunteer {name!r}")


@dataclass(frozen=True)
class KeyTiming:
    """Timing of one key press within a typed string."""

    start_s: float
    duration_s: float


class TypingModel:
    """Generates human-like key timing sequences.

    Mirrors the paper's methodology: the bot emulates key presses using
    durations and intervals drawn from the volunteers' collected data
    (Section 7: "To mimic real human inputs ...").
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.profiles = list(VOLUNTEERS)

    def timings(
        self,
        n_keys: int,
        start_s: float = 0.0,
        interval_range: Optional[Tuple[float, float]] = None,
    ) -> List[KeyTiming]:
        """Timing for ``n_keys`` presses.

        Args:
            n_keys: number of key presses.
            start_s: time of the first press.
            interval_range: optional (lo, hi) clamp used to emulate a
                speed tier (Section 7.2).
        """
        if n_keys <= 0:
            return []
        # one volunteer per string, like the paper's per-trace emulation
        chosen = self.profiles[self.rng.integers(len(self.profiles))]
        timings: List[KeyTiming] = []
        t = start_s
        for i in range(n_keys):
            duration = chosen.sample_duration(self.rng)
            timings.append(KeyTiming(start_s=t, duration_s=duration))
            interval = chosen.sample_interval(self.rng)
            if interval_range is not None:
                lo, hi = interval_range
                attempts = 0
                while not lo <= interval <= hi and attempts < 64:
                    interval = chosen.sample_interval(self.rng)
                    attempts += 1
                interval = float(np.clip(interval, lo, hi))
            t += max(interval, duration + 0.02)
        return timings

    def speed_tier_range(self, tier: str) -> Tuple[float, float]:
        """Interval clamp for the paper's fast/medium/slow tiers."""
        if tier == "fast":
            return (MIN_HUMAN_INTERVAL_S, FAST_MAX_INTERVAL_S)
        if tier == "medium":
            return (FAST_MAX_INTERVAL_S, MEDIUM_MAX_INTERVAL_S)
        if tier == "slow":
            return (MEDIUM_MAX_INTERVAL_S, 2.5)
        raise ValueError(f"unknown speed tier {tier!r}; use fast/medium/slow")


def collect_volunteer_samples(
    rng: np.random.Generator,
    presses_per_volunteer: int = 50 * 12,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Reproduce the Fig 16 data collection: 5 volunteers x 50 strings of
    8-16 characters.  Returns per-volunteer duration and interval arrays."""
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for profile in VOLUNTEERS:
        durations = np.array(
            [profile.sample_duration(rng) for _ in range(presses_per_volunteer)]
        )
        intervals = np.array(
            [profile.sample_interval(rng) for _ in range(presses_per_volunteer)]
        )
        out[profile.name] = {"durations": durations, "intervals": intervals}
    return out


def split_by_speed(intervals: np.ndarray) -> Dict[str, np.ndarray]:
    """Partition pooled intervals into the paper's three speed tiers."""
    return {
        "fast": intervals[intervals < FAST_MAX_INTERVAL_S],
        "medium": intervals[
            (intervals >= FAST_MAX_INTERVAL_S) & (intervals <= MEDIUM_MAX_INTERVAL_S)
        ],
        "slow": intervals[intervals > MEDIUM_MAX_INTERVAL_S],
    }


def speed_tier_range(tier: Optional[str]) -> Optional[Tuple[float, float]]:
    """Module-level tier → interval clamp (``None`` = unconstrained).

    The instance method :meth:`TypingModel.speed_tier_range` needs a
    model; scenario resolution only needs the Section 7.2 boundaries.
    """
    if tier is None:
        return None
    if tier == "fast":
        return (MIN_HUMAN_INTERVAL_S, FAST_MAX_INTERVAL_S)
    if tier == "medium":
        return (FAST_MAX_INTERVAL_S, MEDIUM_MAX_INTERVAL_S)
    if tier == "slow":
        return (MEDIUM_MAX_INTERVAL_S, 2.5)
    raise ValueError(f"unknown speed tier {tier!r}; use fast/medium/slow")
