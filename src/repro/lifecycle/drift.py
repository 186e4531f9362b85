"""Deterministic signature drift at the KGSL boundary.

The offline phase freezes one signature model per configuration, but the
quantities it classifies are *physical*: counter increments per rendered
frame.  Two real-world processes reshape them over time:

* **thermal throttling** — a hot SoC clocks the GPU down, and busy-cycle
  style counters scale with the clock (DF-SCA builds a whole channel out
  of exactly this state; see PAPERS.md).  Modeled as a multiplicative
  factor ramping (or stepping) from 1.0 down to ``thermal_scale``.
* **popup geometry shift** — an app or keyboard update redraws the key
  popups with different geometry, moving each counter's per-press cost
  by a stable per-counter factor.  Modeled as seeded per-counter factors
  in ``[1 - geometry_shift, 1 + geometry_shift]`` activating at
  ``geometry_onset_s``.

Like :mod:`repro.faults`, a :class:`DriftPlan` is pure configuration
(frozen, serializable); a :class:`DriftInjector` is per-device-file
runtime state.  The injector rewrites the *cumulative* counter values
the timeline serves — it accrues scaled increments on top of the
previously returned value, so counters stay monotone and downstream
deltas shrink or shift exactly as the physical story says.  With no plan
installed the read path is untouched: ``drift=None`` is byte-identical
to a build without this module (golden-parity tested).

Unlike faults, drift is a property of the *device*, not of one fd: the
``time_offset`` argument lets successive sessions continue one thermal
trajectory (the lifecycle runner threads its stream clock through it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.kgsl.interpose import Interposer
from repro.registry import SpecType

#: Environment variable selecting the default drift profile; read by
#: ``drift="auto"`` (:data:`DRIFT_SPEC`, mirrors ``REPRO_FAULT_PROFILE``).
DRIFT_PROFILE_ENV = "REPRO_DRIFT_PROFILE"

#: Thermal factor curve shapes.
THERMAL_MODES = ("ramp", "step")


@dataclass
class DriftStats:
    """Exact tally of the drift one injector actually applied."""

    #: Counter slots whose returned value was rewritten (factor != 1).
    reads_scaled: int = 0
    #: Slots read while the thermal factor was below 1.0.
    thermal_samples: int = 0
    #: Slots read while the geometry shift was active.
    geometry_samples: int = 0
    #: Most severe thermal factor reached (1.0 = never throttled).
    min_thermal_factor: float = 1.0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DriftPlan:
    """Seeded, deterministic signature-drift configuration.

    The same plan with the same seed always produces the same drifted
    counter stream, which is what makes degraded-then-recovered runs
    reproducible and diffable.
    """

    seed: int = 0
    #: Plateau multiplier the thermal throttle converges to (1.0 = off).
    thermal_scale: float = 1.0
    #: "ramp" interpolates 1.0 → thermal_scale over ``thermal_ramp_s``;
    #: "step" jumps straight to the plateau at onset.
    thermal_mode: str = "ramp"
    #: Device time at which throttling begins.
    thermal_onset_s: float = 0.0
    #: Ramp duration (ignored in "step" mode).
    thermal_ramp_s: float = 8.0
    #: Per-counter geometry factor half-width (0.0 = off); each counter
    #: gets a seeded factor in ``[1 - shift, 1 + shift]``.
    geometry_shift: float = 0.0
    #: Device time at which the shifted geometry takes effect.
    geometry_onset_s: float = 0.0
    #: Informational profile name ("" for hand-built plans).
    profile: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.thermal_scale <= 2.0:
            raise ValueError(
                f"thermal_scale must be in (0, 2], got {self.thermal_scale}"
            )
        if self.thermal_mode not in THERMAL_MODES:
            raise ValueError(
                f"thermal_mode must be one of {THERMAL_MODES}, got {self.thermal_mode!r}"
            )
        if not 0.0 <= self.geometry_shift < 1.0:
            raise ValueError(
                f"geometry_shift must be in [0, 1), got {self.geometry_shift}"
            )
        for name in ("thermal_onset_s", "thermal_ramp_s", "geometry_onset_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this plan can perturb anything at all."""
        return self.thermal_scale != 1.0 or self.geometry_shift > 0.0

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DriftPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DriftPlan fields: {sorted(unknown)}")
        return cls(**dict(data))  # type: ignore[arg-type]

    # -- profiles -------------------------------------------------------

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "DriftPlan":
        """One of the named profiles (see :data:`DRIFT_PROFILES`)."""
        try:
            base = DRIFT_PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown drift profile {name!r}; available: {sorted(DRIFT_PROFILES)}"
            ) from None
        return replace(base, seed=seed)

    def injector(
        self, seed_offset: int = 0, time_offset: float = 0.0
    ) -> Optional["DriftInjector"]:
        """Build the per-device-file runtime for this plan.

        Returns ``None`` for a plan that cannot drift anything, so the
        KGSL read path stays entirely hook-free when drift is off.
        ``time_offset`` shifts this fd's device clock along the plan's
        drift trajectory — sequential sessions of one long-running device
        pass their stream time so the thermal ramp continues across fds.
        """
        if not self.enabled:
            return None
        return DriftInjector(self, seed_offset=seed_offset, time_offset=time_offset)


#: Named drift profiles (``REPRO_DRIFT_PROFILE`` selects one).
DRIFT_PROFILES: Dict[str, DriftPlan] = {
    "none": DriftPlan(profile="none"),
    # gentle throttle: accuracy dips but mostly survives
    "thermal-mild": DriftPlan(
        thermal_scale=0.85,
        thermal_mode="ramp",
        thermal_onset_s=6.0,
        thermal_ramp_s=10.0,
        profile="thermal-mild",
    ),
    # sustained heavy throttle: the frozen model degrades hard — the
    # lifecycle demo's drift → recalibrate → recover arc runs on this
    "thermal-harsh": DriftPlan(
        thermal_scale=0.55,
        thermal_mode="ramp",
        thermal_onset_s=6.0,
        thermal_ramp_s=10.0,
        profile="thermal-harsh",
    ),
    # an app update reshapes the popups overnight: a step, not a ramp
    "geometry-shift": DriftPlan(
        geometry_shift=0.22,
        geometry_onset_s=6.0,
        profile="geometry-shift",
    ),
    "combined": DriftPlan(
        thermal_scale=0.7,
        thermal_mode="ramp",
        thermal_onset_s=6.0,
        thermal_ramp_s=10.0,
        geometry_shift=0.12,
        geometry_onset_s=6.0,
        profile="combined",
    ),
}


#: How the public ``drift`` argument resolves: ``"auto"`` reads
#: ``REPRO_DRIFT_PROFILE``, a name selects a profile, ``None`` (or a plan
#: that cannot drift) means no drift machinery at all.
DRIFT_SPEC = SpecType(DriftPlan, DRIFT_PROFILE_ENV, DriftPlan.from_profile)


class DriftInjector(Interposer):
    """Per-device-file drift runtime built from a :class:`DriftPlan`.

    The innermost stage of the KGSL interposer chain: drift is physical,
    so it rewrites every counter slot of every ``PERFCOUNTER_READ``
    before any mitigation or measurement fault sees it.  The injector
    tracks, per counter, the last raw cumulative value served by the
    timeline and the last value it returned; each new read contributes
    ``round(factor(t) * raw_increment)`` on top of the previous output,
    so returned counters stay cumulative and monotone while their
    *increments* — the deltas the classifier sees — carry the drift.
    """

    def __init__(
        self, plan: DriftPlan, seed_offset: int = 0, time_offset: float = 0.0
    ) -> None:
        self.plan = plan
        self.seed_offset = seed_offset
        self.time_offset = time_offset
        self.stats = DriftStats()
        #: counter key -> (last raw value, last returned value)
        self._state: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._geometry: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------

    def thermal_factor(self, now: float) -> float:
        """The throttle multiplier at device time ``now`` (stream time
        once the injector's ``time_offset`` is added)."""
        plan = self.plan
        if plan.thermal_scale == 1.0:
            return 1.0
        t = now + self.time_offset - plan.thermal_onset_s
        if t < 0.0:
            return 1.0
        if plan.thermal_mode == "step" or plan.thermal_ramp_s <= 0.0:
            return plan.thermal_scale
        frac = min(1.0, t / plan.thermal_ramp_s)
        return 1.0 + (plan.thermal_scale - 1.0) * frac

    def geometry_factor(self, key: Tuple[int, int], now: float) -> float:
        """The per-counter geometry multiplier at device time ``now``.

        Factors are drawn from the *plan* seed and the counter identity
        only, never from the fd's ``seed_offset``: the shifted geometry
        is a property of the updated app, identical across sessions.
        """
        plan = self.plan
        if plan.geometry_shift == 0.0:
            return 1.0
        if now + self.time_offset < plan.geometry_onset_s:
            return 1.0
        factor = self._geometry.get(key)
        if factor is None:
            rng = np.random.default_rng((plan.seed, key[0], key[1]))
            factor = 1.0 + plan.geometry_shift * float(rng.uniform(-1.0, 1.0))
            self._geometry[key] = factor
        return factor

    # -- interposer hooks ----------------------------------------------

    def on_value(self, device, key: Tuple[int, int], value: int) -> int:
        return self.drift_value(key, value, device.clock.now)

    def flush_metrics(self, metrics) -> None:
        """Publish the applied drift as ``drift.*``."""
        if not metrics.enabled:
            return
        for name, value in self.stats.as_dict().items():
            if name == "min_thermal_factor":
                # a level, not a count: keep the most severe factor any
                # fd in the run reached
                gauge = metrics.gauge("drift.min_thermal_factor")
                if gauge.value == 0.0 or value < gauge.value:
                    gauge.set(value)
            elif value > 0:
                metrics.counter(f"drift.{name}").inc(int(value))

    def drift_value(self, key: Tuple[int, int], raw: int, now: float) -> int:
        """Rewrite one cumulative counter value read at device time
        ``now``; called per slot from ``PERFCOUNTER_READ``."""
        prev_raw, prev_out = self._state.get(key, (0, 0))
        increment = raw - prev_raw
        if increment < 0:
            # timeline reset (fresh fd reusing an injector): restart the
            # accumulation rather than emit a negative increment
            prev_raw, prev_out, increment = 0, 0, raw
        thermal = self.thermal_factor(now)
        geometry = self.geometry_factor(key, now)
        factor = thermal * geometry
        if factor == 1.0:
            out = prev_out + increment
        else:
            out = prev_out + int(round(increment * factor))
            if increment:
                self.stats.reads_scaled += 1
        if thermal < 1.0:
            self.stats.thermal_samples += 1
            if thermal < self.stats.min_thermal_factor:
                self.stats.min_thermal_factor = thermal
        if geometry != 1.0:
            self.stats.geometry_samples += 1
        self._state[key] = (raw, out)
        return out
