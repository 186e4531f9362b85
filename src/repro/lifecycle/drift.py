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

from repro.gpu.timeline import COUNTER_ORDER
from repro.kgsl.device_file import SLOT_COLUMN
from repro.kgsl.interpose import Interposer
from repro.registry import SpecType, spec_from_dict, spec_to_dict

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
        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DriftPlan":
        return spec_from_dict(cls, data)

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
    so it rewrites every served counter value before any mitigation or
    measurement fault sees it.  The injector tracks, per counter, the
    last raw cumulative value served by the timeline and the last value
    it returned; each new read contributes
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
        #: per counter column: last raw value served, last value returned
        self._raw = np.zeros(len(COUNTER_ORDER), dtype=np.int64)
        self._out = np.zeros(len(COUNTER_ORDER), dtype=np.int64)
        self._geometry: Dict[Tuple[int, int], float] = {}
        #: each column's shifted geometry factor
        self._shift = np.array([self._geometry_shift(key) for key in SLOT_COLUMN])

    # ------------------------------------------------------------------

    def thermal_factor(self, now):
        """The throttle multiplier at device time ``now``, a float or an
        array of them (stream time once the injector's ``time_offset`` is
        added)."""
        plan = self.plan
        t = np.asarray(now, dtype=float) + self.time_offset - plan.thermal_onset_s
        if plan.thermal_mode == "step" or plan.thermal_ramp_s <= 0.0:
            throttled = plan.thermal_scale
        else:
            # min(1, t / ramp), clipped first so a tiny ramp cannot overflow
            frac = np.clip(t, 0.0, plan.thermal_ramp_s) / plan.thermal_ramp_s
            throttled = 1.0 + (plan.thermal_scale - 1.0) * frac
        factor = np.where(t < 0.0, 1.0, throttled)
        return factor if factor.ndim else float(factor)

    def _geometry_shift(self, key: Tuple[int, int]) -> float:
        """One counter's shifted geometry factor.

        Factors are drawn from the *plan* seed and the counter identity
        only, never from the fd's ``seed_offset``: the shifted geometry
        is a property of the updated app, identical across sessions.
        """
        plan = self.plan
        if plan.geometry_shift == 0.0:
            return 1.0
        factor = self._geometry.get(key)
        if factor is None:
            rng = np.random.default_rng((plan.seed, key[0], key[1]))
            factor = 1.0 + plan.geometry_shift * float(rng.uniform(-1.0, 1.0))
            self._geometry[key] = factor
        return factor

    # -- interposer hooks ----------------------------------------------

    def on_rows(self, device, times, rows, served, kept) -> None:
        self.drift_value(times, rows, served)

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

    def drift_value(self, times: np.ndarray, rows: np.ndarray, served: np.ndarray) -> None:
        """Rewrite the served cumulative values of reads at ``times`` in
        place (the value step; see
        :meth:`~repro.kgsl.interpose.Interposer.on_rows`)."""
        n = len(times)
        thermal = self.thermal_factor(times)
        geometry = np.where(
            (times + self.time_offset >= self.plan.geometry_onset_s)[:, None], self._shift, 1.0
        )
        # each column's raw value carried forward over the reads that did
        # not serve it, from the value the previous batch left
        last = np.where(served, np.arange(1, n + 1)[:, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        raw = np.take_along_axis(np.vstack((self._raw, rows)), last, axis=0)
        increment = np.diff(raw, axis=0, prepend=self._raw[None])
        # a raw value below the last one means the timeline restarted (a
        # fresh fd reusing an injector): the accumulation restarts at it
        reset = increment < 0
        restarted = reset.any()
        if restarted:
            increment[reset] = raw[reset]
        factor = thermal[:, None] * geometry
        step = np.rint(increment * factor).astype(np.int64)
        total = np.cumsum(np.vstack((self._out, step)), axis=0)
        out = total[1:]
        if restarted:
            since = np.where(reset, np.arange(n)[:, None], -1)
            np.maximum.accumulate(since, axis=0, out=since)
            out -= np.where(since >= 0, np.take_along_axis(total, np.maximum(since, 0), axis=0), 0)
        rows[served] = out[served]
        self._raw, self._out = raw[-1].copy(), out[-1].copy()
        stats = self.stats
        stats.reads_scaled += int(np.count_nonzero(served & (factor != 1.0) & (increment != 0)))
        throttled = (thermal < 1.0) & served.any(axis=1)
        if throttled.any():
            stats.thermal_samples += int(np.count_nonzero(served[throttled]))
            stats.min_thermal_factor = min(stats.min_thermal_factor, float(thermal[throttled].min()))
        stats.geometry_samples += int(np.count_nonzero(served & (geometry != 1.0)))
