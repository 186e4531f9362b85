"""Deterministic fault injection at the KGSL boundary (Sections 5.1/7).

On a real device the attack runs unprivileged and shares the GPU driver
with every other process, so the measurement layer is *not* infallible:

* ``ioctl()`` calls fail transiently (``EIO``/``EBUSY``) when the driver
  is servicing a higher-priority client or the device is suspending;
* performance-counter registers are a shared, finite resource — another
  process can reclaim one mid-session, after which reads of that slot
  fail until the attacker re-registers it (and re-registration itself
  fails while the other client holds the register);
* sampling wakeups are dropped or deferred under load; and
* returned values are occasionally corrupted by concurrent register
  reprogramming.

This module injects all of those failure modes into the simulated
``/dev/kgsl-3d0`` interface, seeded and fully deterministic, so the
resilience of the sampling→inference path can be tested and benchmarked.
A :class:`FaultPlan` is pure configuration (serializable, hashable); a
:class:`FaultInjector` is the per-device-file runtime state built from a
plan.  With no plan installed the fast path is untouched — the clean
attack output is byte-identical to a build without this module.

Profiles
--------

Three named profiles gate the CI fault matrix (see
``.github/workflows/ci.yml``), selected via ``REPRO_FAULT_PROFILE``:

* ``none``  — no faults (the default; parity-tested);
* ``mild``  — ≤5 % transient ioctl failures, at most one counter
  reclamation per session, light jitter: sessions must still complete
  and stay accurate;
* ``harsh`` — heavy failure rates, unlimited reclamations, value
  corruption: sessions must complete without exceptions and *report*
  their degradation, but accuracy is allowed to fall.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.kgsl.device_file import SLOT_COLUMN
from repro.kgsl.interpose import Interposer
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_READ,
    IoctlError,
)
from repro.registry import SpecType, spec_from_dict, spec_to_dict

#: Environment variable selecting the default fault profile ("none",
#: "mild" or "harsh"); read by ``fault_plan="auto"`` (:data:`FAULT_SPEC`).
FAULT_PROFILE_ENV = "REPRO_FAULT_PROFILE"

#: errno values considered *transient* — the resilient sampler retries
#: these with backoff instead of failing the session.
TRANSIENT_ERRNOS = (errno.EIO, errno.EBUSY)


@dataclass
class FaultStats:
    """Exact tally of every fault actually injected by one injector."""

    read_errors: int = 0
    get_errors: int = 0
    reclaims: int = 0
    drops: int = 0
    jitter_events: int = 0
    corruptions: int = 0

    @property
    def total(self) -> int:
        return (
            self.read_errors
            + self.get_errors
            + self.reclaims
            + self.drops
            + self.jitter_events
            + self.corruptions
        )

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault configuration for one attack run.

    All probabilities are per-event (per counter read, per reservation,
    per sampling wakeup); reclamation is a Poisson process in device
    time.  The same plan with the same seed always injects the same
    fault sequence, which is what makes degraded runs reproducible and
    diffable.
    """

    seed: int = 0
    #: Probability a PERFCOUNTER_READ fails transiently (EIO/EBUSY).
    read_error_prob: float = 0.0
    #: Probability a PERFCOUNTER_GET fails transiently (EBUSY).
    get_error_prob: float = 0.0
    #: Counter-register reclamations per second of device time.
    reclaim_rate_hz: float = 0.0
    #: How long a reclaimed register stays held by the other client.
    reclaim_window_s: float = 0.4
    #: Maximum reclamations per injector (None = unlimited).
    max_reclaims: Optional[int] = None
    #: Probability a sampling wakeup is silently dropped.
    drop_prob: float = 0.0
    #: Probability a wakeup is deferred by extra (exponential) jitter.
    jitter_prob: float = 0.0
    #: Mean of the injected extra delay when jitter fires.
    jitter_s: float = 0.0
    #: Probability one read slot returns a corrupted value.
    corrupt_prob: float = 0.0
    #: Relative std-dev of the corruption multiplier.
    corrupt_rel: float = 0.25
    #: Informational profile name ("" for hand-built plans).
    profile: str = ""

    def __post_init__(self) -> None:
        for name in ("read_error_prob", "get_error_prob", "drop_prob", "jitter_prob", "corrupt_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("reclaim_rate_hz", "reclaim_window_s", "jitter_s", "corrupt_rel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_reclaims is not None and self.max_reclaims < 0:
            raise ValueError("max_reclaims must be None or >= 0")

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return any(
            getattr(self, name) > 0
            for name in (
                "read_error_prob",
                "get_error_prob",
                "reclaim_rate_hz",
                "drop_prob",
                "jitter_prob",
                "corrupt_prob",
            )
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        return spec_from_dict(cls, data)

    # -- profiles -------------------------------------------------------

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "FaultPlan":
        """One of the named CI profiles: ``none``, ``mild``, ``harsh``."""
        try:
            base = PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; available: {sorted(PROFILES)}"
            ) from None
        return replace(base, seed=seed)

    def injector(self, seed_offset: int = 0) -> Optional["FaultInjector"]:
        """Build the per-device-file runtime for this plan.

        Returns ``None`` for a plan that cannot inject anything, so the
        sampling fast path stays entirely hook-free when faults are off.
        ``seed_offset`` (typically the session seed) decorrelates
        concurrent sessions while keeping each one deterministic.
        """
        if not self.enabled:
            return None
        return FaultInjector(self, seed_offset=seed_offset)


#: The named profiles the CI fault matrix runs.
PROFILES: Dict[str, FaultPlan] = {
    "none": FaultPlan(profile="none"),
    "mild": FaultPlan(
        read_error_prob=0.05,
        get_error_prob=0.05,
        reclaim_rate_hz=0.12,
        reclaim_window_s=0.35,
        max_reclaims=1,
        drop_prob=0.004,
        jitter_prob=0.04,
        jitter_s=0.002,
        corrupt_prob=0.0,
        profile="mild",
    ),
    "harsh": FaultPlan(
        read_error_prob=0.25,
        get_error_prob=0.25,
        reclaim_rate_hz=0.6,
        reclaim_window_s=1.0,
        max_reclaims=None,
        drop_prob=0.05,
        jitter_prob=0.25,
        jitter_s=0.010,
        corrupt_prob=0.02,
        corrupt_rel=0.5,
        profile="harsh",
    ),
}


#: How the public ``fault_plan`` argument resolves: ``"auto"`` reads
#: ``REPRO_FAULT_PROFILE``, a name selects a profile, ``None`` (or a plan
#: that cannot inject) means no fault machinery at all.
FAULT_SPEC = SpecType(FaultPlan, FaultPlan.from_profile, env=FAULT_PROFILE_ENV)


class FaultInjector(Interposer):
    """Per-device-file fault runtime built from a :class:`FaultPlan`.

    The injector owns its own RNG stream (independent of the sampler's
    scheduling RNG, so enabling a zero-probability plan perturbs
    nothing) and all reclamation state.  It is the outermost stage of
    the KGSL interposer chain: it sees every ioctl before the driver
    (and any mitigation) does, every served read last, and every
    sampling wakeup.  Every draw happens in the request step, in request
    order; value corruption is drawn when a read completes
    (:meth:`after_read`) and applied when its values are served
    (:meth:`on_rows`).
    """

    def __init__(self, plan: FaultPlan, seed_offset: int = 0) -> None:
        self.plan = plan
        self.rng = np.random.default_rng((plan.seed, seed_offset))
        self.stats = FaultStats()
        #: reclaimed register -> device time at which it is released
        self._reclaimed: Dict[Tuple[int, int], float] = {}
        self._last_reclaim_check: Optional[float] = None
        self._reclaims_done = 0
        #: corruption drawn but not yet applied: (completed read, column,
        #: factor), reads counted from the last value step
        self._planned: List[Tuple[int, Optional[int], float]] = []
        self._reads_planned = 0

    # -- device-file hooks ---------------------------------------------

    def on_ioctl(self, device, request: int, arg) -> None:
        """Pre-dispatch hook; may raise a transient :class:`IoctlError`
        or steal a reserved counter register (reclamation)."""
        now = device.clock.now
        if request == IOCTL_KGSL_PERFCOUNTER_READ:
            self._maybe_reclaim(device, now)
            if self.plan.read_error_prob and self.rng.random() < self.plan.read_error_prob:
                self.stats.read_errors += 1
                err = errno.EIO if self.rng.random() < 0.5 else errno.EBUSY
                raise IoctlError(err, "injected transient PERFCOUNTER_READ failure")
        elif request == IOCTL_KGSL_PERFCOUNTER_GET:
            key = (arg.groupid, arg.countable)
            until = self._reclaimed.get(key)
            if until is not None:
                if now < until:
                    raise IoctlError(
                        errno.EBUSY, "counter register held by another client"
                    )
                del self._reclaimed[key]
            if self.plan.get_error_prob and self.rng.random() < self.plan.get_error_prob:
                self.stats.get_errors += 1
                raise IoctlError(
                    errno.EBUSY, "injected transient PERFCOUNTER_GET failure"
                )

    def after_read(self, device, keys) -> None:
        """Draw one completed read's value corruption, one draw per slot;
        :meth:`on_rows` applies it."""
        if not self.plan.corrupt_prob:
            return
        for key in keys:
            if self.rng.random() < self.plan.corrupt_prob:
                self.stats.corruptions += 1
                factor = 1.0 + float(self.rng.normal(0.0, self.plan.corrupt_rel))
                self._planned.append((self._reads_planned, SLOT_COLUMN.get(key), factor))
        self._reads_planned += 1

    def on_rows(self, device, times, rows, served, kept) -> None:
        """Corrupt the served values as :meth:`after_read` drew it: the
        completed reads of this value step are the ones planned since the
        last."""
        if self._planned:
            completed = np.flatnonzero(kept)
            for read, column, factor in self._planned:
                if column is not None:
                    k = completed[read]
                    rows[k, column] = max(0, int(int(rows[k, column]) * factor))
            self._planned = []
        self._reads_planned = 0

    def _maybe_reclaim(self, device, now: float) -> None:
        """Poisson-trigger a counter-register reclamation."""
        if not self.plan.reclaim_rate_hz:
            return
        if self.plan.max_reclaims is not None and self._reclaims_done >= self.plan.max_reclaims:
            return
        last = self._last_reclaim_check
        self._last_reclaim_check = now
        if last is None or now <= last:
            return
        if self.rng.random() >= min(1.0, self.plan.reclaim_rate_hz * (now - last)):
            return
        candidates = [
            key for key in device.reserved_counters() if key not in self._reclaimed
        ]
        if not candidates:
            return
        key = candidates[int(self.rng.integers(len(candidates)))]
        self._reclaimed[key] = now + self.plan.reclaim_window_s
        device.revoke_counter(key)
        self._reclaims_done += 1
        self.stats.reclaims += 1

    # -- sampler hooks --------------------------------------------------

    def drop_sample(self) -> bool:
        """Whether this sampling wakeup is lost entirely."""
        if self.plan.drop_prob and self.rng.random() < self.plan.drop_prob:
            self.stats.drops += 1
            return True
        return False

    def extra_delay(self) -> float:
        """Additional scheduling delay injected into this wakeup."""
        if self.plan.jitter_prob and self.rng.random() < self.plan.jitter_prob:
            self.stats.jitter_events += 1
            return float(self.rng.exponential(self.plan.jitter_s))
        return 0.0

    def on_wakeup(self) -> Optional[float]:
        """A dropped wakeup (``None``) or its injected extra delay."""
        if self.drop_sample():
            return None
        return self.extra_delay()

    def flush_metrics(self, metrics) -> None:
        """Publish the injected tally as ``faults.injected.*``."""
        if not metrics.enabled:
            return
        for name, value in self.stats.as_dict().items():
            if value > 0:
                metrics.counter(f"faults.injected.{name}").inc(value)
