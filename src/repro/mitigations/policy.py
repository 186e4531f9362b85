"""Composable mitigation policies: the defense arm's one spec object.

The paper's Section 9 surveys individual countermeasures — RBAC on the
counter ioctls (9.2), value obfuscation (9.3), popup-rendering changes
(9.1) — and a real deployment would layer several at once.  This module
makes that composition first-class:

* :class:`MitigationPolicy` — a frozen, serializable spec naming which
  defense layers are on (access control, rate limiting, quantization,
  noise injection, popup changes) and with what parameters.  Policies
  compose commutatively via :func:`compose`, so an operator can stack
  "RBAC plus quantization plus popups off" as a single named object.
* :class:`PolicyEnforcer` — the runtime form: one
  :class:`~repro.kgsl.interpose.Interposer` enforcing the whole stack at
  the KGSL device file (``check`` for access control, once per request;
  ``filter_value`` for the value pipeline, once per batch of reads), with
  per-layer counters that flush into the run manifest as
  ``mitigation.*``.
* :data:`MITIGATION_REGISTRY` — named lookup with the same
  :class:`~repro.registry.UnknownNameError` suggestions as keyboards and
  scenarios; :func:`register_mitigation` validates before registering.

Enforcement has exactly two surfaces, and a policy declares both:

1. **KGSL boundary** (:meth:`MitigationPolicy.enforcer`): consulted by
   :class:`~repro.kgsl.device_file.KgslDeviceFile` on every counter
   request and every batch of served reads.  ``mitigation=None`` installs *no* hook — the fast path stays
   byte-identical to the undefended device (golden-parity tested).
2. **Victim rendering** (:meth:`MitigationPolicy.apply_to_device_config`):
   popup-rendering changes alter what the victim draws, so they apply
   when the session is *compiled* (``repro.api.simulate``), not when it
   is read.

The value pipeline runs in one fixed canonical order — local-only
masking, rate-limit staleness, quantization, then noise — regardless of
how the spec was composed, which is what makes composition order
invariant (tested in ``tests/test_defense_policies.py``).
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.timeline import COUNTER_ORDER
from repro.kgsl.device_file import ProcessContext
from repro.kgsl.interpose import Interposer
from repro.kgsl.ioctl import IoctlError
from repro.registry import Registry, SpecType, spec_from_dict, spec_to_dict

#: SELinux contexts normally allowed to touch global GPU counters.
DEFAULT_PRIVILEGED_CONTEXTS = frozenset(
    {"system_server", "platform_app", "shell", "su", "graphics_profiler"}
)

#: Mean obfuscation step per read at ``noise_strength=1.0``, scaled to a
#: typical key-press counter increment (cf. Section 9.3's requirement
#: that noise be comparable to the signal to matter).
_NOISE_STEP_SCALE = 2000.0


@dataclass(frozen=True)
class MitigationPolicy:
    """One named defense stack, as a frozen serializable spec.

    Every field is a *layer toggle or parameter*; the runtime form is
    built on demand by :meth:`enforcer` / :meth:`apply_to_device_config`
    so the spec itself stays hashable, picklable and registry-friendly
    (the same design as :class:`~repro.scenarios.Scenario` and
    :class:`~repro.faults.FaultPlan`).

    Attributes:
        name: registry name of the policy.
        rbac: deny ``PERFCOUNTER_GET``/``READ`` with ``EACCES`` to any
            context not in ``privileged_contexts`` (Section 9.2's
            SELinux ioctl whitelisting).
        local_only: unprivileged reads succeed but observe only the
            caller's own GPU activity — a flat zero for the attack
            service (the paper's preferred finer-grained RBAC).
        privileged_contexts: SELinux contexts exempt from every layer.
        rate_limit_hz: serve unprivileged readers a cached counter
            snapshot refreshed at most this often; reads above the rate
            see stale values, collapsing consecutive deltas.
        quantize_step: floor returned values to multiples of this step,
            erasing sub-step deltas.
        noise_strength: add a monotone random-walk offset per counter,
            with mean step ``2000 * strength`` per read (0 = off).
        noise_seed: base seed of the noise walk (combined with the
            per-session seed so parallel sessions stay deterministic).
        disable_popups: victim-side popup-rendering change
            (Section 9.1): key-press popups are not drawn at all.
        description: one-line human description.
        tags: registry tags (``baseline``, ``paper``, ``sweep``, …).
    """

    name: str
    rbac: bool = False
    local_only: bool = False
    privileged_contexts: Tuple[str, ...] = tuple(sorted(DEFAULT_PRIVILEGED_CONTEXTS))
    rate_limit_hz: Optional[float] = None
    quantize_step: Optional[int] = None
    noise_strength: float = 0.0
    noise_seed: int = 13
    disable_popups: bool = False
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("mitigation policy name must be a non-empty string")
        if self.rate_limit_hz is not None and self.rate_limit_hz <= 0:
            raise ValueError("rate_limit_hz must be positive (or None)")
        if self.quantize_step is not None and self.quantize_step < 1:
            raise ValueError("quantize_step must be >= 1 (or None)")
        if self.noise_strength < 0:
            raise ValueError("noise_strength must be non-negative")
        object.__setattr__(
            self, "privileged_contexts", tuple(sorted(set(self.privileged_contexts)))
        )
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- layer predicates -------------------------------------------------

    @property
    def enforces_kgsl(self) -> bool:
        """Whether any layer acts at the device-file boundary."""
        return bool(
            self.rbac
            or self.local_only
            or self.rate_limit_hz is not None
            or self.quantize_step is not None
            or self.noise_strength > 0
        )

    @property
    def enabled(self) -> bool:
        """Whether the policy does anything at all."""
        return self.enforces_kgsl or self.disable_popups

    # -- runtime forms ----------------------------------------------------

    def enforcer(self, seed: int = 0) -> Optional["PolicyEnforcer"]:
        """The KGSL-boundary enforcement stack, or ``None`` when no
        layer acts there (popup-only / allow-all policies install no
        hook, keeping the undefended read path byte-identical)."""
        if not self.enforces_kgsl:
            return None
        return PolicyEnforcer(self, seed=seed)

    def apply_to_device_config(self, config):
        """Victim-side rendering changes (popups off), or ``config``
        unchanged.  Applied where sessions are *compiled*."""
        if not self.disable_popups or not config.keyboard.supports_popup:
            return config
        from repro.mitigations.popup_disable import config_with_popups_disabled

        return config_with_popups_disabled(config)

    # -- composition ------------------------------------------------------

    def compose(self, other: "MitigationPolicy", name: Optional[str] = None) -> "MitigationPolicy":
        """Merge two policies into one stack.

        The merge is commutative and associative — every field combines
        through an order-free operation (boolean OR, min/max of the
        strictest parameter, set intersection of the privilege lists) —
        so ``a.compose(b) == b.compose(a)`` holds for all policies and
        stacking order never matters.
        """
        rate_limits = [
            hz for hz in (self.rate_limit_hz, other.rate_limit_hz) if hz is not None
        ]
        steps = [
            s for s in (self.quantize_step, other.quantize_step) if s is not None
        ]
        seeds = [
            p.noise_seed for p in (self, other) if p.noise_strength > 0
        ]
        merged_name = "+".join(sorted({self.name, other.name}))
        return MitigationPolicy(
            name=name or merged_name,
            rbac=self.rbac or other.rbac,
            local_only=self.local_only or other.local_only,
            privileged_contexts=tuple(
                sorted(set(self.privileged_contexts) & set(other.privileged_contexts))
            ),
            rate_limit_hz=min(rate_limits) if rate_limits else None,
            quantize_step=max(steps) if steps else None,
            noise_strength=max(self.noise_strength, other.noise_strength),
            noise_seed=min(seeds) if seeds else min(self.noise_seed, other.noise_seed),
            disable_popups=self.disable_popups or other.disable_popups,
            description="composition of " + " + ".join(sorted(set(merged_name.split("+")))),
            tags=tuple(sorted(set(self.tags) | set(other.tags) | {"composed"})),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out = spec_to_dict(self)
        out["privileged_contexts"] = list(self.privileged_contexts)
        out["tags"] = list(self.tags)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MitigationPolicy":
        return spec_from_dict(cls, data)


def compose(*policies: MitigationPolicy, name: Optional[str] = None) -> MitigationPolicy:
    """Fold any number of policies into one stack (order-invariant)."""
    if not policies:
        raise ValueError("compose() needs at least one policy")
    merged = policies[0]
    for policy in policies[1:]:
        merged = merged.compose(policy)
    if name is not None:
        from dataclasses import replace

        merged = replace(merged, name=name)
    return merged


@dataclass
class MitigationStats:
    """Per-layer enforcement tallies, flushed as ``mitigation.*``."""

    checks: int = 0
    denials: int = 0
    local_zeroed: int = 0
    stale_serves: int = 0
    quantized: int = 0
    noised: int = 0
    filtered_values: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PolicyEnforcer(Interposer):
    """The runtime stack of one :class:`MitigationPolicy` at the KGSL fd.

    The middle stage of the interposer chain: it checks the counters each
    request names (:meth:`check`) and filters the drifted values the GPU
    served (:meth:`filter_value`) before any measurement fault sees them.

    Stateful — the rate limiter's cached snapshots and the noise walk
    live here — so each attack session builds a fresh enforcer (seeded
    from the session seed, which keeps sharded ``workers=N`` runs
    byte-identical to serial).

    The value pipeline order is canonical and fixed: local-only masking
    short-circuits first (there is nothing left to protect in a zero),
    then rate-limit staleness, quantization, and the noise walk.  Every
    stage is monotone, so counters never appear to run backwards no
    matter which layers are stacked.
    """

    def __init__(self, policy: MitigationPolicy, seed: int = 0) -> None:
        self.policy = policy
        self.seed = seed
        self.stats = MitigationStats()
        self._rng = (
            np.random.default_rng((policy.noise_seed, seed))
            if policy.noise_strength > 0
            else None
        )
        columns = len(COUNTER_ORDER)
        #: per counter column: accumulated noise-walk offset
        self._walk = np.zeros(columns, dtype=np.int64)
        #: per counter column: last fresh-serve time (NaN: none yet) and
        #: the value it served
        self._snapshot_t = np.full(columns, np.nan)
        self._snapshot = np.zeros(columns, dtype=np.int64)

    # -- interposer hooks -------------------------------------------------

    def on_counter(self, device, operation: str, keys) -> None:
        self.check(device.context, operation, keys)

    def on_rows(self, device, times, rows, served, kept) -> None:
        self.filter_value(device.context, times, rows, served)

    # -- enforcement --------------------------------------------------------

    def _privileged(self, context: ProcessContext) -> bool:
        return context.selinux_context in self.policy.privileged_contexts

    def check(
        self, context: ProcessContext, operation: str, keys: Sequence[Tuple[int, int]]
    ) -> None:
        """Access control for one request naming the ``(groupid,
        countable)`` counters ``keys``: RBAC denies an unprivileged
        context at the first of them."""
        if not self.policy.rbac or self._privileged(context):
            self.stats.checks += len(keys)
            return
        self.stats.checks += 1
        self.stats.denials += 1
        raise IoctlError(
            errno.EACCES,
            f"mitigation {self.policy.name!r}: denied "
            f"context={context.selinux_context} op=perfcounter_{operation} "
            f"group={keys[0][0]:#x}",
        )

    def filter_value(
        self, context: ProcessContext, times: np.ndarray, rows: np.ndarray, served: np.ndarray
    ) -> None:
        """The value pipeline over the served values of reads at ``times``,
        in place (the value step; see
        :meth:`~repro.kgsl.interpose.Interposer.on_rows`)."""
        if self._privileged(context) or not self.policy.enforces_kgsl:
            return
        policy = self.policy
        stats = self.stats
        stats.filtered_values += int(np.count_nonzero(served))
        if policy.local_only:
            # nothing further to protect: the caller rendered nothing
            stats.local_zeroed += int(np.count_nonzero(served))
            rows[served] = 0
            return
        fresh = served if policy.rate_limit_hz is None else self._fresh(times, served)
        fresh_count = int(np.count_nonzero(fresh))
        if policy.quantize_step is not None:
            rows -= rows % policy.quantize_step
            stats.quantized += fresh_count
        if self._rng is not None:
            # one draw per fresh serve in read order, each counter's walk
            # accumulating its own draws
            steps = self._rng.exponential(
                _NOISE_STEP_SCALE * policy.noise_strength, size=fresh_count
            )
            walk = np.zeros(rows.shape, dtype=np.int64)
            walk[fresh] = steps.astype(np.int64)
            np.cumsum(walk, axis=0, out=walk)
            walk += self._walk
            rows[fresh] += walk[fresh]
            self._walk = walk[-1]
            stats.noised += fresh_count
        if policy.rate_limit_hz is not None:
            self._serve_stale(rows, served, fresh)

    def _fresh(self, times: np.ndarray, served: np.ndarray) -> np.ndarray:
        """Which served values are fresh under the rate limit: a counter's
        snapshot refreshes at most once per period, read by read."""
        period = 1.0 / self.policy.rate_limit_hz
        snapshot_t = self._snapshot_t
        fresh = served.copy()
        for k, t in enumerate(times.tolist()):
            # NaN (never served) compares False: the first serve is fresh
            stale = served[k] & (t - snapshot_t < period)
            fresh[k] &= ~stale
            snapshot_t[fresh[k]] = t
        return fresh

    def _serve_stale(self, rows: np.ndarray, served: np.ndarray, fresh: np.ndarray) -> None:
        """Serve each stale value as its counter's latest snapshot: the
        last fresh value before it, or the one a previous batch left."""
        latest = np.where(fresh, np.arange(1, len(rows) + 1)[:, None], 0)
        np.maximum.accumulate(latest, axis=0, out=latest)
        snapshots = np.take_along_axis(np.vstack((self._snapshot, rows)), latest, axis=0)
        stale = served & ~fresh
        rows[stale] = snapshots[stale]
        self.stats.stale_serves += int(np.count_nonzero(stale))
        self._snapshot = snapshots[-1].copy()

    # -- observability ----------------------------------------------------

    def flush_metrics(self, metrics) -> None:
        """Publish enforcement tallies into a metrics registry (called
        once per fd by the sampler's own flush)."""
        if not metrics.enabled:
            return
        for stat, count in self.stats.as_dict().items():
            if count:
                metrics.counter(f"mitigation.{stat}").inc(count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolicyEnforcer({self.policy.name!r}, seed={self.seed})"


#: The mitigation registry: name → policy, with did-you-mean errors.
MITIGATION_REGISTRY: Registry[MitigationPolicy] = Registry("mitigation")


def register_mitigation(spec: MitigationPolicy) -> MitigationPolicy:
    """Validate and register a mitigation policy.

    Validation exercises both runtime forms — the enforcer builds and
    the spec survives a dict round-trip — so a broken policy fails at
    registration, not mid-fleet.
    """
    if not isinstance(spec, MitigationPolicy):
        raise TypeError(f"expected a MitigationPolicy, got {type(spec).__name__}")
    if MitigationPolicy.from_dict(spec.to_dict()) != spec:
        raise ValueError(f"mitigation {spec.name!r} does not round-trip to_dict/from_dict")
    spec.enforcer(seed=0)  # must build (or legitimately be None)
    return MITIGATION_REGISTRY.register(spec, tags=spec.tags)


def mitigation(name: str) -> MitigationPolicy:
    """Resolve a mitigation policy by registry name.

    Raises:
        repro.registry.UnknownNameError: (a ``KeyError``) for unknown
            names, with the known set and a closest-match suggestion.
    """
    return MITIGATION_REGISTRY.get(name)


def mitigation_names() -> List[str]:
    """All registered policy names, sorted."""
    return MITIGATION_REGISTRY.names()


#: How the public ``mitigation`` argument resolves: a name is a registry
#: lookup, ``None`` (or a policy that does nothing, like ``allow-all``) is
#: the undefended device.
MITIGATION_SPEC = SpecType(MitigationPolicy, mitigation)


# -- builtin policies -----------------------------------------------------

#: The undefended baseline: today's Android behaviour, as a named cell so
#: the threat × mitigation matrix has an explicit control column.
ALLOW_ALL = register_mitigation(
    MitigationPolicy(
        name="allow-all",
        description="no defense: stock Android counter access (the vulnerability)",
        tags=("baseline",),
    )
)

register_mitigation(
    MitigationPolicy(
        name="rbac",
        rbac=True,
        description="Section 9.2 SELinux ioctl whitelisting: unprivileged "
        "contexts get EACCES on counter get/read",
        tags=("paper", "access-control"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="local-only",
        local_only=True,
        description="finer-grained RBAC: unprivileged reads see only their "
        "own GPU activity (flat zero for the attack service)",
        tags=("paper", "access-control"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="rate-limit-30hz",
        rate_limit_hz=30.0,
        description="counter reads above 30 Hz are served a cached snapshot, "
        "collapsing the 125 Hz attack cadence ~4x",
        tags=("obfuscation", "sweep"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="quantize-4096",
        quantize_step=4096,
        description="returned values floored to 4096-unit steps, erasing "
        "sub-step deltas",
        tags=("obfuscation", "sweep"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="obfuscate-mild",
        noise_strength=0.5,
        description="Section 9.3 driver value obfuscation, low duty cycle "
        "(mean step 1000/read)",
        tags=("paper", "obfuscation", "sweep"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="obfuscate-strong",
        noise_strength=3.0,
        description="Section 9.3 driver value obfuscation, high duty cycle "
        "(mean step 6000/read)",
        tags=("paper", "obfuscation", "sweep"),
    )
)

register_mitigation(
    MitigationPolicy(
        name="popup-disable",
        disable_popups=True,
        description="Section 9.1 keyboard setting: key-press popups are not "
        "rendered (length still leaks via the field signal)",
        tags=("paper", "ux"),
    )
)

register_mitigation(
    compose(
        mitigation("popup-disable"),
        mitigation("quantize-4096"),
        mitigation("rate-limit-30hz"),
        name="defense-in-depth",
    )
)
