"""Per-device signature recalibration from streamed suspect signals.

The masked-centroid path already flags keys classified with partial
feature vectors (``EngineStats.low_confidence_keys``), and drift has a
second, louder symptom: key presses whose magnitudes the frozen model
can no longer explain classify as *noise* (``noise_events`` explodes
while ``keys_inferred`` starves).  The :class:`CalibrationService`
consumes both signals per device, and once a :class:`CalibrationPolicy`
threshold trips it re-fits the device's signature from the evidence
vectors the engine retained (:attr:`OnlineEngine.evidence`).

The re-fit is self-supervised — no ground-truth labels exist online.
It exploits the structure of the drift itself: thermal throttling and
geometry shifts are (per-counter) *multiplicative*, so a drifted key
press keeps (approximately) its centroid's direction while its
per-dimension magnitudes scale.  :func:`estimate_refit` matches
each evidence vector to its nearest key centroid by cosine, takes the
per-dimension median of the observed/centroid ratios over the matched
set, and the service rescales centroids *and* normalization scale by
that ratio — which reproduces the original model's normalized geometry
exactly under uniform scaling (``(v - r·c) / (r·s) = (v/r - c) / s``).

Recalibrated models are written into a
:class:`~repro.core.model_store.VersionedModelStore` (when one is
attached) with full lineage metadata, and hot-swapped into the running
engine by the caller — see :mod:`repro.lifecycle.runner`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import ClassificationModel
from repro.core.model_store import ModelStore, VersionedModelStore
from repro.obs import MetricsRegistry, resolve_registry
from repro.registry import SpecType, spec_from_dict, spec_to_dict

#: Ratio estimates are clipped into this band: a dimension whose
#: centroid coordinate is ~0 carries no ratio information, and one
#: corrupted read must not swing a centroid by orders of magnitude.
RATIO_CLIP = (0.05, 20.0)

#: A re-fit may raise the acceptance threshold at most this much over
#: the model it replaces (quantization headroom, not a blank check).
CTH_INFLATION_CAP = 2.0

#: Cosine gate for matching an evidence vector to a key centroid.
MATCH_COSINE = 0.8


@dataclass(frozen=True)
class CalibrationPolicy:
    """When to re-fit a device's signature, and how much evidence to ask.

    Frozen and serializable, like every other plan in the pipeline, so
    it ships to worker processes inside ``AttackConfig``.
    """

    #: Re-fit once this many low-confidence keys accumulate since the
    #: last calibration (the masked-centroid signal).
    low_confidence_threshold: int = 3
    #: ... or once unexplained deltas exceed this fraction of all deltas
    #: seen in the window (the drift signal: presses classifying as
    #: noise).
    suspect_ratio: float = 0.35
    #: Deltas observed before the suspect ratio is trusted at all.
    min_observations: int = 12
    #: Evidence vectors required before a re-fit is attempted.
    min_evidence: int = 6
    #: Upper bound on re-fits per device (0 disables recalibration).
    max_refits: int = 8
    #: Informational profile name ("" for hand-built policies).
    profile: str = ""

    def __post_init__(self) -> None:
        if self.low_confidence_threshold < 1:
            raise ValueError("low_confidence_threshold must be >= 1")
        if not 0.0 < self.suspect_ratio <= 1.0:
            raise ValueError("suspect_ratio must be in (0, 1]")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.min_evidence < 1:
            raise ValueError("min_evidence must be >= 1")
        if self.max_refits < 0:
            raise ValueError("max_refits must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.max_refits > 0

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CalibrationPolicy":
        return spec_from_dict(cls, data)

    @classmethod
    def from_profile(cls, name: str) -> "CalibrationPolicy":
        try:
            return CALIBRATION_PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown calibration profile {name!r}; "
                f"available: {sorted(CALIBRATION_PROFILES)}"
            ) from None


#: Named calibration profiles.
CALIBRATION_PROFILES: Dict[str, CalibrationPolicy] = {
    "off": CalibrationPolicy(max_refits=0, profile="off"),
    "default": CalibrationPolicy(profile="default"),
    # trips faster, asks for less evidence: for short sessions
    "eager": CalibrationPolicy(
        low_confidence_threshold=2,
        suspect_ratio=0.25,
        min_observations=8,
        min_evidence=4,
        profile="eager",
    ),
    # waits for overwhelming evidence: for fleets that fear bad swaps
    "conservative": CalibrationPolicy(
        low_confidence_threshold=6,
        suspect_ratio=0.6,
        min_observations=24,
        min_evidence=12,
        max_refits=2,
        profile="conservative",
    ),
}


#: How the public ``calibration`` argument resolves: a name selects a
#: profile, ``None`` (or a policy that cannot re-fit, like ``"off"``)
#: keeps models frozen.
CALIBRATION_SPEC = SpecType(CalibrationPolicy, CalibrationPolicy.from_profile)


def estimate_refit(
    model: ClassificationModel,
    evidence: Sequence[np.ndarray],
) -> Optional[Tuple[np.ndarray, float]]:
    """Drift ratio *and* acceptance threshold for a re-fit of ``model``.

    Each evidence vector is matched to the nearest centroid — *any*
    label: drift is physical, so key presses, popup dismissals, and
    field redraws all scale by the same per-counter factors, and every
    matched pair estimates the same ratio.  Vectors below
    :data:`MATCH_COSINE` against everything the model knows (app switches,
    genuine noise) are discarded.  For the matched set, the
    per-dimension ratio ``observed / centroid`` is taken where the
    centroid coordinate is meaningfully nonzero, and the median over
    vectors is returned (robust to the odd mismatched pair).  Returns
    ``None`` when nothing matches.

    The second element is the re-fit acceptance threshold: drift also
    moves the *noise floor* — a throttled GPU serves smaller increments,
    so per-read integer quantization is relatively larger against the
    rescaled signatures — and a re-fit that keeps the trained ``cth``
    silently drops borderline presses.  The threshold is re-estimated
    from the matched evidence's own residual distances under the
    rescaled model (90th percentile with headroom), never below the
    current ``cth`` and never above :data:`CTH_INFLATION_CAP` times it.
    """
    if not len(evidence):
        return None
    centroids = model.centroids
    scaled_c = centroids / model.scale
    c_norms = np.linalg.norm(scaled_c, axis=1)
    usable = c_norms > 0
    if not usable.any():
        return None
    matrix = np.vstack([np.asarray(vec, dtype=float) for vec in evidence])
    scaled_v = matrix / model.scale
    v_norms = np.linalg.norm(scaled_v, axis=1)
    keep = v_norms > 0
    if not keep.any():
        return None
    cosines = (scaled_v[keep] @ scaled_c[usable].T) / (
        v_norms[keep][:, None] * c_norms[usable][None, :]
    )
    best = np.argmax(cosines, axis=1)
    matched = cosines[np.arange(len(best)), best] >= MATCH_COSINE
    if not matched.any():
        return None
    obs = matrix[keep][matched]
    ref = centroids[usable][best[matched]]
    # the drift's dominant component is a shared scalar (thermal): the
    # least-squares scalar fit of each pair anchors dimensions whose own
    # ratio is unreliable (small centroid coordinates, counts rounded to
    # zero) instead of silently pinning them to 1.0
    pair_scaled_v = scaled_v[keep][matched]
    pair_scaled_c = scaled_c[usable][best[matched]]
    denom = np.einsum("ij,ij->i", pair_scaled_c, pair_scaled_c)
    scalars = np.einsum("ij,ij->i", pair_scaled_v, pair_scaled_c) / denom
    global_ratio = float(np.median(scalars))
    # reject scalar outliers before the per-dimension fit: a render split
    # leaves *half*-magnitude evidence vectors whose direction still
    # matches perfectly, and they would drag every estimate low
    inliers = np.abs(scalars - global_ratio) <= 0.25 * abs(global_ratio)
    if inliers.sum() >= 3:
        obs = obs[inliers]
        ref = ref[inliers]
        global_ratio = float(np.median(scalars[inliers]))
    # a dimension only yields its own ratio where the centroid is
    # meaningfully nonzero; tiny coordinates divide noise by noise
    floor = 0.2 * np.abs(ref).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(np.abs(ref) > np.maximum(floor, 1e-9), obs / ref, np.nan)
    with warnings.catch_warnings():
        # a dimension with no usable pair is an all-NaN column; the
        # global scalar fills it below, so the nanmedian warning is moot
        warnings.simplefilter("ignore", RuntimeWarning)
        ratio = np.nanmedian(ratios, axis=0)
    ratio = np.where(np.isfinite(ratio), ratio, global_ratio)
    ratio = np.clip(ratio, RATIO_CLIP[0], RATIO_CLIP[1])
    # residual acceptance threshold: (v - r·c) / (r·s) == (v/r - c) / s
    residual = (obs / ratio[None, :] - ref) / model.scale[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", residual, residual))
    cth = 1.15 * float(np.percentile(dists, 90))
    cth = min(max(model.cth, cth), CTH_INFLATION_CAP * model.cth)
    return ratio, cth


def rescale_model(
    model: ClassificationModel,
    ratio: np.ndarray,
    cth: Optional[float] = None,
    lineage: Optional[Dict[str, object]] = None,
) -> ClassificationModel:
    """The recalibrated model: centroids *and* normalization scale are
    multiplied per-dimension by ``ratio``, preserving the trained
    normalized geometry exactly under uniform drift; ``cth`` optionally
    replaces the acceptance threshold (see :func:`estimate_refit`)."""
    metadata = dict(model.metadata)
    record = {
        "ratio": [round(float(r), 4) for r in ratio],
        "generation": int(metadata.get("recalibration", {}).get("generation", 0)) + 1,
    }
    if cth is not None:
        record["cth"] = round(float(cth), 4)
    if lineage:
        record.update(lineage)
    metadata["recalibration"] = record
    return ClassificationModel(
        labels=model.labels,
        centroids=model.centroids * ratio[None, :],
        scale=model.scale * ratio,
        cth=model.cth if cth is None else cth,
        model_key=model.model_key,
        metadata=metadata,
    )


@dataclass
class DeviceWindow:
    """Per-device suspect-signal accumulation since the last re-fit."""

    deltas_seen: int = 0
    noise_events: int = 0
    low_confidence_keys: int = 0
    keys_inferred: int = 0
    #: the window's evidence vectors, kept while a re-fit can still use
    #: them (see :meth:`CalibrationService.observe`)
    evidence: List[np.ndarray] = field(default_factory=list)
    #: how many evidence vectors the window has seen, kept or not
    evidence_seen: int = 0
    refits: int = 0
    observations: int = 0

    @property
    def suspect_fraction(self) -> float:
        """Fraction of the window's deltas that were *unexplained*.

        Only evidence vectors (deltas no centroid could explain) count —
        reject-class noise like popup dismissals is a large fraction of
        a perfectly healthy stream and must not look like drift.
        """
        if not self.deltas_seen:
            return 0.0
        return (self.evidence_seen + self.low_confidence_keys) / self.deltas_seen

    def reset_window(self) -> None:
        self.deltas_seen = 0
        self.noise_events = 0
        self.low_confidence_keys = 0
        self.keys_inferred = 0
        self.evidence = []
        self.evidence_seen = 0


class CalibrationService:
    """Streaming per-device recalibration decisions and re-fits.

    One service instance watches any number of devices.  Callers feed it
    engine statistics (full :class:`~repro.core.online.EngineStats` or
    per-segment deltas thereof) plus drained evidence vectors via
    :meth:`observe`; :meth:`should_recalibrate` applies the policy; and
    :meth:`recalibrate` produces the re-fit model, records lineage, and
    (when a :class:`VersionedModelStore` is attached) persists it as the
    next version.  All decisions land in ``calibration.*`` counters when
    a metrics registry is attached.
    """

    def __init__(
        self,
        policy: Optional[CalibrationPolicy] = None,
        store: Optional[VersionedModelStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.policy = policy if policy is not None else CalibrationPolicy()
        self.store = store
        self.metrics = resolve_registry(metrics)
        self._windows: Dict[str, DeviceWindow] = {}
        #: First model seen per device: every re-fit is estimated against
        #: this base, so successive generations never compound the noise
        #: of their predecessors' estimates.
        self._base: Dict[str, ClassificationModel] = {}

    def window(self, device_id: str) -> DeviceWindow:
        window = self._windows.get(device_id)
        if window is None:
            window = self._windows[device_id] = DeviceWindow()
        return window

    @property
    def devices(self) -> List[str]:
        return sorted(self._windows)

    # ------------------------------------------------------------------

    def observe(
        self,
        device_id: str,
        stats,
        evidence: Sequence[np.ndarray] = (),
    ) -> DeviceWindow:
        """Fold one observation window's engine stats + evidence in.

        Evidence vectors are counted always but kept only while the
        device can still be re-fit: once the device's refits reach
        ``max_refits`` (at once when the policy is off, ``max_refits ==
        0``), nothing would ever read them, and a long-lived service must
        not grow without bound.
        """
        window = self.window(device_id)
        window.observations += 1
        window.deltas_seen += int(getattr(stats, "deltas_seen", 0))
        window.noise_events += int(getattr(stats, "noise_events", 0))
        window.low_confidence_keys += int(getattr(stats, "low_confidence_keys", 0))
        window.keys_inferred += int(getattr(stats, "keys_inferred", 0))
        window.evidence_seen += len(evidence)
        if window.refits < self.policy.max_refits:
            window.evidence.extend(np.asarray(vec, dtype=float) for vec in evidence)
        if self.metrics.enabled:
            self.metrics.counter("calibration.observations").inc()
            if getattr(stats, "low_confidence_keys", 0):
                self.metrics.counter("calibration.low_confidence_keys").inc(
                    int(stats.low_confidence_keys)
                )
            if len(evidence):
                self.metrics.counter("calibration.evidence_collected").inc(
                    len(evidence)
                )
        return window

    def should_recalibrate(self, device_id: str) -> bool:
        """Whether the policy threshold has tripped for this device."""
        policy = self.policy
        if not policy.enabled:
            return False
        window = self.window(device_id)
        if window.refits >= policy.max_refits:
            return False
        if window.evidence_seen < policy.min_evidence:
            return False
        if window.low_confidence_keys >= policy.low_confidence_threshold:
            return True
        return (
            window.deltas_seen >= policy.min_observations
            and window.suspect_fraction >= policy.suspect_ratio
        )

    def recalibrate(
        self, device_id: str, model: ClassificationModel
    ) -> Optional[ClassificationModel]:
        """Re-fit ``model`` for this device from the accumulated evidence.

        Returns the recalibrated model (also persisted as the next store
        version when a versioned store is attached), or ``None`` when
        the evidence doesn't match key signatures well enough to trust a
        re-fit.  The device's suspect window resets either way — the
        evidence has been consumed.
        """
        window = self.window(device_id)
        if self.metrics.enabled:
            self.metrics.counter("calibration.triggers").inc()
        # estimate against the device's *base* model, not the current
        # generation: evidence vectors are raw observations, and fitting
        # base × fresh_ratio every time keeps estimation noise from
        # compounding across generations
        base = self._base.setdefault(device_id, model)
        refit_estimate = estimate_refit(base, window.evidence)
        evidence_used = len(window.evidence)
        lineage: Dict[str, object] = {
            "device_id": device_id,
            "evidence": evidence_used,
            "low_confidence_keys": window.low_confidence_keys,
            "noise_events": window.noise_events,
            "suspect_fraction": round(window.suspect_fraction, 4),
        }
        window.reset_window()
        if refit_estimate is None:
            if self.metrics.enabled:
                self.metrics.counter("calibration.refits_rejected").inc()
            return None
        ratio, cth = refit_estimate
        window.refits += 1
        lineage["generation"] = window.refits
        refit = rescale_model(base, ratio, cth=cth, lineage=lineage)
        if self.store is not None:
            snapshot = ModelStore()
            snapshot.add(refit)
            lineage = dict(lineage)
            lineage["parent_version"] = self.store.latest_version() or 0
            version = self.store.save(snapshot, lineage=lineage)
            lineage["version"] = version
        if self.metrics.enabled:
            self.metrics.counter("calibration.refits").inc()
            self.metrics.counter("calibration.evidence_used").inc(evidence_used)
        return refit
