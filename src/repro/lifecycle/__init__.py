"""Online signature lifecycle: drift, recalibration, hot model swap.

Production inference means models that age.  This package gives the
attack (and the fleet behind it) a model lifecycle:

* :mod:`repro.lifecycle.drift` — seeded, serializable :class:`DriftPlan`s
  injected at the KGSL boundary next to ``repro.faults``: thermal
  throttling scales counter magnitudes (ramp or step), app updates shift
  popup geometry per counter.  ``drift=None`` installs no hook and is
  byte-identical to a build without this package.
* :mod:`repro.lifecycle.calibration` — a :class:`CalibrationService`
  consuming the suspect signals the engine already produces
  (``EngineStats.low_confidence_keys``, unexplained-noise explosions)
  and re-fitting per-device signatures once a threshold trips.
* :mod:`repro.lifecycle.runner` — the headline demonstration:
  :func:`run_lifecycle` streams repeated entries as one runtime session
  through the attack stage's engine while drift degrades accuracy,
  recalibration triggers at a segment boundary, and a hot model swap
  (a primed batch re-scores its remaining rows) restores it — without
  restarting the session.

The versioned, checksummed model store the service writes into lives in
:mod:`repro.core.model_store` (:class:`VersionedModelStore`).  The
handbook is ``docs/lifecycle.md``.
"""

from repro.lifecycle.calibration import (
    CALIBRATION_PROFILES,
    CALIBRATION_SPEC,
    CalibrationPolicy,
    CalibrationService,
)
from repro.lifecycle.drift import DRIFT_PROFILES, DRIFT_SPEC, DriftPlan
from repro.lifecycle.runner import run_lifecycle

__all__ = [
    "DRIFT_PROFILES",
    "DRIFT_SPEC",
    "DriftPlan",
    "CALIBRATION_PROFILES",
    "CALIBRATION_SPEC",
    "CalibrationPolicy",
    "CalibrationService",
    "run_lifecycle",
]
