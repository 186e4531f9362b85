"""First-class attack scenarios: named cells of the keyboard × app ×
workload matrix (see docs/scenarios.md).

Importing this package registers the paper's builtin matrix
(:mod:`repro.scenarios.builtin`), the PIN-pad extension
(:mod:`repro.scenarios.pinpad`), and any plugins named via the
``repro.scenarios`` entry-point group or ``REPRO_SCENARIO_MODULES``.
"""

from repro.scenarios.spec import (
    SCENARIO_REGISTRY,
    Scenario,
    discover,
    register_scenario,
    scenario,
    scenario_names,
)

# Populate the registry: the paper matrix, the PIN-pad extension, then
# external plugins (entry points / environment).
from repro.scenarios import builtin as _builtin  # noqa: F401  (side effect)
from repro.scenarios import pinpad as _pinpad  # noqa: F401  (side effect)

discover()

__all__ = [
    "SCENARIO_REGISTRY",
    "Scenario",
    "register_scenario",
    "scenario",
    "scenario_names",
]
