"""The :class:`Scenario` spec and its registry.

A scenario is one cell of the attack matrix: *which keyboard* the victim
types on, *which app* they log into, on *which phone*, at *which typing
speed*, under *which fault profile*, over *which character set*.  The
paper's Table 2 evaluates 6 keyboards × 6 native login apps; PRs 4–5
built fleet machinery that could only ever re-run those same cells
because the matrix lived in hard-coded dicts.  This module makes the
cell itself a first-class, named, serializable object:

* :class:`Scenario` — a frozen spec naming its axes by registry string
  (``keyboard="gboard"``), resolved lazily through the keyboard / app /
  phone registries so registration order between producer modules never
  matters;
* :data:`SCENARIO_REGISTRY` — string-addressable lookup shared by the
  CLI (``repro scenarios``, ``--scenario``), the facade
  (:class:`repro.api.AttackConfig`'s ``scenario=`` field) and the
  workloads;
* :func:`register_scenario` — validating registration, usable from any
  module (see :mod:`repro.scenarios.pinpad` for an extension registered
  entirely outside the core tables);
* :func:`discover` — plugin-style discovery via the
  ``repro.scenarios`` entry-point group and the
  ``REPRO_SCENARIO_MODULES`` environment variable.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.registry import Registry, spec_from_dict, spec_to_dict

#: The paper's Section 7.2 typing-speed tiers (``None`` = unconstrained).
SPEED_TIERS: Tuple[str, ...] = ("fast", "medium", "slow")

#: Environment variable naming extra scenario modules to import during
#: :func:`discover` (comma- or colon-separated dotted module paths).
SCENARIO_MODULES_ENV = "REPRO_SCENARIO_MODULES"

#: Entry-point group scanned by :func:`discover`.
ENTRY_POINT_GROUP = "repro.scenarios"


@dataclass(frozen=True)
class Scenario:
    """One named attack scenario.

    Axes are stored as registry *names*, not resolved spec objects, so a
    scenario serializes to a flat dict, survives pickling into worker
    processes, and never goes stale when a producer re-registers a spec.

    Attributes:
        name: registry name of the scenario itself.
        keyboard: keyboard registry name (``repro.android.keyboard``).
        app: target-app registry name (``repro.android.apps``).
        phone: phone registry name (``repro.android.os_config``).
        speed_tier: optional Section 7.2 tier (fast / medium / slow)
            constraining the victim's inter-key intervals.
        fault_profile: named fault profile (``repro.faults.PROFILES``)
            the scenario runs under by default.
        locale: BCP-47-ish locale tag, informational for now.
        charset: optional explicit credential character pool; defaults
            to every trainable character on the keyboard's layout.
        description: one-line human description.
        tags: registry tags (``paper``, ``web``, ``extension``, …).
    """

    name: str
    keyboard: str
    app: str
    phone: str = "oneplus8pro"
    speed_tier: Optional[str] = None
    fault_profile: str = "none"
    locale: str = "en_US"
    charset: Optional[str] = None
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        if self.speed_tier is not None and self.speed_tier not in SPEED_TIERS:
            raise ValueError(
                f"unknown speed tier {self.speed_tier!r}; use one of {list(SPEED_TIERS)}"
            )
        if self.charset is not None and not self.charset:
            raise ValueError("charset must be None or a non-empty string")
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- axis resolution (lazy, via the producer registries) -------------

    def keyboard_spec(self):
        from repro.android.keyboard import keyboard

        return keyboard(self.keyboard)

    def app_spec(self):
        from repro.android.apps import app

        return app(self.app)

    def phone_spec(self):
        from repro.android.os_config import phone

        return phone(self.phone)

    def device_config(self):
        """The :class:`~repro.android.os_config.DeviceConfig` this
        scenario attacks (phone defaults: resolution, refresh, OS)."""
        from repro.android.os_config import DeviceConfig

        return DeviceConfig(phone=self.phone_spec(), keyboard=self.keyboard_spec())

    def fault_plan(self):
        """The scenario's default :class:`~repro.faults.FaultPlan`."""
        from repro.faults import FaultPlan

        return FaultPlan.from_profile(self.fault_profile)

    def credential_pool(self) -> str:
        """Characters credentials draw from: the explicit charset, or
        every trainable character on the keyboard's layout."""
        if self.charset is not None:
            return self.charset
        from repro.workloads.credentials import pool_for_keyboard

        return pool_for_keyboard(self.keyboard_spec())

    def interval_range(self, typing_model) -> Optional[Tuple[float, float]]:
        """The tier's inter-key interval clamp, or ``None`` when the
        scenario leaves typing speed unconstrained."""
        if self.speed_tier is None:
            return None
        return typing_model.speed_tier_range(self.speed_tier)

    def compile_scene(self):
        """Build one damage-clipped key-press scene for this scenario.

        The cheapest full-stack exercise of the cell: resolves every
        axis, lays out the keyboard on the phone's display, and renders
        the popup scene for the first pool character.  Used by the
        registration validator, the CI smoke job and the hypothesis
        property that every registered scenario compiles.
        """
        from repro.android.scenes import SceneBuilder, UiState

        builder = SceneBuilder(self.device_config())
        pool = self.credential_pool()
        char = pool[0]
        state = UiState(app=self.app_spec()).with_popup(char)
        return builder.damage_scene(state, builder.popup_damage(char))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out = spec_to_dict(self)
        out["tags"] = list(self.tags)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        return spec_from_dict(cls, data)


#: The scenario registry: the source of truth for name → scenario lookup.
SCENARIO_REGISTRY: Registry[Scenario] = Registry("scenario")


def register_scenario(spec: Scenario) -> Scenario:
    """Validate and register a scenario.

    Validation resolves every axis through its registry (so a typo'd
    keyboard name fails at registration, not mid-attack), checks the
    fault profile exists, and checks every explicit charset character
    has a key on the keyboard's layout.
    """
    from repro.android.display import Display
    from repro.android.keyboard import keyboard_layout
    from repro.faults import PROFILES

    keyboard_spec = spec.keyboard_spec()  # raises UnknownNameError on typos
    spec.app_spec()
    phone_spec = spec.phone_spec()
    if spec.fault_profile not in PROFILES:
        raise ValueError(
            f"scenario {spec.name!r}: unknown fault profile "
            f"{spec.fault_profile!r}; available: {sorted(PROFILES)}"
        )
    if spec.charset is not None:
        layout = keyboard_layout(keyboard_spec, Display(resolution=phone_spec.resolution))
        missing = sorted({c for c in spec.charset if not layout.has_key(c)})
        if missing:
            raise ValueError(
                f"scenario {spec.name!r}: charset characters {missing!r} "
                f"have no key on keyboard {spec.keyboard!r}"
            )
    return SCENARIO_REGISTRY.register(spec, tags=spec.tags)


def scenario(name: str) -> Scenario:
    """Resolve a scenario by registry name.

    Raises:
        repro.registry.UnknownNameError: (a ``KeyError``) for unknown
            names, with the known set and a closest-match suggestion.
    """
    return SCENARIO_REGISTRY.get(name)


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return SCENARIO_REGISTRY.names()


def discover() -> List[str]:
    """Import scenario plugins; returns the modules imported.

    Two discovery channels, both optional:

    * dotted module paths in the ``REPRO_SCENARIO_MODULES`` environment
      variable (comma- or colon-separated) — importing a module runs its
      ``register_scenario`` calls;
    * installed-package entry points in the ``repro.scenarios`` group.

    Import errors propagate: a broken plugin should fail loudly at
    discovery, not surface later as an unknown-name error.
    """
    imported: List[str] = []
    raw = os.environ.get(SCENARIO_MODULES_ENV, "")
    for chunk in raw.replace(",", ":").split(":"):
        module = chunk.strip()
        if module:
            importlib.import_module(module)
            imported.append(module)
    from importlib.metadata import entry_points

    try:
        eps = entry_points(group=ENTRY_POINT_GROUP)  # py3.10+
    except TypeError:  # pragma: no cover - py3.9 API
        eps = entry_points().get(ENTRY_POINT_GROUP, ())  # type: ignore[attr-defined]
    for ep in eps:
        ep.load()
        imported.append(ep.value)
    return imported
