"""Target applications and their login screens.

The paper's threat model (Section 3.1) targets credential entry in banking,
investment and credit-report apps — plus their web pages in Chrome.  What
matters to the side channel is only the login screen's *geometry*: where
the input field sits, how much decorative chrome the screen draws, and
whether anything animates while the user types (animation is the
obfuscation defence of Section 9.3, exemplified by the PNC app).

Like :mod:`repro.android.keyboard`, this module is a registry *producer*:
the paper's apps are registered into :data:`APP_REGISTRY` at import time
and :func:`app` resolves names through it, so new targets registered via
:func:`register_app` (from any module) become addressable by the CLI and
the scenario registry.  :data:`TARGET_APPS` stays a snapshot of the
paper's evaluation set; ``APP_REGISTRY.tagged("native")`` lists its
native apps in Fig 19 order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.android.display import Display
from repro.android.geometry import Rect
from repro.registry import Registry


@dataclass(frozen=True)
class AnimationSpec:
    """A decorative animation running on the login screen.

    The PNC mobile banking app's animated login page floods the overdraw
    counters and drops the attack to ~30 % accuracy (Section 9.3).

    Attributes:
        area_fraction: animated region size relative to the screen.
        frame_interval_s: how often the animation damages the screen.
        primitives: triangle count re-drawn each animation frame.
        intensity: ink coverage of the animated region.
    """

    area_fraction: float
    frame_interval_s: float
    primitives: int
    intensity: float


@dataclass(frozen=True)
class AppSpec:
    """One target application's login screen.

    Attributes:
        name: short identifier used in experiment tables.
        display_name: product name as in the paper's Fig 19.
        category: banking / investment / credit / web / editor.
        decor_widgets: count of decorative quads (logo, buttons, banners).
        decor_area_fraction: total screen fraction the decor covers.
        field_top_fraction: vertical position of the credential field.
        field_height_fraction: height of the credential field.
        masks_password: whether the field echoes bullets instead of glyphs.
        is_web: rendered inside Chrome (adds browser chrome to the scene).
        animation: decorative login animation, if any.
    """

    name: str
    display_name: str
    category: str
    decor_widgets: int
    decor_area_fraction: float
    field_top_fraction: float
    field_height_fraction: float = 0.055
    masks_password: bool = True
    is_web: bool = False
    animation: Optional[AnimationSpec] = None

    def field_rect(self, display: Display) -> Rect:
        """Pixel rectangle of the credential input field."""
        screen = display.resolution
        top = int(screen.height * self.field_top_fraction)
        height = int(screen.height * self.field_height_fraction)
        left = int(screen.width * 0.08)
        right = int(screen.width * 0.92)
        return Rect(left, top, right, top + height)


#: The app registry: the source of truth for name → spec lookup.
APP_REGISTRY: Registry[AppSpec] = Registry("app")


def register_app(spec: AppSpec, tags: Tuple[str, ...] = ()) -> AppSpec:
    """Register a target app so :func:`app` (and the CLI, the scenario
    registry, …) can resolve it by name."""
    return APP_REGISTRY.register(spec, tags=tags)


_CHASE = register_app(
    AppSpec(
        name="chase",
        display_name="Chase",
        category="banking",
        decor_widgets=7,
        decor_area_fraction=0.30,
        field_top_fraction=0.330,
    ),
    tags=("paper", "native"),
)

_AMEX = register_app(
    AppSpec(
        name="amex",
        display_name="Amex",
        category="banking",
        decor_widgets=6,
        decor_area_fraction=0.26,
        field_top_fraction=0.305,
    ),
    tags=("paper", "native"),
)

_FIDELITY = register_app(
    AppSpec(
        name="fidelity",
        display_name="Fidelity",
        category="investment",
        decor_widgets=8,
        decor_area_fraction=0.33,
        field_top_fraction=0.355,
    ),
    tags=("paper", "native"),
)

_SCHWAB = register_app(
    AppSpec(
        name="schwab",
        display_name="Schwab",
        category="investment",
        decor_widgets=5,
        decor_area_fraction=0.24,
        field_top_fraction=0.290,
    ),
    tags=("paper", "native"),
)

_MYFICO = register_app(
    AppSpec(
        name="myfico",
        display_name="myFICO",
        category="credit",
        decor_widgets=6,
        decor_area_fraction=0.28,
        field_top_fraction=0.340,
    ),
    tags=("paper", "native"),
)

_EXPERIAN = register_app(
    AppSpec(
        name="experian",
        display_name="Experian",
        category="credit",
        decor_widgets=7,
        decor_area_fraction=0.31,
        field_top_fraction=0.320,
    ),
    tags=("paper", "native"),
)

_CHASE_WEB = register_app(
    AppSpec(
        name="chase.com",
        display_name="chase.com",
        category="web",
        decor_widgets=10,
        decor_area_fraction=0.38,
        field_top_fraction=0.390,
        is_web=True,
    ),
    tags=("paper", "web"),
)

_SCHWAB_WEB = register_app(
    AppSpec(
        name="schwab.com",
        display_name="schwab.com",
        category="web",
        decor_widgets=9,
        decor_area_fraction=0.35,
        field_top_fraction=0.370,
        is_web=True,
    ),
    tags=("paper", "web"),
)

_EXPERIAN_WEB = register_app(
    AppSpec(
        name="experian.com",
        display_name="experian.com",
        category="web",
        decor_widgets=11,
        decor_area_fraction=0.40,
        field_top_fraction=0.405,
        is_web=True,
    ),
    tags=("paper", "web"),
)

# PNC's login page animation, the natural obfuscation of Section 9.3.
_PNC = register_app(
    AppSpec(
        name="pnc",
        display_name="PNC Mobile",
        category="banking",
        decor_widgets=8,
        decor_area_fraction=0.34,
        field_top_fraction=0.345,
        animation=AnimationSpec(
            area_fraction=0.22,
            frame_interval_s=1.0 / 30.0,
            primitives=46,
            intensity=0.6,
        ),
    ),
    tags=("paper", "animated"),
)

#: Apps of the paper's Fig 19 in display order, plus PNC for Section 9.3.
#: A historical snapshot: lookups go through :data:`APP_REGISTRY`.
TARGET_APPS: Dict[str, AppSpec] = {
    app.name: app
    for app in (
        _CHASE,
        _AMEX,
        _FIDELITY,
        _SCHWAB,
        _MYFICO,
        _EXPERIAN,
        _CHASE_WEB,
        _SCHWAB_WEB,
        _EXPERIAN_WEB,
        _PNC,
    )
}

def app(name: str) -> AppSpec:
    """Resolve a target app by registry name.

    Raises:
        repro.registry.UnknownNameError: (a ``KeyError``) for unknown
            names, with the known set and a closest-match suggestion.
    """
    return APP_REGISTRY.get(name)
