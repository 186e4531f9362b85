"""Generic named-spec registries: the one lookup path for every axis.

Keyboards, target apps, phone models and attack scenarios all used to be
module-level dicts with hand-rolled ``KeyError`` strings.  This module
gives them one shared mechanism:

* :class:`Registry` — an insertion-ordered, name-keyed table of frozen
  spec objects with idempotent registration, tag queries, and
  deterministic listing (``names()`` is always sorted, so registration
  order never changes lookup results);
* :class:`UnknownNameError` — the single error type every lookup helper
  raises, with a consistent message and a closest-match ("did you
  mean") suggestion;
* :class:`SpecType` — the one resolver for public arguments that take
  a name, a spec instance or ``None`` (fault plans, mitigations, drift
  plans, calibration policies; fault plans also take ``"auto"``).

Producers (``repro.android.keyboard``, ``repro.android.apps``,
``repro.android.os_config``, ``repro.scenarios``) instantiate one
registry each and register their specs at import time; consumers resolve
names through the producer's lookup function (``keyboard()``, ``app()``,
``phone()``, ``scenario()``) and never index the legacy dicts directly.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


class UnknownNameError(KeyError):
    """An unknown name was looked up in a :class:`Registry`.

    Subclasses :class:`KeyError` so pre-registry callers that caught
    ``KeyError`` keep working, but carries a consistent message and an
    optional closest-match suggestion.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        known: List[str],
        suggestion: Optional[str] = None,
    ) -> None:
        message = f"unknown {kind} {name!r}; known: {sorted(known)}"
        if suggestion is not None:
            message += f" — did you mean {suggestion!r}?"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.suggestion = suggestion

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class Registry(Generic[T]):
    """A name-keyed table of spec objects.

    Specs are expected to be frozen (hashable, equality-comparable)
    dataclasses with a ``name`` attribute.  Registration is strict: a
    second spec under an existing name raises unless it is *equal* to
    the first (idempotent re-import).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._specs: Dict[str, T] = {}
        self._tags: Dict[str, Tuple[str, ...]] = {}

    # -- registration ---------------------------------------------------

    def register(self, spec: T, tags: Tuple[str, ...] = ()) -> T:
        """Add ``spec`` under its name; returns the registered spec."""
        name = spec.name
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} spec has no usable name: {spec!r}")
        existing = self._specs.get(name)
        if existing is not None:
            if existing == spec:
                return existing  # idempotent re-registration
            raise ValueError(
                f"{self.kind} {name!r} is already registered with a "
                f"different spec"
            )
        self._specs[name] = spec
        self._tags[name] = tuple(tags)
        return spec

    # -- lookup ---------------------------------------------------------

    def get(self, name: str) -> T:
        """The spec registered under ``name``.

        Raises:
            UnknownNameError: with the known names and a closest-match
                suggestion when one is plausible.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownNameError(
                self.kind, name, list(self._specs), self.suggest(name)
            ) from None

    def suggest(self, name: str) -> Optional[str]:
        """The closest registered name, if any is plausibly intended."""
        if not isinstance(name, str):
            return None
        matches = difflib.get_close_matches(name, list(self._specs), n=1, cutoff=0.6)
        return matches[0] if matches else None

    def names(self) -> List[str]:
        """All registered names, sorted — independent of registration order."""
        return sorted(self._specs)

    def tagged(self, tag: str) -> Tuple[T, ...]:
        """Specs carrying ``tag``, in registration order."""
        return tuple(
            self._specs[name] for name, tags in self._tags.items() if tag in tags
        )

    # -- container protocol --------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def items(self) -> List[Tuple[str, T]]:
        return [(name, self._specs[name]) for name in self.names()]

    def values(self) -> List[T]:
        return [self._specs[name] for name in self.names()]

    def as_dict(self) -> Dict[str, T]:
        """A plain-dict snapshot (sorted by name)."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {len(self)} entries)"


def spec_to_dict(spec) -> Dict[str, object]:
    """A frozen spec's fields as a plain dict, in declaration order."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def spec_from_dict(cls: type, data: Mapping[str, object]):
    """Build a ``cls`` spec from ``data``, failing on any key that names
    no field of it."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class SpecType:
    """How a frozen, serializable spec class is named in public arguments.

    ``cls`` provides ``enabled``, ``to_dict`` and ``from_dict``;
    ``lookup`` maps a name to an instance; ``env``, when set, names the
    environment variable ``"auto"`` reads (only the fault spec has one;
    elsewhere ``"auto"`` is an unknown name like any other).
    """

    cls: type
    lookup: Callable[[str], object]
    env: Optional[str] = None

    def resolve(self, value):
        """``"auto"`` → the name in ``env`` (unset or empty: ``None``);
        a name → ``lookup(name)``; an instance → itself; ``None`` →
        ``None``.  A spec that cannot do anything resolves to ``None``,
        so callers treat "no spec" and "an all-off spec" alike."""
        if isinstance(value, str):
            if value == "auto" and self.env is not None:
                value = os.environ.get(self.env, "").strip().lower()
                if not value:
                    return None
            value = self.lookup(value)
        if value is None or not value.enabled:
            return None
        return value

    def validate(self, value) -> None:
        """Fail on a mistyped name now rather than mid-run."""
        if isinstance(value, str) and not (value == "auto" and self.env is not None):
            self.lookup(value)

    def to_json(self, value):
        return value.to_dict() if isinstance(value, self.cls) else value

    def from_json(self, value):
        return self.cls.from_dict(value) if isinstance(value, Mapping) else value
