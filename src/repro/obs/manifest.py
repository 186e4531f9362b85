"""Run manifests: one JSON document per run, config + metrics + spans.

A :class:`RunManifest` is the exportable record of everything one run
measured about itself: the resolved configuration it ran under, every
counter/gauge/histogram in the registry, and the span rollups.  The CLI
writes one via ``--metrics-out``, the :mod:`repro.api` facades return
one alongside their results, and the benchmarks drop ``BENCH_*.json``
manifests next to their output so the performance trajectory of the
repo is recorded run over run.

The schema is deliberately flat and stable (see
``docs/observability.md``)::

    {
      "schema": "repro.obs/1",
      "meta":    {...free-form strings/numbers...},
      "config":  {...AttackConfig.to_dict() or any mapping...},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "spans":   {"path": {"count": n, "total_s": s, ...}, ...}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

#: Manifest schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.obs/1"


@dataclass
class RunManifest:
    """Serializable observability record of one run."""

    config: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_registry(
        cls, registry, config: Optional[Mapping[str, object]] = None, **meta: object
    ) -> "RunManifest":
        """Snapshot a :class:`~repro.obs.registry.MetricsRegistry`.

        ``config`` is any JSON-ready mapping (typically
        ``AttackConfig.to_dict()``); keyword arguments become free-form
        ``meta`` entries (command name, batch size, bench id...).
        """
        snapshot = registry.snapshot()
        return cls(
            config=dict(config) if config is not None else {},
            metrics={
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
                "histograms": snapshot["histograms"],
            },
            spans=snapshot["spans"],
            meta=dict(meta),
        )

    @classmethod
    def merge(
        cls,
        manifests: "Sequence[RunManifest]",
        **meta: object,
    ) -> "RunManifest":
        """Recombine per-shard manifests into one run-level manifest.

        Uses the same rules as
        :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`:
        counters sum (colliding names add), gauges are last-wins,
        histograms add bucket-wise (layout mismatches raise), spans add
        counts/totals and keep the max.  ``config`` is the first
        manifest's; ``meta`` defaults to the first manifest's when not
        given.
        """
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        for manifest in manifests:
            registry.merge_snapshot(
                {
                    "counters": manifest.counters,
                    "gauges": manifest.gauges,
                    "histograms": manifest.histograms,
                    "spans": manifest.spans,
                }
            )
        config = manifests[0].config if manifests else None
        if not meta and manifests:
            meta = dict(manifests[0].meta)  # type: ignore[assignment]
        return cls.from_registry(registry, config=config, **meta)

    # -- convenience accessors ------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        return self.metrics.get("counters", {})  # type: ignore[return-value]

    @property
    def gauges(self) -> Dict[str, float]:
        return self.metrics.get("gauges", {})  # type: ignore[return-value]

    @property
    def histograms(self) -> Dict[str, Dict[str, object]]:
        return self.metrics.get("histograms", {})  # type: ignore[return-value]

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "config": self.config,
            "metrics": self.metrics,
            "spans": self.spans,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported manifest schema {data.get('schema')!r}")
        return cls(
            config=dict(data.get("config") or {}),  # type: ignore[arg-type]
            metrics=dict(data.get("metrics") or {}),  # type: ignore[arg-type]
            spans=dict(data.get("spans") or {}),  # type: ignore[arg-type]
            meta=dict(data.get("meta") or {}),  # type: ignore[arg-type]
        )

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
