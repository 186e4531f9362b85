"""Preloaded model store (paper Section 3.2 / Section 7.6) — versioned.

The attack APK ships one classification model per (device model,
configuration, target app).  The paper reports an average model size of
~3.59 KB and a worst-case app size of ~13.4 MB for 3,000 preloaded models.
The store serializes to a single JSON document so those numbers can be
reproduced directly.

Since the online signature lifecycle landed, stores are integrity
checked and versioned:

* :meth:`ModelStore.save` writes a checksummed envelope
  (``repro.model_store/2``): a SHA-256 over the canonical dump of the
  envelope covers the payload, version, and lineage, so any single-byte
  corruption or truncation of the file raises
  :class:`ModelIntegrityError` at load rather than silently
  misclassifying (hypothesis-tested).
* A document without the envelope's schema tag — including a bare
  ``{"models": [...]}`` dump — raises :class:`ModelIntegrityError`.
* :class:`VersionedModelStore` is the on-disk lineage the calibration
  service writes into: a directory of monotonically versioned,
  checksummed store files plus a manifest recording each version's
  checksum and lineage metadata (what was recalibrated, from what, why).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.core.classifier import ClassificationModel

#: Schema tag of the checksummed single-file envelope.
STORE_SCHEMA = "repro.model_store/2"

#: Schema tag of the versioned-directory manifest.
STORE_DIR_SCHEMA = "repro.model_store.dir/1"

_VERSION_FILE_RE = re.compile(r"^v(\d{5})\.json$")


class ModelIntegrityError(ValueError):
    """A stored model failed its integrity check at load time.

    Raised for checksum mismatches, truncated or unparseable files, and
    version/manifest disagreements.  Never classify with a model that
    raised this — a silently corrupted centroid misclassifies without
    any other symptom.
    """


def _canonical_bytes(document: Dict[str, object]) -> bytes:
    """The byte form the checksum covers: sorted keys, no whitespace.

    Compactness matters — with no redundant bytes in the canonical form,
    every byte of the written file is load-bearing, so a single-byte
    change either breaks the JSON parse or changes a checksummed value.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(document: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical_bytes(document)).hexdigest()


class ModelStore:
    """A keyed collection of classification models."""

    def __init__(self) -> None:
        self._models: Dict[str, ClassificationModel] = {}
        #: Version this store was loaded as / will be saved as (0 = an
        #: in-memory store that has never touched a versioned lineage).
        self.version: int = 0
        #: Free-form provenance carried through save/load (e.g. the
        #: calibration service's refit record).
        self.lineage: Dict[str, object] = {}

    def add(self, model: ClassificationModel) -> None:
        if not model.model_key:
            raise ValueError("model must have a model_key to be stored")
        self._models[model.model_key] = model

    def get(self, model_key: str) -> ClassificationModel:
        try:
            return self._models[model_key]
        except KeyError:
            raise KeyError(
                f"no model for {model_key!r}; available: {sorted(self._models)}"
            ) from None

    def __contains__(self, model_key: str) -> bool:
        return model_key in self._models

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[ClassificationModel]:
        return iter(self._models.values())

    def keys(self) -> List[str]:
        return sorted(self._models)

    # ------------------------------------------------------------------

    def total_size_bytes(self) -> int:
        return sum(model.size_bytes() for model in self._models.values())

    def average_size_bytes(self) -> float:
        if not self._models:
            return 0.0
        return self.total_size_bytes() / len(self._models)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"models": [model.to_dict() for model in self._models.values()]}

    def envelope(self) -> Dict[str, object]:
        """The checksummed document :meth:`save` writes."""
        document: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "version": self.version,
            "lineage": self.lineage,
            "payload": self.to_dict(),
        }
        document["checksum"] = _checksum(document)
        return document

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(_canonical_bytes(self.envelope()))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModelStore":
        store = cls()
        for entry in data.get("models", []):  # type: ignore[union-attr]
            store.add(ClassificationModel.from_dict(entry))
        return store

    @classmethod
    def from_envelope(cls, document: object) -> "ModelStore":
        """Verify and unpack a ``repro.model_store/2`` envelope."""
        if not isinstance(document, dict):
            raise ModelIntegrityError(
                f"model store document is {type(document).__name__}, not an object"
            )
        schema = document.get("schema")
        if schema != STORE_SCHEMA:
            raise ModelIntegrityError(
                f"unknown model store schema {schema!r} (expected {STORE_SCHEMA!r})"
            )
        recorded = document.get("checksum")
        body = {key: value for key, value in document.items() if key != "checksum"}
        actual = _checksum(body)
        if recorded != actual:
            raise ModelIntegrityError(
                f"model store checksum mismatch: recorded {recorded!r}, "
                f"computed {actual!r} — the file was corrupted or tampered with"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise ModelIntegrityError("model store envelope has no payload object")
        store = cls.from_dict(payload)
        store.version = int(document.get("version", 0))
        lineage = document.get("lineage")
        store.lineage = dict(lineage) if isinstance(lineage, dict) else {}
        return store

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelStore":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ModelIntegrityError(f"cannot read model store {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ModelIntegrityError(
                f"model store {path} is not valid UTF-8 — corrupted: {exc}"
            ) from exc
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise ModelIntegrityError(
                f"model store {path} is truncated or not valid JSON: {exc}"
            ) from exc
        try:
            return cls.from_envelope(document)
        except ModelIntegrityError as exc:
            raise ModelIntegrityError(f"{path}: {exc}") from None


class VersionedModelStore:
    """A directory of monotonically versioned, checksummed model stores.

    Layout::

        <root>/
          manifest.json      # {"schema": ..., "latest": N, "versions": [...]}
          v00001.json        # ModelStore envelope, version 1
          v00002.json        # version 2 (e.g. a recalibration of v1)

    The version files are the source of truth — each is a complete
    checksummed :class:`ModelStore` envelope.  The manifest adds the
    lineage index *and* an independent copy of each version's checksum,
    so swapping a validly-checksummed file in from elsewhere (tamper,
    not corruption) is detected too.

    Writers allocate versions with ``O_CREAT | O_EXCL``: two processes
    saving concurrently can never clobber each other — the loser's
    create fails and it retries with the next version number.
    """

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def _version_path(self, version: int) -> Path:
        return self.root / f"v{version:05d}.json"

    def versions(self) -> List[int]:
        """All versions present on disk, ascending."""
        found = []
        for entry in self.root.iterdir():
            match = _VERSION_FILE_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self) -> Optional[int]:
        versions = self.versions()
        return versions[-1] if versions else None

    def __len__(self) -> int:
        return len(self.versions())

    # ------------------------------------------------------------------

    def save(
        self, store: ModelStore, lineage: Optional[Dict[str, object]] = None
    ) -> int:
        """Write ``store`` as the next version; returns the version number.

        The store object's ``version``/``lineage`` are updated in place
        to what was written, so a subsequent ``store.save(path)`` of the
        same object reproduces the versioned bytes.
        """
        version = (self.latest_version() or 0) + 1
        while True:
            path = self._version_path(version)
            try:
                fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                break
            except FileExistsError:
                # a concurrent writer took this version: try the next one
                version += 1
        store.version = version
        store.lineage = dict(lineage) if lineage is not None else dict(store.lineage)
        envelope = store.envelope()
        with os.fdopen(fd, "wb") as handle:
            handle.write(_canonical_bytes(envelope))
        self._index_version(envelope)
        return version

    def _index_version(self, envelope: Dict[str, object]) -> None:
        """Append one version's record to the manifest, atomically."""
        manifest = self._read_manifest()
        records = [
            record
            for record in manifest.get("versions", [])
            if record.get("version") != envelope["version"]
        ]
        records.append(
            {
                "version": envelope["version"],
                "file": self._version_path(int(envelope["version"])).name,  # type: ignore[arg-type]
                "checksum": envelope["checksum"],
                "lineage": envelope["lineage"],
                "models": len(envelope["payload"]["models"]),  # type: ignore[index]
            }
        )
        records.sort(key=lambda record: record["version"])
        manifest = {
            "schema": STORE_DIR_SCHEMA,
            "latest": records[-1]["version"],
            "versions": records,
        }
        tmp = self.root / (self.MANIFEST_NAME + ".tmp")
        tmp.write_bytes(_canonical_bytes(manifest))
        os.replace(str(tmp), str(self.root / self.MANIFEST_NAME))

    def _read_manifest(self) -> Dict[str, object]:
        path = self.root / self.MANIFEST_NAME
        if not path.exists():
            return {"schema": STORE_DIR_SCHEMA, "versions": []}
        try:
            document = json.loads(path.read_text())
        except ValueError as exc:
            raise ModelIntegrityError(
                f"store manifest {path} is truncated or not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict) or document.get("schema") != STORE_DIR_SCHEMA:
            raise ModelIntegrityError(
                f"store manifest {path} has unknown schema "
                f"{document.get('schema') if isinstance(document, dict) else document!r}"
            )
        return document

    def manifest(self) -> Dict[str, object]:
        """The lineage index (schema, latest version, per-version records)."""
        return self._read_manifest()

    def lineage_of(self, version: int) -> Dict[str, object]:
        for record in self._read_manifest().get("versions", []):  # type: ignore[union-attr]
            if record.get("version") == version:
                return dict(record.get("lineage") or {})
        raise KeyError(f"no manifest record for version {version}")

    # ------------------------------------------------------------------

    def load(self, version: Optional[int] = None) -> ModelStore:
        """Load one version (default: latest), fully integrity-checked."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise ModelIntegrityError(f"no versions in model store {self.root}")
        path = self._version_path(version)
        if not path.exists():
            raise ModelIntegrityError(
                f"no version {version} in model store {self.root}; "
                f"available: {self.versions()}"
            )
        store = ModelStore.load(path)
        if store.version != version:
            raise ModelIntegrityError(
                f"{path.name} claims version {store.version}, expected {version} "
                "— the file was renamed or tampered with"
            )
        recorded = None
        for record in self._read_manifest().get("versions", []):  # type: ignore[union-attr]
            if record.get("version") == version:
                recorded = record.get("checksum")
        if recorded is not None and recorded != store.envelope()["checksum"]:
            raise ModelIntegrityError(
                f"{path.name} does not match the manifest checksum for "
                f"version {version} — the file was swapped or tampered with"
            )
        return store

    def load_latest(self) -> ModelStore:
        return self.load(None)
