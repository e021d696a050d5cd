"""The model store facade: versioned, content-addressed SessionSpec persistence.

:class:`ModelStore` turns a :class:`~repro.store.backend.StoreBackend`
into a model registry with deploy-without-training semantics:

* **Publish** snapshots a spec (or a model / compiled session) under a
  name.  The spec's canonical bytes are written once under their SHA-256
  digest (``blobs/sha256-<hash>``) -- re-publishing identical content is
  a no-op returning the existing version, so rollbacks and CI re-runs
  cannot balloon the store.  A small JSON manifest
  (``manifests/<name>/v<N>.json``) records the version's identity.
  Order matters: blob first, manifest last, each atomically -- a crash
  can strand an unreferenced blob, never a dangling manifest.
* **Resolve** turns ``name`` / ``name@latest`` / ``name@v3`` /
  ``name@<hash-prefix>`` into one manifest, deterministically.
* **Load** fetches the blob, verifies its bytes hash back to the
  manifest's digest *before* deserializing anything, and rebuilds the
  :class:`~repro.engine.SessionSpec` -- corruption surfaces as a typed
  :class:`~repro.store.errors.StoreIntegrityError`, never a bad session.
  A small LRU cache (keyed by content hash, so it can never serve stale
  bytes) makes repeated loads of a hot version free.
* **Refs** (:meth:`ModelStore.ref`) pin a resolved version into a
  picklable :class:`~repro.store.ref.StoreRef` that worker processes use
  to cold-start replicas from the store instead of receiving the model
  over a pipe.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

from repro.engine.spec import SessionSpec
from repro.store.backend import LocalDirBackend, StoreBackend
from repro.store.errors import (
    ModelNotFoundError,
    StoreIntegrityError,
    VersionNotFoundError,
)

__all__ = ["Manifest", "ModelStore"]

#: Manifest schema version; bump on incompatible changes.
_MANIFEST_FORMAT = 1
#: Keys a manifest must carry to be trusted.
_MANIFEST_REQUIRED = ("name", "version", "content_hash", "model_type", "optimize", "dtype", "created_at")
_VERSION_KEY = re.compile(r"^v(\d+)\.json$")
_HEX = re.compile(r"^[0-9a-f]{8,64}$")
#: A full SHA-256 digest: the only content hash a manifest may carry (it becomes a blob key).
_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class Manifest:
    """One published version's identity card (the JSON sidecar of a blob)."""

    name: str
    version: int
    content_hash: str
    model_type: str
    optimize: str
    dtype: str
    created_at: str
    blob_bytes: int = 0

    @property
    def version_tag(self) -> str:
        return f"v{self.version}"

    def as_dict(self) -> dict:
        return {
            "format": _MANIFEST_FORMAT,
            "name": self.name,
            "version": self.version,
            "content_hash": self.content_hash,
            "model_type": self.model_type,
            "optimize": self.optimize,
            "dtype": self.dtype,
            "created_at": self.created_at,
            "blob_bytes": self.blob_bytes,
        }


def _blob_key(content_hash: str) -> str:
    return f"blobs/sha256-{content_hash}"


def _manifest_key(name: str, version: int) -> str:
    return f"manifests/{name}/v{int(version)}.json"


def _check_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ValueError("model name must be a non-empty string")
    if "@" in name or "/" in name or name.startswith("."):
        raise ValueError(f"model name {name!r} may not contain '@' or '/' (or start with '.')")
    return name


class ModelStore:
    """Versioned spec registry over a pluggable backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.store.backend.StoreBackend`, or a path (str /
        ``Path``) that is wrapped in a
        :class:`~repro.store.backend.LocalDirBackend`.
    cache_entries:
        Capacity of the in-memory read cache (LRU over content hashes).
        Content addressing makes the cache trivially coherent -- an entry
        can only ever be the bytes its key hashes to -- so the only knob
        is memory.  ``0`` disables caching.

    Thread-safety: all methods are safe to call from multiple threads
    (the cache and version allocation are lock-guarded); multi-*process*
    publishers are serialized by the backend's atomic put (last writer
    wins on a version-number race, which concurrent publishers of the
    same name must coordinate around, as in any registry).
    """

    def __init__(self, backend: Union[StoreBackend, str, Path], *, cache_entries: int = 8):
        if isinstance(backend, (str, Path)):
            backend = LocalDirBackend(backend)
        if not isinstance(backend, StoreBackend):
            raise TypeError(
                f"backend must be a StoreBackend or a directory path, got {type(backend).__name__}"
            )
        if cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        self.backend = backend
        self._cache_entries = int(cache_entries)
        self._cache: "OrderedDict[str, SessionSpec]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Publish
    # ------------------------------------------------------------------ #
    def publish(self, name: str, model_or_spec, **session_kwargs) -> Manifest:
        """Persist a new version of ``name``; returns its manifest.

        Accepts whatever :meth:`SessionSpec.of <repro.engine.SessionSpec.of>`
        does: a spec, a compiled session (``to_spec()``), or a trainable
        model snapshotted with ``session_kwargs``.  Publishing
        content that is already the latest *or any earlier* version of
        ``name`` is idempotent: the existing manifest is returned and no
        second blob is written (content addressing dedups storage).
        """
        _check_name(name)
        spec = SessionSpec.of(model_or_spec, **session_kwargs)
        payload = spec.canonical_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        with self._lock:
            versions = self._versions_locked(name)
            for manifest in versions:
                if manifest.content_hash == digest:
                    return manifest
            if not self.backend.exists(_blob_key(digest)):
                self.backend.put(_blob_key(digest), payload)
            version = versions[-1].version + 1 if versions else 1
            manifest = Manifest(
                name=name,
                version=version,
                content_hash=digest,
                model_type=spec.model_type,
                optimize=spec.optimize,
                dtype=spec.dtype,
                created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                blob_bytes=len(payload),
            )
            self.backend.put(
                _manifest_key(name, version),
                json.dumps(manifest.as_dict(), sort_keys=True, indent=1).encode("utf-8"),
            )
            self._cache_put(digest, spec)
            return manifest

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def models(self) -> Tuple[str, ...]:
        """All model names with at least one published version, sorted."""
        names = set()
        for key in self.backend.list("manifests"):
            parts = key.split("/")
            if len(parts) == 3 and _VERSION_KEY.match(parts[2]):
                names.add(parts[1])
        return tuple(sorted(names))

    def versions(self, name: str) -> List[Manifest]:
        """Every published version of ``name``, oldest first.

        Raises :class:`ModelNotFoundError` for names with no versions.
        """
        _check_name(name)
        with self._lock:
            manifests = self._versions_locked(name)
        if not manifests:
            known = ", ".join(self.models()) or "<none>"
            raise ModelNotFoundError(f"no model published under {name!r} (published: {known})")
        return manifests

    def _versions_locked(self, name: str) -> List[Manifest]:
        manifests = []
        for key in self.backend.list(f"manifests/{name}"):
            match = _VERSION_KEY.match(key.split("/")[-1])
            if match:
                manifests.append(self._read_manifest(key, name, int(match.group(1))))
        return sorted(manifests, key=lambda manifest: manifest.version)

    def _read_manifest(self, key: str, name: str, version: int) -> Manifest:
        try:
            raw = self.backend.get(key)
        except KeyError:
            raise VersionNotFoundError(f"model {name!r} has no version v{version}") from None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreIntegrityError(f"manifest {key} is unreadable: {exc}") from exc
        missing = [field for field in _MANIFEST_REQUIRED if field not in data]
        if missing or not isinstance(data.get("version"), int):
            raise StoreIntegrityError(
                f"manifest {key} is malformed (missing/invalid fields: {missing or ['version']})"
            )
        if not isinstance(data["content_hash"], str) or not _SHA256.fullmatch(data["content_hash"]):
            raise StoreIntegrityError(
                f"manifest {key} is malformed (content_hash {data['content_hash']!r} "
                "is not 64 lowercase hex digits)"
            )
        if data["name"] != name or data["version"] != version:
            raise StoreIntegrityError(
                f"manifest {key} does not describe {name}@v{version} "
                f"(says {data['name']}@v{data['version']})"
            )
        return Manifest(
            name=str(data["name"]),
            version=int(data["version"]),
            content_hash=str(data["content_hash"]),
            model_type=str(data["model_type"]),
            optimize=str(data["optimize"]),
            dtype=str(data["dtype"]),
            created_at=str(data["created_at"]),
            blob_bytes=int(data.get("blob_bytes", 0)),
        )

    def resolve(self, name: str, version=None) -> Manifest:
        """``name`` (+ optional version selector) -> one manifest.

        ``version`` may be ``None``/``"latest"`` (newest version), an
        ``int`` (not a ``bool``) or ``"vN"`` tag, or a content-hash hex
        prefix (>= 8 chars, must match exactly one version).  The combined
        ``"name@selector"`` form is accepted in ``name`` when ``version``
        is omitted.
        """
        if version is None and "@" in name:
            name, _, version = name.partition("@")
        manifests = self.versions(name)
        if version is None or version == "latest":
            return manifests[-1]
        if (isinstance(version, int) and not isinstance(version, bool)) or (
            isinstance(version, str) and version.isdigit()
        ):
            number = int(version)
        elif isinstance(version, str) and version.startswith("v") and version[1:].isdigit():
            number = int(version[1:])
        elif isinstance(version, str) and _HEX.match(version.lower()):
            prefix = version.lower()
            matches = [m for m in manifests if m.content_hash.startswith(prefix)]
            if len(matches) == 1:
                return matches[0]
            detail = "matches no version" if not matches else f"is ambiguous ({len(matches)} versions)"
            raise VersionNotFoundError(f"hash prefix {prefix!r} {detail} of model {name!r}")
        else:
            raise VersionNotFoundError(
                f"unrecognized version selector {version!r} for model {name!r} "
                "(use 'latest', 'vN', or a content-hash prefix)"
            )
        for manifest in manifests:
            if manifest.version == number:
                return manifest
        tags = ", ".join(m.version_tag for m in manifests)
        raise VersionNotFoundError(f"model {name!r} has no version v{number} (published: {tags})")

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #
    def load(self, name: str, version=None) -> SessionSpec:
        """Fetch + verify + rebuild the spec for ``name`` at ``version``.

        The blob's bytes are re-hashed and compared against the
        manifest's digest before any deserialization; a mismatch (bit
        rot, truncation, tampering) raises
        :class:`~repro.store.errors.StoreIntegrityError`.
        """
        return self.load_manifest(self.resolve(name, version))

    def load_manifest(self, manifest: Manifest) -> SessionSpec:
        """Like :meth:`load` for an already-resolved manifest."""
        with self._lock:
            cached = self._cache.get(manifest.content_hash)
            if cached is not None:
                self._cache.move_to_end(manifest.content_hash)
                return cached
        try:
            payload = self.backend.get(_blob_key(manifest.content_hash))
        except KeyError:
            raise StoreIntegrityError(
                f"{manifest.name}@{manifest.version_tag}: blob "
                f"sha256-{manifest.content_hash[:12]}... is missing from {self.backend.describe()}"
            ) from None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.content_hash:
            raise StoreIntegrityError(
                f"{manifest.name}@{manifest.version_tag}: blob bytes hash to {digest[:12]}..., "
                f"manifest says {manifest.content_hash[:12]}... -- refusing to deserialize"
            )
        try:
            spec = SessionSpec.from_canonical_bytes(payload)
        except ValueError as exc:
            raise StoreIntegrityError(
                f"{manifest.name}@{manifest.version_tag}: verified blob does not decode "
                f"to a SessionSpec ({exc})"
            ) from exc
        with self._lock:
            self._cache_put(manifest.content_hash, spec)
        return spec

    def ref(self, name: str, version=None):
        """Pin ``name@version`` into a picklable :class:`~repro.store.ref.StoreRef`.

        The selector is resolved *now* (so ``latest`` means the same
        version on every replica that receives the ref), and the ref
        carries the content hash -- a worker's load is verified against
        the exact bytes this resolution saw.
        """
        from repro.store.ref import StoreRef

        manifest = self.resolve(name, version)
        return StoreRef(
            scheme=self.backend.scheme,
            location=self.backend.describe().split(":", 1)[1],
            name=manifest.name,
            version=manifest.version,
            content_hash=manifest.content_hash,
            model_type=manifest.model_type,
        )

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def delete_version(self, name: str, version) -> Manifest:
        """Remove one version's manifest; its blob too once unreferenced.

        Content addressing makes this safe: the blob is only deleted when
        no remaining version of *any* model references its hash.  That
        scan runs before anything is deleted, so a manifest it cannot
        read (:class:`StoreIntegrityError`) refuses the call with the
        store unchanged.
        """
        manifest = self.resolve(name, version)
        with self._lock:
            still_referenced = any(
                other.content_hash == manifest.content_hash
                for model in self.models()
                for other in self._versions_locked(model)
                if (model, other.version) != (name, manifest.version)
            )
            self.backend.delete(_manifest_key(name, manifest.version))
            if not still_referenced:
                self.backend.delete(_blob_key(manifest.content_hash))
                self._cache.pop(manifest.content_hash, None)
        return manifest

    def _cache_put(self, digest: str, spec: SessionSpec) -> None:
        if self._cache_entries == 0:
            return
        self._cache[digest] = spec
        self._cache.move_to_end(digest)
        while len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelStore({self.backend.describe()}, models={list(self.models())})"
