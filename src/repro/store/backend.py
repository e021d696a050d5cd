"""Pluggable storage backends: key -> bytes, with atomic publish.

The :class:`ModelStore` facade never touches a filesystem (or a bucket)
directly -- it speaks this small key/value interface, where keys are
``/``-separated relative paths (``blobs/sha256-...``,
``manifests/<name>/v3.json``).  The contract is deliberately shaped like
an object store so an S3/MinIO backend is a drop-in:

* :meth:`~StoreBackend.put` is **atomic and last-writer-wins**: readers
  never observe a partially-written object (the local backend gets this
  from write-temp-then-rename; S3 gets it for free from single-request
  PUT semantics).
* :meth:`~StoreBackend.get` raises ``KeyError`` for missing keys --
  existence checks and reads are separate operations, and reads must not
  invent empty objects.
* :meth:`~StoreBackend.list` returns keys under a prefix (S3
  ``list_objects_v2`` shape), sorted, so version resolution is
  deterministic everywhere.

No partial-failure recovery is required of a backend beyond put-atomicity:
the store's publish order (blob first, manifest last) means a crash can
strand an unreferenced blob, never a manifest pointing at missing bytes.
"""

from __future__ import annotations

import abc
import os
import tempfile
from pathlib import Path
from typing import List

__all__ = ["StoreBackend", "LocalDirBackend"]


class StoreBackend(abc.ABC):
    """Key/value contract every store backend implements.

    Keys are relative ``/``-separated paths; values are opaque bytes.
    """

    #: Short scheme tag (``"local"``, ``"s3"``, ...) used by refs/repr.
    scheme: str = "?"

    @abc.abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Write ``data`` under ``key`` atomically (full object or nothing)."""

    @abc.abstractmethod
    def get(self, key: str) -> bytes:
        """Return the object's bytes; ``KeyError`` when absent."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Cheap existence probe (no data transfer)."""

    @abc.abstractmethod
    def list(self, prefix: str) -> List[str]:
        """All keys under ``prefix``, sorted."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove the object; deleting a missing key is a no-op."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable location (``local:/path``, ``s3://bucket/prefix``)."""


class LocalDirBackend(StoreBackend):
    """Filesystem backend: one directory tree, rename-atomic writes.

    Every :meth:`put` lands in a ``.tmp`` staging directory first and is
    moved into place with ``os.replace`` -- on POSIX that rename is
    atomic within a filesystem, so a reader (another process pulling a
    spec mid-publish) sees either the old object, the new object, or no
    object; never a truncated one.

    ``root`` is resolved to an absolute path once, here: keys resolve
    against it, and refs minted from the store carry it, so a process
    started in another directory opens the same store.
    """

    scheme = "local"

    def __init__(self, root) -> None:
        self.root = Path(root).resolve()
        self.root.mkdir(parents=True, exist_ok=True)
        self._staging = self.root / ".tmp"
        self._staging.mkdir(exist_ok=True)

    def _path(self, key: str) -> Path:
        path = (self.root / key).resolve()
        # Keys are store-internal, but refuse traversal anyway: a backend
        # must never touch a file outside its root.  The test compares
        # path components: a sibling such as ``<root>-other`` shares the
        # root's string prefix.
        if not path.is_relative_to(self.root):
            raise ValueError(f"key {key!r} escapes the store root")
        return path

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, staged = tempfile.mkstemp(dir=self._staging, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staged, path)
        except BaseException:
            try:
                os.unlink(staged)
            except OSError:
                pass
            raise

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def list(self, prefix: str) -> List[str]:
        base = self._path(prefix)
        if not base.is_dir():
            return []
        keys = [
            str(path.relative_to(self.root)).replace(os.sep, "/")
            for path in base.rglob("*")
            if path.is_file()
        ]
        return sorted(keys)

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def describe(self) -> str:
        return f"local:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalDirBackend({str(self.root)!r})"
