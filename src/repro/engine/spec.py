"""Picklable session specs: ship a compiled-model recipe across processes.

A compiled :class:`~repro.engine.InferenceSession` is deliberately *not*
picklable -- its program is a chain of closures over cached kernel
arrays.  What crosses a process boundary instead is a
:class:`SessionSpec`: the pickled trained model plus the session options,
i.e. everything needed to run :func:`repro.engine.compile` again on the
other side.
``repro.cluster`` spawns replica workers from exactly this object; each
worker rebuilds its own session (and its own FFT plan/kernel caches,
which must live in the worker's address space anyway).

The round-trip is exact: models hold plain numpy parameter arrays, so
``spec.build()`` in another process compiles the *same* program and its
outputs match the originating session bit-for-bit (see
``tests/test_cluster.py::TestSessionSpec``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.engine.plan import _lowering_for
from repro.engine.session import check_options, compile as engine_compile

__all__ = ["SessionSpec"]

#: Canonical-serialization magic + format version.  Bump the version when
#: the header schema changes; old stores then fail loudly instead of
#: silently misparsing (``repro.store`` verifies hashes over these bytes).
_CANONICAL_MAGIC = b"repro-spec"
_CANONICAL_FORMAT = 1
#: Every field a canonical header carries (see ``canonical_bytes``).
_CANONICAL_FIELDS = frozenset({"format", "model_type", "batch_size", "backend", "workers", "dtype", "optimize"})


@dataclass(frozen=True)
class SessionSpec:
    """A picklable recipe for rebuilding an :class:`InferenceSession`.

    Parameters mirror :class:`~repro.engine.InferenceSession`; the model
    itself travels as pickle bytes (``model_blob``) so the spec stays a
    plain value object that any ``multiprocessing`` start method --
    including ``spawn``, which re-imports everything -- can ship.

    Raises
    ------
    TypeError
        From :meth:`from_model` when the model cannot be pickled, and
        from :meth:`build` (via :func:`repro.engine.compile`) when the
        blob does not decode to a compilable model family.
    ValueError
        From :meth:`from_model`, :meth:`of` and :meth:`build` for an
        option :func:`repro.engine.compile` refuses.
    """

    model_blob: bytes = field(repr=False)
    model_type: str = "?"
    batch_size: int = 64
    backend: str = "auto"
    workers: Optional[int] = None
    dtype: str = "complex128"
    optimize: str = "full"

    @classmethod
    def from_model(
        cls,
        model,
        batch_size: int = 64,
        backend: str = "auto",
        workers: Optional[int] = None,
        dtype="complex128",
        optimize: str = "full",
    ) -> "SessionSpec":
        """Snapshot ``model`` (with session options) into a spec.

        The model's *current* parameters are captured; later training
        steps do not propagate into specs already taken.  Options are
        checked as :func:`repro.engine.compile` checks them (``ValueError``),
        so a spec that cannot build is never taken; ``dtype`` is recorded
        by name (``np.complex64`` as ``"complex64"``).
        """
        check_options(batch_size=batch_size, backend=backend, workers=workers, dtype=dtype, optimize=optimize)
        try:
            blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise TypeError(
                f"cannot build a SessionSpec from {type(model).__name__}: model failed to pickle ({exc})"
            ) from exc
        return cls(
            model_blob=blob,
            model_type=type(model).__name__,
            batch_size=int(batch_size),
            backend=str(backend),
            workers=workers,
            dtype=np.dtype(dtype).name,
            optimize=str(optimize),
        )

    @classmethod
    def of(cls, obj, **session_kwargs) -> "SessionSpec":
        """``obj`` as a spec: the one spec-out rule for publish and sharding.

        A spec is returned as-is, a compiled session (``to_spec()``) gives
        its snapshot, and a compilable model is snapshotted through
        :meth:`from_model` with ``session_kwargs``.  Raises ``ValueError``
        for options passed with a spec or session (theirs are fixed) or a
        spec's own options that :func:`repro.engine.compile` refuses (say,
        a level an older store recorded), and ``TypeError`` for anything
        :func:`repro.engine.compile` refuses.
        """
        if isinstance(obj, SessionSpec) or hasattr(obj, "to_spec"):
            if session_kwargs:
                raise ValueError(
                    f"session options {sorted(session_kwargs)} need a model; "
                    f"{type(obj).__name__} already carries its options"
                )
            if not isinstance(obj, SessionSpec):
                return obj.to_spec()
            check_options(
                batch_size=obj.batch_size,
                backend=obj.backend,
                workers=obj.workers,
                dtype=obj.dtype,
                optimize=obj.optimize,
            )
            return obj
        _lowering_for(obj)  # TypeError outside the compilable families
        return cls.from_model(obj, **session_kwargs)

    def build(self):
        """Compile a fresh session from the spec (via :func:`repro.engine.compile`)."""
        return engine_compile(self)

    # ------------------------------------------------------------------ #
    # Canonical serialization (what repro.store hashes and persists)
    # ------------------------------------------------------------------ #
    def canonical_bytes(self) -> bytes:
        """Deterministic byte serialization of this spec.

        Layout: ``magic \\0 header-json \\0 model_blob``, where the header
        carries every non-blob field with sorted keys -- so two specs with
        identical fields serialize to identical bytes, and
        :meth:`content_hash` is stable across processes and re-publishes.
        The model blob is included verbatim: it is already deterministic
        for a given trained model (plain numpy parameter arrays pickled at
        a fixed protocol).
        """
        header = {
            "format": _CANONICAL_FORMAT,
            "model_type": self.model_type,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "workers": self.workers,
            "dtype": self.dtype,
            "optimize": self.optimize,
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return b"\x00".join((_CANONICAL_MAGIC, header_bytes, self.model_blob))

    def content_hash(self) -> str:
        """Hex SHA-256 of :meth:`canonical_bytes` -- the spec's identity.

        ``repro.store`` keys blobs by this digest (content addressing):
        publishing the same spec twice writes one blob, and a load whose
        bytes do not hash back to the manifest's digest is refused.
        """
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "SessionSpec":
        """Rebuild a spec from :meth:`canonical_bytes` output.

        Raises ``ValueError`` for bytes that are not a canonical spec
        serialization (wrong magic, undecodable header, a header that is
        not an object with every field and an integer ``batch_size``,
        unknown format) -- the store wraps that into its integrity error.
        """
        magic, _, rest = bytes(data).partition(b"\x00")
        if magic != _CANONICAL_MAGIC or not rest:
            raise ValueError("not a canonical SessionSpec serialization (bad magic)")
        header_bytes, _, blob = rest.partition(b"\x00")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"canonical SessionSpec header is unreadable: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"canonical SessionSpec header is a JSON {type(header).__name__}, not an object")
        if header.get("format") != _CANONICAL_FORMAT:
            raise ValueError(
                f"unsupported canonical SessionSpec format {header.get('format')!r} "
                f"(this build reads format {_CANONICAL_FORMAT})"
            )
        missing = sorted(_CANONICAL_FIELDS - header.keys())
        if missing:
            raise ValueError(f"canonical SessionSpec header lacks {missing}")
        if not isinstance(header["batch_size"], int) or isinstance(header["batch_size"], bool):
            raise ValueError(f"canonical SessionSpec batch_size {header['batch_size']!r} is not an integer")
        return cls(
            model_blob=blob,
            model_type=str(header["model_type"]),
            batch_size=int(header["batch_size"]),
            backend=str(header["backend"]),
            workers=header["workers"],
            dtype=str(header["dtype"]),
            optimize=str(header["optimize"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionSpec(model={self.model_type}, blob={len(self.model_blob)}B, "
            f"backend={self.backend!r}, dtype={self.dtype!r}, batch_size={self.batch_size})"
        )
