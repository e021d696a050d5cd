"""Store refs: a pinned model version as a picklable, buildable value.

A :class:`StoreRef` is what crosses process boundaries *instead of* a
multi-megabyte pickled :class:`~repro.engine.SessionSpec` once a model
lives in a store: backend coordinates + name + resolved version +
content hash, a few hundred bytes.  It deliberately quacks like a spec
where the cluster needs it to -- ``ref.build()`` compiles a session and
``ref.model_type`` names the family -- so
:class:`~repro.cluster.ReplicaGroup`, both transports, and the
``repro-worker`` init handshake carry it unchanged: a worker receiving a
ref cold-starts by pulling verified bytes from the store, not from the
parent's pipe.

The content hash pins identity end-to-end: whatever replica on whatever
host resolves the ref, the loaded bytes must hash back to the digest
recorded when the ref was minted (``latest`` is resolved at mint time,
never re-resolved downstream).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.store.errors import StoreIntegrityError

__all__ = ["StoreRef"]


@dataclass(frozen=True)
class StoreRef:
    """One resolved ``name@version`` in one store, pinned by content hash."""

    scheme: str
    location: str  # backend coordinates: directory path for "local"
    name: str
    version: int
    content_hash: str
    model_type: str = "?"

    @property
    def version_tag(self) -> str:
        return f"v{self.version}"

    def with_location(self, location) -> "StoreRef":
        """The same pinned version, read from different backend coordinates.

        This is how ``repro-worker --store DIR`` serves refs minted
        against a parent-side path: the hash still guarantees the bytes
        are the ones the parent pinned, wherever they were replicated.
        """
        return replace(self, location=str(location))

    def open_store(self):
        """Open the backing :class:`~repro.store.ModelStore`."""
        from repro.store.backend import LocalDirBackend
        from repro.store.store import ModelStore

        if self.scheme != "local":
            raise StoreIntegrityError(
                f"no backend registered for store scheme {self.scheme!r} "
                f"(this build supports: local)"
            )
        return ModelStore(LocalDirBackend(self.location))

    def load_spec(self):
        """Pull + hash-verify the pinned spec from the store."""
        store = self.open_store()
        manifest = store.resolve(self.name, self.version)
        if manifest.content_hash != self.content_hash:
            raise StoreIntegrityError(
                f"{self.name}@{self.version_tag} in {self.location} carries hash "
                f"{manifest.content_hash[:12]}..., but this ref pinned "
                f"{self.content_hash[:12]}... -- the version was republished under us"
            )
        return store.load_manifest(manifest)

    def build(self):
        """Compile a fresh session from the stored spec (worker cold-start)."""
        return self.load_spec().build()

    def describe(self) -> dict:
        """JSON-friendly identity (what ``stats()``/``describe()`` surface)."""
        return {
            "name": self.name,
            "version": self.version_tag,
            "content_hash": self.content_hash,
            "store": f"{self.scheme}:{self.location}",
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreRef({self.name}@{self.version_tag}, sha256-{self.content_hash[:12]}..., "
            f"{self.scheme}:{self.location})"
        )
