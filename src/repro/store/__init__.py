"""``repro.store``: a content-addressed, versioned model store.

The persistence substrate under the serving stack (ROADMAP item 4): a
:class:`ModelStore` persists :class:`~repro.engine.SessionSpec` blobs
under their SHA-256 content hash plus per-version JSON manifests, over a
pluggable :class:`StoreBackend` (:class:`LocalDirBackend` today; the
interface is shaped so an S3/MinIO backend is a drop-in).  Publishes are
atomic (write-temp-then-rename), loads are hash-verified before any
deserialization, and ``name@latest`` / ``name@vN`` / ``name@<hash>``
selectors resolve deterministically.

What the rest of the stack does with it:

* :class:`StoreRef` -- a pinned version as a tiny picklable value with
  ``.build()``; replica workers (local pipes *and* remote
  ``repro-worker --store`` processes) cold-start from the store instead
  of receiving a pickled model from the parent.
* ``InferenceServer(store=...)`` / ``add_model(name, "name@v1")`` --
  store-backed serving, and ``swap_model(name, version)`` performs a
  zero-downtime rolling version swap over the elastic replica-group
  machinery (``POST /v1/models/{name}/swap`` at the gateway).  A
  restarted server re-adds each name from the store, with no
  training-side code on the serving path.

See ``docs/model_store.md`` for the backend contract, the manifest
schema, and a swap walkthrough.
"""

from repro.store.backend import LocalDirBackend, StoreBackend
from repro.store.errors import (
    ModelNotFoundError,
    StoreError,
    StoreIntegrityError,
    VersionNotFoundError,
)
from repro.store.ref import StoreRef
from repro.store.store import Manifest, ModelStore

__all__ = [
    "ModelStore",
    "Manifest",
    "StoreRef",
    "StoreBackend",
    "LocalDirBackend",
    "StoreError",
    "StoreIntegrityError",
    "ModelNotFoundError",
    "VersionNotFoundError",
]
