"""Multi-tenant session registry: model name -> compiled inference session.

One serving process hosts many models -- a digit classifier, an RGB
multi-channel classifier and a segmentation model can all answer traffic
concurrently, each behind its own dynamic batcher.  The registry is the
name-keyed catalogue the server routes requests with.

``register`` accepts either an already-compiled
:class:`~repro.engine.InferenceSession` (or any session-like object with
``run(batch, batch_size=...)``), a trainable model -- in which case it
is compiled on the spot via :func:`repro.engine.compile` with the given
session options (``dtype="complex64"`` etc.) -- or a *store reference*:
a :class:`~repro.store.StoreRef` (or, on a store-attached registry, a
``"name@version"`` string), compiled from the persisted spec with no
live model object required in this process.

A registry can be capacity-bounded: ``max_models=N`` turns it into an
LRU cache, so a multi-tenant server that registers models on demand
cannot grow without bound.  Eviction only drops the registry's
*in-memory reference* -- a session stays alive as long as anything else
(a live batcher, in-flight requests) still holds it, so traffic already
admitted on an evicted model completes normally.  For store-backed
models eviction is fully reversible: the on-disk version is never
touched, the pinned ref is kept, and the next :meth:`get` quietly
rebuilds the session from the store.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.serve.errors import UnknownModelError


def _as_store_ref(obj):
    """``obj`` when it quacks like a :class:`~repro.store.StoreRef`, else ``None``."""
    if callable(getattr(obj, "load_spec", None)) and hasattr(obj, "content_hash"):
        return obj
    return None


class SessionRegistry:
    """Name-keyed catalogue of inference sessions for multi-tenant serving.

    Parameters
    ----------
    max_models:
        Optional capacity bound.  Registering a new name beyond it evicts
        the least-recently-used entries (use = :meth:`get` or
        :meth:`register`); :meth:`register` returns normally and the
        evicted names are observable via :attr:`last_evicted`.  ``None``
        (default) keeps the registry unbounded.
    store:
        Optional :class:`~repro.store.ModelStore` (or a directory path,
        wrapped on the spot).  Lets :meth:`register` take
        ``"name@version"`` strings, and makes LRU eviction of
        store-backed models reversible (see :meth:`get`).

    Raises
    ------
    ValueError
        For ``max_models < 1``; from :meth:`register` for an empty or
        non-string name, a duplicate name without ``replace=True``, or
        session options passed with an already-compiled session.
    TypeError
        From :meth:`register` for objects that are neither session-like
        (``run`` method) nor compilable models nor store references.
    UnknownModelError
        From :meth:`get` / :meth:`unregister` for unregistered names.

    Thread-safety: the registry is a plain ordered dict with no locking.
    :class:`~repro.serve.InferenceServer` mutates it only from the event
    loop (``add_model``), which is the supported pattern; registering
    concurrently from multiple threads is not.  Lookups (:meth:`get`,
    ``in``, ``names``) are safe from any thread, though under
    ``max_models`` a :meth:`get` also refreshes recency (and may rebuild
    an evicted store-backed session).
    """

    def __init__(self, max_models: Optional[int] = None, *, store=None) -> None:
        if max_models is not None and max_models < 1:
            raise ValueError("max_models must be >= 1 (or None for unbounded)")
        if store is not None and not hasattr(store, "ref"):
            from repro.store import ModelStore

            store = ModelStore(store)
        self.max_models = max_models
        self.store = store
        self._sessions: "OrderedDict[str, object]" = OrderedDict()
        #: Store refs pinned per name.  Deliberately *not* dropped on LRU
        #: eviction: the on-disk version outlives the in-memory session,
        #: and :meth:`get` uses the kept ref to rebuild it on demand.
        self._refs: dict = {}
        #: Names dropped by the most recent :meth:`register` call.
        self.last_evicted: Tuple[str, ...] = ()

    def register(self, name: str, model_or_session, *, replace: bool = False, **session_kwargs):
        """Register a session under ``name`` and return it.

        ``model_or_session`` is either a session-like object (used as-is;
        ``session_kwargs`` must then be empty), a model compiled via
        ``repro.engine.compile(model, **session_kwargs)``, a
        :class:`~repro.store.StoreRef` (compiled from the store; options
        are already baked into the stored spec), or -- on a
        store-attached registry -- a ``"name@version"`` string.  Under
        ``max_models``, the least-recently-used entries are evicted to
        make room (never the name being registered).
        """
        if not name or not isinstance(name, str):
            raise ValueError("model name must be a non-empty string")
        if name in self._sessions and not replace:
            raise ValueError(f"model {name!r} is already registered (pass replace=True to swap it)")
        if isinstance(model_or_session, str):
            if self.store is None:
                raise TypeError(
                    f"cannot register the string {model_or_session!r}: string model "
                    "references need a store-attached registry (SessionRegistry(store=...))"
                )
            model_or_session = self.store.ref(model_or_session)
        ref = _as_store_ref(model_or_session)
        if ref is not None:
            if session_kwargs:
                raise ValueError(
                    f"session options {sorted(session_kwargs)} cannot apply to a store "
                    "reference; they were fixed when the spec was published"
                )
            session = ref.build()
        elif callable(getattr(model_or_session, "run", None)):
            if session_kwargs:
                raise ValueError(
                    f"session options {sorted(session_kwargs)} need a model; "
                    f"{type(model_or_session).__name__} is already a session"
                )
            session = model_or_session
        else:
            from repro.engine import compile as engine_compile

            session = engine_compile(model_or_session, **session_kwargs)
        self.last_evicted = tuple(self._insert(name, session))
        if ref is not None:
            self._refs[name] = ref
        else:
            self._refs.pop(name, None)
        return session

    def _insert(self, name: str, session) -> List[str]:
        """Install ``name`` (LRU-newest), evicting in-memory LRU overflow.

        Only sessions are dropped -- a store-backed victim keeps its ref
        (and its on-disk versions), so the eviction is a demotion to
        cold storage, not a deletion.
        """
        evicted: List[str] = []
        if self.max_models is not None and name not in self._sessions:
            while len(self._sessions) >= self.max_models:
                stale, _ = self._sessions.popitem(last=False)
                evicted.append(stale)
        self._sessions[name] = session
        self._sessions.move_to_end(name)  # registration counts as use
        return evicted

    def unregister(self, name: str) -> None:
        if name not in self._sessions and name not in self._refs:
            raise UnknownModelError(f"no model registered under {name!r}")
        self._sessions.pop(name, None)
        self._refs.pop(name, None)

    def demote(self, name: str) -> None:
        """Move ``name`` to the LRU front: first in line for eviction.

        The autoscaler's idle hook: a model idle past its timeout is
        made the *preferred* victim of the next capacity eviction --
        without dropping it now, while nothing needs its slot.  A later
        :meth:`get` restores its recency like any other use.  Only
        meaningful on a capacity-bounded registry, but harmless without
        ``max_models``.
        """
        if name not in self._sessions:
            raise UnknownModelError(f"no model registered under {name!r}")
        self._sessions.move_to_end(name, last=False)

    def get(self, name: str):
        try:
            session = self._sessions[name]
        except KeyError:
            ref = self._refs.get(name)
            if ref is not None:
                # The session was LRU-evicted but the model still exists
                # on disk: rebuild it from the pinned version.  The
                # rebuild counts as use, so it may evict today's LRU tail
                # in turn (observable via last_evicted, like a register).
                session = ref.build()
                self.last_evicted = tuple(self._insert(name, session))
                return session
            known = ", ".join(sorted(self._sessions)) or "<none>"
            raise UnknownModelError(f"no model registered under {name!r} (registered: {known})") from None
        if self.max_models is not None:
            self._sessions.move_to_end(name)  # lookup refreshes recency
        return session

    def store_ref(self, name: str):
        """The pinned :class:`~repro.store.StoreRef` of ``name``, or ``None``."""
        return self._refs.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._sessions)

    def items(self) -> Iterator[Tuple[str, object]]:
        return iter(self._sessions.items())

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = f", max_models={self.max_models}" if self.max_models is not None else ""
        return f"SessionRegistry({sorted(self._sessions)}{bound})"
