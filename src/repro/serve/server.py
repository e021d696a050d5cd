"""The asyncio serving front-end: registry + one dynamic batcher per model.

:class:`InferenceServer` is the piece user code talks to::

    server = InferenceServer(max_batch=32, max_wait_ms=2.0)
    server.add_model("digits", donn_model)            # compiles a session
    server.add_model("scenes", seg_session)           # or use one directly
    async with server:
        logits = await server.submit("digits", image)

Each registered model gets its own :class:`DynamicBatcher` (own queue, own
worker task, own stats), so a slow segmentation model cannot head-of-line
block the digit classifier.  Requests to unknown names raise
:class:`UnknownModelError`; a full per-model queue raises
:class:`ServerOverloadedError`; a stopped server raises
:class:`ServerClosedError`.

With ``replicas=N`` (server-wide or per model) the fused batches leave
the process entirely: each such model runs on a
:class:`~repro.cluster.ReplicaGroup` of N spawned worker processes behind
a routing policy (``router="round_robin" | "least_loaded" |
"power_of_two_choices"``), sidestepping the GIL that otherwise
serializes every model's FFT work through one interpreter.  See
``docs/sharding.md``.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Dict, Optional, Sequence

import numpy as np

from repro.serve.batcher import BatcherStats, DynamicBatcher
from repro.serve.errors import ServerClosedError
from repro.serve.policy import BatchingPolicy
from repro.serve.registry import SessionRegistry, _as_store_ref
from repro.obs.log import get_logger as _obs_logger

logger = logging.getLogger(__name__)


def _as_replica_group(obj):
    """The object itself when it is a :class:`~repro.cluster.ReplicaGroup`.

    Imported lazily: the serving layer must stay importable (and fully
    functional in-process) without ever touching ``repro.cluster``.
    """
    from repro.cluster import ReplicaGroup

    return obj if isinstance(obj, ReplicaGroup) else None


def _build_group(model_or_session, replicas: int, router, cluster_options: dict, name: str):
    """Spec out ``model_or_session`` and wrap it in an (unstarted) group."""
    from repro.cluster import ReplicaGroup
    from repro.engine.spec import SessionSpec

    session_kwargs = dict(cluster_options.pop("session_kwargs", {}))
    if _as_store_ref(model_or_session) is not None:
        # A pinned store version: the ref itself is the "spec" -- each
        # worker cold-starts by pulling the hash-verified bytes from the
        # store, so no model object (or multi-MB pickle) ever crosses
        # the parent's pipes.
        if session_kwargs:
            raise ValueError(
                f"session options {sorted(session_kwargs)} cannot apply to a store "
                "reference; they were fixed when the spec was published"
            )
        spec = model_or_session
    else:
        spec = SessionSpec.of(model_or_session, **session_kwargs)
    return ReplicaGroup(spec, replicas=replicas, router=router, name=name, **cluster_options)


def _expected_input_shape(session) -> Optional[Sequence[int]]:
    """Per-request payload shape for shape validation, when the session knows it."""
    shape = getattr(session, "input_shape", None)
    return tuple(shape) if shape is not None else None


def _holder(table: Dict[str, object], instance, name: str) -> Optional[str]:
    """The name other than ``name`` whose entry in ``table`` is ``instance``."""
    return next((key for key, held in table.items() if held is instance and key != name), None)


def _resolve_policy(spec) -> Optional[BatchingPolicy]:
    """A policy spec is ``None``, a ready instance, or a zero-arg factory.

    Policies are stateful (EWMA latency model, AIMD target), so each
    batcher needs its *own* instance: server-wide defaults must therefore
    be factories, e.g. ``policy=lambda: SLOAwarePolicy(slo_ms=50)``.
    """
    if spec is None or isinstance(spec, BatchingPolicy):
        return spec
    if callable(spec):
        policy = spec()
        if not isinstance(policy, BatchingPolicy):
            raise TypeError(
                f"policy factory returned {type(policy).__name__}, expected a BatchingPolicy"
            )
        return policy
    raise TypeError(
        f"policy must be a BatchingPolicy instance or a zero-arg factory, got {type(spec).__name__}"
    )


class InferenceServer:
    """Serve one or more inference sessions behind dynamic batching.

    Parameters
    ----------
    registry:
        An existing :class:`SessionRegistry` to serve from; by default the
        server owns a fresh one (populate it via :meth:`add_model`).
    policy:
        Default batching policy for every model: a zero-arg factory (each
        model gets a fresh instance) or, for a single-model server, a
        ready :class:`~repro.serve.policy.BatchingPolicy`.  ``None``
        falls back to the fixed-window knobs below.
    max_batch / max_wait_ms / max_queue / run_in_executor:
        Default :class:`DynamicBatcher` tuning for every model; override
        per model through ``add_model``.  The window knobs only apply to
        models without an explicit policy, and ``max_wait_ms`` only to
        in-process models: a cluster model's batch leaves as soon as a
        replica is free.
    replicas:
        Default worker-process count per model.  ``1`` (default) serves
        in-process; ``>= 2`` runs each model on a
        :class:`~repro.cluster.ReplicaGroup` of spawned workers, fed by
        its batcher through the cluster dispatch seam.  Override per
        model through ``add_model``.
    router:
        Default replica routing policy: a name (each cluster model gets
        a fresh router) or, for a single cluster model, a
        :class:`~repro.cluster.Router` instance -- routers hold state,
        so an instance shared by a second cluster model is refused with
        ``TypeError``.
    cluster_options:
        Extra :class:`~repro.cluster.ReplicaGroup` keyword defaults
        (``max_retries``, ``call_timeout_s``, ``handicaps``, ...).
        ``workers=["host:port", ...]`` attaches already-running
        ``repro-worker`` processes over
        :class:`~repro.cluster.SocketTransport` to every cluster model
        (and permits ``replicas=0`` for a purely remote fleet).
    autoscale:
        Default elastic-fleet policy for cluster models: an
        :class:`~repro.cluster.AutoscaleConfig` or a kwargs dict
        (``{"slo_p99_ms": 50, "max_replicas": 4}``).  Each such model
        gets its own :class:`~repro.cluster.Autoscaler` driven by a
        periodic server task between :meth:`start` and :meth:`stop`,
        growing/shrinking its replica group (drain-before-terminate) to
        hold the p99 budget at minimum process count; decisions appear
        in :meth:`stats` (``.autoscaler``) and ``GET /v1/stats``.
        ``replicas`` is the *initial* fleet size -- an explicit
        ``add_model(..., autoscale=...)`` wraps even a single-replica
        model in a group (a model that cannot be sharded then fails with
        ``TypeError``); in-process models simply ignore the server-wide
        default.
    store:
        Optional :class:`~repro.store.ModelStore` (or a directory path,
        wrapped on the spot).  Lets :meth:`add_model` take
        ``"name@version"`` strings and :class:`~repro.store.StoreRef`
        objects -- replicas then cold-start from the store with no live
        model in this process -- and enables
        :meth:`swap_model(name, version) <swap_model>`, the
        zero-downtime rolling version swap.  A server-owned registry is
        store-attached too, so LRU-evicted store-backed models rebuild
        from disk on their next use.

    Thread/async-safety: the server is bound to the event loop that runs
    :meth:`start`; all coroutines must be awaited on that loop.
    Registration (:meth:`add_model`) is not safe concurrently with
    traffic to the *same* model name, but adding new names while other
    models serve is fine (each model has an independent batcher).
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        *,
        policy=None,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        idle_flush_ms: Optional[float] = None,
        run_in_executor: bool = True,
        replicas: int = 1,
        router="round_robin",
        cluster_options: Optional[dict] = None,
        autoscale=None,
        store=None,
    ):
        if replicas < 1 and not (cluster_options or {}).get("workers"):
            raise ValueError("replicas must be >= 1 (or name remote workers in cluster_options)")
        if autoscale is not None:
            from repro.cluster import AutoscaleConfig

            autoscale = AutoscaleConfig.from_options(autoscale)
        if store is not None and not hasattr(store, "ref"):
            from repro.store import ModelStore

            store = ModelStore(store)
        self.store = store
        self.registry = registry if registry is not None else SessionRegistry(store=store)
        self._default_policy = policy
        if policy is not None and not (isinstance(policy, BatchingPolicy) or callable(policy)):
            raise TypeError(
                f"policy must be a BatchingPolicy instance or a zero-arg factory, got {type(policy).__name__}"
            )
        self._defaults = {
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "max_queue": max_queue,
            "idle_flush_ms": idle_flush_ms,
            "run_in_executor": run_in_executor,
        }
        self._default_replicas = int(replicas)
        self._default_router = router
        self._cluster_options = dict(cluster_options or {})
        self._default_autoscale = autoscale
        self._autoscale_cfgs: Dict[str, object] = {}  # name -> AutoscaleConfig
        self._autoscalers: Dict[str, object] = {}  # name -> Autoscaler (while started)
        self._autoscale_tasks: Dict[str, asyncio.Task] = {}
        self._overrides: Dict[str, dict] = {}
        self._policies: Dict[str, object] = {}
        self._batchers: Dict[str, DynamicBatcher] = {}
        self._groups: Dict[str, object] = {}  # name -> ReplicaGroup (cluster models)
        self._routers: Dict[str, object] = {}  # name -> Router instance its group was built with
        self._model_refs: Dict[str, object] = {}  # name -> StoreRef (store-backed models)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_model(
        self,
        name: str,
        model_or_session,
        *,
        replace: bool = False,
        policy=None,
        max_batch: Optional[int] = None,
        max_wait_ms: Optional[float] = None,
        max_queue: Optional[int] = None,
        idle_flush_ms: Optional[float] = None,
        replicas: Optional[int] = None,
        router=None,
        autoscale=None,
        **session_kwargs,
    ):
        """Register a model (compiled on the spot), a session, or a group.

        ``policy`` (an instance or zero-arg factory) and the batcher
        tuning arguments override the server-wide defaults for this model
        only; remaining ``session_kwargs`` (``dtype``, ``backend``, ...)
        go to ``repro.engine.compile`` when a model is given.  Returns
        the registered session.

        ``autoscale`` (an :class:`~repro.cluster.AutoscaleConfig` or
        kwargs dict) overrides the server-wide elastic-fleet policy for
        this model and forces it onto a replica group even at
        ``replicas=1`` (the initial fleet size).

        ``replicas``/``router`` override the server-wide sharding
        defaults: with an effective ``replicas >= 2`` the model is
        wrapped in a :class:`~repro.cluster.ReplicaGroup` (its workers
        spawn on :meth:`start`), and ``session_kwargs`` configure the
        sessions the *workers* build.  A ready ``ReplicaGroup`` may also
        be passed directly as ``model_or_session`` (the server takes
        ownership and closes it on :meth:`stop`).  On an already-started
        server, adding a cluster model spawns its workers *synchronously
        on the event loop* -- every model's traffic stalls for the
        spawn+compile time, so on a latency-sensitive server register
        cluster models before :meth:`start` (or on a fresh server and
        swap traffic over).

        Raises :class:`ServerClosedError` after :meth:`stop`,
        ``ValueError`` for duplicate names without ``replace=True``, and
        ``RuntimeError`` when asked to replace a model that is live on a
        started server (stop first -- a half-applied swap would desync
        batcher and registry).
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        if name in self._batchers and (replace or name not in self.registry):
            # Guard before touching the registry: a half-applied swap would
            # leave the live batcher serving a session the registry no
            # longer reports.  The second clause catches re-registering a
            # name the LRU registry evicted while its batcher stayed live:
            # silently installing a second batcher would leak the first
            # (worker task + pinned session) -- exactly the unbounded
            # growth ``max_models`` exists to prevent.
            raise RuntimeError("stop the server before replacing a live model")
        if isinstance(model_or_session, str):
            resolver = self.store if self.store is not None else getattr(self.registry, "store", None)
            if resolver is None:
                raise TypeError(
                    f"cannot register the string {model_or_session!r}: string model "
                    "references need InferenceServer(store=...)"
                )
            model_or_session = resolver.ref(model_or_session)
        spec = policy if policy is not None else self._default_policy
        if isinstance(spec, BatchingPolicy):
            # Policies are stateful (EWMA latency model, AIMD target): one
            # instance feeding two batchers would average unrelated models'
            # behavior.  An instance may serve exactly one model;
            # server-wide defaults must be factories.  The owner is whichever
            # other name holds this very instance, so a refused or failed add
            # claims nothing and a replace or eviction releases it.
            owner = _holder(self._policies, spec, name)
            if owner is not None:
                raise TypeError(
                    f"policy instance passed for {name!r} is already serving {owner!r}; "
                    "policies are stateful -- pass a factory (e.g. lambda: SLOAwarePolicy(...)) "
                    "or a fresh instance per model"
                )
        explicit_autoscale = None
        if autoscale is not None:
            from repro.cluster import AutoscaleConfig

            explicit_autoscale = AutoscaleConfig.from_options(autoscale)
        group = None
        if hasattr(model_or_session, "infer_sync"):  # quacks like a ReplicaGroup
            group = _as_replica_group(model_or_session)
            if group is not None and session_kwargs:
                raise ValueError(
                    f"session options {sorted(session_kwargs)} cannot apply to a ready ReplicaGroup"
                )
        n_replicas = int(replicas) if replicas is not None else self._default_replicas
        remote_workers = bool(self._cluster_options.get("workers"))
        if n_replicas < 1 and not remote_workers:
            raise ValueError("replicas must be >= 1 (or name remote workers in cluster_options)")
        router_instance = None
        # An autoscaled model must be cluster-backed even at replicas=1:
        # explicit autoscale= makes that a hard requirement, while the
        # server-wide default merely *tries* (an unshardable in-process
        # session falls back to serving without autoscaling).
        must_cluster = n_replicas >= 2 or remote_workers or explicit_autoscale is not None
        if group is None and (must_cluster or self._default_autoscale is not None):
            effective_router = router if router is not None else self._default_router
            if not isinstance(effective_router, str):
                router_instance = effective_router
                # Routers hold per-group state (cursor, RNG) mutated under
                # each group's own lock: one instance feeding two groups
                # would race.  Same identity contract as the policy guard.
                owner = _holder(self._routers, effective_router, name)
                if owner is not None:
                    raise TypeError(
                        f"router instance passed for {name!r} is already serving {owner!r}; "
                        "routers are stateful -- pass a name (e.g. router=\"power_of_two_choices\") "
                        "or a fresh instance per model"
                    )
            options = dict(self._cluster_options)
            if session_kwargs:
                options["session_kwargs"] = session_kwargs
            try:
                group = _build_group(model_or_session, n_replicas, effective_router, options, name)
            except TypeError:
                if must_cluster:
                    raise
                group = None  # in-process model; the autoscale default doesn't apply
                router_instance = None
        if group is not None:
            session = self.registry.register(name, group, replace=replace)
        else:
            session = self.registry.register(name, model_or_session, replace=replace, **session_kwargs)
        ref = _as_store_ref(model_or_session)
        if ref is not None:
            self._model_refs[name] = ref
        else:
            self._model_refs.pop(name, None)
        # Reconcile the group table with what just got registered: a
        # replace can swap a cluster model for an in-process one (or for
        # a different group), and the displaced group's workers must not
        # keep running -- nor keep answering under the old model.
        displaced = self._groups.pop(name, None)
        if displaced is not None and displaced is not group:
            displaced.close()
            self._routers.pop(name, None)
        if group is not None:
            self._groups[name] = group
        if router_instance is not None:
            self._routers[name] = router_instance
        effective_autoscale = explicit_autoscale
        if effective_autoscale is None and group is not None:
            effective_autoscale = self._default_autoscale
        if effective_autoscale is not None:
            self._autoscale_cfgs[name] = effective_autoscale
        else:
            self._autoscale_cfgs.pop(name, None)
            self._autoscalers.pop(name, None)
        # Server-side bookkeeping must honor the registry's LRU bound:
        # names the registration just evicted (and that have no live
        # batcher keeping them serving) are gone for good, including any
        # not-yet-started replica group waiting under them.
        for evicted in self.registry.last_evicted:
            if evicted not in self._batchers:
                self._overrides.pop(evicted, None)
                self._policies.pop(evicted, None)
                self._autoscale_cfgs.pop(evicted, None)
                self._autoscalers.pop(evicted, None)
                # Server bookkeeping only: the *registry* keeps its own
                # pinned ref, so a store-backed eviction stays reversible.
                self._model_refs.pop(evicted, None)
                self._routers.pop(evicted, None)
                stale = self._groups.pop(evicted, None)
                if stale is not None:
                    stale.close()
        overrides = {
            key: value
            for key, value in (
                ("max_batch", max_batch),
                ("max_wait_ms", max_wait_ms),
                ("max_queue", max_queue),
                ("idle_flush_ms", idle_flush_ms),
            )
            if value is not None
        }
        self._overrides[name] = overrides
        self._policies[name] = policy if policy is not None else self._default_policy
        if self._started:
            if group is not None and not group.started:
                group.start()
            self._batchers[name] = self._make_batcher(name).start()
            self._start_autoscaler(name)
        return session

    async def swap_model(self, name: str, version=None) -> dict:
        """Zero-downtime rolling swap of a cluster model to a stored version.

        Resolves ``version`` (``"latest"``, ``"vN"``, an int, or a
        content-hash prefix) in the server's store under the model's
        published name, then rolls the new version through the model's
        :class:`~repro.cluster.ReplicaGroup` spawn-then-publish /
        drain-then-retire (see
        :meth:`~repro.cluster.ReplicaGroup.swap_spec`): capacity never
        dips, no accepted request is dropped, and traffic keeps flowing
        through the swap.  The batcher, its queue, stats and policy all
        survive -- only the worker processes change -- and :meth:`stats`
        /:meth:`describe` report the new version once the roll completes
        (a monotonic flip: old version until done, new version after).

        Returns a summary dict (``model``, ``version``,
        ``content_hash``, ``replicas``).  Raises
        :class:`UnknownModelError` for unknown names, ``ValueError`` for
        in-process models (nothing to roll -- re-register instead) or a
        store-less server, and the store's typed errors for unknown
        versions.  Safe to call before :meth:`start` (the idle fleet is
        retargeted and compiles the new version on start).
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        resolver = self.store if self.store is not None else getattr(self.registry, "store", None)
        if resolver is None:
            raise ValueError("swap_model needs a model store (InferenceServer(store=...))")
        group = self._groups.get(name)
        if group is None:
            self.registry.get(name)  # raises UnknownModelError for unknown names
            raise ValueError(
                f"model {name!r} serves in-process; rolling swaps need a replica group "
                "(add it with replicas >= 2, autoscale=..., or remote workers)"
            )
        previous = self._model_refs.get(name)
        store_name = previous.name if previous is not None else name
        ref = resolver.ref(store_name, version)
        if previous is not None and ref.content_hash == previous.content_hash:
            return {"model": name, **ref.describe(), "replicas": len(group), "changed": False}
        if self._started:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, group.swap_spec, ref)
        else:
            group.swap_spec(ref)
        self._model_refs[name] = ref
        logger.info(
            "model %r: swapped to %s@%s (sha256-%.12s...) across %d replica(s)",
            name,
            ref.name,
            ref.version_tag,
            ref.content_hash,
            len(group),
        )
        _obs_logger().info(
            "serve.model_swapped",
            model=name,
            version=ref.version_tag,
            content_hash=ref.content_hash[:12],
            replicas=len(group),
        )
        return {"model": name, **ref.describe(), "replicas": len(group), "changed": True}

    def _make_batcher(self, name: str) -> DynamicBatcher:
        group = self._groups.get(name)
        # The group outlives a registry LRU eviction (the server owns it);
        # in-process sessions must still be in the registry to serve.
        session = group if group is not None else self.registry.get(name)
        options = {**self._defaults, **self._overrides.get(name, {})}
        policy = _resolve_policy(self._policies.get(name))
        if policy is not None:
            # The policy owns the window knobs; only queue/executor tuning
            # still applies at the batcher level.
            options = {key: options[key] for key in ("max_queue", "run_in_executor")}
        if group is not None:
            options["dispatch"] = group.infer
            options["shed_retry"] = group.rescue
            # One outstanding batch per replica: full fleet utilization,
            # backpressure past that.
            options["max_concurrent_dispatches"] = max(1, len(group))
            autoscale = self._autoscale_cfgs.get(name)
            if autoscale is not None:
                # The dispatch semaphore is fixed at construction, so an
                # elastic fleet sizes it for the cap up front (a fleet
                # below the cap simply backpressures through the replicas
                # themselves); the smaller stats window lets post-scaling
                # traffic displace stale percentile samples fast enough
                # for the control loop to see its own effect.
                options["max_concurrent_dispatches"] = max(
                    1, len(group), autoscale.max_replicas
                )
                options["stats_window"] = autoscale.stats_window
        return DynamicBatcher(
            session,
            policy=policy,
            input_shape=_expected_input_shape(session),
            name=name,
            **options,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "InferenceServer":
        """Spawn a batcher worker per registered model.

        Cluster models spawn their replica worker processes first (in the
        thread-pool executor, concurrently across groups, so the event
        loop stays responsive while sessions compile in the children).
        A startup failure is terminal for the *server*: every group --
        including siblings whose workers did spawn -- is closed before
        the error propagates, so nothing leaks even when ``async with
        server`` never reaches ``__aexit__``.  Build a fresh server to
        retry.
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        if not self._started:
            # Loop until no group is left unstarted: add_model may land a
            # *new* cluster model while a spawn gather is awaited, and it
            # only starts groups itself once self._started is True.  The
            # final no-pending check runs with no await before the flag
            # flips, so nothing can slip between.
            while True:
                pending = [group for group in self._groups.values() if not group.started]
                if not pending:
                    break
                loop = asyncio.get_running_loop()
                outcomes = await asyncio.gather(
                    *(loop.run_in_executor(None, group.start) for group in pending),
                    return_exceptions=True,
                )
                failures = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
                if failures:
                    self._closed = True
                    await asyncio.gather(
                        *(loop.run_in_executor(None, group.close) for group in self._groups.values()),
                        return_exceptions=True,
                    )
                    self._groups.clear()
                    raise failures[0]
            self._started = True
            names = list(self.registry.names())
            names.extend(name for name in self._groups if name not in names)
            for name in names:
                if name not in self._batchers:
                    self._batchers[name] = self._make_batcher(name).start()
            for name in list(self._autoscale_cfgs):
                self._start_autoscaler(name)
        return self

    def _start_autoscaler(self, name: str) -> None:
        """Build the model's autoscaler and spawn its periodic driver task."""
        config = self._autoscale_cfgs.get(name)
        group = self._groups.get(name)
        batcher = self._batchers.get(name)
        if config is None or group is None or batcher is None or name in self._autoscale_tasks:
            return
        from repro.cluster import Autoscaler

        scaler = Autoscaler(group, batcher.stats(), config, registry=self.registry, model=name)
        self._autoscalers[name] = scaler
        self._autoscale_tasks[name] = asyncio.get_running_loop().create_task(
            self._autoscale_loop(scaler), name=f"repro-autoscale-{name}"
        )

    async def _autoscale_loop(self, scaler) -> None:
        """Drive one autoscaler until :meth:`stop` cancels the task.

        Each tick runs in the thread-pool executor -- membership changes
        block for spawn/drain time, and the event loop must keep serving
        traffic through them (that traffic is what the next decision
        reads).  A failing tick is logged and the loop continues: the
        control loop must outlive one bad evaluation.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(scaler.config.interval_s)
            try:
                await loop.run_in_executor(None, scaler.step)
            except asyncio.CancelledError:
                raise
            except Exception:
                logger.exception("autoscaler %r: step failed; continuing", scaler.model)

    async def stop(self) -> None:
        """Drain every batcher, terminate replica workers, refuse new requests.

        Draining means no accepted request is dropped: everything already
        queued runs (or is settled by its policy/rescue path) before the
        batchers join, and only then are cluster worker processes
        stopped.
        """
        if self._closed:
            return
        self._closed = True
        self._started = False
        # Autoscalers first: a membership change racing the shutdown
        # would spawn workers the close sweep below never sees.  A tick
        # already running in the executor cannot be interrupted, but
        # ReplicaGroup.close() serializes with it on the membership lock.
        tasks = list(self._autoscale_tasks.values())
        self._autoscale_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        batchers = list(self._batchers.values())
        self._batchers.clear()
        await asyncio.gather(*(batcher.stop() for batcher in batchers))
        groups = list(self._groups.values())
        self._groups.clear()
        if groups:
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(loop.run_in_executor(None, group.close) for group in groups))

    async def close(self) -> None:
        """Graceful shutdown: alias of :meth:`stop` (drain, then terminate)."""
        await self.stop()

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    async def submit(self, name: str, payload, *, slo_ms: Optional[float] = None) -> np.ndarray:
        """Submit one request to model ``name``; returns its result row.

        Classifier sessions resolve to a ``(num_classes,)`` logit vector,
        segmentation sessions to an ``(N, N)`` intensity map.  ``slo_ms``
        attaches an explicit per-request latency budget (deadline-aware
        policies stamp their default when omitted).

        Raises :class:`UnknownModelError` for unregistered names,
        :class:`ServerClosedError` before :meth:`start`/after
        :meth:`stop`, :class:`ServerOverloadedError` on a full queue, and
        :class:`DeadlineExceededError` when the budget expires in queue.
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        try:
            batcher = self._batchers[name]
        except KeyError:
            self.registry.get(name)  # raises UnknownModelError for unknown names
            raise ServerClosedError("server is not started (use `async with server:` or await start())") from None
        return await batcher.submit(payload, slo_ms=slo_ms)

    async def submit_many(self, name: str, payloads) -> np.ndarray:
        """Submit a burst of requests concurrently; returns stacked results."""
        if self._closed:
            raise ServerClosedError("server is stopped")
        results = await asyncio.gather(*(self.submit(name, payload) for payload in payloads))
        if results:
            return np.stack(results, axis=0)
        # Preserve the engine's empty-batch output shape ((0, C) / (0, N, N))
        # when the session can tell us what an empty request batch looks
        # like.  Prefer the live batcher's session: a model the LRU
        # registry evicted keeps serving through its batcher, and an
        # empty burst must not be the one call that raises.
        batcher = self._batchers.get(name)
        session = batcher.session if batcher is not None else self.registry.get(name)
        shape = getattr(session, "input_shape", None)
        if shape is not None:
            return session.run(np.empty((0, *shape)))
        return np.empty((0,))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """Accepting traffic: between :meth:`start` and :meth:`stop`."""
        return self._started and not self._closed

    def describe(self) -> Dict[str, dict]:
        """Static per-model metadata, keyed by model name.

        The discovery counterpart of :meth:`stats` (which carries live
        counters): model kind, expected per-request ``input_shape``,
        backend/dtype, replica count and routing policy.  This is what
        the HTTP gateway serves under ``GET /v1/models``.  Cluster
        models report full metadata only once their workers have
        hand-shaken (i.e. after :meth:`start`).
        """
        names = list(self.registry.names())
        names.extend(name for name in self._groups if name not in names)
        names.extend(name for name in self._batchers if name not in names)
        models: Dict[str, dict] = {}
        for name in sorted(set(names)):
            ref = self._model_refs.get(name)
            version = ref.describe() if ref is not None else None
            group = self._groups.get(name)
            if group is not None:
                meta = group.meta or {}
                shape = meta.get("input_shape")
                models[name] = {
                    "name": name,
                    "kind": meta.get("kind"),
                    "input_shape": list(shape) if shape is not None else None,
                    "backend": meta.get("backend"),
                    "dtype": meta.get("dtype"),
                    "replicas": len(group),
                    "router": group.router_name,
                    "autoscale": name in self._autoscale_cfgs,
                    "store": version,
                }
                continue
            batcher = self._batchers.get(name)
            session = batcher.session if batcher is not None else self.registry.get(name)
            shape = getattr(session, "input_shape", None)
            dtype = getattr(session, "dtype", None)
            models[name] = {
                "name": name,
                "kind": getattr(session, "kind", None),
                "input_shape": list(shape) if shape is not None else None,
                "backend": getattr(session, "backend_name", None),
                "dtype": dtype.name if dtype is not None else None,
                "replicas": 1,
                "router": None,
                "autoscale": False,
                "store": version,
            }
        return models

    def stats(self) -> Dict[str, BatcherStats]:
        """Live per-model telemetry, keyed by model name.

        Each :class:`~repro.serve.metrics.BatcherStats` carries fusion
        counters (``batches``, ``mean_batch_size``), rejection counters
        (``rejected`` for overload, ``deadline_missed`` for SLO sheds,
        ``shed_retried``/``shed_recovered`` for the cluster rescue path)
        and sliding-window latency percentiles with a queue-wait vs
        compute breakdown -- ``.as_dict()`` gives a flat JSON-friendly
        snapshot for dashboards.  Models running on a replica group
        additionally carry the group's per-replica breakdown
        (``.replicas``: in-flight depth, EWMA latency, restarts per
        worker process).
        """
        snapshot: Dict[str, BatcherStats] = {}
        for name, batcher in self._batchers.items():
            stats = batcher.stats()
            group = self._groups.get(name)
            stats.replicas = group.stats() if group is not None else None
            scaler = self._autoscalers.get(name)
            stats.autoscaler = scaler.snapshot() if scaler is not None else None
            ref = self._model_refs.get(name)
            stats.store = ref.describe() if ref is not None else None
            snapshot[name] = stats
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("started" if self._started else "idle")
        return f"InferenceServer(models={sorted(self.registry.names())}, state={state!r})"
