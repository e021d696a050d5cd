"""The asyncio serving front-end: one name table, one dynamic batcher per model.

:class:`InferenceServer` is the piece user code talks to::

    server = InferenceServer(max_batch=32)
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

A model added as a :class:`~repro.cluster.ReplicaGroup` the caller built
(``server.add_model("digits", ReplicaGroup(spec, replicas=4))``) sends
its fused batches out of the process entirely: the group's worker
processes compute them behind its routing policy, sidestepping the GIL
that otherwise serializes every model's FFT work through one
interpreter.  See ``docs/sharding.md``.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.serve.batcher import BatcherStats, DynamicBatcher
from repro.serve.errors import ServerClosedError, UnknownModelError
from repro.serve.policy import BatchingPolicy
from repro.obs.log import get_logger as _obs_logger

logger = logging.getLogger(__name__)


def _as_store_ref(obj):
    """``obj`` when it quacks like a :class:`~repro.store.StoreRef`, else ``None``."""
    if callable(getattr(obj, "load_spec", None)) and hasattr(obj, "content_hash"):
        return obj
    return None


def _as_replica_group(obj):
    """The object itself when it is a :class:`~repro.cluster.ReplicaGroup`.

    Imported lazily, and only for an object with ``infer_sync``: the
    serving layer must stay importable (and fully functional in-process)
    without ever touching ``repro.cluster``.
    """
    if not hasattr(obj, "infer_sync"):
        return None
    from repro.cluster import ReplicaGroup

    return obj if isinstance(obj, ReplicaGroup) else None


@dataclass
class _ServedModel:
    """Everything the server keeps for one model name."""

    session: object  # what the batcher runs: the session, or the model's replica group
    policy: object = None  # policy spec: None, a BatchingPolicy or a zero-arg factory
    overrides: dict = field(default_factory=dict)  # per-model batcher tuning
    group: object = None  # ReplicaGroup of a cluster model
    ref: object = None  # StoreRef of a store-backed model (or its group's spec)
    autoscale: object = None  # AutoscaleConfig of an elastic fleet
    # Set by the wiring path while the server runs:
    batcher: Optional[DynamicBatcher] = None
    autoscaler: object = None
    task: Optional[asyncio.Task] = None


def _policy_spec(spec):
    """``spec`` itself when it is a policy spec: ``None``, a ready instance, or a zero-arg factory.

    Policies are stateful (EWMA latency model, AIMD target), so each
    batcher needs its *own* instance: server-wide defaults must therefore
    be factories, e.g. ``policy=lambda: SLOAwarePolicy(slo_ms=50)``.
    """
    if spec is None or isinstance(spec, BatchingPolicy) or callable(spec):
        return spec
    raise TypeError(
        f"policy must be a BatchingPolicy instance or a zero-arg factory, got {type(spec).__name__}"
    )


def _resolve_policy(spec) -> Optional[BatchingPolicy]:
    """The batcher's policy from a checked spec (a factory is called once per batcher)."""
    if spec is None or isinstance(spec, BatchingPolicy):
        return spec
    policy = spec()
    if not isinstance(policy, BatchingPolicy):
        raise TypeError(f"policy factory returned {type(policy).__name__}, expected a BatchingPolicy")
    return policy


class InferenceServer:
    """Serve one or more inference sessions behind dynamic batching.

    Parameters
    ----------
    policy:
        Default batching policy for every model: a zero-arg factory (each
        model gets a fresh instance) or, for a single-model server, a
        ready :class:`~repro.serve.policy.BatchingPolicy`.  ``None``
        falls back to a :class:`~repro.serve.policy.FixedWindowPolicy`
        of ``max_batch``.
    max_batch / max_queue:
        Default :class:`DynamicBatcher` tuning for every model; override
        them per model through ``add_model``.  ``max_batch`` only applies
        to models without an explicit policy.  Every model's batch leaves
        as soon as its engine is free: an in-process model runs one batch
        at a time (on the thread-pool executor, so the event loop keeps
        accepting requests), a cluster model one per replica.
    store:
        Optional :class:`~repro.store.ModelStore` (or a directory path,
        wrapped on the spot).  Lets :meth:`add_model` take
        ``"name@version"`` strings and :class:`~repro.store.StoreRef`
        objects, and enables :meth:`swap_model(name, version)
        <swap_model>`, the zero-downtime rolling version swap of a
        replica group built on a store ref.

    A replica fleet reaches the server one way: as a
    :class:`~repro.cluster.ReplicaGroup` the caller built and passed to
    :meth:`add_model`, optionally with ``autoscale=``.  The group's own
    constructor takes its size, router and worker addresses.

    Thread/async-safety: the server is bound to the event loop that runs
    :meth:`start`; all coroutines must be awaited on that loop.
    Registration (:meth:`add_model`) is not safe concurrently with
    traffic to the *same* model name, but adding new names while other
    models serve is fine (each model has an independent batcher).
    """

    def __init__(self, *, policy=None, max_batch: int = 32, max_queue: int = 256, store=None):
        if store is not None and not hasattr(store, "ref"):
            from repro.store import ModelStore

            store = ModelStore(store)
        # The store that resolves "name@version" strings and version swaps.
        self.store = store
        self._default_policy = _policy_spec(policy)
        self._defaults = {"max_batch": max_batch, "max_queue": max_queue}
        #: The one name table: a record per served model.
        self._models: Dict[str, _ServedModel] = {}
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
        max_queue: Optional[int] = None,
        autoscale=None,
        **session_kwargs,
    ):
        """Register a model (compiled on the spot), a session, a group or a store ref.

        ``model_or_session`` becomes what the model's batcher runs in one
        place, after every check below has passed:

        * a :class:`~repro.store.StoreRef`, or a ``"name@version"``
          string resolved in the server's store: built from the store
          (``ref.build()``) and served in-process;
        * a session-like object (a ``run`` method) or a
          :class:`~repro.cluster.ReplicaGroup`: used as it is;
        * a model: compiled with ``repro.engine.compile(model,
          **session_kwargs)`` (``dtype``, ``backend``, ...).

        ``policy`` (an instance or zero-arg factory) and the batcher
        tuning arguments override the server-wide defaults for this model
        only.  Returns the session the batcher runs (the group of a
        cluster model).

        A ``ReplicaGroup`` is the one way a model runs on worker
        processes; its constructor sets the fleet's size, router and
        remote workers.  The server takes ownership of it and closes it
        on :meth:`stop` (or when a replace displaces it), so a group
        serves one name.  A group built on a store ref reports that
        version in :meth:`describe` and :meth:`stats` and rolls to
        another through :meth:`swap_model`.  ``autoscale`` (an
        :class:`~repro.cluster.AutoscaleConfig` or kwargs dict) resizes
        the group to hold a latency budget; the group's size is the
        initial fleet.  On an already-started server, adding a group
        spawns its workers *synchronously on the event loop* -- every
        model's traffic stalls for the spawn+compile time, so on a
        latency-sensitive server add groups before :meth:`start` (or
        on a fresh server and swap traffic over).

        Raises :class:`ServerClosedError` after :meth:`stop`;
        ``ValueError`` for an empty or non-string name, a duplicate name
        without ``replace=True``, or session options given with an
        already-compiled object (a session, a group or a store ref);
        ``TypeError`` for an object that is none of the above, a string
        on a server without a store, ``autoscale`` with anything but a
        group, or a policy instance or group that another name holds;
        and ``RuntimeError`` when asked to replace a model that is live
        on a started server (stop first -- a half-applied swap would
        leave the live batcher serving a session its record no longer
        holds).  A refused call leaves the server's models as they were.
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        if not name or not isinstance(name, str):
            raise ValueError("model name must be a non-empty string")
        held = self._models.get(name)
        if held is not None and not replace:
            raise ValueError(f"model {name!r} is already registered (pass replace=True to swap it)")
        if held is not None and held.batcher is not None:
            raise RuntimeError("stop the server before replacing a live model")
        if isinstance(model_or_session, str):
            if self.store is None:
                raise TypeError(
                    f"cannot register the string {model_or_session!r}: string model "
                    "references need InferenceServer(store=...)"
                )
            model_or_session = self.store.ref(model_or_session)
        group = _as_replica_group(model_or_session)
        # A group on a pinned store version is a store-backed fleet.
        ref = _as_store_ref(group.spec if group is not None else model_or_session)
        ready = ref is not None or callable(getattr(model_or_session, "run", None))
        if session_kwargs and ready:
            raise ValueError(
                f"session options {sorted(session_kwargs)} need a model; a "
                f"{type(model_or_session).__name__} was compiled with its options already"
            )
        spec = _policy_spec(policy if policy is not None else self._default_policy)
        # Policies (EWMA latency model, AIMD target) and groups (workers a
        # replace closes) are stateful: an instance serves exactly one
        # name, so server-wide policy defaults must be factories.  The
        # owner is whichever other name holds this very instance, so a
        # refused or failed add claims nothing and a replace releases it.
        policy_instance = spec if isinstance(spec, BatchingPolicy) else None
        for instance, advice in (
            (policy_instance, "pass a factory (e.g. lambda: SLOAwarePolicy(...)) or a fresh instance per model"),
            (group, "build one group per model"),
        ):
            owner = self._holder(instance, name) if instance is not None else None
            if owner is not None:
                raise TypeError(
                    f"{type(instance).__name__} instance passed for {name!r} is already serving "
                    f"{owner!r}; it is stateful -- {advice}"
                )
        if autoscale is not None:
            if group is None:
                raise TypeError(
                    f"autoscale resizes a replica group; {name!r} is a {type(model_or_session).__name__} "
                    "(pass a ReplicaGroup to autoscale it)"
                )
            from repro.cluster import AutoscaleConfig

            autoscale = AutoscaleConfig.from_options(autoscale)
        # The one place the object becomes what the batcher runs.
        if group is not None:
            session = group
        elif ref is not None:
            session = ref.build()
        elif ready:
            session = model_or_session
        else:
            from repro.engine import compile as engine_compile

            session = engine_compile(model_or_session, **session_kwargs)
        overrides = {
            key: value for key, value in (("max_batch", max_batch), ("max_queue", max_queue)) if value is not None
        }
        record = _ServedModel(session, policy=spec, overrides=overrides, group=group, ref=ref, autoscale=autoscale)
        # A replace displaces the name's old record; its group closes, so
        # the workers neither keep running nor answer under the old model.
        self._models[name] = record
        if held is not None and held.group is not None and held.group is not group:
            held.group.close()
        if self._started:
            try:
                self._wire(name, record)
            except Exception:
                # Half-registered, the name would answer 503 forever.
                del self._models[name]
                if group is not None:
                    group.close()
                raise
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
        in-process models (nothing to roll -- re-register instead), a
        store-less server or a group whose store ref names another store
        than the server's, and the store's typed errors for unknown
        versions.  Safe to call before :meth:`start` (the idle fleet is
        retargeted and compiles the new version on start).
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        if self.store is None:
            raise ValueError("swap_model needs a model store (InferenceServer(store=...))")
        model = self._lookup(name)
        if model.group is None:
            raise ValueError(
                f"model {name!r} serves in-process; rolling swaps need a replica group "
                "(add it as a ReplicaGroup on a store ref)"
            )
        group = model.group
        previous = model.ref
        if previous is not None and f"{previous.scheme}:{previous.location}" != self.store.backend.describe():
            # The server's store would resolve the name to an unrelated model.
            raise ValueError(
                f"model {name!r} serves {previous.name}@{previous.version_tag} from store "
                f"{previous.scheme}:{previous.location}, not from this server's store "
                f"{self.store.backend.describe()}; swap it through a server on that store"
            )
        store_name = previous.name if previous is not None else name
        ref = self.store.ref(store_name, version)
        if previous is not None and ref.content_hash == previous.content_hash:
            return {"model": name, **ref.describe(), "replicas": len(group), "changed": False}
        if self._started:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, group.swap_spec, ref)
        else:
            group.swap_spec(ref)
        model.ref = ref
        _obs_logger().info(
            "serve.model_swapped",
            model=name,
            version=ref.version_tag,
            content_hash=ref.content_hash[:12],
            replicas=len(group),
        )
        return {"model": name, **ref.describe(), "replicas": len(group), "changed": True}

    def _holder(self, instance, name: str) -> Optional[str]:
        """The name other than ``name`` whose record holds ``instance`` as its policy or group."""
        for key, model in self._models.items():
            if key != name and (model.policy is instance or model.group is instance):
                return key
        return None

    def _wire(self, name: str, model: _ServedModel) -> None:
        """Start the model's group, its batcher and its autoscaler task: the one wiring path.

        :meth:`start` runs it for every record; :meth:`add_model` runs it
        for a model added to a started server.
        """
        policy = _resolve_policy(model.policy)
        options = {**self._defaults, **model.overrides}
        if policy is not None:
            # The policy owns the fusion cap; only the queue bound still
            # applies at the batcher level.
            options = {"max_queue": options["max_queue"]}
        group = model.group
        if group is not None:
            if not group.started:
                group.start()
            options["dispatch"] = group.infer
            options["shed_retry"] = group.rescue
            # One outstanding batch per replica: full fleet utilization,
            # backpressure past that.
            options["max_concurrent_dispatches"] = max(1, len(group))
            if model.autoscale is not None:
                # The dispatch semaphore is fixed at construction, so an
                # elastic fleet sizes it for the cap up front (a fleet
                # below the cap simply backpressures through the replicas
                # themselves); the smaller stats window lets post-scaling
                # traffic displace stale percentile samples fast enough
                # for the control loop to see its own effect.
                options["max_concurrent_dispatches"] = max(
                    1, len(group), model.autoscale.max_replicas
                )
                options["stats_window"] = model.autoscale.stats_window
        # A group knows its per-request input shape once it has started.
        shape = getattr(model.session, "input_shape", None)
        model.batcher = DynamicBatcher(
            model.session,
            policy=policy,
            input_shape=tuple(shape) if shape is not None else None,
            name=name,
            **options,
        ).start()
        if model.autoscale is not None:
            from repro.cluster import Autoscaler

            model.autoscaler = Autoscaler(group, model.batcher.stats(), model.autoscale, model=name)
            model.task = asyncio.get_running_loop().create_task(
                self._autoscale_loop(model.autoscaler), name=f"repro-autoscale-{name}"
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "InferenceServer":
        """Spawn a batcher worker per registered model.

        Cluster models spawn their replica worker processes first (in the
        thread-pool executor, concurrently across groups, so the event
        loop stays responsive while sessions compile in the children).
        A startup failure -- a group that cannot spawn, or a model whose
        batcher options fail when it is wired -- is terminal for the
        *server*: :meth:`stop` runs before the error propagates, so every
        batcher, autoscaler task and group (including siblings whose
        workers did spawn) is gone even when ``async with server`` never
        reaches ``__aexit__``.  Build a fresh server to retry.
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        if self._started:
            return self
        try:
            # Loop until no group is left unstarted: add_model may land a
            # *new* cluster model while a spawn gather is awaited, and it
            # only starts groups itself once self._started is True.  The
            # final no-pending check runs with no await before the flag
            # flips, so nothing can slip between.
            while True:
                pending = [
                    model.group
                    for model in self._models.values()
                    if model.group is not None and not model.group.started
                ]
                if not pending:
                    break
                loop = asyncio.get_running_loop()
                outcomes = await asyncio.gather(
                    *(loop.run_in_executor(None, group.start) for group in pending),
                    return_exceptions=True,
                )
                for outcome in outcomes:
                    if isinstance(outcome, BaseException):
                        raise outcome
            self._started = True
            for name, model in self._models.items():
                self._wire(name, model)
        except BaseException:
            await self.stop()
            raise
        return self

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
        models = list(self._models.values())
        self._models.clear()
        # Autoscalers first: a membership change racing the shutdown
        # would spawn workers the close sweep below never sees.  A tick
        # already running in the executor cannot be interrupted, but
        # ReplicaGroup.close() serializes with it on the membership lock.
        tasks = [model.task for model in models if model.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.gather(*(model.batcher.stop() for model in models if model.batcher is not None))
        groups = [model.group for model in models if model.group is not None]
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

        Raises :class:`UnknownModelError` for a name the server does not
        serve, :class:`ServerClosedError` before :meth:`start`/after
        :meth:`stop`, :class:`ServerOverloadedError` on a full queue, and
        :class:`DeadlineExceededError` when the budget expires in queue.
        """
        if self._closed:
            raise ServerClosedError("server is stopped")
        model = self._lookup(name)
        if model.batcher is None:
            raise ServerClosedError("server is not started (use `async with server:` or await start())")
        return await model.batcher.submit(payload, slo_ms=slo_ms)

    async def submit_many(self, name: str, payloads) -> np.ndarray:
        """Submit a burst of requests concurrently; returns stacked results."""
        if self._closed:
            raise ServerClosedError("server is stopped")
        model = self._lookup(name)
        results = await asyncio.gather(*(self.submit(name, payload) for payload in payloads))
        if results:
            return np.stack(results, axis=0)
        # Preserve the engine's empty-batch output shape ((0, C) / (0, N, N))
        # when the session can tell us what an empty request batch looks
        # like.
        shape = getattr(model.session, "input_shape", None)
        if shape is not None:
            return model.session.run(np.empty((0, *shape)))
        return np.empty((0,))

    def _lookup(self, name: str) -> _ServedModel:
        """The record of ``name``; raises :class:`UnknownModelError` when there is none."""
        model = self._models.get(name)
        if model is None:
            served = ", ".join(sorted(self._models)) or "<none>"
            raise UnknownModelError(f"no model served under {name!r} (serving: {served})")
        return model

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
        models: Dict[str, dict] = {}
        for name, model in sorted(self._models.items()):
            group = model.group
            if group is not None:
                meta = group.meta or {}
                kind, shape, backend, dtype = (meta.get(key) for key in ("kind", "input_shape", "backend", "dtype"))
            else:
                kind, shape, backend, dtype = (
                    getattr(model.session, key, None) for key in ("kind", "input_shape", "backend_name", "dtype")
                )
                dtype = dtype.name if dtype is not None else None
            models[name] = {
                "name": name,
                "kind": kind,
                "input_shape": list(shape) if shape is not None else None,
                "backend": backend,
                "dtype": dtype,
                "replicas": len(group) if group is not None else 1,
                "router": group.router_name if group is not None else None,
                "autoscale": model.autoscale is not None,
                "store": model.ref.describe() if model.ref is not None else None,
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
        for name, model in self._models.items():
            if model.batcher is None:
                continue
            stats = model.batcher.stats()
            stats.replicas = model.group.stats() if model.group is not None else None
            stats.autoscaler = model.autoscaler.snapshot() if model.autoscaler is not None else None
            stats.store = model.ref.describe() if model.ref is not None else None
            snapshot[name] = stats
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("started" if self._started else "idle")
        return f"InferenceServer(models={sorted(self._models)}, state={state!r})"
