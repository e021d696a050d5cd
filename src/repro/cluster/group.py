"""Replica groups: N worker processes behind one routed dispatch point.

A :class:`ReplicaGroup` owns ``replicas`` worker processes all built from
the same :class:`~repro.engine.SessionSpec`, routes each fused batch to
one of them through a pluggable :class:`~repro.cluster.router.Router`,
and keeps the fleet healthy: a worker that crashes or wedges mid-call is
restarted in the background while the batch retries on another replica
(bounded -- callers get :class:`~repro.cluster.ReplicaCrashError` rather
than a hang when the budget runs out).  Restarts back off exponentially
per replica (capped), so a worker binary that crash-loops on startup
cannot respawn as fast as batches fail.

The fleet is **elastic**: :meth:`add_replica`, :meth:`remove_replica`
and :meth:`scale_to` change the membership at runtime.  Removal is
drain-before-terminate -- the victim is first hidden from the router
(no new dispatches), its in-flight calls complete, and only then is the
worker stopped -- so scaling down drops zero accepted requests.  The
:class:`~repro.cluster.autoscale.Autoscaler` drives these primitives to
hold a latency budget at minimum process count.  Each kind of change
takes one path: one member factory, one join (all growth), one drain
(removal, remote swap) and one restart, which the background revive and
:meth:`check_health` share -- same slot rule, backoff and events.

The group is the *dispatch seam* the serving layer plugs into: a
:class:`~repro.serve.DynamicBatcher` hands its coalesced batch to
:meth:`infer` instead of calling the in-process session, which moves the
FFT work out of the GIL-bound server process entirely.  The group also
quacks enough like a session (``input_shape``, ``kind``, empty-batch
``run``) for the server's validation and registry plumbing to treat it
uniformly.

Every spawned local worker gets an explicit BLAS/OpenMP thread budget,
``max(1, usable_cores // local workers)``, fixed when it spawns (a
restart recomputes it from the fleet size at that moment).  Remote
workers keep their own host's environment.

Thread/async-safety: :meth:`infer`/:meth:`rescue` are coroutines bound
to the caller's running loop; the blocking pipe work happens on the
group's own dispatch threads, one per member, so every replica can have
a batch in flight whatever the loop's default executor holds.
:meth:`infer_sync` is the same dispatch path for synchronous callers
(tests, scripts).  Internal counters are
guarded by a lock; waits on them (close, drains, restart backoff) block
on one condition of it instead of polling.  Membership changes are
serialized by their own re-entrant lock and safe under concurrent
dispatch.  One group may serve many concurrent callers.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.cluster.errors import (
    NoReplicaAvailableError,
    ReplicaCrashError,
    ReplicaTimeoutError,
)
from repro.cluster.replica import Replica
from repro.cluster.router import ReplicaView, Router, make_router
from repro.cluster.transport import LocalTransport, SocketTransport, usable_cores
from repro.engine.spec import SessionSpec
from repro.obs.log import get_logger as _obs_logger
from repro.obs.trace import get_dispatch_context

__all__ = ["ReplicaGroup"]


class ReplicaGroup:
    """Process-sharded replicas of one model behind a routing policy.

    Parameters
    ----------
    spec:
        The :class:`~repro.engine.SessionSpec` every worker builds its
        session from (``repro.engine.compile(model).to_spec()`` or
        ``SessionSpec.from_model(model, ...)``).
    replicas:
        Local worker-process count (may be 0 when ``workers`` names at
        least one remote worker).  The *initial* fleet size:
        :meth:`scale_to` / :meth:`add_replica` / :meth:`remove_replica`
        change it at runtime.
    workers:
        Optional list of ``"host:port"`` addresses of already-running
        ``repro-worker`` processes (see :mod:`repro.cluster.remote`) to
        attach over :class:`~repro.cluster.transport.SocketTransport`.
        Remote replicas take the indices after the local ones and join
        the same routing/retry/restart machinery -- a restart is simply
        a reconnect.
    router:
        ``"round_robin"`` / ``"least_loaded"`` / ``"power_of_two_choices"``
        or a ready :class:`~repro.cluster.Router` instance (routers hold
        per-group state: one instance per group).
    max_retries:
        How many *other* replicas a batch may be retried on after a
        crash/timeout before the error propagates to callers.
    handicaps:
        Optional ``{replica_index: seconds}`` of artificial per-call
        sleep -- models asymmetric replica capacity in tests.
    call_timeout_s / start_timeout_s:
        Per-call answer deadline (a silent worker counts as dead) and
        worker startup handshake deadline.
    restart_backoff_s / restart_backoff_cap_s:
        Capped exponential backoff between *failed* restart attempts of
        one replica (``backoff * 2**(attempts-1)``, capped); consecutive
        failures are observable as ``restart_attempts`` in :meth:`stats`.
    drain_timeout_s:
        Default :meth:`remove_replica` drain deadline: how long a
        departing replica may take to finish its in-flight calls before
        it is terminated anyway (logged, never silent).
    close_timeout_s:
        How long :meth:`close` waits for in-flight background restarts
        to finish before terminating workers around them; a restart
        thread still running at the deadline is logged, not silently
        abandoned.

    Raises
    ------
    ValueError
        For ``replicas < 0``/``max_retries < 0``, an empty fleet, or an
        unknown router.
    WorkerStartupError
        From :meth:`start` when a worker cannot build its session.
    ReplicaCrashError / ReplicaTimeoutError
        From :meth:`infer` once the retry budget is exhausted.
    NoReplicaAvailableError
        When every replica is dead (or, for :meth:`rescue`, busy).
    """

    def __init__(
        self,
        spec: SessionSpec,
        replicas: int = 2,
        router="round_robin",
        *,
        workers: Optional[List[str]] = None,
        max_retries: int = 2,
        handicaps: Optional[Dict[int, float]] = None,
        call_timeout_s: float = 60.0,
        start_timeout_s: float = 120.0,
        restart_backoff_s: float = 0.5,
        restart_backoff_cap_s: float = 30.0,
        drain_timeout_s: float = 30.0,
        close_timeout_s: float = 60.0,
        name: str = "",
        clock=None,
    ):
        workers = list(workers or [])
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if replicas + len(workers) < 1:
            raise ValueError("need at least one replica (local or remote worker)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if drain_timeout_s <= 0 or close_timeout_s <= 0:
            raise ValueError("drain/close timeouts must be > 0")
        self.spec = spec
        self.name = name or spec.model_type
        self.max_retries = int(max_retries)
        self.drain_timeout_s = float(drain_timeout_s)
        self.close_timeout_s = float(close_timeout_s)
        self._router: Router = make_router(router)
        self._call_timeout_s = float(call_timeout_s)
        self._start_timeout_s = float(start_timeout_s)
        self._restart_backoff_s = float(restart_backoff_s)
        self._restart_backoff_cap_s = float(restart_backoff_cap_s)
        #: Monotonic time source for restart-backoff decisions (injected by
        #: tests; real deployments run on ``time.monotonic``).  Drain and
        #: close deadlines deliberately stay on wall time -- they bound
        #: real worker behavior, not control-law bookkeeping.
        self._clock = clock if clock is not None else time.monotonic
        handicaps = handicaps or {}
        # Local workers take the first indices, remote ones the rest.
        addresses: List[Optional[str]] = [None] * int(replicas) + workers
        self._replicas: List[Replica] = [
            self._new_replica(index, handicap_s=float(handicaps.get(index, 0.0)), address=address)
            for index, address in enumerate(addresses)
        ]
        self._lock = threading.Lock()  # in-flight counters + restart/drain flags
        #: Signalled (under ``_lock``) whenever a wait may be over: an
        #: in-flight count drops, a revive frees its slot, the group closes.
        self._changed = threading.Condition(self._lock)
        self._membership = threading.RLock()  # serializes add/remove/scale_to
        self._by_index: Dict[int, Replica] = {r.index: r for r in self._replicas}
        self._next_index = len(addresses)
        self._restarting: set = set()
        self._draining: set = set()
        #: Dispatch thread pools, newest last: one thread per member, and a
        #: bigger pool replaces the newest when the fleet outgrows it.
        #: close() joins them all.
        self._executors: List[ThreadPoolExecutor] = []
        self._executor_size = 0
        self._started = False
        self._closed = False

    def _new_replica(self, index: int, *, handicap_s: float = 0.0, spec=None, address: Optional[str] = None) -> Replica:
        """One unstarted member on ``spec`` (default: the group's); with ``address``, a remote worker."""
        spec = spec if spec is not None else self.spec
        transport = None
        if address is not None:
            transport = SocketTransport(
                spec, address, options={"handicap_s": handicap_s}, start_timeout_s=self._start_timeout_s
            )
        return Replica(
            spec,
            index,
            transport=transport,
            handicap_s=handicap_s,
            call_timeout_s=self._call_timeout_s,
            start_timeout_s=self._start_timeout_s,
            restart_backoff_s=self._restart_backoff_s,
            restart_backoff_cap_s=self._restart_backoff_cap_s,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._started and not self._closed

    @property
    def router_name(self) -> str:
        return self._router.name

    def start(self) -> "ReplicaGroup":
        """Spawn all workers (concurrently) and wait for their handshakes."""
        if self._closed:
            raise RuntimeError(f"replica group {self.name!r} is closed")
        if self._started:
            return self
        with self._lock:
            pending = [replica for replica in self._replicas if not replica.alive]
        failed = self._boot(pending)
        if failed:
            # Tear down whatever booted, but leave the group *open*: a
            # transient startup failure (slow host missing a handshake
            # deadline) must stay retryable, not brick the group.
            for replica in self._replicas:
                replica.close()
            raise next(iter(failed.values()))
        self._started = True
        return self

    def _assign_thread_budget(self, replicas: List[Replica]) -> None:
        """Give each local worker in ``replicas`` its BLAS/OpenMP thread budget.

        The usable cores split evenly over the local workers of the fleet
        as it is once ``replicas`` are in it:
        ``max(1, usable_cores // local workers)``.  Remote workers run on
        their own hosts and neither count nor get a budget.
        """
        with self._lock:
            fleet = self._replicas + [replica for replica in replicas if replica not in self._replicas]
        local = sum(1 for replica in fleet if isinstance(replica.transport, LocalTransport))
        budget = max(1, usable_cores() // max(1, local))
        for replica in replicas:
            if isinstance(replica.transport, LocalTransport):
                replica.transport.threads = budget

    def _boot(self, pending: List[Replica]) -> Dict[Replica, BaseException]:
        """Start ``pending`` replicas concurrently; returns failed ones' errors, in failure order.

        Session compilation dominates startup; overlap the workers'
        spawn+compile phases instead of paying them serially.
        """
        self._assign_thread_budget(pending)
        failed: Dict[Replica, BaseException] = {}

        def boot(replica: Replica) -> None:
            try:
                replica.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced by callers
                failed[replica] = exc

        threads = [threading.Thread(target=boot, args=(replica,), daemon=True) for replica in pending]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return failed

    def close(self) -> None:
        """Stop every worker process; idempotent.

        Waits out in-flight background revives first (up to
        ``close_timeout_s``): a restart thread that already claimed its
        slot may be mid-spawn, and tearing down around it would orphan
        the worker it is about to create.  Close runs after the revive
        finishes and reclaims whatever it spawned; a revive still running
        at the deadline is logged and closed around rather than silently
        abandoned.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._started = False
            self._changed.notify_all()  # wake backoff/drain waiters promptly
            self._changed.wait_for(lambda: not self._restarting, self.close_timeout_s)
            stuck = sorted(self._restarting)
        if stuck:
            _obs_logger().warning(
                "cluster.close_drain_timeout",
                group=self.name,
                replicas=stuck,
                timeout_s=self.close_timeout_s,
            )
        # The membership lock serializes the terminate sweep with any
        # in-progress scale_to/add_replica (e.g. an autoscaler tick that
        # cannot be interrupted): either the resize finishes first and
        # its workers are closed here, or it observes _closed and bails.
        with self._membership:
            with self._lock:
                replicas = list(self._replicas)
        for replica in replicas:
            replica.close()
        # Replica.close() waited out each call in flight, so the dispatch
        # threads are idle or finishing: join them.
        with self._lock:
            executors, self._executors = self._executors, []
        for executor in executors:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ReplicaGroup":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #
    def add_replica(self, *, handicap_s: float = 0.0, spec=None) -> int:
        """Grow the fleet by one local worker; returns its index.

        On a started group the worker is spawned (and its session
        compiled) *before* it joins the routing table, so the router
        never selects a replica that cannot serve.  On an idle group the
        replica is appended unstarted and boots with :meth:`start`.
        ``spec`` overrides the group's spec for this one worker -- the
        seam :meth:`swap_spec` rolls new versions in through.
        """
        with self._membership:
            if self._closed:
                raise RuntimeError(f"replica group {self.name!r} is closed")
            with self._lock:
                index = self._next_index
                self._next_index += 1
            self._join([self._new_replica(index, handicap_s=float(handicap_s), spec=spec)])
            return index

    def _join(self, fresh: List[Replica]) -> None:
        """Bring ``fresh`` members into the fleet: the one path growth takes.

        On a started group they boot concurrently (like :meth:`start`,
        thread budget included) *before* they join the routing table; on
        an idle group they join unstarted and boot with :meth:`start`.
        Members that booted are published even when a sibling failed;
        the rest are closed and the first error propagates.
        """
        failed = self._boot(fresh) if self._started else {}
        with self._lock:
            for replica in fresh:
                if replica not in failed:
                    self._replicas.append(replica)
                    self._by_index[replica.index] = replica
        for replica in failed:
            replica.close()
        if failed:
            raise next(iter(failed.values()))

    def remove_replica(self, index: Optional[int] = None, *, drain_timeout_s: Optional[float] = None) -> int:
        """Shrink the fleet by one worker, drain-before-terminate.

        The victim (``index``, or by default the newest local replica) is
        first marked *draining*: the router stops selecting it, while
        calls already dispatched to it run to completion.  Only once its
        in-flight count reaches zero (or the drain deadline expires --
        logged, never silent) is the worker terminated and dropped from
        the membership.  Returns the removed index.

        Raises ``ValueError`` when asked to remove the last replica, an
        unknown index, or one already draining.
        """
        with self._membership:
            with self._lock:
                candidates = [r for r in self._replicas if r.index not in self._draining]
                if len(candidates) <= 1:
                    raise ValueError(f"cannot remove the last replica of group {self.name!r}")
                if index is None:
                    # Prefer shedding a spawned local worker; remote
                    # repro-workers are externally owned capacity.
                    locals_ = [r for r in candidates if isinstance(r.transport, LocalTransport)]
                    victim = (locals_ or candidates)[-1]
                    index = victim.index
                else:
                    victim = self._by_index.get(index)
                    if victim is None:
                        raise ValueError(f"no replica with index {index} in group {self.name!r}")
                    if index in self._draining:
                        raise ValueError(f"replica {index} is already draining")
            with self._drained(victim, drain_timeout_s, event="cluster.drain_timeout"):
                victim.close()
                with self._lock:
                    if victim in self._replicas:
                        self._replicas.remove(victim)
                    self._by_index.pop(index, None)
            return index

    @contextlib.contextmanager
    def _drained(self, replica: Replica, drain_timeout_s: Optional[float], *, event: str) -> Iterator[None]:
        """Hide ``replica`` from the router until the body is done; the one drain path.

        The body runs once the member has no call in flight and no
        pending revive (a revive must clear its slot before the worker is
        torn down or reconnected under it), or once the drain deadline
        passes -- then emitted as ``event``, never silent.
        """
        timeout = self.drain_timeout_s if drain_timeout_s is None else float(drain_timeout_s)
        index = replica.index
        with self._lock:
            self._draining.add(index)
            idle = self._changed.wait_for(
                lambda: self._closed or (replica.in_flight == 0 and index not in self._restarting), timeout
            )
            stuck = dict(in_flight=replica.in_flight, restarting=index in self._restarting)
        try:
            if not idle:
                _obs_logger().warning(event, group=self.name, replica=index, **stuck, timeout_s=timeout)
            yield
        finally:
            with self._lock:
                self._draining.discard(index)

    def scale_to(self, replicas: int, *, drain_timeout_s: Optional[float] = None) -> int:
        """Grow or shrink the fleet to ``replicas`` workers; returns the new size.

        Growth spawns the new workers concurrently (like :meth:`start`);
        shrinkage removes the newest local replicas one at a time via
        :meth:`remove_replica` (drain-before-terminate).  A partial
        growth failure publishes the workers that did boot before the
        error propagates.
        """
        target = int(replicas)
        if target < 1:
            raise ValueError("scale_to needs at least one replica")
        with self._membership:
            if self._closed:
                raise RuntimeError(f"replica group {self.name!r} is closed")
            while len(self) > target:
                self.remove_replica(drain_timeout_s=drain_timeout_s)
            grow = target - len(self)
            if grow > 0:
                with self._lock:
                    first = self._next_index
                    self._next_index += grow
                self._join([self._new_replica(index) for index in range(first, first + grow)])
            return len(self)

    def swap_spec(self, spec, *, drain_timeout_s: Optional[float] = None) -> int:
        """Zero-downtime rolling swap: rebuild every replica from ``spec``.

        On a started group each member is replaced spawn-then-publish /
        drain-then-retire: the new-version worker boots (and compiles)
        *before* it joins the routing table, and only then is one
        old-version worker hidden from the router, drained of its
        in-flight calls, and terminated -- capacity never dips below the
        pre-swap fleet size and no accepted request is dropped.  Remote
        ``repro-worker`` replicas are drained and *reconnected* with the
        new spec instead (their init handshake carries it).  Later
        growth (:meth:`add_replica`, :meth:`scale_to`, the autoscaler)
        spawns the new version.  Returns the fleet size.

        ``group.spec`` changes only once a new-version member has joined
        (on an idle fleet: when the fleet is retargeted), so a swap whose
        first new worker fails leaves later growth on the old version.
        Serialized with all other membership changes; a failed new-worker
        spawn propagates with the old fleet still intact and serving.  A
        remote member whose reconnect fails keeps the old spec, so its
        next revive rebuilds the version the group still serves.
        """
        with self._membership:
            if self._closed:
                raise RuntimeError(f"replica group {self.name!r} is closed")
            if not self._started:
                # Idle fleet: retarget the unstarted members in place;
                # they compile the new version on start().
                self.spec = spec
                with self._lock:
                    replicas = list(self._replicas)
                for replica in replicas:
                    replica.transport.spec = spec
                return len(self)
            with self._lock:
                outgoing = list(self._replicas)
            for replica in outgoing:
                if isinstance(replica.transport, LocalTransport):
                    self.add_replica(handicap_s=replica.handicap_s, spec=spec)
                    self.spec = spec
                    self.remove_replica(replica.index, drain_timeout_s=drain_timeout_s)
                    continue
                # A remote worker is externally-owned capacity -- there is
                # no second process to spawn-then-publish into, so its swap
                # is a drained reconnect: the fresh connection's init frame
                # carries the new spec while siblings keep serving.
                with self._drained(replica, drain_timeout_s, event="cluster.swap_drain_timeout"):
                    previous, replica.transport.spec = replica.transport.spec, spec
                    if not self._closed:
                        try:
                            replica.restart()
                        except BaseException:
                            # Later revives of this member must rebuild the
                            # version the group still serves.
                            replica.transport.spec = previous
                            raise
                        self.spec = spec
            return len(self)

    # ------------------------------------------------------------------ #
    # Session-like facade (what the serving layer's plumbing touches)
    # ------------------------------------------------------------------ #
    @property
    def meta(self) -> Optional[dict]:
        for replica in list(self._replicas):
            if replica.meta is not None:
                return replica.meta
        return None

    @property
    def input_shape(self):
        """Per-request payload shape (known once started)."""
        meta = self.meta
        return tuple(meta["input_shape"]) if meta is not None else None

    @property
    def kind(self) -> Optional[str]:
        meta = self.meta
        return meta["kind"] if meta is not None else None

    def run(self, batch, batch_size: Optional[int] = None) -> np.ndarray:
        """Empty-batch semantics only; real traffic goes through :meth:`infer`.

        The server's ``submit_many([])`` path asks the registered session
        for the shape of "no results"; answering that needs no worker
        round-trip.  Any non-empty synchronous call is a programming
        error here -- group dispatch is asynchronous.
        """
        batch = np.asarray(batch, dtype=float)
        if len(batch) == 0:
            meta = self.meta
            if meta is None:
                raise RuntimeError(f"replica group {self.name!r} is not started")
            return np.empty((0, *meta["output_item_shape"]), dtype=np.dtype(meta["output_dtype"]))
        raise RuntimeError(
            "ReplicaGroup dispatches asynchronously: await group.infer(batch) "
            "(or use infer_sync) instead of run()"
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _views(self) -> List[ReplicaView]:
        """Router-visible fleet snapshot; draining replicas are not routable."""
        return [
            ReplicaView(
                index=replica.index,
                alive=(
                    replica.alive
                    and replica.index not in self._restarting
                    and replica.index not in self._draining
                ),
                in_flight=replica.in_flight,
                ewma_latency_ms=replica.ewma_latency_s * 1000.0,
            )
            for replica in self._replicas
        ]

    def _schedule_restart(self, index: int) -> None:
        """Restart a replica on a background thread (at most one at a time).

        The revive honours the replica's capped exponential backoff: a
        worker whose previous restart *failed* is not retried before its
        ``restart_not_before`` instant, so a crash-looping binary costs a
        bounded respawn rate (and one thread), not a thread per failed
        batch.  ``close()`` wakes a waiting revive immediately.
        """
        replica = self._claim_restart(index)
        if replica is not None:
            threading.Thread(
                target=self._revive, args=(replica,), name=f"repro-replica-restart-{index}", daemon=True
            ).start()

    def _claim_restart(self, index: int) -> Optional[Replica]:
        """Take replica ``index``'s one restart slot; returns it, or ``None`` if refused.

        Refused while the group is closed, while another restart holds
        the slot, while the member is draining, and once it has left the
        membership: a drained-out replica must not be revived into a
        zombie.  Claiming under the lock is what keeps a health-check
        restart from racing a dispatch-path background revive.
        """
        with self._lock:
            replica = self._by_index.get(index)
            if self._closed or replica is None or index in self._restarting or index in self._draining:
                return None
            self._restarting.add(index)
            return replica

    def _revive(self, replica: Replica, *, probe: bool = False) -> None:
        """Restart ``replica`` in the slot :meth:`_claim_restart` gave out, then free it.

        Waits out the backoff window (``close()`` cuts the wait short)
        and re-checks that the member is still wanted.  With ``probe`` it
        re-pings first: a revive that finished since the caller's health
        snapshot must not be torn down again.  A failed restart is
        recorded on the replica and pushes its backoff out.  Either
        outcome is emitted as a structured event.
        """
        index = replica.index
        outcome: Optional[str] = None
        try:
            delay = replica.restart_not_before - self._clock()
            if delay > 0:
                with self._lock:
                    self._changed.wait_for(lambda: self._closed, delay)
            if self._closed or index in self._draining or index not in self._by_index:
                return
            if probe and replica.ping():
                return
            try:
                self._assign_thread_budget([replica])
                replica.restart()
                outcome = "restarted"
            except Exception as exc:  # noqa: BLE001 - recorded, retried with backoff
                replica.last_error = f"restart failed: {exc}"
                replica.note_restart_failure()
                outcome = "failed"
        finally:
            with self._lock:
                self._restarting.discard(index)
                self._changed.notify_all()
            # Structured log *after* the slot release: callers polling
            # the counters must be able to schedule the next attempt
            # the instant the bookkeeping says they can.
            if outcome == "restarted":
                _obs_logger().info("cluster.replica_restarted", group=self.name, replica=index)
            elif outcome == "failed":
                _obs_logger().warning(
                    "cluster.replica_restart_failed",
                    group=self.name,
                    replica=index,
                    error=replica.last_error,
                    attempts=replica.restart_attempts,
                )

    def infer_sync(self, batch, obs: Optional[dict] = None) -> np.ndarray:
        """Route one fused batch to a replica; blocking.

        Crash/timeout failures restart the replica in the background and
        retry the batch on another one, up to ``max_retries`` times; the
        last error propagates after that.  Worker-side *request* errors
        (e.g. a malformed batch) are deterministic and propagate
        immediately without retry.

        ``obs`` is the dispatch trace context for a traced batch (see
        :mod:`repro.obs`): the trace-id list rides the wire to the
        worker, and on success the dict is filled in place with where the
        batch actually ran (``replica``, ``transport``, ``retries``,
        ``compute_s``, ``worker``) for span stitching.
        """
        if self._closed:
            raise ReplicaCrashError(f"replica group {self.name!r} is closed")
        batch = np.ascontiguousarray(np.asarray(batch, dtype=float))
        wire_ctx = {"trace_ids": obs.get("trace_ids", [])} if obs is not None else None
        tried: set = set()
        last: Optional[Exception] = None
        for _ in range(self.max_retries + 1):
            with self._lock:
                views = self._views()
                try:
                    index = self._router.select(views, exclude=tried)
                except NoReplicaAvailableError as exc:
                    raise last or exc from None
                replica = self._by_index[index]
                replica.in_flight += 1
            # A replica that died *between* calls never fails a dispatch,
            # so revive it opportunistically while traffic routes around
            # it (draining replicas are already reported dead to the
            # router and are never revived).
            for view in views:
                if not view.alive and view.index not in tried:
                    self._schedule_restart(view.index)
            try:
                detail: Optional[dict] = {} if obs is not None else None
                result, _ = replica.call(batch, ctx=wire_ctx, detail=detail)
                if obs is not None:
                    obs["replica"] = index
                    obs["transport"] = replica.transport.describe()
                    obs["retries"] = len(tried)
                    obs.update(detail or {})
                return result
            except (ReplicaCrashError, ReplicaTimeoutError) as exc:
                last = exc
                tried.add(index)
                self._schedule_restart(index)
            finally:
                with self._lock:
                    replica.in_flight -= 1
                    self._changed.notify_all()
        raise last  # type: ignore[misc]  # loop ran >= 1 time

    async def _offload(self, call):
        """Run the blocking ``call`` on the group's own dispatch threads.

        The pool has one thread per member, so a batch never waits for a
        thread while its replica is free, however small the event loop's
        default executor is.  A fleet that has grown past the pool gets a
        bigger one; the old pool finishes its calls and exits.
        """
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._closed:
                raise ReplicaCrashError(f"replica group {self.name!r} is closed")
            size = max(1, len(self._replicas))
            if size > self._executor_size:
                if self._executors:
                    self._executors[-1].shutdown(wait=False)
                self._executors.append(
                    ThreadPoolExecutor(size, thread_name_prefix=f"repro-dispatch-{self.name}")
                )
                self._executor_size = size
            future = loop.run_in_executor(self._executors[-1], call)
        return await future

    async def infer(self, batch) -> np.ndarray:
        """Awaitable :meth:`infer_sync` on the group's dispatch threads.

        Reads the batcher's dispatch trace context *here*, on the event
        loop (contextvars do not propagate into executor threads), and
        hands it to :meth:`infer_sync` explicitly.
        """
        ctx = get_dispatch_context()
        return await self._offload(functools.partial(self.infer_sync, batch, obs=ctx))

    def rescue_sync(self, payload) -> np.ndarray:
        """One-shot single-request dispatch to an *idle* replica.

        The hook behind :class:`~repro.serve.SLOAwarePolicy`'s shed path:
        a request about to be shed gets one chance on a replica with no
        work queued.  When every replica is busy the rescue refuses
        (:class:`NoReplicaAvailableError`) -- stealing time on a loaded
        replica would push *its* queue over the SLO too.
        """
        if self._closed:
            raise ReplicaCrashError(f"replica group {self.name!r} is closed")
        payload = np.ascontiguousarray(np.asarray(payload, dtype=float))
        with self._lock:
            idle = [view for view in self._views() if view.alive and view.in_flight == 0]
            if not idle:
                raise NoReplicaAvailableError("no idle replica to rescue the shed request")
            replica = self._by_index[min(idle, key=lambda v: (v.ewma_latency_ms, v.index)).index]
            replica.in_flight += 1
        try:
            result, _ = replica.call(payload[None])
            return result[0]
        finally:
            with self._lock:
                replica.in_flight -= 1
                self._changed.notify_all()

    async def rescue(self, payload) -> np.ndarray:
        return await self._offload(functools.partial(self.rescue_sync, payload))

    # ------------------------------------------------------------------ #
    # Health & telemetry
    # ------------------------------------------------------------------ #
    def check_health(self, restart_dead: bool = True) -> List[bool]:
        """Ping every replica; optionally restart the ones that fail.

        Returns the per-replica liveness list *before* any restarts.
        Restarts run synchronously here (unlike the dispatch path's
        background restarts) so callers can treat a ``True``-free return
        from a second call as "the fleet is really gone".  They take the
        same restart path as the background revive: the same slot, the
        same backoff, the same structured events.  Replicas still inside
        their restart-backoff window (or draining out of the fleet) are
        skipped.
        """
        with self._lock:
            replicas = list(self._replicas)
        health = [replica.ping() for replica in replicas]
        if restart_dead:
            for replica, ok in zip(replicas, health):
                if ok or self._clock() < replica.restart_not_before:
                    continue
                if self._claim_restart(replica.index) is not None:
                    self._revive(replica, probe=True)
        return health

    def stats(self) -> List[dict]:
        """Per-replica load/latency/failure breakdown (stable order)."""
        with self._lock:
            replicas = list(self._replicas)
            draining = set(self._draining)
        return [{**replica.stats(), "draining": replica.index in draining} for replica in replicas]

    def alive_count(self) -> int:
        """Routable replicas right now (alive, not restarting, not draining)."""
        with self._lock:
            return sum(1 for view in self._views() if view.alive)

    def total_in_flight(self) -> int:
        """Fused batches currently dispatched across the whole fleet."""
        with self._lock:
            return sum(replica.in_flight for replica in self._replicas)

    def __len__(self) -> int:
        return len(self._replicas)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(1 for replica in list(self._replicas) if replica.alive)
        state = "closed" if self._closed else ("started" if self._started else "idle")
        return (
            f"ReplicaGroup(name={self.name!r}, replicas={len(self._replicas)}, alive={alive}, "
            f"router={self._router.name!r}, state={state!r})"
        )
