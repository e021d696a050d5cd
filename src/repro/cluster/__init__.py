"""``repro.cluster``: process-sharded replica groups under the serving layer.

The serving stack (``repro.serve``) batches beautifully but computes in
one Python process: however many cores the host has, every fused FFT
call of every model funnels through one GIL.  This package adds the
execution tier below it:

* :class:`~repro.cluster.replica.Replica` / ``worker_main`` -- one
  ``multiprocessing`` (spawn) child that rebuilds an
  :class:`~repro.engine.InferenceSession` from a picklable
  :class:`~repro.engine.SessionSpec` and serves fused batch calls over a
  pipe, with batch arrays moved through ``multiprocessing.shared_memory``
  (:mod:`repro.cluster.shm`) instead of being pickled.
* Transports -- the worker conversation is pinned behind the
  :class:`~repro.cluster.transport.Transport` interface:
  :class:`LocalTransport` is the pipe+shm child-process path above, and
  :class:`SocketTransport` speaks the same message schema over
  length-prefixed TCP frames to a ``repro-worker``
  (:mod:`repro.cluster.remote`) running on any host --
  ``ReplicaGroup(spec, replicas=0, workers=["host:7070"])``.  Both
  worker flavors answer through one call loop,
  :func:`~repro.cluster.worker.serve_calls`.
* :class:`ReplicaGroup` -- owns N such workers for one model, gives
  each local one a BLAS/OpenMP thread budget of
  ``max(1, usable_cores() // N)``, health-checks and restarts dead
  ones, retries failed batches on another replica (bounded), and
  exposes an awaitable ``infer(batch)`` plus per-replica ``stats()``.
* Routers -- :class:`RoundRobinRouter`, :class:`LeastLoadedRouter`,
  :class:`PowerOfTwoChoicesRouter` (:func:`make_router` by name): where
  the next batch goes, using per-replica in-flight depth and EWMA
  latency so asymmetric replicas are not fed equal shares.
* :class:`Autoscaler` / :class:`AutoscaleConfig`
  (:mod:`repro.cluster.autoscale`) -- the elastic control loop: reads
  the serving layer's p99 windows and the fleet's in-flight depth and
  drives ``ReplicaGroup.scale_to`` (drain-before-terminate) to hold a
  latency budget at minimum process count, with hysteresis, cooldowns
  and a max-fleet cap.  ``InferenceServer(autoscale=...)`` wires it up;
  see ``docs/autoscaling.md``.

``repro.serve.InferenceServer(replicas=N, router=...)`` wires all of
this under its dynamic batchers; see ``docs/sharding.md`` for the guide.
"""

from repro.cluster.autoscale import AutoscaleConfig, Autoscaler, Decision
from repro.cluster.errors import (
    ClusterError,
    NoReplicaAvailableError,
    ReplicaCrashError,
    ReplicaTimeoutError,
    WorkerStartupError,
)
from repro.cluster.group import ReplicaGroup
from repro.cluster.replica import Replica
from repro.cluster.router import (
    LeastLoadedRouter,
    PowerOfTwoChoicesRouter,
    ReplicaView,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.cluster.remote import WorkerServer
from repro.cluster.shm import ShmArena, ShmReader
from repro.cluster.transport import LocalTransport, SocketTransport, Transport, usable_cores
from repro.cluster.worker import worker_main

__all__ = [
    "ReplicaGroup",
    "Replica",
    "Autoscaler",
    "AutoscaleConfig",
    "Decision",
    "worker_main",
    "Transport",
    "LocalTransport",
    "SocketTransport",
    "WorkerServer",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoChoicesRouter",
    "ReplicaView",
    "make_router",
    "ShmArena",
    "ShmReader",
    "ClusterError",
    "ReplicaCrashError",
    "ReplicaTimeoutError",
    "NoReplicaAvailableError",
    "WorkerStartupError",
    "usable_cores",
]
