"""Replica routing policies: which worker gets the next fused batch.

Replicas are rarely symmetric in practice -- one lands on a busy core,
one shares a cache with a noisy neighbour, one is a deliberately slower
device class (the asymmetric-multicore iso-metric argument from
PAPERS.md applies to replica fleets too).  Blind round-robin keeps
feeding the slow replica its full share and the tail latency of the
whole group degrades to the slowest member.  The alternatives here route
on two live signals the :class:`~repro.cluster.Replica` handles already
maintain:

* ``in_flight`` -- calls dispatched-but-unanswered (queue depth), and
* ``ewma_latency_ms`` -- an exponentially-weighted average of recent
  call wall time (which is where a handicapped replica shows up).

Three policies:

:class:`RoundRobinRouter`
    Cycle through alive replicas.  Zero state about load; the baseline.
:class:`LeastLoadedRouter`
    Scan all replicas, pick the lowest ``(in_flight, ewma latency)``.
    Optimal signal use, O(N) per decision, and under concurrent
    dispatchers all traffic herds to the same momentary winner.
:class:`PowerOfTwoChoicesRouter`
    Sample two distinct replicas uniformly, keep the better one.  The
    classic balanced-allocations result: an exponential improvement in
    maximum queue depth over random/round-robin placement for the price
    of two lookups, with no herding (different dispatchers sample
    different pairs).  Deterministically seeded by default so runs are
    reproducible.

All selections ignore dead replicas and an ``exclude`` set (the group's
retry path excludes replicas that already failed this batch).  Routers
hold per-group state (cursor, RNG), so a group is given a router *name*
and builds its own instance (:func:`make_router`).
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence, Set

from repro.cluster.errors import NoReplicaAvailableError

__all__ = [
    "ReplicaView",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoChoicesRouter",
    "make_router",
]


class ReplicaView(NamedTuple):
    """The load signals a router is allowed to see for one replica."""

    index: int
    alive: bool
    in_flight: int
    ewma_latency_ms: float


def _eligible(views: Sequence[ReplicaView], exclude: Optional[Set[int]]) -> list:
    exclude = exclude or set()
    alive = [view for view in views if view.alive and view.index not in exclude]
    if not alive:
        raise NoReplicaAvailableError(
            f"no eligible replica ({sum(1 for v in views if v.alive)} alive of {len(views)}, "
            f"{len(exclude)} excluded)"
        )
    return alive


def _load_key(view: ReplicaView):
    """Primary signal queue depth; EWMA latency breaks ties (prefers the
    structurally faster replica of an asymmetric pair)."""
    return (view.in_flight, view.ewma_latency_ms, view.index)


class Router:
    """Selection interface consulted by :class:`~repro.cluster.ReplicaGroup`."""

    #: Short name used in stats/benchmark output.
    name = "router"

    def select(self, views: Sequence[ReplicaView], exclude: Optional[Set[int]] = None) -> int:
        """Index of the replica to dispatch to.

        Raises :class:`~repro.cluster.NoReplicaAvailableError` when every
        replica is dead or excluded.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle through alive replicas in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, views: Sequence[ReplicaView], exclude: Optional[Set[int]] = None) -> int:
        alive = _eligible(views, exclude)
        chosen = alive[self._cursor % len(alive)]
        self._cursor += 1
        return chosen.index


class LeastLoadedRouter(Router):
    """Full scan for the lowest ``(in_flight, ewma latency)`` replica."""

    name = "least_loaded"

    def select(self, views: Sequence[ReplicaView], exclude: Optional[Set[int]] = None) -> int:
        return min(_eligible(views, exclude), key=_load_key).index


class PowerOfTwoChoicesRouter(Router):
    """Sample two replicas, keep the less loaded (balanced allocations).

    ``seed`` makes the sampling reproducible (benchmarks, tests); pass
    ``seed=None`` for OS entropy.
    """

    name = "power_of_two_choices"

    def __init__(self, seed: Optional[int] = 0x5EED):
        self._rng = random.Random(seed)

    def select(self, views: Sequence[ReplicaView], exclude: Optional[Set[int]] = None) -> int:
        alive = _eligible(views, exclude)
        if len(alive) == 1:
            return alive[0].index
        first, second = self._rng.sample(alive, 2)
        return min((first, second), key=_load_key).index


_ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "power_of_two_choices": PowerOfTwoChoicesRouter,
}


def make_router(name: str, **kwargs) -> Router:
    """A fresh router by name; ``kwargs`` go to its constructor.

    >>> from repro.cluster import make_router
    >>> make_router("round_robin").name
    'round_robin'
    >>> make_router("power_of_two_choices", seed=7).name
    'power_of_two_choices'
    """
    try:
        cls = _ROUTERS[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_ROUTERS))
        raise ValueError(f"unknown router {name!r} (known: {known})") from None
    return cls(**kwargs)
