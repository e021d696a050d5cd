"""Per-request serving telemetry: one recorder per measured quantity.

Throughput alone cannot tell you whether a serving configuration is
*good*: dynamic batching trades per-request latency for fusion, so the
interesting numbers are the latency percentiles (p50/p95/p99), where the
time went (queueing vs compute), and how much work was refused (overload
rejections, deadline misses).  This module holds those numbers.

Two pieces:

* :class:`PercentileWindow` -- a quantity's one recorder: a ring buffer
  of recent observations with percentile/mean queries (how is the server
  doing *now*; a long-gone warm-up spike ages out) that is also, as a
  :class:`repro.obs.Histogram`, the quantity's lifetime buckets.
* :class:`BatcherStats` -- the per-batcher telemetry object
  (:meth:`DynamicBatcher.stats` returns it; ``InferenceServer.stats()``
  returns one per model).  Plain counters plus three recorders: end-to-end
  request latency, queue wait (arrival to batch start) and engine compute
  time.  ``queue_wait + compute`` accounts for essentially the whole
  request latency, so the breakdown tells you whether to tune the policy
  (queue-dominated) or the engine (compute-dominated).  Its
  :meth:`~BatcherStats.as_dict` row is the one telemetry snapshot.

Thread/async-safety: all mutation happens on the batcher's event loop
(single worker task), so no locking is needed; reading a snapshot from
another thread sees a consistent-enough view for monitoring.  The numpy
percentile call happens at *query* time -- recording an observation is
O(log buckets) and allocation-free after warm-up.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.obs.prom import Histogram

#: Default number of recent requests a sliding window remembers.  Big
#: enough that a p99 over it is meaningful (>= several hundred samples),
#: small enough that stale traffic ages out quickly.
DEFAULT_WINDOW = 1024


class PercentileWindow(Histogram):
    """Sliding window over the last ``capacity`` observations, and their lifetime histogram.

    ``record`` fills one ring slot and one inherited histogram bucket
    (non-finite values are dropped); ``percentile``/``mean`` are
    O(window) at query time.  Percentiles over an empty window return
    ``nan`` rather than raising, so snapshot code never needs guards.

    >>> window = PercentileWindow(capacity=4)
    >>> for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
    ...     window.record(value)
    >>> len(window)            # the 1.0 has aged out of the window ...
    4
    >>> window.count           # ... but not out of the histogram
    5
    >>> window.percentile(50)  # median of [2, 3, 4, 100]
    3.5
    """

    __slots__ = ("capacity", "_buffer", "_next")

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = int(capacity)
        self._buffer = np.empty(self.capacity, dtype=float)
        self._next = 0  # ring-buffer write cursor

    def record(self, value: float) -> None:
        """One observation: one ring slot and one bucket."""
        value = float(value)
        if math.isfinite(value):
            self._buffer[self._next] = value
            self._next = (self._next + 1) % self.capacity
            self.observe(value)

    def __len__(self) -> int:
        return min(self.count, self.capacity)

    @property
    def total_recorded(self) -> int:
        """All-time observation count (window length caps at capacity)."""
        return self.count

    def _values(self) -> np.ndarray:
        return self._buffer[: len(self)]

    def percentile(self, q: float) -> float:
        if len(self) == 0:
            return float("nan")
        return float(np.percentile(self._values(), q))

    def quantiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """Several percentiles from **one** sorted snapshot.

        A snapshot-then-sort makes two guarantees a loop of
        :meth:`percentile` calls cannot: the answers are mutually
        consistent (all computed over the *same* observations, even if a
        recording races the query from another thread), and the window
        is sorted once instead of partitioned per quantile.  The
        interpolation matches ``np.percentile``'s default (linear)
        exactly.
        """
        if len(self) == 0:
            return tuple(float("nan") for _ in qs)
        values = np.sort(self._values())  # one copy + one sort: the snapshot
        top = len(values) - 1
        out = []
        for q in qs:
            position = top * (float(q) / 100.0)
            low = int(math.floor(position))
            high = min(low + 1, top)
            fraction = position - low
            out.append(float(values[low] * (1.0 - fraction) + values[high] * fraction))
        return tuple(out)

    def mean(self) -> float:
        if len(self) == 0:
            return float("nan")
        return float(self._values().mean())

    def max(self) -> float:
        if len(self) == 0:
            return float("nan")
        return float(self._values().max())


class BatcherStats:
    """Telemetry for one :class:`~repro.serve.DynamicBatcher`.

    Counters
    --------
    submitted / completed:
        Requests accepted into the queue / resolved with a result.
    rejected:
        Requests refused at :meth:`~repro.serve.DynamicBatcher.submit`
        because the bounded queue was full
        (:class:`~repro.serve.ServerOverloadedError`).
    deadline_missed:
        Requests whose latency deadline expired while they waited in the
        queue; the batcher fails them with
        :class:`~repro.serve.DeadlineExceededError` *before* admission to
        a batch, so no engine time is wasted on answers nobody can use.
    shed_retried / shed_recovered:
        Requests handed to the batcher's one-shot shed-retry hook (the
        cluster layer's rescue-on-an-idle-replica path) instead of being
        failed outright, and how many of those the hook answered.  A
        rescued request counts under neither ``deadline_missed`` nor the
        batch counters -- it bypassed the batch entirely.
    batches / largest_batch / mean_batch_size:
        Fusion quality of the policy.  ``completed`` and ``batches`` are
        read-only: the ``count`` of the ``latency`` / ``compute`` recorder.

    ``replicas`` is ``None`` for in-process models; a server running a
    model on a :class:`~repro.cluster.ReplicaGroup` attaches the group's
    per-replica breakdown (in-flight depth, EWMA latency, restarts)
    before returning :meth:`~repro.serve.InferenceServer.stats`.

    Recorders (:class:`PercentileWindow`, milliseconds)
    ---------------------------------------------------
    ``latency`` (submit to result), ``queue_wait`` (submit to batch
    start) and ``compute`` (fused engine-call duration, recorded once per
    batch).  Only :meth:`as_dict` reads them: ``GET /v1/stats`` serves
    its row, ``GET /metrics`` renders it and the autoscaler acts on it.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.submitted = 0
        self.rejected = 0
        self.deadline_missed = 0
        self.shed_retried = 0
        self.shed_recovered = 0
        self.largest_batch = 0
        self.latency = PercentileWindow(window)
        self.queue_wait = PercentileWindow(window)
        self.compute = PercentileWindow(window)
        #: Per-replica breakdown, attached by the server for cluster models.
        self.replicas = None
        #: Autoscaler snapshot (:meth:`~repro.cluster.Autoscaler.snapshot`),
        #: attached by the server for autoscaled models.
        self.autoscaler = None
        #: Store identity (:meth:`~repro.store.StoreRef.describe`: name,
        #: pinned version, content hash), attached by the server for
        #: store-backed models -- ``swap_model`` flips it atomically.
        self.store = None

    # ------------------------------------------------------------------ #
    # Recording (called from the batcher's worker task)
    # ------------------------------------------------------------------ #
    def record_batch(self, batch_size: int, compute_s: float) -> None:
        """One fused engine call finished."""
        self.largest_batch = max(self.largest_batch, batch_size)
        self.compute.record(compute_s * 1000.0)

    def record_request(self, queue_wait_s: float, latency_s: float) -> None:
        """One request resolved (per row of the batch)."""
        self.queue_wait.record(queue_wait_s * 1000.0)
        self.latency.record(latency_s * 1000.0)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        return self.latency.count

    @property
    def batches(self) -> int:
        return self.compute.count

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot: counters, percentile summary, ``histograms``.

        Cluster-backed models additionally carry a ``replicas`` list with
        one row per worker process.
        """
        # One sorted pass over one snapshot: the three quantiles are
        # mutually consistent even when a recording races this query.
        p50, p95, p99 = self.latency.quantiles((50, 95, 99))
        snapshot = {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_missed": self.deadline_missed,
            "shed_retried": self.shed_retried,
            "shed_recovered": self.shed_recovered,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
            "p50_latency_ms": p50,
            "p95_latency_ms": p95,
            "p99_latency_ms": p99,
            "mean_queue_wait_ms": self.queue_wait.mean(),
            "mean_compute_ms": self.compute.mean(),
            "histograms": {
                "request_latency_ms": self.latency.as_dict(),
                "queue_wait_ms": self.queue_wait.as_dict(),
                "batch_compute_ms": self.compute.as_dict(),
            },
        }
        if self.replicas is not None:
            snapshot["replicas"] = list(self.replicas)
        if self.autoscaler is not None:
            snapshot["autoscaler"] = dict(self.autoscaler)
        if self.store is not None:
            snapshot["store"] = dict(self.store)
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatcherStats(completed={self.completed}, rejected={self.rejected}, "
            f"deadline_missed={self.deadline_missed}, batches={self.batches}, "
            f"mean_batch_size={self.mean_batch_size:.2f})"
        )
