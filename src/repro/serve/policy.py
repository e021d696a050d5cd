"""Pluggable batching policies: when to admit, how long to linger, when to flush.

:class:`~repro.serve.DynamicBatcher` owns the *mechanism* of dynamic
batching (queue, worker task, scatter/gather); a :class:`BatchingPolicy`
owns the *decisions*:

* ``batch_limit`` -- how many requests may fuse into the next engine call;
* ``assign_deadline``/``admit`` -- per-request latency deadlines, and
  shedding of requests whose deadline already expired in the queue
  (failed with :class:`~repro.serve.DeadlineExceededError` *before* any
  engine time is spent on them);
* ``flush_deadline``/``linger_timeout`` -- how long the worker may hold a
  forming batch open waiting for more arrivals (in-process models only:
  a cluster model's batch leaves as soon as a replica is free);
* ``observe`` -- feedback after every fused call (batch size, measured
  compute time, queue depth), which is what lets a policy adapt online.

Three built-in policies cover the throughput/latency trade-off space:

:class:`FixedWindowPolicy`
    The static policy PR 3 shipped inline in the batcher: constant
    ``max_batch``, constant ``max_wait_ms`` linger, ``idle_flush_ms``
    early flush.  Bit-for-bit compatible with the old behavior.
:class:`SLOAwarePolicy`
    Deadline-driven: every request gets ``arrival + slo_ms`` as its
    deadline, an online EWMA model of fused-call latency vs batch size
    predicts how long a batch of B will compute, and the policy sizes and
    flushes batches so predicted completion stays inside the tightest
    deadline in the batch.  Requests that can no longer make their
    deadline are rejected ahead of admission instead of wasting compute.
:class:`AdaptivePolicy`
    AIMD feedback on queue depth: additive-increase the target batch size
    while the queue is backed up (throughput mode), multiplicative-decrease
    when it drains (latency mode).  No deadlines needed.

Policies are stateful and single-batcher: give each
:class:`DynamicBatcher` its own instance (pass a *factory* for
server-wide defaults).  All methods run on the batcher's event loop, so
implementations need no locking but must not block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional

__all__ = [
    "Request",
    "BatchingPolicy",
    "FixedWindowPolicy",
    "SLOAwarePolicy",
    "AdaptivePolicy",
    "make_policy",
]


@dataclass
class Request:
    """One queued inference request, as policies see it.

    ``arrival`` and ``deadline`` are event-loop timestamps
    (``loop.time()`` seconds); ``deadline`` is ``None`` when neither the
    caller nor the policy imposes a latency budget.  ``retried`` marks a
    request already handed to the batcher's one-shot shed-retry hook, so
    a second shed fails it for good.  ``explicit_deadline`` records that
    the *caller* set the budget (``submit(..., slo_ms=...)``) rather than
    the policy: an explicit budget is a hard contract -- expiry resolves
    to :class:`~repro.serve.DeadlineExceededError`, never to a late
    rescued result.
    """

    payload: Any
    future: Any
    arrival: float
    deadline: Optional[float] = None
    retried: bool = False
    explicit_deadline: bool = False
    #: The request's :class:`~repro.obs.Trace` and its open
    #: ``serve.queue`` span when submitted inside a traced context
    #: (:mod:`repro.obs`); both stay ``None`` for untraced traffic.
    trace: Any = None
    span: Any = None


class BatchingPolicy:
    """Decision interface consulted by :class:`~repro.serve.DynamicBatcher`.

    Subclasses override the hooks below; the defaults are permissive
    (no deadlines, flush immediately, no adaptation), so a minimal policy
    only needs ``batch_limit``.
    """

    #: Short name used in stats/benchmark output.
    name = "policy"

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def assign_deadline(self, arrival: float) -> Optional[float]:
        """Absolute deadline for a request submitted at ``arrival``.

        Called by ``submit`` when the caller did not pass an explicit
        per-request budget.  ``None`` means "no deadline".
        """
        return None

    def admit(self, request: Request, now: float) -> bool:
        """Admit ``request`` into the forming batch?

        Returning ``False`` makes the batcher fail the request with
        :class:`~repro.serve.DeadlineExceededError` and count it under
        ``stats().deadline_missed`` -- it never reaches the engine.  The
        default sheds any request whose deadline has already passed.
        """
        return request.deadline is None or now <= request.deadline

    # ------------------------------------------------------------------ #
    # Batch forming
    # ------------------------------------------------------------------ #
    def batch_limit(self, now: float) -> int:
        """Most requests allowed to fuse into the next engine call."""
        raise NotImplementedError

    def flush_deadline(self, first: Request, now: float) -> float:
        """Absolute time by which the batch forming around ``first`` must
        flush, regardless of arrivals.  Computed once per batch (the old
        inline batcher re-derived this every loop tick)."""
        return now

    def linger_timeout(self, batch: List[Request], now: float, flush_at: float) -> float:
        """Seconds to wait for one more arrival; ``<= 0`` flushes now.

        Called whenever the queue drains while the batch is below
        ``batch_limit``.  ``flush_at`` is the value ``flush_deadline``
        returned for this batch.
        """
        return 0.0

    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    def observe(self, *, batch_size: int, compute_s: float, queue_depth: int) -> None:
        """One fused call finished: ``batch_size`` rows took ``compute_s``
        seconds and ``queue_depth`` requests were still waiting."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FixedWindowPolicy(BatchingPolicy):
    """The static window policy (PR 3's inline batcher behavior, exactly).

    Parameters
    ----------
    max_batch:
        Constant fusion cap.
    max_wait_ms:
        Hard cap on the linger after the first request of a batch.
    idle_flush_ms:
        Flush once arrivals pause this long (default ``max_wait_ms / 4``);
        ``0`` flushes the moment the queue drains (continuous batching).

    No deadlines are assigned; explicit per-request budgets passed to
    ``submit(..., slo_ms=...)`` are still honored by the base-class
    ``admit`` shedding.
    """

    name = "fixed"

    def __init__(
        self,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        idle_flush_ms: Optional[float] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if idle_flush_ms is not None and idle_flush_ms < 0:
            raise ValueError("idle_flush_ms must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.idle_flush = (
            float(idle_flush_ms) / 1000.0 if idle_flush_ms is not None else self.max_wait / 4.0
        )

    def batch_limit(self, now: float) -> int:
        return self.max_batch

    def flush_deadline(self, first: Request, now: float) -> float:
        return now + self.max_wait

    def linger_timeout(self, batch: List[Request], now: float, flush_at: float) -> float:
        remaining = flush_at - now
        if remaining <= 0:
            return 0.0
        return min(remaining, self.idle_flush) if self.idle_flush > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FixedWindowPolicy(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait * 1000:g}, idle_flush_ms={self.idle_flush * 1000:g})"
        )


class _EwmaLatencyModel:
    """Online EWMA model of fused-call latency as a function of batch size.

    Engine calls cost roughly ``overhead + per_item * B`` (fixed dispatch
    plus per-row FFT work).  The model keeps exponentially-weighted
    moments of ``(B, cost)`` observations and recovers both coefficients
    by EWMA linear regression; when every observed batch has had the same
    size (zero variance) it falls back to attributing the whole mean cost
    per item, which over-estimates large batches -- the conservative
    direction for SLO decisions.
    """

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.samples = 0
        self._b = 0.0    # E[B]
        self._c = 0.0    # E[cost]
        self._bb = 0.0   # E[B^2]
        self._bc = 0.0   # E[B * cost]

    def observe(self, batch_size: int, compute_s: float) -> None:
        b, c = float(batch_size), float(compute_s)
        if self.samples == 0:
            self._b, self._c, self._bb, self._bc = b, c, b * b, b * c
        else:
            a = self.alpha
            self._b += a * (b - self._b)
            self._c += a * (c - self._c)
            self._bb += a * (b * b - self._bb)
            self._bc += a * (b * c - self._bc)
        self.samples += 1

    @property
    def per_item_s(self) -> float:
        """Estimated marginal seconds per extra row in a batch."""
        variance = self._bb - self._b * self._b
        if variance > 1e-12:
            slope = (self._bc - self._b * self._c) / variance
            if slope > 0:
                return slope
        # Degenerate (constant batch size so far): full mean cost per item.
        return self._c / self._b if self._b > 0 else 0.0

    @property
    def overhead_s(self) -> float:
        """Estimated fixed per-call seconds (dispatch, FFT plan lookup)."""
        return max(0.0, self._c - self.per_item_s * self._b)

    def predict(self, batch_size: int) -> float:
        """Predicted seconds for a fused call over ``batch_size`` rows."""
        if self.samples == 0:
            return 0.0
        return self.overhead_s + self.per_item_s * max(1, batch_size)


class SLOAwarePolicy(BatchingPolicy):
    """Deadline-driven batching against a p99 latency objective.

    Every request is stamped with ``deadline = arrival + slo_ms``.  An
    online :class:`EWMA latency model <_EwmaLatencyModel>` predicts how
    long a fused call over B rows takes; the policy then

    * caps the batch at the largest B whose predicted compute fits inside
      ``compute_fraction`` of the SLO (queueing and linger consume the
      rest of the budget),
    * lingers for more arrivals only while the *tightest* deadline in the
      forming batch still leaves room to grow the batch and compute it
      (plus a ``margin_ms`` safety buffer), and
    * sheds queued requests whose deadline already passed -- they fail
      fast with :class:`~repro.serve.DeadlineExceededError` rather than
      dragging a whole batch (and every later request) past the SLO.

    Under a tight SLO the model forces small batches (low latency, lower
    peak throughput); under a loose one it grows batches toward
    ``max_batch``.  See ``docs/serving.md`` for tuning guidance.
    """

    name = "slo"

    def __init__(
        self,
        slo_ms: float = 50.0,
        *,
        max_batch: int = 64,
        compute_fraction: float = 0.25,
        margin_ms: Optional[float] = None,
        idle_flush_ms: Optional[float] = None,
        ewma_alpha: float = 0.2,
    ):
        if slo_ms <= 0:
            raise ValueError("slo_ms must be > 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0.0 < compute_fraction <= 1.0:
            raise ValueError("compute_fraction must be in (0, 1]")
        self.slo = float(slo_ms) / 1000.0
        self.max_batch = int(max_batch)
        # A request arriving just after a batch was flushed waits out that
        # batch's *whole* compute before its own batch even forms, so
        # worst-case latency is ~2x the per-batch compute plus linger.
        # A small compute_fraction keeps that structural worst case (plus
        # jitter) well inside the SLO; 0.5 would let it consume the
        # entire budget before queueing noise is even counted.  Batched
        # FFT engines saturate at modest batch sizes anyway, so capping
        # compute small costs little throughput.
        self.compute_fraction = float(compute_fraction)
        # Safety buffer between predicted completion and the deadline.
        # Event-loop scheduling jitter does not shrink with the SLO, so
        # the default has an absolute floor alongside the relative term.
        self.margin = (
            (float(margin_ms) / 1000.0) if margin_ms is not None else max(0.003, self.slo * 0.08)
        )
        # Idle linger cap: waiting longer than this for the *next* arrival
        # burns budget with no fusion to show for it.  Deliberately short
        # even under loose SLOs -- lingering toward a far deadline only
        # raises baseline latency; under load, fusion comes for free from
        # requests piling up while the previous batch computes.
        self.idle_flush = (
            float(idle_flush_ms) / 1000.0 if idle_flush_ms is not None else min(0.002, self.slo / 10.0)
        )
        self.model = _EwmaLatencyModel(alpha=ewma_alpha)

    # ------------------------------------------------------------------ #
    def assign_deadline(self, arrival: float) -> Optional[float]:
        return arrival + self.slo

    def batch_limit(self, now: float) -> int:
        if self.model.samples == 0:
            return self.max_batch  # no evidence yet: be optimistic, learn fast
        budget = self.slo * self.compute_fraction - self.model.overhead_s
        per_item = self.model.per_item_s
        if per_item <= 0:
            return self.max_batch
        fit = int(budget / per_item)
        return max(1, min(self.max_batch, fit))

    def flush_deadline(self, first: Request, now: float) -> float:
        """Latest start so the batch's *first* (tightest) deadline holds."""
        deadline = first.deadline if first.deadline is not None else now + self.slo
        return deadline - self.model.predict(self.batch_limit(now)) - self.margin

    def linger_timeout(self, batch: List[Request], now: float, flush_at: float) -> float:
        # The tightest deadline governs.  Arrival order alone does not
        # guarantee it is batch[0]: an explicit per-request ``slo_ms``
        # can make a *later* arrival the most urgent.  Re-predict with
        # the batch one row bigger: if adding the next arrival would push
        # completion past that deadline, stop lingering now.
        deadlines = [request.deadline for request in batch if request.deadline is not None]
        earliest = min(deadlines) if deadlines else now + self.slo
        must_start = earliest - self.model.predict(len(batch) + 1) - self.margin
        remaining = min(must_start, flush_at) - now
        if remaining <= 0:
            return 0.0
        return min(remaining, self.idle_flush) if self.idle_flush > 0 else 0.0

    def observe(self, *, batch_size: int, compute_s: float, queue_depth: int) -> None:
        self.model.observe(batch_size, compute_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SLOAwarePolicy(slo_ms={self.slo * 1000:g}, max_batch={self.max_batch}, "
            f"predicted_per_item_ms={self.model.per_item_s * 1000:.3f})"
        )


class AdaptivePolicy(BatchingPolicy):
    """AIMD batch sizing from observed queue depth (no deadlines needed).

    After every fused call the policy looks at how many requests are
    still queued:

    * queue at or above the current target -> the server is falling
      behind; *additive-increase* the target batch size (more fusion,
      more throughput);
    * queue empty -> traffic is light; *multiplicative-decrease* toward
      ``min_batch`` (smaller batches, lower latency).

    The classic AIMD shape converges near the smallest batch size that
    keeps the queue bounded -- throughput when you need it, latency when
    you don't.  Linger semantics are fixed-window (``max_wait_ms`` /
    ``idle_flush_ms``).
    """

    name = "adaptive"

    def __init__(
        self,
        *,
        min_batch: int = 1,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        idle_flush_ms: Optional[float] = None,
        increase: float = 2.0,
        decrease: float = 0.5,
    ):
        if min_batch < 1 or max_batch < min_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")
        if increase <= 0:
            raise ValueError("increase must be > 0")
        if not 0.0 < decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        self.min_batch = int(min_batch)
        self.max_batch = int(max_batch)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self._window = FixedWindowPolicy(
            max_batch=max_batch, max_wait_ms=max_wait_ms, idle_flush_ms=idle_flush_ms
        )
        self._target = float(self.min_batch)

    @property
    def target(self) -> float:
        """Current (fractional) AIMD batch-size target."""
        return self._target

    def batch_limit(self, now: float) -> int:
        return int(math.ceil(self._target))

    def flush_deadline(self, first: Request, now: float) -> float:
        return self._window.flush_deadline(first, now)

    def linger_timeout(self, batch: List[Request], now: float, flush_at: float) -> float:
        return self._window.linger_timeout(batch, now, flush_at)

    def observe(self, *, batch_size: int, compute_s: float, queue_depth: int) -> None:
        if queue_depth >= self._target:
            self._target = min(float(self.max_batch), self._target + self.increase)
        elif queue_depth == 0:
            self._target = max(float(self.min_batch), self._target * self.decrease)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdaptivePolicy(target={self._target:.1f}, max_batch={self.max_batch})"


_POLICIES = {
    "fixed": FixedWindowPolicy,
    "slo": SLOAwarePolicy,
    "adaptive": AdaptivePolicy,
}


def make_policy(name: str, **kwargs) -> BatchingPolicy:
    """Build a policy by name: ``"fixed"``, ``"slo"`` or ``"adaptive"``.

    >>> from repro.serve import make_policy
    >>> make_policy("fixed", max_batch=8).batch_limit(0.0)
    8
    >>> make_policy("slo", slo_ms=25.0).name
    'slo'
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown batching policy {name!r} (known: {known})") from None
    return cls(**kwargs)
