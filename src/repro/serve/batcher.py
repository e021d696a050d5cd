"""Dynamic micro-batch coalescing over one inference session.

The engine's throughput comes from batched FFTs: one fused call over B
images is far cheaper than B single-image calls, because the fixed
per-invocation cost (python dispatch, FFT plan lookup, kernel launches)
amortizes over the batch.  :class:`DynamicBatcher` converts *concurrent
single-image requests* into exactly that shape of work:

* requests enter a bounded queue (overflow raises
  :class:`~repro.serve.errors.ServerOverloadedError` immediately -- no
  silent buffering, no deadlock);
* a worker task collects requests into a batch, consulting a pluggable
  :class:`~repro.serve.policy.BatchingPolicy` for every decision: the
  fusion cap, how long to linger for more arrivals, and whether a queued
  request's deadline has already expired (in which case it fails fast
  with :class:`~repro.serve.errors.DeadlineExceededError` *before* any
  engine time is spent on it);
* the batch runs as **one** engine call (in a thread-pool executor by
  default, so the event loop keeps accepting requests while numpy works)
  -- or, when a ``dispatch`` coroutine is installed, it is handed off
  wholesale (this is the seam ``repro.cluster`` plugs replica groups
  into: the fused batch leaves the process instead of running inline).
  A dispatched batch forms when a dispatch slot (a replica) is free and
  leaves at once: it takes in everything that queued while every
  replica was busy, and never lingers next to an idle one;
* each result row is scattered back to its caller's future, and the
  measured queue-wait / compute times feed both the telemetry windows
  (:class:`~repro.serve.metrics.BatcherStats`) and the policy's
  ``observe`` hook -- the feedback loop adaptive policies learn from.

The mechanism lives here; the throughput/latency trade-off lives in the
policy.  The default :class:`~repro.serve.policy.FixedWindowPolicy`
preserves the classic ``max_batch`` / ``max_wait_ms`` window semantics.
"""

from __future__ import annotations

import asyncio
import os
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.trace import (
    Span,
    current_trace,
    reset_dispatch_context,
    set_dispatch_context,
)
from repro.serve.errors import DeadlineExceededError, ServerClosedError, ServerOverloadedError
from repro.serve.metrics import BatcherStats
from repro.serve.policy import BatchingPolicy, FixedWindowPolicy, Request

_STOP = object()


class DynamicBatcher:
    """Coalesce concurrent requests into fused engine calls.

    Parameters
    ----------
    session:
        Anything with ``run(batch, batch_size=...) -> ndarray`` whose
        result's leading axis indexes the batch -- an
        :class:`~repro.engine.InferenceSession` in production, a fake in
        tests.
    policy:
        A :class:`~repro.serve.policy.BatchingPolicy` owning every
        batching decision.  Policies are stateful: give each batcher its
        own instance.  When omitted, a
        :class:`~repro.serve.policy.FixedWindowPolicy` is built from the
        three legacy tuning knobs below.  With ``dispatch`` set, only the
        policy's fusion cap and admission apply: its linger hooks
        (``flush_deadline`` / ``linger_timeout``) are for the inline path.
    max_batch / max_wait_ms / idle_flush_ms:
        Tuning for the default fixed-window policy (upper bound on fused
        requests; hard cap on the post-first-arrival linger; early flush
        once arrivals pause -- see :class:`FixedWindowPolicy`).  Ignored
        when an explicit ``policy`` is passed; the two linger knobs are
        also ignored with ``dispatch`` set.
    max_queue:
        Bound on queued (not yet running) requests; beyond it
        :meth:`submit` raises :class:`ServerOverloadedError`.
    input_shape:
        When given, each request payload must have exactly this shape
        (malformed requests fail fast instead of poisoning a batch).
    run_in_executor:
        Run engine calls in the default thread-pool executor so the event
        loop stays responsive (numpy/scipy FFTs release the GIL).  Disable
        for fully deterministic unit tests.
    dispatch:
        Optional coroutine function ``async (stacked_batch) -> results``
        that replaces the inline engine call entirely -- the seam the
        cluster layer uses to route fused batches to replica worker
        processes (``ReplicaGroup.infer``).  ``run_in_executor`` is
        irrelevant when set.  ``session`` is still consulted for
        ``input_shape``/empty-batch semantics.  Unlike the inline path
        (which computes one batch at a time -- a second in-process call
        would just fight the first for the same cores), dispatched
        batches *pipeline*: the worker keeps forming and launching
        batches, up to ``max_concurrent_dispatches`` outstanding, so N
        replicas genuinely compute N batches at once.
    max_concurrent_dispatches:
        Cap on in-flight dispatched batches (cluster mode only); the
        server sets it to the replica count.  When the cap is reached the
        worker waits for a slot with every pending request still queued
        -- exactly the backpressure signal that lets the queue (and
        ``ServerOverloadedError``) do their job, and what makes the next
        batch as large as the backlog.  Default 2.
    stats_window:
        Capacity of the telemetry percentile windows
        (:class:`~repro.serve.metrics.BatcherStats`); defaults to the
        monitoring default (1024).  Autoscaled models use a smaller
        window so post-scaling traffic displaces stale samples quickly
        enough for the control loop to see its own effect.
    shed_retry:
        Optional coroutine function ``async (payload) -> result_row``
        giving a request that is about to be shed on deadline one last
        chance elsewhere (``ReplicaGroup.rescue`` dispatches it to an
        idle replica).  One-shot per request; if the hook raises, the
        request fails with the original
        :class:`~repro.serve.errors.DeadlineExceededError`.  Applies only
        to policy-stamped deadlines -- an explicit caller budget
        (``submit(..., slo_ms=...)``) always fails hard on expiry.

    Requests may be submitted before :meth:`start`; they queue up (within
    ``max_queue``) and run once the worker starts.

    Raises
    ------
    ValueError / TypeError
        At construction for invalid tuning or a session without ``run``.
    ServerOverloadedError
        From :meth:`submit` when the bounded queue is full.
    ServerClosedError
        From :meth:`submit` after :meth:`stop`.
    DeadlineExceededError
        To a submitted request's future when its deadline expires in the
        queue (deadline-aware policies, or an explicit ``slo_ms``).

    Thread/async-safety: one batcher belongs to one event loop.  All
    public coroutines must be awaited on that loop; the only work that
    leaves the loop is the engine call itself (executor thread).  Stats
    objects are mutated solely by the worker task.
    """

    def __init__(
        self,
        session,
        *,
        policy: Optional[BatchingPolicy] = None,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        idle_flush_ms: Optional[float] = None,
        input_shape: Optional[Sequence[int]] = None,
        run_in_executor: bool = True,
        dispatch=None,
        shed_retry=None,
        max_concurrent_dispatches: int = 2,
        stats_window: Optional[int] = None,
        name: str = "",
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_concurrent_dispatches < 1:
            raise ValueError("max_concurrent_dispatches must be >= 1")
        if not callable(getattr(session, "run", None)):
            raise TypeError(f"session must expose run(batch, batch_size=...); got {type(session).__name__}")
        if dispatch is not None and not callable(dispatch):
            raise TypeError(f"dispatch must be an async callable, got {type(dispatch).__name__}")
        if shed_retry is not None and not callable(shed_retry):
            raise TypeError(f"shed_retry must be an async callable, got {type(shed_retry).__name__}")
        if policy is None:
            # FixedWindowPolicy validates the legacy knobs and reproduces
            # the pre-policy batcher behavior exactly.
            policy = FixedWindowPolicy(
                max_batch=max_batch, max_wait_ms=max_wait_ms, idle_flush_ms=idle_flush_ms
            )
        elif not isinstance(policy, BatchingPolicy):
            raise TypeError(f"policy must be a BatchingPolicy, got {type(policy).__name__}")
        self.session = session
        self.policy = policy
        self.max_queue = int(max_queue)
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.run_in_executor = bool(run_in_executor)
        self._dispatch = dispatch
        self._shed_retry = shed_retry
        self._max_concurrent_dispatches = int(max_concurrent_dispatches)
        self._dispatch_slots: Optional[asyncio.Semaphore] = None  # created on the worker's loop
        self._dispatch_tasks: set = set()
        self.name = name or type(session).__name__
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue + 1)  # +1 for the stop sentinel
        self._worker: Optional[asyncio.Task] = None
        self._retry_tasks: set = set()
        self._closed = False
        self._stats = BatcherStats(stats_window) if stats_window is not None else BatcherStats()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._worker is not None and not self._worker.done()

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "DynamicBatcher":
        """Spawn the worker task on the running event loop."""
        if self._closed:
            raise ServerClosedError(f"batcher {self.name!r} is closed")
        if self._worker is None or self._worker.done():
            worker = self._dispatch_loop() if self._dispatch is not None else self._inline_loop()
            self._worker = asyncio.get_running_loop().create_task(worker, name=f"repro-serve-{self.name}")
        return self

    async def stop(self) -> None:
        """Stop accepting requests, drain the queue, and join the worker."""
        if self._closed:
            return
        self._closed = True
        if self._worker is None:
            # Never started: fail any queued requests instead of stranding them.
            while not self._queue.empty():
                request = self._queue.get_nowait()
                if request is not _STOP and not request.future.done():
                    request.future.set_exception(
                        ServerClosedError(f"batcher {self.name!r} stopped before starting")
                    )
            return
        await self._queue.put(_STOP)
        await self._worker
        if self._dispatch_tasks:
            # Dispatched batches still computing on replicas: part of the
            # drain contract -- every accepted request resolves.
            await asyncio.gather(*list(self._dispatch_tasks), return_exceptions=True)
        if self._retry_tasks:
            # Shed-retry rescues already hold their request's future; let
            # them resolve so stop() never strands a caller.
            await asyncio.gather(*list(self._retry_tasks), return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    async def submit(self, payload, *, slo_ms: Optional[float] = None) -> np.ndarray:
        """Submit one request; resolves to that request's result row.

        ``slo_ms`` sets an explicit per-request latency budget; when
        omitted, deadline-aware policies stamp their default
        (``policy.assign_deadline``) and window policies leave the request
        deadline-free.

        Raises :class:`ServerOverloadedError` when the queue is full,
        :class:`ServerClosedError` after :meth:`stop`, and resolves to
        :class:`DeadlineExceededError` if the deadline expires in queue.
        """
        if self._closed:
            raise ServerClosedError(f"batcher {self.name!r} is closed")
        array = np.asarray(payload, dtype=float)
        if self.input_shape is not None and array.shape != self.input_shape:
            raise ValueError(
                f"{self.name!r} expects input shape {self.input_shape}, got {array.shape}"
            )
        loop = asyncio.get_running_loop()
        arrival = loop.time()
        explicit = slo_ms is not None
        if explicit:
            if slo_ms <= 0:
                raise ValueError("slo_ms must be > 0")
            deadline = arrival + slo_ms / 1000.0
        else:
            deadline = self.policy.assign_deadline(arrival)
        future = loop.create_future()
        if self._queue.qsize() >= self.max_queue:
            self._stats.rejected += 1
            raise ServerOverloadedError(
                f"batcher {self.name!r} is overloaded ({self.max_queue} requests pending)"
            )
        # Trace propagation: a submit running inside a traced context
        # (the gateway installs it via use_trace) opens the request's
        # queue span here.  Untraced traffic sees None and allocates
        # nothing -- this is the always-on-cheap contract.
        trace = current_trace()
        span = None
        if trace is not None:
            span = trace.span("serve.queue", start_s=arrival).set(model=self.name)
        self._queue.put_nowait(
            Request(
                payload=array,
                future=future,
                arrival=arrival,
                deadline=deadline,
                explicit_deadline=explicit,
                trace=trace,
                span=span,
            )
        )
        self._stats.submitted += 1
        return await future

    def stats(self) -> BatcherStats:
        """Live telemetry: counters plus sliding-window latency percentiles."""
        return self._stats

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _shed_if_expired(self, request: Request, now: float) -> bool:
        """Apply the policy's admission check; fail expired requests fast.

        With a ``shed_retry`` hook installed, a request's *first* shed
        hands it to the hook (one last chance on an idle replica) instead
        of failing it; the hook's failure -- or a second shed -- produces
        the :class:`DeadlineExceededError`.  Requests whose budget the
        *caller* set (``submit(..., slo_ms=...)``) are never rescued:
        an explicit budget promises ``DeadlineExceededError`` on expiry,
        and a late result must not masquerade as success.
        """
        if self.policy.admit(request, now):
            return False
        if self._shed_retry is not None and not request.retried and not request.explicit_deadline:
            request.retried = True
            self._stats.shed_retried += 1
            task = asyncio.get_running_loop().create_task(self._rescue(request))
            self._retry_tasks.add(task)
            task.add_done_callback(self._retry_tasks.discard)
            return True
        self._stats.deadline_missed += 1
        if request.span is not None:
            request.span.end(now).set(outcome="shed_deadline")
        if not request.future.done():
            overdue_ms = (now - request.deadline) * 1000.0 if request.deadline is not None else 0.0
            request.future.set_exception(
                DeadlineExceededError(
                    f"request to {self.name!r} missed its deadline by {overdue_ms:.1f} ms "
                    "while queued (shed before admission)"
                )
            )
        return True

    async def _rescue(self, request: Request) -> None:
        """Run the one-shot shed-retry hook and settle the request."""
        try:
            row = await self._shed_retry(request.payload)
        except Exception:
            self._stats.deadline_missed += 1
            if request.span is not None:
                request.span.end().set(outcome="shed_rescue_failed")
            if not request.future.done():
                request.future.set_exception(
                    DeadlineExceededError(
                        f"request to {self.name!r} missed its deadline and the one-shot "
                        "replica rescue could not take it"
                    )
                )
            return
        self._stats.shed_recovered += 1
        if request.span is not None:
            request.span.end().set(outcome="rescued")
        if not request.future.done():
            request.future.set_result(np.asarray(row))

    async def _inline_loop(self) -> None:
        """Form one batch at a time and run it in this process."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _STOP:
                return
            now = loop.time()
            if self._shed_if_expired(item, now):
                continue
            batch: List[Request] = [item]
            stopping = False
            # Both the fusion cap and the flush deadline are fixed once per
            # batch, from the policy -- the loop below only asks it how
            # long to linger.
            limit = max(1, self.policy.batch_limit(now))
            flush_at = self.policy.flush_deadline(item, now)
            while not stopping and len(batch) < limit:
                # Sweep everything already queued -- no timer machinery on
                # this path, so convoys fuse at zero added latency.
                stopping = self._sweep(batch, limit)
                if stopping or len(batch) >= limit:
                    break
                # Queue drained: the policy decides whether (and how long)
                # to hold the batch open for the next arrival.
                timeout = self.policy.linger_timeout(batch, loop.time(), flush_at)
                if timeout <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break  # arrivals paused; flush what we have
                if nxt is _STOP:
                    stopping = True
                elif self._shed_if_expired(nxt, loop.time()):
                    continue
                else:
                    batch.append(nxt)
            if batch:
                await self._execute(batch)
            if stopping:
                return

    async def _dispatch_loop(self) -> None:
        """Launch a batch whenever a dispatch slot is free.

        The slot is taken *before* the queue is swept, and the batch
        launches at once.  While every replica is busy the queue fills,
        so the next batch takes in the whole backlog (up to the policy's
        ``batch_limit``); while a replica is free, lingering would only
        leave it idle.  Admission runs after the slot is taken, so a
        request that expired while the fleet was busy is shed, not sent.
        Launched batches pipeline: the loop goes straight back for the
        next slot while replicas compute in other processes.
        """
        loop = asyncio.get_running_loop()
        if self._dispatch_slots is None:
            self._dispatch_slots = asyncio.Semaphore(self._max_concurrent_dispatches)
        slots = self._dispatch_slots
        while True:
            await slots.acquire()
            item = await self._queue.get()
            if item is _STOP:
                slots.release()
                return
            now = loop.time()
            limit = max(1, self.policy.batch_limit(now))
            batch: List[Request] = [] if self._shed_if_expired(item, now) else [item]
            stopping = self._sweep(batch, limit)
            if batch:
                task = loop.create_task(self._execute_released(batch))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)
            else:
                slots.release()
            if stopping:
                return

    def _sweep(self, batch: List[Request], limit: int) -> bool:
        """Move already-queued requests into ``batch`` up to ``limit``,
        shedding expired ones; ``True`` when the stop sentinel was taken."""
        loop = asyncio.get_running_loop()
        while len(batch) < limit:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if nxt is _STOP:
                return True
            if not self._shed_if_expired(nxt, loop.time()):
                batch.append(nxt)
        return False

    async def _execute_released(self, batch: List[Request]) -> None:
        try:
            await self._execute(batch)
        finally:
            self._dispatch_slots.release()

    async def _execute(self, batch: List[Request]) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        # Fusion is shared structure, so traced members share ONE batch
        # span object (same span_id in every member trace -- the
        # cross-trace link).  loop.time() and the span clock are both
        # time.monotonic on CPython, so instants mix freely.
        traced = [request for request in batch if request.span is not None]
        batch_span = None
        dispatch_ctx = None
        for request in traced:
            request.span.end(started)
        if traced:
            batch_span = Span("serve.batch", start_s=started).set(
                batch_size=len(batch), traced=len(traced)
            )
            for request in traced:
                request.trace.attach(batch_span)
            if self._dispatch is not None:
                # The replica group fills this in (replica index, wire
                # transport, worker timing); the contextvar carries it
                # through the dispatch seam without widening its
                # signature -- group.infer runs in this same task.
                dispatch_ctx = {"trace_ids": [request.trace.trace_id for request in traced]}
        try:
            stacked = np.stack([request.payload for request in batch], axis=0)
            if self._dispatch is not None:
                token = set_dispatch_context(dispatch_ctx) if dispatch_ctx is not None else None
                try:
                    results = await self._dispatch(stacked)
                finally:
                    if token is not None:
                        reset_dispatch_context(token)
            elif self.run_in_executor:
                results = await loop.run_in_executor(None, self._fused_call, stacked)
            else:
                results = self._fused_call(stacked)
            results = np.asarray(results)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"engine returned {len(results)} rows for a batch of {len(batch)}"
                )
        except Exception as exc:
            if batch_span is not None:
                batch_span.end().set(error=f"{type(exc).__name__}: {exc}")
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        finished = loop.time()
        compute_s = finished - started
        if batch_span is not None:
            batch_span.end(finished)
            self._stitch_spans(traced, batch_span, dispatch_ctx, started, finished)
        self._stats.record_batch(len(batch), compute_s)
        for request, row in zip(batch, results):
            self._stats.record_request(started - request.arrival, finished - request.arrival)
            if not request.future.done():
                request.future.set_result(row)
        # Close the feedback loop: adaptive policies learn from measured
        # compute time and the backlog left behind.
        self.policy.observe(
            batch_size=len(batch), compute_s=compute_s, queue_depth=self._queue.qsize()
        )

    def _stitch_spans(
        self,
        traced: List[Request],
        batch_span: Span,
        dispatch_ctx: Optional[dict],
        started: float,
        finished: float,
    ) -> None:
        """Record per-request dispatch + worker-compute spans after a batch.

        Cross-process clocks do not align, so the worker reports its
        compute *duration* (shipped back with the reply through the
        transport's ``ok`` frame) and the parent anchors the stitched
        ``worker.compute`` span at the end of its own dispatch window.
        The inline (no-cluster) path computes in this very process, so
        its compute span simply covers the execute window.
        """
        ctx = dispatch_ctx or {}
        worker_obs = ctx.get("worker") or {}
        worker_compute_s = ctx.get("compute_s")
        for request in traced:
            dspan = request.trace.span("serve.dispatch", parent=batch_span, start_s=started)
            dspan.end(finished)
            if ctx.get("replica") is not None:
                dspan.set(
                    replica=ctx.get("replica"),
                    transport=ctx.get("transport"),
                    retries=ctx.get("retries", 0),
                )
            if worker_compute_s is not None:
                wspan = Span(
                    "worker.compute",
                    parent_id=dspan.span_id,
                    start_s=max(started, finished - float(worker_compute_s)),
                )
                wspan.end(finished)
                if worker_obs:
                    wspan.set(**worker_obs)
                request.trace.attach(wspan)
            elif self._dispatch is None:
                request.trace.span(
                    "worker.compute", parent=dspan, start_s=started
                ).end(finished).set(inline=True, pid=os.getpid())

    def _fused_call(self, stacked: np.ndarray) -> np.ndarray:
        """One engine call over the whole coalesced batch."""
        return self.session.run(stacked, batch_size=len(stacked))
