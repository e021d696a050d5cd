"""``repro.serve``: async dynamic-batching serving over the inference engine.

The roadmap's "heavy traffic" scenario: put compiled
:class:`~repro.engine.InferenceSession` programs behind an asyncio
front-end that coalesces concurrent single-image requests into fused
batched engine calls, under a pluggable batching policy.

Public surface:

* :class:`InferenceServer` -- multi-tenant façade: register models by
  name, ``async with server:``, ``await server.submit(name, image)``;
  ``stats()`` exposes per-model latency percentiles and counters.
* :class:`DynamicBatcher` -- per-model request queue + coalescing worker
  (bounded ``max_queue``; a batch leaves as soon as an engine slot is
  free, fused up to the policy's cap).
* :class:`BatchingPolicy` and the built-ins -- :class:`FixedWindowPolicy`
  (static ``max_batch`` cap), :class:`SLOAwarePolicy`
  (per-request deadlines + EWMA latency model, sheds hopeless requests),
  :class:`AdaptivePolicy` (AIMD batch sizing from queue depth);
  :func:`make_policy` builds one by name.
* :class:`BatcherStats` / :class:`PercentileWindow` -- telemetry, one
  recorder per quantity: sliding-window p50/p95/p99 plus lifetime
  histograms (latency, queue-wait vs compute breakdown).
* :class:`SessionRegistry` -- name -> session catalogue.
* :class:`ServeError` hierarchy -- explicit overload / closed / unknown
  model / deadline-exceeded errors.

See ``docs/serving.md`` for the policy tuning guide and
``examples/serving_demo.py`` for the workflow.
"""

from repro.serve.batcher import BatcherStats, DynamicBatcher
from repro.serve.errors import (
    DeadlineExceededError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    UnknownModelError,
)
from repro.serve.metrics import PercentileWindow
from repro.serve.policy import (
    AdaptivePolicy,
    BatchingPolicy,
    FixedWindowPolicy,
    Request,
    SLOAwarePolicy,
    make_policy,
)
from repro.serve.registry import SessionRegistry
from repro.serve.server import InferenceServer

__all__ = [
    "InferenceServer",
    "DynamicBatcher",
    "BatcherStats",
    "PercentileWindow",
    "SessionRegistry",
    "BatchingPolicy",
    "FixedWindowPolicy",
    "SLOAwarePolicy",
    "AdaptivePolicy",
    "Request",
    "make_policy",
    "ServeError",
    "ServerOverloadedError",
    "ServerClosedError",
    "DeadlineExceededError",
    "UnknownModelError",
]
