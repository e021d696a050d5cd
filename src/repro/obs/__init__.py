"""``repro.obs``: tracing, metrics exposition and structured logging.

Zero-dependency observability for the serving stack, threaded through
every layer:

* **Spans + traces** (:mod:`repro.obs.trace`, :mod:`repro.obs.tracer`):
  a trace id is minted at the gateway (``X-Request-Id`` accepted or
  generated, echoed on *every* response including errors), carried
  through ``DynamicBatcher.submit`` -> batch fusion (one shared batch
  span links the fused requests) -> ``ReplicaGroup`` dispatch -> across
  both ``LocalTransport`` and ``SocketTransport`` into the worker
  process, whose compute timing ships back with the reply and is
  stitched into the parent trace.  Finished traces land in a bounded
  ring with slow-request exemplars (``GET /v1/traces/{id}``,
  ``GET /v1/traces?slow=N``).
* **Prometheus exposition** (:mod:`repro.obs.prom`): ``GET /metrics``
  renders the ``GET /v1/stats`` body -- batcher counters, latency
  histograms, per-replica rows, autoscaler state, store identity,
  gateway limits and tracer counters -- in the text format, NaN-free by
  construction.
* **Structured logging** (:mod:`repro.obs.log`): JSON-lines events for
  replica restarts, autoscaler decisions, drain timeouts and swaps,
  each carrying the trace id when one is in scope.

Sampling: ``configure(sample_rate=...)`` installs a process-wide
:class:`Tracer`; a sampled-out request sees ``None`` everywhere and the
hot path allocates nothing.  See ``docs/observability.md``.
"""

from repro.obs.log import JsonLogger, get_logger
from repro.obs.prom import Histogram, MetricsWriter, render_server_metrics
from repro.obs.trace import (
    Span,
    Trace,
    current_trace,
    get_dispatch_context,
    new_span_id,
    new_trace_id,
    reset_dispatch_context,
    set_dispatch_context,
    use_trace,
)
from repro.obs.tracer import TraceBuffer, Tracer, configure, get_tracer, set_tracer

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "TraceBuffer",
    "Histogram",
    "MetricsWriter",
    "JsonLogger",
    "new_trace_id",
    "new_span_id",
    "current_trace",
    "use_trace",
    "get_dispatch_context",
    "set_dispatch_context",
    "reset_dispatch_context",
    "get_tracer",
    "set_tracer",
    "configure",
    "get_logger",
    "render_server_metrics",
]
