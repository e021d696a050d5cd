"""``repro.gateway``: the HTTP network front door of the serving stack.

Everything below the gateway already existed -- dynamic batching
(``repro.serve``), process-sharded replica groups (``repro.cluster``),
compiled sessions (``repro.engine``) -- but was reachable only from
inside one Python process.  This package puts an HTTP/1.1 server
(stdlib ``asyncio.start_server``, zero new dependencies) in front of an
:class:`~repro.serve.InferenceServer`:

===========  ===============================  ==============================
``POST``     ``/v1/models/{name}/infer``      single (``input``) or batch
                                              (``inputs``) inference, with
                                              optional per-request ``slo_ms``;
                                              JSON or a raw float64 tensor
                                              frame each way
``POST``     ``/v1/models/{name}/swap``       zero-downtime version swap
``GET``      ``/v1/models``                   per-model static metadata
``GET``      ``/v1/stats``                    batcher/replica/gateway/tracer counters
``GET``      ``/v1/traces``                   recent request traces
                                              (``?slow=N`` for the worst)
``GET``      ``/v1/traces/{id}``              one trace by ``X-Request-Id``
``GET``      ``/metrics``                     Prometheus text exposition
``GET``      ``/healthz``                     liveness probe
===========  ===============================  ==============================

Every route speaks JSON.  The infer route also takes and answers one
tensor frame (:mod:`repro.utils.tensor_codec`: a fixed header plus raw
little-endian float64 data) when ``Content-Type`` and ``Accept`` name
``application/octet-stream``; :class:`GatewayClient` always uses frames
for inference, and a frame is never unpickled.

Every response carries ``X-Request-Id`` (client-sent or gateway-minted);
the same id keys the request's trace in ``GET /v1/traces/{id}`` (see
:mod:`repro.obs`).

Overload becomes HTTP the obvious way -- a full batcher queue is ``429``
with ``Retry-After``, an expired SLO is ``504``, a closed or crashed
backend is ``503`` -- with structured ``{"error": {"type", "message",
"status"}}`` bodies throughout.  :class:`GatewayClient` inverts that
mapping back into the serving layer's exception types, so the open-loop
load generator measures HTTP serving with the same outcome bucketing as
in-process serving.

Quick start (see ``docs/gateway.md`` for the full reference)::

    server = InferenceServer(max_batch=16)
    server.add_model("digits", donn_model)
    async with Gateway(server, port=8080):
        ...   # curl http://127.0.0.1:8080/v1/models

or ``python -m repro.gateway`` for a demo model behind a flag-tunable
gateway.  Multi-host serving -- replica workers on other machines over
:class:`~repro.cluster.SocketTransport` -- is one ``cluster_options=
{"workers": [...]}`` away; the deployment walkthrough in the docs covers
it end to end.
"""

from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.codec import ApiError
from repro.gateway.limits import GatewayLimits
from repro.gateway.server import Gateway

__all__ = [
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "GatewayLimits",
    "ApiError",
]
