"""Route table and handlers: URL + method -> serving-layer calls.

The gateway's entire API surface lives in :func:`dispatch`:

=========  ==============================  =================================
method     path                            answers
=========  ==============================  =================================
``GET``    ``/healthz``                    liveness + model roster
``GET``    ``/metrics``                    Prometheus text exposition
``GET``    ``/v1/models``                  static per-model metadata
``GET``    ``/v1/stats``                   batcher/replica/gateway/tracer counters
``GET``    ``/v1/traces``                  recent traces (``?slow=N`` for worst)
``GET``    ``/v1/traces/{id}``             one retained trace by id
``POST``   ``/v1/models/{name}/infer``     run inference (JSON or tensor frame)
``POST``   ``/v1/models/{name}/swap``      zero-downtime version swap
=========  ==============================  =================================

Every response -- including every error -- carries ``X-Request-Id``: the
client-sent header when present, a freshly minted id otherwise.  The
same id doubles as the trace id (:mod:`repro.obs`), so a slow request's
HTTP response header is directly the key into ``GET /v1/traces/{id}``.

Handlers speak :class:`~repro.gateway.codec.ApiError` for refusals; the
serving layer's exception taxonomy is mapped onto HTTP statuses in
:func:`map_exception` -- overload becomes ``429 Too Many Requests`` with
``Retry-After`` (back off and come back), an expired deadline becomes
``504 Gateway Timeout`` (the answer is late, not wrong), an unknown
model ``404``, and a closed/crashed backend ``503 Service Unavailable``.
The mapping is the contract :class:`~repro.gateway.client.GatewayClient`
inverts on the other side of the wire, which is what lets the open-loop
load generator bucket HTTP outcomes exactly like in-process ones.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional
from urllib.parse import parse_qs, unquote

import numpy as np

from repro.gateway.codec import (
    TENSOR_MEDIA_TYPE,
    ApiError,
    HttpRequest,
    decode_infer_payload,
    decode_json_body,
    error_response,
    json_response,
    media_type,
    render_response,
    text_response,
)
from repro.obs.prom import render_server_metrics
from repro.obs.trace import new_trace_id, use_trace
from repro.obs.tracer import get_tracer
from repro.serve import (
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
    UnknownModelError,
)
from repro.utils.tensor_codec import encode_tensor

__all__ = ["dispatch", "map_exception"]


def map_exception(exc: BaseException, retry_after_s: float = 1.0) -> ApiError:
    """The serving layer's exception taxonomy as HTTP statuses."""
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, ServerOverloadedError):
        return ApiError(429, "overloaded", str(exc) or "request queue is full", retry_after_s=retry_after_s)
    if isinstance(exc, DeadlineExceededError):
        return ApiError(504, "deadline_exceeded", str(exc) or "latency budget expired in queue")
    if isinstance(exc, UnknownModelError):
        return ApiError(404, "unknown_model", str(exc) or "no such model")
    if isinstance(exc, ServerClosedError):
        return ApiError(503, "unavailable", str(exc) or "server is not serving", retry_after_s=retry_after_s)
    if isinstance(exc, ValueError):
        # The batcher refuses shape/dtype mismatches with ValueError: the
        # request is at fault, not the server.
        return ApiError(400, "invalid_input", str(exc))
    try:
        from repro.cluster.errors import ClusterError
    except Exception:  # pragma: no cover - cluster is part of this package
        ClusterError = ()  # type: ignore[assignment]
    if isinstance(exc, ClusterError):
        # Replica crashes/timeouts surviving the group's retry budget:
        # the backend fleet is unhealthy, not the request.
        return ApiError(503, "unavailable", str(exc) or "no replica available", retry_after_s=retry_after_s)
    try:
        from repro.store import ModelNotFoundError, StoreIntegrityError, VersionNotFoundError
    except Exception:  # pragma: no cover - store is part of this package
        ModelNotFoundError = VersionNotFoundError = StoreIntegrityError = ()  # type: ignore[assignment]
    if isinstance(exc, (ModelNotFoundError, VersionNotFoundError)):
        # The swap target does not exist: the request is at fault (404),
        # the fleet keeps serving its current version.
        return ApiError(404, "unknown_version", str(exc) or "no such model version")
    if isinstance(exc, StoreIntegrityError):
        # Stored bytes failed verification: the store is unhealthy.
        return ApiError(502, "store_integrity", str(exc) or "model store failed verification")
    return ApiError(500, "internal", f"{type(exc).__name__}: {exc}")


async def dispatch(gateway, request: HttpRequest) -> bytes:
    """Answer one parsed request; never raises (errors become responses).

    The request id (``X-Request-Id``: client-sent or minted here) is the
    trace id, and every response path -- success or error -- echoes it.
    """
    keep_alive = request.keep_alive
    rid = request.headers.get("x-request-id") or new_trace_id()
    headers = {"X-Request-Id": rid}
    try:
        if request.path == "/healthz":
            _require_method(request, "GET")
            return _health(gateway, keep_alive, headers)
        if request.path == "/metrics":
            _require_method(request, "GET")
            return text_response(render_server_metrics(_stats_body(gateway)), headers=headers, keep_alive=keep_alive)
        if request.path == "/v1/models":
            _require_method(request, "GET")
            return json_response(
                {"models": list(gateway.server.describe().values())},
                headers=headers,
                keep_alive=keep_alive,
            )
        if request.path == "/v1/stats":
            _require_method(request, "GET")
            return json_response(_stats_body(gateway), headers=headers, keep_alive=keep_alive)
        if request.path == "/v1/traces":
            _require_method(request, "GET")
            return _traces_index(request, keep_alive, headers)
        trace_id = _trace_path_id(request.path)
        if trace_id is not None:
            _require_method(request, "GET")
            return _trace_detail(trace_id, keep_alive, headers)
        name = _infer_model_name(request.path)
        if name is not None:
            _require_method(request, "POST")
            return await _infer(gateway, name, request, keep_alive, headers, rid)
        name = _model_action_name(request.path, "/swap")
        if name is not None:
            _require_method(request, "POST")
            return await _swap(gateway, name, request, keep_alive, headers)
        raise ApiError(404, "not_found", f"no route for {request.path}")
    except ApiError as error:
        return error_response(error, keep_alive=keep_alive, headers=headers)
    except Exception as exc:  # noqa: BLE001 - the wire gets a 500, not a traceback
        return error_response(map_exception(exc), keep_alive=keep_alive, headers=headers)


def _accepts_tensor(accept: str) -> bool:
    """Whether an ``Accept`` value lists the tensor media type (parameters and case ignored)."""
    return any(media_type(item) == TENSOR_MEDIA_TYPE for item in accept.split(","))


def _require_method(request: HttpRequest, method: str) -> None:
    if request.method != method:
        raise ApiError(405, "method_not_allowed", f"{request.path} accepts {method} only")


def _infer_model_name(path: str) -> Optional[str]:
    """``/v1/models/{name}/infer`` -> ``name`` (URL-decoded), else ``None``."""
    return _model_action_name(path, "/infer")


def _model_action_name(path: str, suffix: str) -> Optional[str]:
    """``/v1/models/{name}{suffix}`` -> ``name`` (URL-decoded), else ``None``."""
    prefix = "/v1/models/"
    if not (path.startswith(prefix) and path.endswith(suffix)):
        return None
    name = path[len(prefix) : -len(suffix)]
    if not name or "/" in name:
        return None
    return unquote(name)


def _trace_path_id(path: str) -> Optional[str]:
    """``/v1/traces/{id}`` -> ``id`` (URL-decoded), else ``None``."""
    prefix = "/v1/traces/"
    if not path.startswith(prefix):
        return None
    trace_id = path[len(prefix) :]
    if not trace_id or "/" in trace_id:
        return None
    return unquote(trace_id)


def _health(gateway, keep_alive: bool, headers: Dict[str, str]) -> bytes:
    up = gateway.server.started
    body = {
        "status": "ok" if up else "unavailable",
        "started": up,
        "models": sorted(gateway.server.describe()),
        "uptime_s": gateway.uptime_s,
    }
    return json_response(body, status=200 if up else 503, headers=headers, keep_alive=keep_alive)


def _stats_body(gateway) -> dict:
    """One telemetry snapshot: ``/v1/stats`` serves it as JSON, ``/metrics`` renders it as text."""
    return {
        "models": {name: stats.as_dict() for name, stats in gateway.server.stats().items()},
        "gateway": gateway.limits.snapshot(),
        "obs": get_tracer().snapshot(),
    }


def _int_query(params: Dict[str, list], key: str, default: int, *, cap: int = 256) -> int:
    values = params.get(key)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise ApiError(400, "invalid_request", f"query parameter {key!r} must be an integer") from None
    if value < 1:
        raise ApiError(400, "invalid_request", f"query parameter {key!r} must be >= 1")
    return min(value, cap)


def _traces_index(request: HttpRequest, keep_alive: bool, headers: Dict[str, str]) -> bytes:
    """``GET /v1/traces``: most recent traces, or ``?slow=N`` for the worst."""
    params = parse_qs(request.query)
    unknown = sorted(set(params) - {"slow", "recent"})
    if unknown:
        raise ApiError(400, "invalid_request", f"unknown query parameter(s) {unknown}")
    tracer = get_tracer()
    if "slow" in params:
        traces = tracer.slowest(_int_query(params, "slow", 16))
        order = "slowest"
    else:
        traces = tracer.recent(_int_query(params, "recent", 16))
        order = "recent"
    return json_response(
        {"traces": traces, "order": order, "count": len(traces)},
        headers=headers,
        keep_alive=keep_alive,
    )


def _trace_detail(trace_id: str, keep_alive: bool, headers: Dict[str, str]) -> bytes:
    found = get_tracer().get(trace_id)
    if found is None:
        raise ApiError(
            404,
            "trace_not_found",
            f"no retained trace with id {trace_id!r} (evicted, sampled out, or never seen)",
        )
    return json_response(found, headers=headers, keep_alive=keep_alive)


async def _infer(
    gateway,
    name: str,
    request: HttpRequest,
    keep_alive: bool,
    headers: Dict[str, str],
    rid: str,
) -> bytes:
    tracer = get_tracer()
    trace = tracer.trace(trace_id=rid)
    error_label: Optional[str] = None
    try:
        decode_span = trace.span("gateway.decode") if trace is not None else None
        batch, single, slo_ms = decode_infer_payload(
            request.body, request.headers.get("content-type", ""), request.headers.get("x-slo-ms")
        )
        if decode_span is not None:
            decode_span.end().set(model=name, items=len(batch))
        if not gateway.limits.try_begin_request():
            raise ApiError(
                429,
                "overloaded",
                f"gateway is at its in-flight limit ({gateway.limits.max_inflight})",
                retry_after_s=gateway.limits.retry_after_s,
            )
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            # gather() wraps each submit into a task *inside* this block,
            # so every task's copied context carries the trace and the
            # batcher's submit() can pick it up with current_trace().
            with use_trace(trace):
                results = await asyncio.gather(
                    *(gateway.server.submit(name, payload, slo_ms=slo_ms) for payload in batch)
                )
        except Exception as exc:  # noqa: BLE001 - mapped onto the HTTP taxonomy
            raise map_exception(exc, gateway.limits.retry_after_s) from exc
        finally:
            gateway.limits.end_request()
        latency_ms = (loop.time() - started) * 1000.0
        encode_span = trace.span("gateway.encode") if trace is not None else None
        as_tensor = _accepts_tensor(request.headers.get("accept", ""))
        if single and not as_tensor:
            body = {"model": name, "output": results[0], "latency_ms": latency_ms}
            response = json_response(body, headers=headers, keep_alive=keep_alive)
        else:
            stacked = np.stack(results, axis=0) if results else np.empty((0,))
            if as_tensor:
                response = render_response(
                    200, encode_tensor(stacked), {**headers, "Content-Type": TENSOR_MEDIA_TYPE}, keep_alive=keep_alive
                )
            else:
                body = {"model": name, "outputs": stacked, "count": len(results), "latency_ms": latency_ms}
                response = json_response(body, headers=headers, keep_alive=keep_alive)
        if encode_span is not None:
            encode_span.end()
        if trace is not None:
            trace.root.set(model=name, status=200)
        return response
    except ApiError as error:
        error_label = error.error_type
        if trace is not None:
            trace.root.set(model=name, status=error.status)
        raise
    except Exception as exc:
        error_label = type(exc).__name__
        raise
    finally:
        tracer.finish(trace, error=error_label)


async def _swap(
    gateway, name: str, request: HttpRequest, keep_alive: bool, headers: Dict[str, str]
) -> bytes:
    """Roll ``name`` onto another stored version; in-flight traffic keeps flowing."""
    payload = decode_json_body(request.body) if request.body else {}
    unknown = sorted(set(payload) - {"version"})
    if unknown:
        raise ApiError(
            400, "invalid_request", f"unknown field(s) {unknown}; the swap body takes only 'version'"
        )
    version = payload.get("version")
    if version is not None and not isinstance(version, (str, int)):
        raise ApiError(400, "invalid_request", "'version' must be a string tag or an integer")
    try:
        summary = await gateway.server.swap_model(name, version)
    except Exception as exc:  # noqa: BLE001 - mapped onto the HTTP taxonomy
        raise map_exception(exc, gateway.limits.retry_after_s) from exc
    return json_response(summary, headers=headers, keep_alive=keep_alive)
