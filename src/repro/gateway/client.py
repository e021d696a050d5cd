"""An asyncio HTTP client for the gateway, with the error mapping inverted.

:class:`GatewayClient` exists for two callers: tests (round-trip the
full wire format against a live gateway) and load generators such as
``perfbench``'s ``http-classify`` workload, which drive traffic through
*real* HTTP.  That second caller dictates the design:

* **Connection pool.**  Open-loop load fires requests at their scheduled
  instants regardless of outstanding answers, so the client must run
  many HTTP exchanges concurrently -- a pool of persistent (keep-alive)
  connections, bounded by ``max_connections``, each carrying one
  request/response exchange at a time.
* **Binary inference.**  ``infer`` and ``infer_many`` send the batch as
  one raw float64 tensor frame (:mod:`repro.utils.tensor_codec`) and
  ask for the answer in the same format, so neither side spends CPU on
  number text.  Every other call, and every error body, is JSON.
* **Exception fidelity.**  A load generator buckets outcomes by
  catching the serving layer's exception types.  The client therefore
  re-raises the *original* types from the gateway's structured error
  bodies -- ``429/overloaded`` back to
  :class:`~repro.serve.ServerOverloadedError`, ``504/deadline_exceeded``
  back to :class:`~repro.serve.DeadlineExceededError`, and so on -- so a
  load run over HTTP and a load run in-process are bucketed by the exact
  same code.

Anything that does not map cleanly (parse errors, unexpected statuses)
raises :class:`GatewayError`, which carries the status and the server's
structured error type/message.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gateway.codec import TENSOR_MEDIA_TYPE, json_bytes, media_type, read_response
from repro.serve import (
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
    UnknownModelError,
)
from repro.store import StoreIntegrityError, VersionNotFoundError
from repro.utils.tensor_codec import decode_tensor, encode_tensor

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(Exception):
    """An HTTP failure with no serving-layer equivalent to re-raise.

    ``request_id`` is the gateway's ``X-Request-Id`` echo when the
    response carried one -- the key into ``GET /v1/traces/{id}``.
    """

    def __init__(
        self, status: int, error_type: str, message: str, *, request_id: Optional[str] = None
    ):
        super().__init__(f"[{status} {error_type}] {message}")
        self.status = int(status)
        self.error_type = str(error_type)
        self.message = str(message)
        self.request_id = request_id


#: ``error.type`` -> the serving-layer exception the gateway mapped from.
_ERROR_TYPES = {
    "overloaded": ServerOverloadedError,
    "deadline_exceeded": DeadlineExceededError,
    "unknown_model": UnknownModelError,
    "unavailable": ServerClosedError,
    "too_many_connections": ServerOverloadedError,
    "unknown_version": VersionNotFoundError,
    "store_integrity": StoreIntegrityError,
}

_Conn = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class GatewayClient:
    """Pooled keep-alive HTTP client for one gateway endpoint.

    Usable as an async context manager; all methods are coroutines and
    must run on one event loop.  ``max_connections`` bounds concurrent
    exchanges -- additional callers wait for a pooled connection rather
    than stampeding the gateway's connection limit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_connections: int = 16,
        timeout_s: float = 60.0,
    ):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._idle: List[_Conn] = []
        self._slots = asyncio.Semaphore(int(max_connections))
        self._closed = False

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    async def _exchange(
        self, method: str, path: str, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One exchange on a pooled connection; returns ``(status, headers, raw body)``."""
        if self._closed:
            raise GatewayError(0, "client_closed", "client is closed")
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        async with self._slots:
            reader, writer = await self._acquire()
            try:
                writer.write(head + body)
                await writer.drain()
                status, reply_headers, raw = await asyncio.wait_for(read_response(reader), self.timeout_s)
            except Exception:
                await _discard(writer)
                raise
            if reply_headers.get("connection", "keep-alive").lower() == "close":
                await _discard(writer)
            else:
                self._idle.append((reader, writer))
        return status, reply_headers, raw

    async def _request(self, method: str, path: str, payload=None) -> Tuple[int, Dict[str, str], dict]:
        """A JSON exchange: ``payload`` encoded as the body; returns ``(status, headers, body)``."""
        body = json_bytes(payload) if payload is not None else b""
        status, headers, raw = await self._exchange(method, path, body, {"Content-Type": "application/json"})
        return status, headers, _json(raw)

    async def _infer(self, model: str, batch, slo_ms: Optional[float], request_id: Optional[str]) -> np.ndarray:
        """``POST /v1/models/{model}/infer`` with ``batch`` as one tensor frame; the stacked outputs."""
        body = encode_tensor(batch)
        headers = {"Content-Type": TENSOR_MEDIA_TYPE, "Accept": TENSOR_MEDIA_TYPE}
        if slo_ms is not None:
            headers["X-Slo-Ms"] = repr(float(slo_ms))
        if request_id:
            headers["X-Request-Id"] = request_id
        status, reply_headers, raw = await self._exchange("POST", f"/v1/models/{model}/infer", body, headers)
        rid = reply_headers.get("x-request-id")
        if status >= 400 or media_type(reply_headers.get("content-type", "")) != TENSOR_MEDIA_TYPE:
            self._raise_for_error(status, _json(raw), reply_headers)
            raise GatewayError(status, "invalid_response", "infer reply is not a tensor frame", request_id=rid)
        try:
            outputs = decode_tensor(raw)
        except ValueError as exc:
            raise GatewayError(status, "invalid_response", f"infer reply: {exc}", request_id=rid) from None
        if len(outputs) != len(batch):
            raise GatewayError(
                status,
                "invalid_response",
                f"infer reply holds {len(outputs)} outputs for {len(batch)} inputs",
                request_id=rid,
            )
        return outputs

    async def _acquire(self) -> _Conn:
        while self._idle:
            reader, writer = self._idle.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            await _discard(writer)
        return await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout_s
        )

    async def close(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for _, writer in idle:
            await _discard(writer)

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @staticmethod
    def _raise_for_error(status: int, body: dict, headers: Optional[Dict[str, str]] = None) -> None:
        error = body.get("error") if isinstance(body, dict) else None
        if status < 400 and error is None:
            return
        error = error or {}
        error_type = str(error.get("type", "unknown"))
        message = str(error.get("message", f"HTTP {status}"))
        request_id = (headers or {}).get("x-request-id")
        mapped = _ERROR_TYPES.get(error_type)
        if mapped is not None:
            exc = mapped(message)
            # The serving-layer types take no extra args; ride the id on
            # the instance so callers can fetch the trace of a failure.
            exc.request_id = request_id
            raise exc
        raise GatewayError(status, error_type, message, request_id=request_id)

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    async def infer(
        self,
        model: str,
        payload,
        slo_ms: Optional[float] = None,
        *,
        request_id: Optional[str] = None,
    ) -> np.ndarray:
        """``POST /v1/models/{model}/infer`` with one payload; one result row.

        ``request_id`` rides as ``X-Request-Id`` and becomes the trace id
        (the gateway mints one otherwise); on failure the raised
        exception carries it back as ``.request_id``.  The payload
        travels as a ``(1, *shape)`` tensor frame; the result is a
        read-only float64 view of the reply body.
        """
        return (await self._infer(model, np.asarray(payload)[None], slo_ms, request_id))[0]

    async def infer_many(
        self,
        model: str,
        payloads,
        slo_ms: Optional[float] = None,
        *,
        request_id: Optional[str] = None,
    ) -> np.ndarray:
        """Batch variant: the payloads stacked into one frame; stacked results."""
        return await self._infer(model, np.asarray(payloads), slo_ms, request_id)

    async def swap_model(self, model: str, version=None) -> dict:
        """``POST /v1/models/{model}/swap`` -- roll onto another stored version.

        ``version`` follows :meth:`repro.store.ModelStore.resolve`:
        ``None``/``"latest"``, ``"vN"``/``N``, or a content-hash prefix.
        Returns the gateway's swap summary (new version tag, content
        hash, replica count, ``changed`` flag).
        """
        payload = {} if version is None else {"version": version}
        status, _, body = await self._request("POST", f"/v1/models/{model}/swap", payload)
        self._raise_for_error(status, body)
        return body

    async def models(self) -> List[dict]:
        status, _, body = await self._request("GET", "/v1/models")
        self._raise_for_error(status, body)
        return body["models"]

    async def stats(self) -> dict:
        status, _, body = await self._request("GET", "/v1/stats")
        self._raise_for_error(status, body)
        return body

    async def health(self) -> dict:
        """``GET /healthz`` -- returns the body even when the answer is 503."""
        _, _, body = await self._request("GET", "/healthz")
        return body

    async def trace(self, trace_id: str) -> dict:
        """``GET /v1/traces/{id}`` -- one retained trace by request id."""
        status, headers, body = await self._request("GET", f"/v1/traces/{trace_id}")
        self._raise_for_error(status, body, headers)
        return body

    async def traces(self, *, slow: Optional[int] = None) -> List[dict]:
        """``GET /v1/traces`` -- recent traces, or the ``slow`` worst."""
        path = "/v1/traces" if slow is None else f"/v1/traces?slow={int(slow)}"
        status, headers, body = await self._request("GET", path)
        self._raise_for_error(status, body, headers)
        return body["traces"]


async def _discard(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass


def _json(raw: bytes):
    return json.loads(raw.decode("utf-8")) if raw else {}
