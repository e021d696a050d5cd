"""HTTP/1.1 codec of the gateway: parse requests, render responses.

The gateway speaks a deliberately small slice of HTTP/1.1 over asyncio
streams -- ``Content-Length`` bodies only (chunked transfer encoding is
refused with ``501``; ``Expect: 100-continue`` is answered before the
body is read), persistent connections by default.  Bodies are JSON,
except that the infer route also takes and returns raw float64 tensor
frames (:mod:`repro.utils.tensor_codec`) under the
``application/octet-stream`` media type.  Everything protocol-shaped
lives here so the route handlers (:mod:`repro.gateway.routes`) deal in
Python objects, and the client (:mod:`repro.gateway.client`) reuses the
exact same framing from the other side of the wire.

Error discipline: every protocol violation raises :class:`ApiError`,
which carries its HTTP status, a stable machine-readable ``type`` and a
human message; :func:`error_response` renders it as the structured body
``{"error": {"type", "message", "status"}}`` every endpoint shares --
always JSON, whatever the request's media type.

Both infer encodings are exact.  A frame carries the doubles' bytes
verbatim, and JSON floats round-trip exactly in Python (``repr`` emits
the shortest string that parses back to the same double); that is what
lets the gateway promise ``atol=1e-10`` parity between HTTP responses
and in-process ``compile()`` output.  ``NaN``/``Inf`` -- which are *not*
valid JSON -- are scrubbed to ``null`` before encoding (they appear in
stats percentiles before any traffic has completed).
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.tensor_codec import decode_tensor

__all__ = [
    "ApiError",
    "HttpRequest",
    "TENSOR_MEDIA_TYPE",
    "media_type",
    "read_request",
    "read_response",
    "render_response",
    "json_response",
    "text_response",
    "error_response",
    "json_bytes",
    "decode_json_body",
    "decode_infer_payload",
]

#: The media type of a binary tensor frame, in ``Content-Type`` and ``Accept``.
TENSOR_MEDIA_TYPE = "application/octet-stream"

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 32 * 1024
#: Default upper bound on a request body (a sys-512 float64 image is a 2 MiB
#: tensor frame; its JSON text is a few times that -- 8 MiB covers a healthy
#: batch at the benchmark sizes without letting one request buffer a DVD).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ApiError(Exception):
    """A request the gateway refuses, with everything needed to answer it.

    ``error_type`` is the stable machine-readable discriminator clients
    switch on (the HTTP status is advisory for humans and proxies);
    ``retry_after_s`` becomes a ``Retry-After`` header on backpressure
    statuses so well-behaved clients know when to come back.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        *,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.error_type = str(error_type)
        self.message = str(message)
        self.retry_after_s = retry_after_s


@dataclass
class HttpRequest:
    """One parsed request: method, split target, lower-cased headers, body."""

    method: str
    path: str
    query: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


def media_type(header: str) -> str:
    """The bare, lower-cased media type of a ``Content-Type`` value (parameters dropped)."""
    return header.partition(";")[0].strip().lower()


# ---------------------------------------------------------------------- #
# Parsing (server side)
# ---------------------------------------------------------------------- #
async def read_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on a cleanly closed peer.

    Raises :class:`ApiError` for anything malformed -- the connection
    handler answers it and closes (a parser that lost framing cannot
    trust the next bytes to start a request).  A client that sent
    ``Expect: 100-continue`` gets the interim ``100 Continue`` on
    ``writer`` once its headers pass the size check, and only then is
    its body read (an over-limit body is refused unread).
    """
    try:
        blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise ApiError(400, "bad_request", "truncated HTTP request") from None
    except asyncio.LimitOverrunError:
        raise ApiError(
            431, "headers_too_large", f"request headers exceed {MAX_HEADER_BYTES} bytes"
        ) from None
    if len(blob) > MAX_HEADER_BYTES:
        raise ApiError(431, "headers_too_large", f"request headers exceed {MAX_HEADER_BYTES} bytes")

    lines = blob.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ApiError(400, "bad_request", f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ApiError(400, "bad_request", f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise ApiError(
            501, "not_implemented", "chunked transfer encoding is not supported; send Content-Length"
        )
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
        if length < 0:
            raise ValueError
    except ValueError:
        raise ApiError(400, "bad_request", f"invalid Content-Length: {length_text!r}") from None
    if length > max_body_bytes:
        raise ApiError(
            413,
            "payload_too_large",
            f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit",
        )
    body = b""
    if length:
        if headers.get("expect", "").lower() == "100-continue":
            # Without the interim line, clients such as curl hold the body
            # back for a second before sending it anyway.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ApiError(400, "bad_request", "request body shorter than Content-Length") from None
    return HttpRequest(method=method.upper(), path=path, query=query, headers=headers, body=body)


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    """Client-side twin of :func:`read_request`: one ``(status, headers, body)``."""
    blob = await reader.readuntil(b"\r\n\r\n")
    lines = blob.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", "0"))
    if length:
        body = await reader.readexactly(length)
    return status, headers, body


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def _scrub(obj):
    """JSON-safe copy: numpy scalars/arrays to Python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(key): _scrub(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(item) for item in obj]
    if isinstance(obj, np.ndarray):
        # A numeric array with no non-finite values converts in C
        # (`tolist`), never element-by-element in Python: JSON infer
        # responses are exactly this.
        if obj.dtype.kind in "iub":
            return obj.tolist()
        if obj.dtype.kind == "f" and bool(np.isfinite(obj).all()):
            return obj.tolist()
        return _scrub(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def json_bytes(obj) -> bytes:
    """Compact UTF-8 JSON with a trailing newline (curl-friendly)."""
    return (json.dumps(_scrub(obj), separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def render_response(
    status: int,
    body: bytes,
    headers: Optional[Dict[str, str]] = None,
    *,
    keep_alive: bool = True,
) -> bytes:
    """One full HTTP/1.1 response as bytes."""
    reason = _REASONS.get(status, "Unknown")
    out = [f"HTTP/1.1 {status} {reason}"]
    merged = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    for name, value in (headers or {}).items():
        merged[name] = str(value)
    out.extend(f"{name}: {value}" for name, value in merged.items())
    return ("\r\n".join(out) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    obj,
    status: int = 200,
    headers: Optional[Dict[str, str]] = None,
    *,
    keep_alive: bool = True,
) -> bytes:
    return render_response(status, json_bytes(obj), headers, keep_alive=keep_alive)


def text_response(
    text: str,
    status: int = 200,
    headers: Optional[Dict[str, str]] = None,
    *,
    keep_alive: bool = True,
) -> bytes:
    """A plain-text response (the ``/metrics`` Prometheus exposition)."""
    merged = {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}
    merged.update(headers or {})
    return render_response(status, text.encode("utf-8"), merged, keep_alive=keep_alive)


def error_response(
    error: ApiError,
    *,
    keep_alive: bool = True,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """The shared error envelope: ``{"error": {"type", "message", "status"}}``.

    ``headers`` carries per-request extras (the ``X-Request-Id`` echo);
    a ``Retry-After`` derived from the error is merged in on top.
    """
    merged = dict(headers or {})
    if error.retry_after_s is not None:
        # Retry-After is integer seconds; round up so "0.05s" does not
        # read as "retry immediately".
        merged["Retry-After"] = str(max(1, math.ceil(error.retry_after_s)))
    body = {
        "error": {"type": error.error_type, "message": error.message, "status": error.status}
    }
    return json_response(body, status=error.status, headers=merged, keep_alive=keep_alive)


# ---------------------------------------------------------------------- #
# Inference payloads
# ---------------------------------------------------------------------- #
def decode_json_body(body: bytes) -> dict:
    """The request body as a JSON object, or :class:`ApiError` 400."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, JSONDecodeError and over-long integer
        # literals; RecursionError, arrays nested past the parser's stack.
        raise ApiError(400, "invalid_json", f"request body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ApiError(400, "invalid_request", "request body must be a JSON object")
    return obj


def _check_slo_ms(value) -> float:
    """A latency budget from the JSON field or the ``X-Slo-Ms`` header, or ApiError 400."""
    try:
        slo_ms = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ApiError(400, "invalid_request", '"slo_ms" must be a number') from None
    if not math.isfinite(slo_ms) or slo_ms <= 0:
        raise ApiError(400, "invalid_request", '"slo_ms" must be a positive finite number')
    return slo_ms


def decode_infer_payload(
    body: bytes, content_type: str = "application/json", slo_header: Optional[str] = None
) -> Tuple[np.ndarray, bool, Optional[float]]:
    """Parse an infer body into ``(batch, single, slo_ms)``.

    A ``content_type`` of :data:`TENSOR_MEDIA_TYPE` (parameters and case
    ignored) makes the body one tensor frame holding the whole batch --
    the binary twin of ``"inputs"`` -- and ``slo_header`` (the
    ``X-Slo-Ms`` value) its optional latency budget.  A malformed frame
    is ``400 invalid_tensor``.

    Any other media type is a JSON object with exactly one of
    ``"input"`` (one payload) or ``"inputs"`` (a list of payloads), and
    ``"slo_ms"`` optionally attaches the budget.  Unknown keys are
    refused -- a typo like ``"slo"`` silently ignored would *weaken* the
    caller's SLO, the worst possible failure mode for a latency contract.

    ``batch`` always has a leading batch axis (``single`` records
    whether to unwrap the response); shape validation against the model
    happens downstream in the batcher.
    """
    if media_type(content_type) == TENSOR_MEDIA_TYPE:
        try:
            batch = decode_tensor(body)
        except ValueError as exc:
            raise ApiError(400, "invalid_tensor", f"request body is not a tensor frame: {exc}") from None
        return batch, False, None if slo_header is None else _check_slo_ms(slo_header)
    obj = decode_json_body(body)
    unknown = sorted(set(obj) - {"input", "inputs", "slo_ms"})
    if unknown:
        raise ApiError(
            400, "invalid_request", f"unknown field(s) {unknown}; expected input/inputs/slo_ms"
        )
    if ("input" in obj) == ("inputs" in obj):
        raise ApiError(400, "invalid_request", 'provide exactly one of "input" or "inputs"')
    slo_ms = obj.get("slo_ms")
    if slo_ms is not None:
        slo_ms = _check_slo_ms(slo_ms)
    single = "input" in obj
    raw = obj["input"] if single else obj["inputs"]
    try:
        batch = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ApiError(400, "invalid_input", f"payload is not numeric array data: {exc}") from None
    if single:
        batch = batch[None]
    elif batch.ndim == 0 or (batch.ndim == 1 and batch.size and not np.ndim(raw[0])):
        raise ApiError(400, "invalid_input", '"inputs" must be a list of payloads')
    return batch, single, slo_ms
