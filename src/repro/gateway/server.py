"""The gateway itself: an asyncio HTTP server in front of one InferenceServer.

:class:`Gateway` owns the TCP listener (``asyncio.start_server`` -- no
web framework, no new dependencies) and one connection-handler coroutine
per client.  Each handler is a keep-alive loop: parse a request
(:func:`~repro.gateway.codec.read_request`), dispatch it
(:func:`~repro.gateway.routes.dispatch`), write the response, repeat
until the client closes, errors, or sends ``Connection: close``.

Admission control happens before any work: a connection past
``limits.max_connections`` is answered ``503`` + ``Retry-After`` and
closed immediately, and an inference past ``limits.max_inflight`` is
answered ``429`` before it touches a batcher queue.  Everything deeper
(per-model queue bounds, SLO shedding, replica retry) stays where it
already lives -- the gateway only *translates* those outcomes to HTTP.

Ownership: a gateway handed an un-started server starts it on
:meth:`start` and stops it on :meth:`stop`; a server that was already
running when the gateway attached is left running when the gateway
detaches (whoever started it owns it).

::

    server = InferenceServer(max_batch=16)
    server.add_model("digits", donn_model)
    async with Gateway(server, port=8080) as gateway:
        await gateway.serve_forever()      # or poke gateway.port from tests

``python -m repro.gateway`` wires a demo model behind this class for a
curl-able single-command start.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.gateway.codec import (
    DEFAULT_MAX_BODY_BYTES,
    ApiError,
    error_response,
    read_request,
)
from repro.gateway.limits import GatewayLimits
from repro.gateway.routes import dispatch
from repro.obs.trace import new_trace_id
from repro.serve.server import InferenceServer

__all__ = ["Gateway"]


class Gateway:
    """HTTP front door for an :class:`~repro.serve.InferenceServer`.

    Parameters
    ----------
    server:
        The serving stack to front.  Started on :meth:`start` if (and
        only if) it is not already running; stopped on :meth:`stop` only
        when this gateway started it.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` -- tests and CI smoke runs do).
    limits:
        Admission bounds (:class:`~repro.gateway.limits.GatewayLimits`);
        default 64 connections / 256 in-flight inferences.
    max_body_bytes:
        Request body cap; larger bodies are refused with ``413``.
    """

    def __init__(
        self,
        server: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        limits: Optional[GatewayLimits] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.server = server
        self.host = host
        self._requested_port = int(port)
        self.limits = limits if limits is not None else GatewayLimits()
        self.max_body_bytes = int(max_body_bytes)
        self._listener: Optional[asyncio.AbstractServer] = None
        self._owns_server = False
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The actually-bound port (meaningful once started)."""
        if self._listener is not None and self._listener.sockets:
            return self._listener.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def uptime_s(self) -> Optional[float]:
        if self._started_at is None:
            return None
        return asyncio.get_running_loop().time() - self._started_at

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    async def start(self) -> "Gateway":
        if self._listener is not None:
            return self
        if not self.server.started:
            await self.server.start()
            self._owns_server = True
        self._listener = await asyncio.start_server(self._handle_connection, self.host, self._requested_port)
        self._started_at = asyncio.get_running_loop().time()
        return self

    async def stop(self) -> None:
        """Stop listening; drain the backing server only if we started it."""
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
            await listener.wait_closed()
        self._started_at = None
        if self._owns_server:
            self._owns_server = False
            await self.server.stop()

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``python -m repro.gateway`` main loop)."""
        if self._listener is None:
            await self.start()
        await self._listener.serve_forever()

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if not self.limits.try_open_connection():
            refusal = ApiError(
                503,
                "too_many_connections",
                f"gateway is at its connection limit ({self.limits.max_connections})",
                retry_after_s=self.limits.retry_after_s,
            )
            # Refused before any request was parsed: mint a fresh id so
            # even this response is correlatable in client logs.
            await self._write(
                writer,
                error_response(
                    refusal, keep_alive=False, headers={"X-Request-Id": new_trace_id()}
                ),
            )
            await self._close(writer)
            return
        try:
            while True:
                try:
                    request = await read_request(reader, writer, max_body_bytes=self.max_body_bytes)
                except ApiError as error:
                    # A parser that lost framing cannot trust the next
                    # bytes: answer and hang up.  No parsed headers means
                    # no client-sent id to echo; mint one.
                    await self._write(
                        writer,
                        error_response(
                            error, keep_alive=False, headers={"X-Request-Id": new_trace_id()}
                        ),
                    )
                    return
                if request is None:
                    return  # client closed between requests
                response = await dispatch(self, request)
                await self._write(writer, response)
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client vanished mid-exchange; nothing to answer
        finally:
            self.limits.close_connection()
            await self._close(writer)

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    @staticmethod
    async def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "listening" if self._listener is not None else "idle"
        return f"Gateway(address={self.address!r}, state={state!r})"
