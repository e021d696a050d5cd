"""The ``repro-worker`` entrypoint: serve one replica over a TCP socket.

This is the remote half of :class:`~repro.cluster.transport.SocketTransport`.
Launch it on any host that has the ``repro`` package::

    # installed (console script) or straight from a checkout:
    repro-worker --host 0.0.0.0 --port 7070
    PYTHONPATH=src python -m repro.cluster.remote --host 0.0.0.0 --port 7070

and point a :class:`~repro.cluster.ReplicaGroup` at ``host:7070``
(``ReplicaGroup(spec, replicas=0, workers=["host:7070"])``), then serve
that group with ``InferenceServer.add_model``.  The worker carries **no
model state of its own**: each
connection opens with an ``("init", spec, options)`` frame, the worker
builds its :class:`~repro.engine.InferenceSession` from that
:class:`~repro.engine.SessionSpec`, runs the same call loop as a spawned
local worker (:func:`~repro.cluster.worker.serve_calls`, arrays in-band),
and then goes back to listening -- so a parent-side restart is simply a
reconnect, and a new model version is simply a new connection.  A
malformed frame ends at most its own conversation, never the listener.

One conversation at a time: a replica serializes its calls anyway, and a
worker process is one core's worth of FFT compute -- parents needing more
parallelism run more workers.  A worker therefore serves one group at a
time: two groups (two models) naming the same address would have the
second wait out its ``start_timeout_s`` handshake and fail, so give each
group its own workers.  ``--port 0`` binds an ephemeral port and
prints the bound address (``repro-worker listening on host:port``) so
launchers can scrape it.

Security note: frames are pickle-encoded (see
:mod:`repro.cluster.transport`) -- only ever expose a worker to parents
you trust, on a network you trust.
"""

from __future__ import annotations

import argparse
import functools
import logging
import signal
import socket
from typing import Optional

from repro.cluster.transport import FrameBuffer, recv_message, send_message
from repro.cluster.worker import serve_calls

__all__ = ["WorkerServer", "serve", "main"]

logger = logging.getLogger(__name__)


def _in_band(array):
    """Socket frames carry arrays in-band: nothing to load or store."""
    return array


def _serve_connection(conn: socket.socket, store_root: Optional[str] = None) -> None:
    """Answer one parent conversation: the init handshake, then :func:`serve_calls`."""
    recv = functools.partial(recv_message, conn, FrameBuffer())
    send = functools.partial(send_message, conn)
    try:
        message = recv()
        if not (isinstance(message, tuple) and len(message) == 3 and message[0] == "init"):
            send(("fatal", f"expected an ('init', spec, options) frame, got {message!r:.200}"))
            return
    except (EOFError, OSError):
        return  # parent connected and vanished; nothing to answer
    _, spec, options = message
    if store_root is not None and hasattr(spec, "with_location"):
        # A store ref minted against the *parent's* path: re-root it onto
        # this host's replica of the store (--store).  The pinned content
        # hash still guards the load, so a stale replica fails loudly.
        spec = spec.with_location(store_root)
    serve_calls(spec, options, recv, send, _in_band, _in_band)


class WorkerServer:
    """A listening ``repro-worker``: accept parents serially, serve each.

    Usable programmatically (tests run one in a background thread against
    ``port=0``) and from the CLI (:func:`main`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, store_root: Optional[str] = None):
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.settimeout(0.2)  # makes close() observable in accept loops
        self._closed = False
        self.host = host
        #: Local model-store root (``--store``): init frames carrying a
        #: :class:`~repro.store.StoreRef` are re-rooted here, so the
        #: worker cold-starts from its own disk instead of the parent's.
        self.store_root = store_root

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self, once: bool = False) -> None:
        """Accept and serve conversations until :meth:`close` (or one, with ``once``)."""
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            try:
                _serve_connection(conn, self.store_root)
            except Exception:
                # One bad conversation (say, an undecodable frame) must not
                # take the listener down with it.
                logger.exception("repro-worker: conversation failed; still accepting")
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            if once:
                return

    def serve_in_thread(self):
        """Run :meth:`serve_forever` on a daemon thread; returns the thread."""
        import threading

        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-worker-{self.port}", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    once: bool = False,
    quiet: bool = False,
    store_root: Optional[str] = None,
) -> None:
    """Blocking convenience wrapper: listen and serve until interrupted."""
    with WorkerServer(host, port, store_root=store_root) as server:
        if not quiet:
            print(f"repro-worker listening on {server.address}", flush=True)
        server.serve_forever(once=once)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Serve DONN inference batches to a remote ReplicaGroup over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind (default %(default)s)")
    parser.add_argument("--port", type=int, default=7070, help="port to bind; 0 = ephemeral (default %(default)s)")
    parser.add_argument("--once", action="store_true", help="serve a single conversation, then exit")
    parser.add_argument("--quiet", action="store_true", help="do not print the bound address")
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="local model-store root: StoreRef init frames load from this replica "
        "of the store instead of the parent's path",
    )
    args = parser.parse_args(argv)
    # Exit cleanly on SIGTERM so supervisors (and `timeout`) see rc 0 paths.
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread / platform
        pass
    try:
        serve(args.host, args.port, once=args.once, quiet=args.quiet, store_root=args.store)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entrypoint
    raise SystemExit(main())
