"""Worker transports: how the parent talks to one replica worker.

The PR 5 cluster spoke exactly one dialect: a ``multiprocessing`` pipe
for control messages plus shared-memory arenas for array payloads, to a
child process spawned on the same host.  That dialect is now one
implementation of a small :class:`Transport` interface, so the *same*
message schema can also travel over a TCP socket to a worker running on
another host (or just another container).

Message schema (transport-independent; array payloads appear in-band):

==============================  =========================================
parent -> worker                worker -> parent
==============================  =========================================
``("run", batch, seq[, ctx])``  ``("ok", seq, result, compute_s[, obs])``
                                or ``("err", seq, message)``
``("ping", seq)``               ``("pong", seq)``
``("stop",)``                   (conversation over)
==============================  =========================================

The optional trailing elements carry observability: ``ctx`` is the
parent's trace context (``{"trace_ids": [...]}``) and ``obs`` the
worker's reply timing (pid, compute duration) that the serving layer
stitches into the request traces.  Both sides tolerate the short forms,
so mixed-version parents and workers interoperate.

plus a one-shot startup handshake -- ``("ready", meta)`` on success,
``("fatal", message)`` on a worker that could not build its session --
surfaced through :meth:`Transport.start`'s return value or
:class:`~repro.cluster.errors.WorkerStartupError`.

* :class:`LocalTransport` spawns the worker as a child process; control
  messages cross a pipe and arrays move through shared-memory arenas
  (:mod:`repro.cluster.shm`) as tiny descriptors -- the PR 5 path,
  behavior-for-behavior.  The child starts with an explicit BLAS/OpenMP
  thread budget (:attr:`LocalTransport.threads`, set by the owning
  :class:`~repro.cluster.ReplicaGroup`) instead of one pool per core.
* :class:`SocketTransport` connects to an already-running
  ``repro-worker`` process (:mod:`repro.cluster.remote`), frames every
  message as ``8-byte big-endian length + payload`` over TCP, and ships
  arrays in-band.  The payload encoding is pickle: the cluster protocol
  is for *trusted* workers you launched yourself -- exactly like the
  spawn path, whose child also unpickles whatever the parent sends.
  Never point it at an untrusted endpoint.

:class:`~repro.cluster.replica.Replica` drives either transport through
the same five calls (``start`` / ``send`` / ``poll`` / ``recv`` /
``close``), so routing, retry, health checks and telemetry in
:class:`~repro.cluster.ReplicaGroup` are transport-agnostic.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import select
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from typing import Optional, Tuple

from repro.cluster.errors import WorkerStartupError
from repro.cluster.shm import ShmArena, ShmReader

__all__ = [
    "Transport",
    "LocalTransport",
    "SocketTransport",
    "FrameBuffer",
    "encode_frame",
    "decode_frame",
    "recv_message",
    "send_message",
    "parse_address",
    "usable_cores",
]

#: Length prefix of one frame: 8-byte big-endian unsigned payload size.
_FRAME_HEADER = struct.Struct(">Q")
#: Sanity bound on a single frame (a batch of float64 images at sys 512
#: and B=1024 is ~2 GiB; anything past this is a protocol desync).
MAX_FRAME_BYTES = 1 << 33
#: Socket read chunk size.
_CHUNK = 1 << 20
#: TCP connect deadline of :meth:`SocketTransport.start`.
_CONNECT_TIMEOUT_S = 10.0
#: The variables that size a process's BLAS and OpenMP thread pools.  numpy
#: reads them once, when it is imported, so a spawned child takes whatever
#: they hold at ``Process.start()``.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Serializes the environment swap around ``Process.start()``: a group boots
#: its replicas on parallel threads, and the environment is process-wide.
_SPAWN_ENV_LOCK = threading.Lock()


def usable_cores() -> int:
    """Cores this process may run on (its scheduler affinity).

    On cgroup-limited containers this, not ``os.cpu_count()``, is the
    number that bounds multi-process scaling.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-linux


@contextlib.contextmanager
def _thread_budget_env(threads: Optional[int]):
    """Set :data:`THREAD_ENV_VARS` to ``threads`` for the body, then restore.

    The parent's environment comes back exactly: a variable that was
    unset is unset again.  ``None`` leaves the environment alone (the
    child inherits it).
    """
    if threads is None:
        yield
        return
    with _SPAWN_ENV_LOCK:
        saved = {name: os.environ.get(name) for name in THREAD_ENV_VARS}
        os.environ.update({name: str(int(threads)) for name in THREAD_ENV_VARS})
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


# ---------------------------------------------------------------------- #
# Frame codec (shared by SocketTransport and the repro-worker server)
# ---------------------------------------------------------------------- #
def encode_frame(message: tuple) -> bytes:
    """One wire frame: length prefix + pickled message tuple."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> tuple:
    return pickle.loads(payload)


class FrameBuffer:
    """Incremental decoder: feed raw socket bytes, pop complete messages."""

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def next_message(self) -> Optional[tuple]:
        """The next complete message, or ``None`` when more bytes are needed."""
        header = _FRAME_HEADER.size
        if len(self._data) < header:
            return None
        (length,) = _FRAME_HEADER.unpack(bytes(self._data[:header]))
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(f"frame of {length} bytes exceeds the protocol bound")
        if len(self._data) < header + length:
            return None
        payload = bytes(self._data[header : header + length])
        del self._data[: header + length]
        return decode_frame(payload)

    @property
    def pending(self) -> bool:
        """True when a complete frame is already buffered."""
        header = _FRAME_HEADER.size
        if len(self._data) < header:
            return False
        (length,) = _FRAME_HEADER.unpack(bytes(self._data[:header]))
        return len(self._data) >= header + length


def send_message(sock: socket.socket, message: tuple) -> None:
    sock.sendall(encode_frame(message))


def recv_message(
    sock: socket.socket, buffer: FrameBuffer, deadline: Optional[float] = None
) -> tuple:
    """Blocking receive of one message; raises ``EOFError`` on a closed peer.

    ``deadline`` is a ``time.monotonic`` instant; ``TimeoutError`` past it,
    also when the peer sends nothing at all.
    """
    while True:
        message = buffer.next_message()
        if message is not None:
            return message
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([sock], [], [], remaining)[0]:
                raise TimeoutError("no complete frame before the deadline")
        chunk = sock.recv(_CHUNK)
        if not chunk:
            raise EOFError("peer closed the connection")
        buffer.feed(chunk)


def parse_address(address) -> Tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, port = address.rpartition(":")
        return host, int(port)
    raise ValueError(f"worker address must be 'host:port' or (host, port), got {address!r}")


# ---------------------------------------------------------------------- #
# The interface
# ---------------------------------------------------------------------- #
class Transport(ABC):
    """One worker conversation: lifecycle + framed messages with arrays.

    Implementations are driven by exactly one
    :class:`~repro.cluster.replica.Replica` (which serializes access
    under its own lock), so they need no internal locking.  Breakage is
    reported through the ``OSError`` family (``BrokenPipeError`` /
    ``EOFError`` / ``ConnectionError``) from :meth:`send`/:meth:`recv`,
    or by :attr:`alive` turning false between calls.
    """

    name = "?"

    @abstractmethod
    def start(self) -> dict:
        """Bring the worker up (spawn or connect) and return its handshake meta.

        Called again after :meth:`close` to restart/reconnect.  Raises
        :class:`~repro.cluster.errors.WorkerStartupError` when the worker
        cannot serve.
        """

    @abstractmethod
    def send(self, message: tuple) -> None:
        """Ship one parent->worker message (``run`` carries the batch array)."""

    @abstractmethod
    def poll(self, timeout_s: float) -> bool:
        """True when a complete worker->parent message is ready to receive."""

    @abstractmethod
    def recv(self) -> tuple:
        """The next worker->parent message, array payloads materialized."""

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Whether the conversation can still make progress."""

    @abstractmethod
    def close(self, graceful: bool = True) -> None:
        """Tear the conversation down (``graceful`` sends ``stop`` first)."""

    @property
    def pid(self) -> Optional[int]:
        """Worker process id, when this transport owns the process."""
        return None

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# ---------------------------------------------------------------------- #
# Local: spawned child process, pipe + shared memory (the PR 5 path)
# ---------------------------------------------------------------------- #
class LocalTransport(Transport):
    """Spawn the worker as a child process on this host.

    Control messages cross a ``multiprocessing.Pipe``; batch arrays move
    through shared-memory arenas and only their descriptors are piped
    (:mod:`repro.cluster.shm`).  ``options`` travel to
    :func:`~repro.cluster.worker.worker_main` (``handicap_s`` etc.).
    """

    name = "local"

    def __init__(
        self,
        spec,
        index: int = 0,
        *,
        options: Optional[dict] = None,
        start_timeout_s: float = 120.0,
    ):
        self.spec = spec
        self.index = int(index)
        self.options = dict(options or {})
        self.start_timeout_s = float(start_timeout_s)
        #: BLAS/OpenMP threads the next spawned child runs with: every
        #: :data:`THREAD_ENV_VARS` entry is set to it in the child's
        #: environment.  ``None`` lets the child inherit this process's
        #: environment.  A :class:`~repro.cluster.ReplicaGroup` sets it
        #: from its fleet size before each spawn.
        self.threads: Optional[int] = None
        # spawn: supported everywhere, and the only start method that is
        # safe in a parent already running executor threads.
        self._ctx = multiprocessing.get_context("spawn")
        self._proc = None
        self._conn = None
        self._requests = ShmArena()   # parent-owned outbound arena
        self._responses = ShmReader()  # attachments to the worker's arena

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> dict:
        from repro.cluster.worker import worker_main

        if self.alive:
            self.close(graceful=False)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.spec, self.options),
            name=f"repro-replica-{self.index}",
            daemon=True,
        )
        with _thread_budget_env(self.threads):
            proc.start()
        child_conn.close()  # the worker holds the only other end now
        deadline = time.monotonic() + self.start_timeout_s
        while not parent_conn.poll(0.02):
            if not proc.is_alive():
                parent_conn.close()
                raise WorkerStartupError(
                    f"replica {self.index} died during startup (exit code {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                proc.kill()
                parent_conn.close()
                raise WorkerStartupError(
                    f"replica {self.index} did not hand-shake within {self.start_timeout_s:g}s"
                )
        message = parent_conn.recv()
        if message[0] != "ready":
            detail = message[1] if len(message) > 1 else "?"
            parent_conn.close()
            proc.join(timeout=2.0)
            raise WorkerStartupError(f"replica {self.index} failed to build its session:\n{detail}")
        self._proc, self._conn = proc, parent_conn
        return message[1]

    def send(self, message: tuple) -> None:
        if self._conn is None:
            raise BrokenPipeError(f"replica {self.index} transport is not connected")
        if message[0] == "run":
            # ("run", batch, seq[, ctx]): the batch array moves through
            # shared memory; the optional trailing trace-context dict --
            # and any future protocol extension -- rides the pipe as-is.
            batch, seq = message[1], message[2]
            ref = self._requests.write(batch)
            self._conn.send(("run", ref, seq) + tuple(message[3:]))
        else:
            self._conn.send(message)

    def poll(self, timeout_s: float) -> bool:
        return self._conn is not None and self._conn.poll(timeout_s)

    def recv(self) -> tuple:
        message = self._conn.recv()
        if message[0] == "ok":
            # ("ok", seq, ref, compute_s[, obs]): materialize the result
            # array, pass any trailing worker-observability dict through.
            seq, out_ref, compute_s = message[1], message[2], message[3]
            return ("ok", seq, self._responses.take(out_ref), compute_s) + tuple(message[4:])
        return message

    def close(self, graceful: bool = True) -> None:
        conn, self._conn = self._conn, None
        proc, self._proc = self._proc, None
        if conn is not None:
            if graceful and proc is not None and proc.is_alive():
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if proc is not None:
            proc.join(timeout=5.0 if graceful else 0.5)
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            proc.close()
        # Reclaim the worker's response arena unconditionally.  Only a
        # worker that processed ``stop`` unlinks its own arena; one that
        # was already dead at close, crashed mid-call, or had to be
        # kill()ed never does -- and distinguishing those exit paths
        # reliably is not worth it when a second unlink is a harmless
        # FileNotFoundError (swallowed before any tracker message).
        self._responses.unlink_all()
        self._requests.close(unlink=True)

    def describe(self) -> str:
        return f"local(pid={self.pid})"


# ---------------------------------------------------------------------- #
# Socket: length-prefixed frames over TCP to a repro-worker process
# ---------------------------------------------------------------------- #
class SocketTransport(Transport):
    """Talk to a ``repro-worker`` process over TCP.

    :meth:`start` connects to ``address`` (``"host:port"``), ships an
    ``("init", spec, options)`` frame, and waits for the worker's
    ``ready``/``fatal`` handshake -- the worker builds its session from
    the spec it just received, so nothing model-specific needs to exist
    on the remote host beyond the ``repro`` package itself.  A restart is
    a reconnect: the worker entrypoint keeps listening after a
    conversation ends, rebuilding a fresh session per connection.
    """

    name = "socket"

    def __init__(
        self,
        spec,
        address,
        *,
        options: Optional[dict] = None,
        start_timeout_s: float = 120.0,
    ):
        if start_timeout_s <= 0:
            raise ValueError("start_timeout_s must be > 0")
        self.spec = spec
        self.address = parse_address(address)
        self.options = dict(options or {})
        self.start_timeout_s = float(start_timeout_s)
        self._sock: Optional[socket.socket] = None
        self._buffer = FrameBuffer()
        self._broken = False

    @property
    def alive(self) -> bool:
        return self._sock is not None and not self._broken

    def start(self) -> dict:
        self.close(graceful=False)
        host, port = self.address
        try:
            sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise WorkerStartupError(f"cannot reach worker at {host}:{port}: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        sock.settimeout(None)  # blocking sends; receives go through select
        self._sock = sock
        self._buffer = FrameBuffer()
        self._broken = False
        try:
            send_message(sock, ("init", self.spec, self.options))
            deadline = time.monotonic() + self.start_timeout_s
            message = recv_message(sock, self._buffer, deadline)
        except (TimeoutError, EOFError, OSError) as exc:
            self.close(graceful=False)
            raise WorkerStartupError(
                f"worker at {host}:{port} did not hand-shake: {exc}"
            ) from exc
        if message[0] != "ready":
            detail = message[1] if len(message) > 1 else "?"
            self.close(graceful=False)
            raise WorkerStartupError(
                f"worker at {host}:{port} failed to build its session:\n{detail}"
            )
        return message[1]

    def send(self, message: tuple) -> None:
        if not self.alive:
            raise BrokenPipeError(f"worker transport to {self.address} is not connected")
        try:
            send_message(self._sock, message)
        except OSError:
            self._broken = True
            raise

    def poll(self, timeout_s: float) -> bool:
        if self._buffer.pending:
            return True
        if not self.alive:
            return False
        try:
            readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout_s))
            if not readable:
                return False
            chunk = self._sock.recv(_CHUNK)
        except (OSError, ValueError):
            self._broken = True
            return False
        if not chunk:  # peer closed: the conversation is over
            self._broken = True
            return False
        self._buffer.feed(chunk)
        return self._buffer.pending

    def recv(self) -> tuple:
        message = self._buffer.next_message()
        if message is not None:
            return message
        if not self.alive:
            raise EOFError(f"worker at {self.address} closed the connection")
        return recv_message(self._sock, self._buffer)

    def close(self, graceful: bool = True) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if graceful and not self._broken:
            try:
                send_message(sock, ("stop",))
            except OSError:
                pass
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._buffer = FrameBuffer()
        self._broken = False

    def describe(self) -> str:
        host, port = self.address
        return f"socket({host}:{port})"
