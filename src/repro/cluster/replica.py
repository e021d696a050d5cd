"""Parent-side handle of one replica worker.

A :class:`Replica` owns everything one worker needs on the parent side:
a :class:`~repro.cluster.transport.Transport` (the spawned process +
pipe + shared-memory plumbing for :class:`LocalTransport`, a framed TCP
connection for :class:`SocketTransport`), the request sequencing, and
the telemetry the routers read (in-flight depth, EWMA wall/compute
latency, failure and restart counters).  The replica itself is
transport-agnostic: routing, retry and health semantics are identical
whether the worker is a child process on this host or a
``repro-worker`` on another one.

:meth:`call` is deliberately *blocking* -- the group runs it on its own
dispatch threads (one per member), not the event loop's executor -- and
serialized per replica by a lock: one conversation, one in-order
exchange.  ``in_flight``
(maintained by the group around each dispatch) therefore counts
queued-plus-running calls, which is exactly the depth signal
``least_loaded`` and ``power_of_two_choices`` balance on.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from repro.cluster.errors import ReplicaCrashError, ReplicaTimeoutError
from repro.cluster.transport import LocalTransport, Transport
from repro.engine.spec import SessionSpec

__all__ = ["Replica"]

#: How often the waiting side polls the transport (also the liveness-check cadence).
_POLL_S = 0.02
#: Weight of the newest call in the EWMA wall/compute latencies routers read.
_EWMA_ALPHA = 0.2


class Replica:
    """One worker conversation plus its parent-side telemetry.

    By default the replica spawns a local child process
    (:class:`~repro.cluster.transport.LocalTransport`); pass
    ``transport=SocketTransport(spec, "host:port")`` to drive a
    ``repro-worker`` on another host instead.
    """

    def __init__(
        self,
        spec: SessionSpec,
        index: int = 0,
        *,
        transport: Optional[Transport] = None,
        handicap_s: float = 0.0,
        call_timeout_s: float = 60.0,
        start_timeout_s: float = 120.0,
        restart_backoff_s: float = 0.5,
        restart_backoff_cap_s: float = 30.0,
        clock=None,
    ):
        if call_timeout_s <= 0 or start_timeout_s <= 0:
            raise ValueError("timeouts must be > 0")
        if restart_backoff_s <= 0 or restart_backoff_cap_s < restart_backoff_s:
            raise ValueError("restart backoff must be > 0 and the cap must be >= the base")
        #: Monotonic time source for the restart-backoff window.  Injected
        #: by tests so backoff assertions need not sleep real wall-time;
        #: production always runs on ``time.monotonic``.
        self.clock = clock if clock is not None else time.monotonic
        self.index = int(index)
        self.handicap_s = float(handicap_s)
        self.call_timeout_s = float(call_timeout_s)
        self.start_timeout_s = float(start_timeout_s)
        if transport is None:
            transport = LocalTransport(
                spec,
                index=self.index,
                options={"handicap_s": self.handicap_s},
                start_timeout_s=self.start_timeout_s,
            )
        self.transport = transport
        self._lock = threading.Lock()  # serializes the conversation + restart
        self._ready = False
        self._seq = 0
        self.meta: Optional[dict] = None
        #: Calls currently dispatched at (or queued for) this replica;
        #: maintained by the owning group around each dispatch.
        self.in_flight = 0
        self.dispatched = 0
        self.failures = 0
        self.restarts = 0
        #: Consecutive *failed* restart attempts; a successful restart
        #: resets it.  Drives the group's capped exponential backoff so a
        #: worker that crash-loops on startup cannot respawn as fast as
        #: batches fail.
        self.restart_attempts = 0
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_cap_s = float(restart_backoff_cap_s)
        #: Monotonic instant before which another restart attempt is
        #: premature (the backoff window of the last failed attempt).
        self.restart_not_before = 0.0
        self.ewma_latency_s = 0.0
        self.ewma_compute_s = 0.0
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """Eligible for dispatch: handshaken and the conversation is up."""
        return bool(self._ready and self.transport.alive)

    @property
    def pid(self) -> Optional[int]:
        """Worker pid for locally-spawned workers; ``None`` over a socket."""
        return self.transport.pid

    def start(self) -> "Replica":
        """Bring the worker up (spawn or connect) and record its handshake."""
        with self._lock:
            if self.alive:
                return self
            self.meta = self.transport.start()
            self._ready = True
            return self

    def restart(self) -> "Replica":
        """Tear down whatever is left of the worker and bring up a fresh one."""
        with self._lock:
            self._ready = False
            self.transport.close(graceful=False)
            self.meta = self.transport.start()
            self._ready = True
            self.restarts += 1
            self.restart_attempts = 0
            self.restart_not_before = 0.0
            return self

    def note_restart_failure(self) -> float:
        """Record a failed restart attempt; returns the next backoff delay.

        The delay grows exponentially with consecutive failures
        (``restart_backoff_s * 2**(attempts-1)``), capped at
        ``restart_backoff_cap_s``; :attr:`restart_not_before` is pushed
        out accordingly so every restart path (background revive, health
        check) honours the same window.
        """
        self.restart_attempts += 1
        delay = min(
            self.restart_backoff_cap_s,
            self.restart_backoff_s * (2.0 ** (self.restart_attempts - 1)),
        )
        self.restart_not_before = self.clock() + delay
        return delay

    def close(self) -> None:
        """Stop the worker conversation (graceful ``stop``, then force)."""
        with self._lock:
            self._ready = False
            self.transport.close(graceful=True)

    # ------------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------------ #
    def ping(self, timeout_s: float = 5.0) -> bool:
        """Round-trip liveness probe; ``False`` means dead or wedged."""
        with self._lock:
            if not self.alive:
                return False
            self._seq += 1
            seq = self._seq
            try:
                self.transport.send(("ping", seq))
                answer = self._recv_locked(time.monotonic() + timeout_s)
            except (ReplicaCrashError, ReplicaTimeoutError):
                return False
            except (BrokenPipeError, EOFError, OSError):
                self._mark_failed_locked("transport broke during ping")
                return False
            return answer[0] == "pong" and answer[1] == seq

    def call(
        self,
        batch: np.ndarray,
        timeout_s: Optional[float] = None,
        *,
        ctx: Optional[dict] = None,
        detail: Optional[dict] = None,
    ) -> "tuple[np.ndarray, float]":
        """Run one fused batch on the worker; returns ``(result, compute_s)``.

        Blocking; safe to invoke from any thread (internally serialized).

        ``ctx`` is an optional trace context rider on the ``run`` frame
        (``{"trace_ids": [...]}`` -- see :mod:`repro.obs`); a worker that
        receives one answers with its observability payload, which lands
        in ``detail`` (an out-parameter dict, filled with ``worker`` and
        ``compute_s``) so the return shape stays ``(result, compute_s)``
        for every existing caller.

        Raises :class:`ReplicaCrashError` when the worker dies or the
        transport breaks mid-call, :class:`ReplicaTimeoutError` when no
        answer arrives in time (the replica is marked unready -- the
        group restarts it), and ``RuntimeError`` for an error *answer*
        (the worker stays up; the request itself was at fault).
        """
        deadline = time.monotonic() + (timeout_s if timeout_s is not None else self.call_timeout_s)
        started = time.perf_counter()
        with self._lock:
            if not self.alive:
                raise ReplicaCrashError(f"replica {self.index} is not running")
            self._seq += 1
            seq = self._seq
            try:
                message = ("run", batch, seq) if ctx is None else ("run", batch, seq, ctx)
                self.transport.send(message)
                answer = self._recv_locked(deadline)
            except (BrokenPipeError, EOFError, OSError) as exc:
                self._mark_failed_locked(f"transport broke mid-call: {exc}")
                raise ReplicaCrashError(f"replica {self.index} transport broke mid-call") from exc
            kind = answer[0]
            if kind == "err":
                self.failures += 1
                self.last_error = str(answer[2])
                raise RuntimeError(f"replica {self.index} request failed:\n{answer[2]}")
            if kind != "ok" or answer[1] != seq:  # pragma: no cover - protocol guard
                self._mark_failed_locked(f"protocol desync (got {kind!r})")
                raise ReplicaCrashError(f"replica {self.index} answered out of order")
            result, compute_s = answer[2], answer[3]
            if detail is not None:
                detail["compute_s"] = compute_s
                if len(answer) > 4:
                    detail["worker"] = answer[4]
            wall_s = time.perf_counter() - started
            self.dispatched += 1
            alpha = _EWMA_ALPHA
            if self.dispatched == 1:
                self.ewma_latency_s, self.ewma_compute_s = wall_s, compute_s
            else:
                self.ewma_latency_s += alpha * (wall_s - self.ewma_latency_s)
                self.ewma_compute_s += alpha * (compute_s - self.ewma_compute_s)
            return result, compute_s

    def _recv_locked(self, deadline: float):
        while not self.transport.poll(_POLL_S):
            if not self.transport.alive:
                self._mark_failed_locked("worker died mid-call")
                raise ReplicaCrashError(f"replica {self.index} died mid-call")
            if time.monotonic() > deadline:
                # A wedged worker cannot be trusted to answer in order
                # anymore; unready it so the group restarts rather than
                # reads a stale response for the next call.
                self._mark_failed_locked("call timed out")
                raise ReplicaTimeoutError(
                    f"replica {self.index} did not answer within the call timeout"
                )
        return self.transport.recv()

    def _mark_failed_locked(self, reason: str) -> None:
        self._ready = False
        self.failures += 1
        self.last_error = reason

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Flat per-replica snapshot (``ReplicaGroup.stats()`` rows)."""
        return {
            "replica": self.index,
            "pid": self.pid,
            "transport": self.transport.describe(),
            "alive": self.alive,
            "in_flight": self.in_flight,
            "dispatched": self.dispatched,
            "failures": self.failures,
            "restarts": self.restarts,
            "restart_attempts": self.restart_attempts,
            "ewma_latency_ms": self.ewma_latency_s * 1000.0,
            "ewma_compute_ms": self.ewma_compute_s * 1000.0,
            "handicap_ms": self.handicap_s * 1000.0,
            "threads": (self.meta or {}).get("threads"),
            "last_error": self.last_error,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "down"
        return (
            f"Replica(index={self.index}, transport={self.transport.describe()}, "
            f"{state}, dispatched={self.dispatched})"
        )
