"""The replica worker: one call loop serving fused batches for every transport.

Each worker rebuilds an :class:`~repro.engine.InferenceSession` from a
picklable :class:`~repro.engine.SessionSpec` (its *own* compiled program,
kernel caches and FFT plans, in its own address space -- this is what
frees a replica group from the parent's GIL), then answers a tiny
request/response protocol.  :func:`serve_calls` is that conversation;
:func:`worker_main` runs it in a spawned child over a pipe, and
:mod:`repro.cluster.remote` runs it over a TCP socket:

==============================  =========================================
parent -> worker                worker -> parent
==============================  =========================================
``("run", batch, seq[, ctx])``  ``("ok", seq, result, compute_s[, obs])``
                                or ``("err", seq, message)``
``("ping", seq)``               ``("pong", seq)``
``("stop",)``                   (exits after cleanup)
==============================  =========================================

A ``run`` carrying a trace context ``ctx`` (the request is traced --
see :mod:`repro.obs`) gets an ``ok`` carrying ``obs``: the worker's pid
and compute duration, which the parent stitches into the request's
trace as a ``worker.compute`` span.

plus a one-shot ``("ready", meta)`` / ``("fatal", message)`` handshake
after the session is built.  Over the pipe, ``batch`` and ``result``
are :data:`~repro.cluster.shm.ArrayRef` descriptors -- the arrays
themselves move through shared memory (:mod:`repro.cluster.shm`); over
a socket they travel in-band.

A per-request failure or a malformed frame answers ``("err", ...)`` and
the worker lives on; only a broken channel (parent gone) or ``stop``
ends the loop.  The ``handicap_s`` option adds a fixed sleep to every
call: a deliberately slowed replica for asymmetric-capacity tests.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Optional

import numpy as np

from repro.cluster.shm import ShmArena, ShmReader
from repro.engine.spec import SessionSpec

__all__ = ["worker_main", "serve_calls", "probe_session"]


def probe_session(session) -> dict:
    """Session metadata for the startup handshake.

    Runs one zero-image batch so the parent learns the per-item output
    shape (needed for empty-batch semantics and stats) -- which also
    warms the worker's FFT plan and kernel caches before traffic lands.
    """
    input_shape = tuple(session.input_shape)
    warm = session.run(np.zeros((1,) + input_shape))
    return {
        "kind": session.kind,
        "backend": session.backend_name,
        "dtype": session.dtype.name,
        "input_shape": input_shape,
        "output_item_shape": tuple(warm.shape[1:]),
        "output_dtype": warm.dtype.str,
    }


def serve_calls(spec, options, recv, send, load_batch, store_result) -> None:
    """One worker conversation, the same for every transport.

    Builds the session from ``spec``, replies ``("ready", meta)`` or
    ``("fatal", traceback)``, then answers ``ping``/``run`` frames until
    ``stop`` or until the channel breaks (``recv``/``send`` raising
    ``EOFError``/``OSError``: the parent is gone, nothing left to answer).
    The transport supplies its channel's ``recv``/``send`` and how arrays
    cross it: ``load_batch`` turns a ``run`` frame's payload into the
    batch, ``store_result`` turns the result into the ``ok`` frame's
    payload.  ``options`` understands ``handicap_s`` (artificial per-call
    sleep, seconds).  Never raises on a bad spec or frame: those answer
    ``fatal`` and ``err`` respectively.
    """
    try:
        try:
            handicap_s = float((options or {}).get("handicap_s") or 0.0)
            session = spec.build()
            meta = probe_session(session)
        except Exception:
            send(("fatal", traceback.format_exc(limit=8)))
            return
        send(("ready", meta))
        while True:
            message = recv()
            kind = message[0] if isinstance(message, tuple) and message else None
            if kind == "stop":
                return
            if kind == "ping" and len(message) >= 2:
                send(("pong", message[1]))
            elif kind == "run" and len(message) >= 3:
                send(_call(session, message, handicap_s, load_batch, store_result))
            else:
                send(("err", -1, f"malformed frame {message!r:.200}"))
    except (EOFError, OSError):
        return


def _call(session, message: tuple, handicap_s: float, load_batch, store_result) -> tuple:
    """Answer one ``("run", payload, seq[, ctx])`` frame with ``ok`` or ``err``.

    The batch lives only in this frame: a shm view must not outlive the
    call, or it pins the parent's arena mmap and turns the shutdown close
    into a ``BufferError``.
    """
    seq = message[2]
    try:
        batch = load_batch(message[1])
        started = time.perf_counter()
        result = np.asarray(session.run(batch, batch_size=len(batch) or None))
        compute_s = time.perf_counter() - started
        if handicap_s > 0.0:
            time.sleep(handicap_s)
        reply = ("ok", seq, store_result(result), compute_s)
    except Exception:
        return ("err", seq, traceback.format_exc(limit=8))
    if len(message) > 3 and message[3] is not None:
        # Traced request: ship durations, not instants -- clocks are
        # process-local, so the parent anchors the stitched
        # worker.compute span inside its own dispatch window.
        obs = {"pid": os.getpid(), "compute_ms": compute_s * 1000.0}
        if handicap_s > 0.0:
            obs["handicap_ms"] = handicap_s * 1000.0
        reply += (obs,)
    return reply


def worker_main(conn, spec: SessionSpec, options: Optional[dict] = None) -> None:
    """Entry point of one replica worker process (``spawn`` start method).

    ``conn`` is the worker end of a ``multiprocessing.Pipe``; batches and
    results cross through shared memory.  A batch is a zero-copy view of
    the parent's arena: the session copies while encoding, and the parent
    does not reuse the block before it has the reply.  The conversation
    itself is :func:`serve_calls`.
    """
    # The parent owns worker lifetime (stop message / terminate): a
    # keyboard interrupt aimed at the parent must not race its shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread / platform
        pass
    requests = ShmReader()   # parent-owned request arena
    responses = ShmArena()   # worker-owned response arena
    try:
        serve_calls(spec, options, conn.recv, conn.send, requests.view, responses.write)
    finally:
        requests.close()
        responses.close(unlink=True)
        conn.close()
