"""The server side of ``http-classify``: Gateway + InferenceServer in one process.

Usage (``run.py`` launches it; it can also be run by hand)::

    python3 perfbench/gateway_proc.py --seed 1 --trace 0 --out report.json

It compiles the seeded serving model, puts it behind an in-process
:class:`~repro.serve.InferenceServer` with its shipped defaults and a
:class:`~repro.gateway.Gateway` on an ephemeral loopback port, and
prints one line ``READY {"port": ..., "pid": ...}``.  It serves until
its standard input reads ``stop`` or closes, then writes its report
(peak RSS, and with ``--trace 1`` the submit spans, engine calls and
the tracer's retained traces) to ``--out`` and exits 0.

With ``--trace 1`` the server is a subclass that times ``submit`` and
the session is wrapped in a proxy that times ``run``; the program's own
``repro.obs`` tracer keeps its shipped default in both modes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import peak_rss_mb  # noqa: E402
from inputs import BATCH, serving_model  # noqa: E402
from repro.engine import compile as engine_compile  # noqa: E402
from repro.gateway import Gateway  # noqa: E402
from repro.obs import current_trace, get_tracer  # noqa: E402
from repro.serve import InferenceServer  # noqa: E402

MODEL = "donn"


class TimedSession:
    """Proxy that records the wall interval and batch size of every ``run``."""

    def __init__(self, session):
        self._session = session
        self._lock = threading.Lock()
        self.calls = []  # (start, end, images)

    def run(self, images, batch_size=None):
        start = time.monotonic()
        out = self._session.run(images, batch_size=batch_size)
        end = time.monotonic()
        with self._lock:
            self.calls.append((start, end, len(images)))
        return out

    def __getattr__(self, name):
        return getattr(self._session, name)


class TimedServer(InferenceServer):
    """Records each ``submit`` interval, keyed by the gateway's trace id."""

    def __init__(self, **options):
        super().__init__(**options)
        self.submits = []  # (trace_id, trace_root_start, start, end)

    async def submit(self, name, payload, *, slo_ms=None):
        start = time.monotonic()
        try:
            return await super().submit(name, payload, slo_ms=slo_ms)
        finally:
            end = time.monotonic()
            trace = current_trace()
            if trace is not None:
                self.submits.append((trace.trace_id, trace.root.start_s, start, end))


async def serve(args) -> dict:
    session = engine_compile(serving_model(args.seed), batch_size=BATCH)
    if args.trace:
        session = TimedSession(session)
        server = TimedServer()
    else:
        server = InferenceServer()
    server.add_model(MODEL, session)
    gateway = Gateway(server, host="127.0.0.1", port=0)
    await gateway.start()
    loop = asyncio.get_running_loop()
    stop = loop.create_future()

    def on_stdin() -> None:
        line = sys.stdin.readline()
        if (not line or line.strip() == "stop") and not stop.done():
            stop.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print("READY " + json.dumps({"port": gateway.port}), flush=True)
    try:
        await stop
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await gateway.stop()
    report = {"peak_rss_mb": peak_rss_mb()}
    if args.trace:
        tracer = get_tracer()
        report.update(
            submits=server.submits,
            engine_calls=session.calls,
            traces=tracer.recent(tracer.buffer.capacity),
            tracer=tracer.snapshot(),
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = asyncio.run(serve(args))
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
