"""``python -m repro.gateway``: a curl-able gateway around a demo DONN.

Boots a digit-classifier DONN behind an :class:`~repro.serve.InferenceServer`
and a :class:`~repro.gateway.Gateway`, prints ready-to-paste curl lines,
and serves until interrupted::

    PYTHONPATH=src python -m repro.gateway --port 8080

    curl http://127.0.0.1:8080/healthz
    curl http://127.0.0.1:8080/v1/models
    curl -X POST http://127.0.0.1:8080/v1/models/digits/infer \
         -H 'Content-Type: application/json' -d "$(python - <<'PY'
    import json; print(json.dumps({"input": [[0.5]*64]*64}))
    PY
    )"

The infer route also takes a raw float64 tensor frame (``Content-Type:
application/octet-stream``; curl ``--data-binary @frame.bin``) and
answers with one when ``Accept`` asks for it -- the format and a
frame-writing snippet are in ``docs/gateway.md``.

``--replicas N`` (N >= 2) runs the model on a process-sharded
:class:`~repro.cluster.ReplicaGroup` built here; ``--workers
host:port,...`` attaches remote ``repro-worker`` processes to that group
(``--replicas 0`` for a purely remote fleet; see ``docs/gateway.md`` for
the multi-host walkthrough).
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional

from repro.gateway.server import Gateway
from repro.serve import InferenceServer


def build_server(args) -> InferenceServer:
    from repro.models.config import DONNConfig
    from repro.models.donn import DONN

    config = DONNConfig(
        sys_size=args.sys_size,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=3,
        num_classes=10,
        det_size=max(2, args.sys_size // 8),
        seed=0,
    )
    model = DONN(config)
    workers = [address.strip() for address in args.workers.split(",") if address.strip()]
    if args.replicas >= 2 or workers:
        from repro.cluster import ReplicaGroup
        from repro.engine import SessionSpec

        model = ReplicaGroup(
            SessionSpec.from_model(model), replicas=args.replicas, workers=workers, name=args.model_name
        )
    server = InferenceServer(max_batch=args.max_batch)
    server.add_model(args.model_name, model)
    return server


async def run(args) -> None:
    server = build_server(args)
    async with Gateway(server, host=args.host, port=args.port) as gateway:
        base = gateway.url()
        print(f"repro-gateway listening on {base}", flush=True)
        print(f"  curl {base}healthz")
        print(f"  curl {base}v1/models")
        print(f"  curl {base}v1/stats")
        print(
            f"  curl -X POST {base}v1/models/{args.model_name}/infer "
            f"-d '{{\"input\": [[0.5, ...]] }}'  # {args.sys_size}x{args.sys_size} image",
        )
        print(
            f"  curl -X POST {base}v1/models/{args.model_name}/infer "
            "-H 'Content-Type: application/octet-stream' --data-binary @frame.bin  # tensor frame",
            flush=True,
        )
        await gateway.serve_forever()


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Serve a demo DONN classifier over HTTP (JSON, or raw float64 tensor frames on /infer).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=8080, help="port; 0 = ephemeral (default %(default)s)")
    parser.add_argument("--sys-size", type=int, default=64, help="optical system size (default %(default)s)")
    parser.add_argument("--model-name", default="digits", help="model name in the URL (default %(default)s)")
    parser.add_argument("--max-batch", type=int, default=16, help="batcher fusion bound (default %(default)s)")
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="local worker processes; >= 2 (or any --workers) serves the model from a replica group "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--workers", default="",
        help="comma-separated host:port list of running repro-worker processes to attach",
    )
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    try:
        asyncio.run(run(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
