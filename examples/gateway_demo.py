"""Serving a DONN over HTTP with the gateway (``repro.gateway``).

Boots a digit-classifier DONN behind an
:class:`~repro.serve.InferenceServer` and a
:class:`~repro.gateway.Gateway` on an ephemeral loopback port, then
walks the whole API surface through :class:`~repro.gateway.GatewayClient`
-- health, model roster, single and batch inference, per-request
``slo_ms`` budgets, and the error mapping (an unknown model comes back
as a 404 that the client re-raises as the original
:class:`~repro.serve.UnknownModelError`).  A final section verifies that
the logits that crossed the wire as raw float64 tensor frames (the
client's infer format) match a direct :func:`repro.engine.compile` run
at ``atol=1e-10`` -- a frame carries the doubles' bytes verbatim.

Everything runs in one process over 127.0.0.1; point the same client at
another host to serve for real (see ``docs/gateway.md`` for the
deployment walkthrough, including remote ``repro-worker`` replicas).

Run with::

    PYTHONPATH=src python examples/gateway_demo.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import DONN, DONNConfig
from repro.engine import compile as engine_compile
from repro.gateway import Gateway, GatewayClient
from repro.serve import InferenceServer, UnknownModelError

SYS = 32


def build_model() -> DONN:
    config = DONNConfig(
        sys_size=SYS, pixel_size=36e-6, distance=0.1, wavelength=532e-9,
        num_layers=3, num_classes=10, det_size=4, seed=0,
    )
    return DONN(config)


async def main() -> None:
    model = build_model()
    rng = np.random.default_rng(7)
    images = rng.uniform(0.0, 1.0, size=(8, SYS, SYS))

    server = InferenceServer(max_batch=16)
    server.add_model("digits", model)

    # port=0 binds an ephemeral port; gateway.port reports the real one.
    # The gateway starts (and on exit stops) the backing server itself.
    async with Gateway(server, port=0) as gateway:
        print(f"gateway listening on {gateway.url()}  (try: curl {gateway.url()}healthz)\n")

        async with GatewayClient(port=gateway.port) as client:
            # -- health + roster ---------------------------------------- #
            health = await client.health()
            print(f"healthz: status={health['status']} models={health['models']}")
            for entry in await client.models():
                print(
                    f"models:  {entry['name']}: {entry['kind']} "
                    f"{tuple(entry['input_shape'])} dtype={entry['dtype']}"
                )

            # -- single + batch inference ------------------------------- #
            logits = await client.infer("digits", images[0])
            print(f"\ninfer:   one image -> logits shape {logits.shape}, "
                  f"argmax {int(np.argmax(logits))}")
            batch = await client.infer_many("digits", images)
            print(f"infer:   batch of {len(images)} -> outputs shape {batch.shape} "
                  "(requests coalesce into fused engine calls)")

            # -- per-request latency budget ----------------------------- #
            # A generous budget here; an expired one raises
            # DeadlineExceededError (HTTP 504) instead of a late answer.
            guarded = await client.infer("digits", images[1], slo_ms=5000.0)
            print(f"infer:   with slo_ms=5000 -> argmax {int(np.argmax(guarded))}")

            # -- the error mapping, round-tripped ----------------------- #
            try:
                await client.infer("tpyos", images[0])
            except UnknownModelError as exc:
                print(f"\nerrors:  404/unknown_model -> {type(exc).__name__}: {exc}")

            # -- wire-format parity ------------------------------------- #
            reference = engine_compile(model).run(images)
            drift = float(np.max(np.abs(batch - reference)))
            print(f"\nparity:  max |HTTP - compile()| = {drift:.2e} (tensor frames "
                  "carry float64 verbatim)")
            assert drift < 1e-10

            stats = await client.stats()
            digits = stats["models"]["digits"]
            print(f"stats:   {digits['completed']} completed, "
                  f"largest batch {digits['largest_batch']}, "
                  f"gateway requests {stats['gateway']['total_requests']}")


if __name__ == "__main__":
    asyncio.run(main())
