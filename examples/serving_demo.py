"""Multi-tenant async serving with dynamic batching (``repro.serve``).

Builds three model families -- a digit classifier with an all-optical
Kerr nonlinearity, an RGB multi-channel classifier in reduced-precision
``complex64`` mode, and a segmentation DONN -- registers them under names
on one :class:`~repro.serve.InferenceServer`, then fires bursts of
concurrent single-image requests at it.  The server coalesces each burst
into a handful of fused engine calls (watch the ``mean_batch_size``
stats) and scatters every answer back to its caller.  A final section
shows the explicit overload error from the bounded queue and a model
served under a latency SLO (deadline-aware batching + shedding).

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.engine import compile as engine_compile
from repro.serve import (
    DeadlineExceededError,
    InferenceServer,
    ServerOverloadedError,
    SLOAwarePolicy,
)

SYS = 64


def build_models():
    config = DONNConfig(
        sys_size=SYS, pixel_size=36e-6, distance=0.1, wavelength=532e-9,
        num_layers=3, num_classes=10, det_size=8, seed=0,
    )
    digits = DONN(config, nonlinearity="kerr")          # NonlinearLayer in the stack
    rgb = MultiChannelDONN(config)                       # three optical channels
    scenes = SegmentationDONN(config.with_updates(num_layers=3))
    return digits, rgb, scenes


async def main() -> None:
    digits, rgb, scenes = build_models()
    rng = np.random.default_rng(7)

    # One server, three tenants.  A batch leaves as soon as the model's
    # engine is free and takes in everything queued behind the last one,
    # up to max_batch: bigger caps amortize more fixed cost under load.
    # complex64 halves the memory of the RGB model's cached kernels
    # (accuracy budget: 1e-4 on logits).
    server = InferenceServer(max_batch=32)
    server.add_model("digits", digits)
    server.add_model("rgb", rgb, dtype="complex64")
    server.add_model("scenes", scenes)

    async with server:
        # A burst of concurrent clients per model; every request is a
        # single image, every answer is that request's own result row.
        digit_images = rng.uniform(0.0, 1.0, size=(24, SYS, SYS))
        rgb_images = rng.uniform(0.0, 1.0, size=(12, 3, SYS, SYS))
        scene_images = rng.uniform(0.0, 1.0, size=(12, SYS, SYS))

        start = time.perf_counter()
        digit_logits, rgb_logits, masks = await asyncio.gather(
            server.submit_many("digits", digit_images),
            server.submit_many("rgb", rgb_images),
            server.submit_many("scenes", scene_images),
        )
        elapsed = time.perf_counter() - start

        total = len(digit_images) + len(rgb_images) + len(scene_images)
        print(f"answered {total} concurrent requests across 3 models in {elapsed * 1000:.1f} ms")
        print(f"digits -> logits {digit_logits.shape}, predictions {digit_logits.argmax(axis=-1)[:8]}...")
        print(f"rgb    -> logits {rgb_logits.shape} (complex64 session)")
        print(f"scenes -> intensity maps {masks.shape}")

        for name, stats in server.stats().items():
            s = stats.as_dict()
            print(
                f"  [{name}] {s['completed']} requests fused into {s['batches']} engine calls "
                f"(mean batch {s['mean_batch_size']:.1f}, largest {s['largest_batch']})"
            )

        # Backpressure is explicit: a tiny queue overflows loudly instead
        # of buffering unboundedly or deadlocking.
        server.add_model("tiny-queue", engine_compile(digits), max_queue=4, max_batch=1)
        flood = [server.submit("tiny-queue", image) for image in digit_images]
        answers = await asyncio.gather(*flood, return_exceptions=True)
        overloaded = sum(isinstance(a, ServerOverloadedError) for a in answers)
        served = sum(isinstance(a, np.ndarray) for a in answers)
        print(f"flooding a max_queue=4 model: {served} served, {overloaded} rejected with ServerOverloadedError")

        # Latency-SLO serving: the policy stamps every request with a
        # deadline, sizes batches from an online latency model so p99
        # stays inside the budget, and sheds requests that already
        # missed instead of computing answers nobody can use.
        server.add_model("digits-slo", engine_compile(digits), policy=SLOAwarePolicy(slo_ms=50.0))
        burst = await asyncio.gather(
            *(server.submit("digits-slo", image) for image in digit_images), return_exceptions=True
        )
        on_time = sum(isinstance(a, np.ndarray) for a in burst)
        slo_stats = server.stats()["digits-slo"].as_dict()
        print(
            f"SLO model (50 ms budget): {on_time} served, "
            f"{slo_stats['deadline_missed']} shed as DeadlineExceededError; "
            f"p50/p99 latency {slo_stats['p50_latency_ms']:.1f}/{slo_stats['p99_latency_ms']:.1f} ms "
            f"(queue {slo_stats['mean_queue_wait_ms']:.1f} ms + compute {slo_stats['mean_compute_ms']:.1f} ms)"
        )

        # An impossible per-request budget fails fast, loudly:
        try:
            await server.submit("digits-slo", digit_images[0], slo_ms=0.001)
        except DeadlineExceededError as exc:
            print(f"0.001 ms budget -> {type(exc).__name__}: {exc}")


async def sharded() -> None:
    """Replica groups: the same model served by 2 worker processes.

    Each fused batch is routed (here by power-of-two-choices) to one of
    two spawned workers, which rebuilt their own compiled sessions from
    the model's picklable SessionSpec; batch arrays travel over shared
    memory.  See docs/sharding.md.
    """
    digits, _, _ = build_models()
    server = InferenceServer(replicas=2, router="power_of_two_choices")
    server.add_model("digits", digits)
    rng = np.random.default_rng(7)
    images = rng.uniform(size=(24, SYS, SYS))
    async with server:  # start() spawns the workers; exit drains + stops them
        rows = await server.submit_many("digits", list(images))
        stats = server.stats()["digits"].as_dict()
        spread = [f"#{r['replica']} pid={r['pid']}: {r['dispatched']} batches" for r in stats["replicas"]]
        print(f"sharded digits: {len(rows)} answers from 2 worker processes ({'; '.join(spread)})")


if __name__ == "__main__":
    asyncio.run(main())
    asyncio.run(sharded())
