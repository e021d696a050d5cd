"""Serving throughput: autograd graph-mode vs the compiled inference engine.

The deployment-side question of the paper (and of this repo's roadmap) is
how fast a *trained* DONN can answer queries.  This benchmark measures
images/sec of the two inference paths at sys_size 64 / 128 / 200:

* **graph mode** -- ``model.predict``, the model's own inference API,
  which runs the forward pass through the autograd ``Tensor`` machinery
  (the status quo before ``repro.engine``);
* **no-grad eval** -- the ``evaluate_classifier``-style loop that wraps
  the graph path in ``no_grad`` (reported for transparency);
* **engine mode** -- a session from :func:`repro.engine.compile` with all
  diffraction kernels, modulations and detector masks precomputed.

A second section measures what the *plan optimizer* adds on top: a deep
(8-layer) nonlinearity-free DONN compiled with ``optimize="full"`` --
which collapses the whole linear cascade into one precomputed
input→detector operator pair -- against the same model at
``optimize="none"`` (the lowered plan emitted verbatim).  The plan op
counts before/after the passes and the spec pickle size go into the
committed results metadata.

Both sections assert end-to-end numerical parity (``atol=1e-10`` on the
detector logits) so no speedup can come from computing something
different.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np

from _bench_helpers import report, run_metadata, save_results
from repro import DONN, DONNConfig
from repro.autograd import no_grad
from repro.engine import compile as engine_compile

SIZES_AND_BATCHES = ((64, 32), (128, 16), (200, 8))
#: Payload-content seed; recorded in the committed results JSON.
SEED = int(os.environ.get("ENGINE_BENCH_SEED", "42"))
NUM_LAYERS = 5
ROUNDS = 3
PARITY_ATOL = 1e-10
# >= 2x is the claim on a quiet machine; shared CI runners set a lower
# floor (ENGINE_SPEEDUP_FLOOR) so timing noise can't fail the gate while
# the parity assertion stays strict everywhere.
MIN_SPEEDUP_AT_64 = float(os.environ.get("ENGINE_SPEEDUP_FLOOR", "2.0"))

# Plan-fusion section: a deep linear cascade at sys_size 64.  The >=3x
# claim (ROADMAP item 1) holds on a quiet machine; CI smoke runs set
# FUSION_SPEEDUP_FLOOR below it for the same timing-noise reason.
FUSION_SYS_SIZE = 64
FUSION_BATCH = 64
FUSION_LAYERS = 8
MIN_FUSION_SPEEDUP = float(os.environ.get("FUSION_SPEEDUP_FLOOR", "3.0"))


def _throughput(fn, num_images: int, rounds: int = ROUNDS) -> float:
    """Best-of-N images/sec (best-of is standard for timing benchmarks)."""
    fn()  # warm-up
    best = min(_timed(fn) for _ in range(rounds))
    return num_images / best


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _sweep():
    rng = np.random.default_rng(SEED)
    rows = []
    for sys_size, batch in SIZES_AND_BATCHES:
        config = DONNConfig(
            sys_size=sys_size,
            pixel_size=36e-6,
            distance=0.1,
            wavelength=532e-9,
            num_layers=NUM_LAYERS,
            num_classes=10,
            seed=1,
        )
        model = DONN(config)
        session = engine_compile(model, batch_size=batch)
        images = rng.uniform(0.0, 1.0, size=(batch, sys_size, sys_size))

        with no_grad():
            model.eval()
            reference = np.asarray(model(images).data.real)
            model.train()
        engine_logits = session.run(images)
        max_error = float(np.abs(engine_logits - reference).max())
        assert np.allclose(engine_logits, reference, atol=PARITY_ATOL), (
            f"engine/graph logits diverge at sys_size {sys_size}: max |diff| = {max_error:.3e}"
        )

        graph_ips = _throughput(lambda: model.predict(images), batch)

        def nograd_eval():
            with no_grad():
                model.eval()
                model(images)
                model.train()

        nograd_ips = _throughput(nograd_eval, batch)
        engine_ips = _throughput(lambda: session.run(images), batch)

        rows.append(
            {
                "sys_size": sys_size,
                "batch": batch,
                "graph_images_per_sec": graph_ips,
                "nograd_images_per_sec": nograd_ips,
                "engine_images_per_sec": engine_ips,
                "speedup_vs_graph": engine_ips / graph_ips,
                "speedup_vs_nograd": engine_ips / nograd_ips,
                "parity_max_abs_error": max_error,
                "fft_backend": session.backend_name,
            }
        )
    return rows


def _fusion_sweep():
    """optimize='full' vs 'none' on a deep nonlinearity-free cascade."""
    rng = np.random.default_rng(SEED)
    config = DONNConfig(
        sys_size=FUSION_SYS_SIZE,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=FUSION_LAYERS,
        num_classes=10,
        seed=1,
    )
    model = DONN(config)
    images = rng.uniform(0.0, 1.0, size=(FUSION_BATCH, FUSION_SYS_SIZE, FUSION_SYS_SIZE))

    unopt = engine_compile(model, optimize="none", batch_size=FUSION_BATCH)
    fused = engine_compile(model, optimize="full", batch_size=FUSION_BATCH)
    summary = fused.plan_summary()

    reference = unopt.run(images)
    max_error = float(np.abs(fused.run(images) - reference).max())
    assert max_error <= PARITY_ATOL, (
        f"optimize='full' logits diverge from 'none': max |diff| = {max_error:.3e}"
    )

    none_ips = _throughput(lambda: unopt.run(images), FUSION_BATCH)
    full_ips = _throughput(lambda: fused.run(images), FUSION_BATCH)

    return {
        "section": "plan_fusion",
        "sys_size": FUSION_SYS_SIZE,
        "batch": FUSION_BATCH,
        "num_layers": FUSION_LAYERS,
        "none_images_per_sec": none_ips,
        "full_images_per_sec": full_ips,
        "speedup_full_vs_none": full_ips / none_ips,
        "parity_max_abs_error": max_error,
        "collapsed": summary["collapsed"],
        "fft_ops_before": summary["fft_ops_before"],
        "fft_ops_after": summary["fft_ops_after"],
        "fft_backend": fused.backend_name,
        "spec_pickle_bytes": len(pickle.dumps(fused.to_spec(), protocol=pickle.HIGHEST_PROTOCOL)),
        "plan_ops_before": summary["ops_before"],
        "plan_ops_after": summary["ops_after"],
    }


def test_inference_throughput(benchmark):
    def run_all():
        return _sweep(), _fusion_sweep()

    rows, fusion = benchmark.pedantic(run_all, rounds=1, iterations=1)
    notes = (
        "Images/sec of a trained 5-layer DONN forward pass: autograd graph mode (model.predict) vs the "
        "compiled engine (repro.engine.compile).  Engine logits are asserted equal to graph logits within "
        f"atol={PARITY_ATOL:g} before timing.  The plan_fusion row compiles a deep "
        f"{FUSION_LAYERS}-layer nonlinearity-free DONN with optimize='full' (cascade collapsed to one "
        "precomputed input->detector operator) vs optimize='none'."
    )
    report("Inference throughput: graph mode vs engine mode", rows, notes)
    report("Plan optimizer: optimize='full' vs 'none' (deep linear cascade)", [fusion])
    metadata = dict(run_metadata(SEED))
    metadata.update(
        {
            "plan_ops_before": fusion["plan_ops_before"],
            "plan_ops_after": fusion["plan_ops_after"],
            "spec_pickle_bytes": fusion["spec_pickle_bytes"],
        }
    )
    save_results("inference_throughput", rows + [fusion], notes, metadata=metadata)

    assert all(row["parity_max_abs_error"] <= PARITY_ATOL for row in rows)
    row64 = next(row for row in rows if row["sys_size"] == 64)
    assert row64["speedup_vs_graph"] >= MIN_SPEEDUP_AT_64, (
        f"engine speedup at sys_size 64 is {row64['speedup_vs_graph']:.2f}x, expected >= {MIN_SPEEDUP_AT_64}x"
    )
    # The fusion pass must actually remove FFT work, not just win a race.
    assert fusion["collapsed"] and fusion["fft_ops_after"] < fusion["fft_ops_before"]
    assert fusion["speedup_full_vs_none"] >= MIN_FUSION_SPEEDUP, (
        f"optimize='full' speedup is {fusion['speedup_full_vs_none']:.2f}x, expected >= {MIN_FUSION_SPEEDUP}x"
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    for line in _sweep():
        print(line)
    print(_fusion_sweep())
