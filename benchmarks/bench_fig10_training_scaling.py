"""Figure 10: training runtime scaling with DONN depth and system size.

The paper trains DONNs of up to 30 layers at up to 500^2 on one GPU and
observes (a) runtime growing almost linearly with depth and (b) a jump
when the system size exceeds the hardware's comfortable working set.
Here per-epoch training time is measured for depths {1, 3, 6, 10} at 48^2
and for 96^2 at depth 3 (scaled down, CPU).
"""

from __future__ import annotations

import time


from _bench_helpers import report, save_results
from repro import DONN, DONNConfig, Trainer, load_digits

DEPTHS = (1, 3, 6, 10)
SMALL_SIZE = 48
LARGE_SIZE = 96
SAMPLES = 40
BATCH = 10


def _epoch_seconds(size: int, depth: int, dataset) -> float:
    train_x, train_y = dataset
    config = DONNConfig(
        sys_size=size, pixel_size=36e-6, distance=0.1, num_layers=depth, det_size=6, seed=0, amplitude_factor=0.9
    )
    model = DONN(config)
    trainer = Trainer(model, num_classes=10, learning_rate=0.5, batch_size=BATCH, seed=0)
    # Warm-up epoch: one-off costs (the FFT backend's import and thread
    # pool, per-shape plans) land on whichever configuration runs first.
    trainer.train_epoch(train_x, train_y)
    start = time.perf_counter()
    trainer.train_epoch(train_x, train_y)
    return time.perf_counter() - start


def test_fig10_training_scaling(benchmark):
    small_x, small_y, _, _ = load_digits(num_train=SAMPLES, num_test=1, size=SMALL_SIZE, seed=0)
    large_x, large_y, _, _ = load_digits(num_train=SAMPLES, num_test=1, size=LARGE_SIZE, seed=0)

    def experiment():
        rows = []
        for depth in DEPTHS:
            rows.append(
                {
                    "system_size": SMALL_SIZE,
                    "depth": depth,
                    "epoch_seconds": _epoch_seconds(SMALL_SIZE, depth, (small_x, small_y)),
                }
            )
        rows.append(
            {
                "system_size": LARGE_SIZE,
                "depth": 3,
                "epoch_seconds": _epoch_seconds(LARGE_SIZE, 3, (large_x, large_y)),
            }
        )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    notes = (
        "Paper: per-epoch runtime grows ~linearly with depth (30-layer 500^2 trains in ~280 s/epoch on a "
        "3090 Ti) and jumps when the system size grows past the device's sweet spot.  Reproduced: runtime "
        "increases monotonically with depth and super-linearly with system size."
    )
    report("Figure 10: training runtime scaling", rows, notes)
    save_results("fig10_training_scaling", rows, notes)

    small_rows = [row for row in rows if row["system_size"] == SMALL_SIZE]
    times = [row["epoch_seconds"] for row in small_rows]
    assert times == sorted(times)  # monotone in depth
    # Depth-10 should cost several times depth-1 (roughly linear growth).
    assert times[-1] > 3.0 * times[0]
    # Quadrupling the pixel count at fixed depth costs more than 2x.
    large_row = [row for row in rows if row["system_size"] == LARGE_SIZE][0]
    depth3_small = [row for row in small_rows if row["depth"] == 3][0]
    assert large_row["epoch_seconds"] > 2.0 * depth3_small["epoch_seconds"]
