"""Figure 9: end-to-end emulation speedup across system sizes and depths.

The paper sweeps {1,3,5,7,10}-layer DONNs with resolutions from 100^2 to
500^2 and reports LightRidge's speedup over LightPipes on CPU and GPU.
Here the same sweep (scaled to 48^2-160^2, depths 1/3/5) is run against
the LightPipes-style baseline; the speedup should grow with system size,
mirroring the paper's trend.  Both sides get a warm-up call and are timed
as the median of a few interleaved repeats, so neither one-off start-up
cost (which lands on whichever call runs first) nor a slow spell of the
host reads as a speedup.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_helpers import report, save_results
from repro.autograd import Tensor, no_grad
from repro.baselines import LightPipesEmulator
from repro.optics import RayleighSommerfeldPropagator, SpatialGrid

SIZES = (48, 96, 160)
DEPTHS = (1, 5)
BATCH = 4
WAVELENGTH = 532e-9
DISTANCE = 0.1
REPEATS = 7


def _median_seconds(*runs) -> list:
    """Median wall time of each of ``runs`` over ``REPEATS`` interleaved rounds, after a warm-up call each."""
    for run in runs:
        run()
    times = [[] for _ in runs]
    for _ in range(REPEATS):
        for run, samples in zip(runs, times):
            start = time.perf_counter()
            run()
            samples.append(time.perf_counter() - start)
    return [float(np.median(samples)) for samples in times]


def _lightridge_emulation(propagator, fields: Tensor, phases) -> None:
    with no_grad():
        current = fields
        for phase in phases:
            current = propagator(current) * Tensor(np.exp(1j * phase))
        propagator(current).abs2()


def _sweep():
    rng = np.random.default_rng(0)
    rows = []
    for size in SIZES:
        grid = SpatialGrid(size=size, pixel_size=36e-6)
        propagator = RayleighSommerfeldPropagator(grid, WAVELENGTH, DISTANCE)
        emulator = LightPipesEmulator(grid, WAVELENGTH, DISTANCE)
        fields = rng.normal(size=(BATCH, size, size)) + 0j
        for depth in DEPTHS:
            phases = [rng.uniform(0, 2 * np.pi, size=(size, size)) for _ in range(depth)]

            tensor_fields = Tensor(fields)
            field_list = list(fields)
            lightridge_seconds, lightpipes_seconds = _median_seconds(
                lambda: _lightridge_emulation(propagator, tensor_fields, phases),
                lambda: emulator.run_donn(field_list, phases),
            )

            rows.append(
                {
                    "system_size": size,
                    "depth": depth,
                    "lightridge_seconds": lightridge_seconds,
                    "lightpipes_seconds": lightpipes_seconds,
                    "speedup": lightpipes_seconds / max(lightridge_seconds, 1e-9),
                }
            )
    return rows


def test_fig09_runtime_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    notes = (
        "Paper: up to 6.4x CPU speedup at 500^2 depth 5 and up to 12x GPU speedup; the advantage grows "
        "with system size.  Reproduced: speedup > 1 everywhere and increases from the smallest to the "
        "largest system size."
    )
    report("Figure 9: LightRidge vs LightPipes emulation runtime sweep", rows, notes)
    save_results("fig09_runtime_sweep", rows, notes)

    assert all(row["speedup"] > 1.0 for row in rows)
    smallest = [row["speedup"] for row in rows if row["system_size"] == min(SIZES)]
    largest = [row["speedup"] for row in rows if row["system_size"] == max(SIZES)]
    assert max(largest) > max(smallest)
