"""Ablation: choice of diffraction approximation (Rayleigh-Sommerfeld / Fresnel / Fraunhofer).

LightRidge exposes the approximation choice as a design decision of the
framework's physics kernels: Rayleigh-Sommerfeld is the accurate
default, Fresnel is a cheaper near-field approximation that should behave
almost identically at the prototype geometry, and Fraunhofer (far field)
is outside its validity regime there.  The ablation trains the same DONN
with each kernel and also compares raw kernel runtimes.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_helpers import report, save_results, train_donn
from repro.autograd import Tensor
from repro.optics import SpatialGrid, make_propagator

APPROXIMATIONS = ("rayleigh_sommerfeld", "fresnel", "fraunhofer")
EPOCHS = 8


def test_ablation_diffraction_approximations(benchmark, bench_config, bench_digits):
    def experiment():
        results = {}
        for approx in APPROXIMATIONS:
            config = bench_config.with_updates(approx=approx)
            _, result = train_donn(config, bench_digits, epochs=EPOCHS)
            results[approx] = result.final_test_accuracy
        return results

    accuracies = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # Kernel runtime comparison at a larger size (forward only).
    rng = np.random.default_rng(0)
    grid = SpatialGrid(size=160, pixel_size=36e-6)
    field = Tensor(rng.normal(size=(4, 160, 160)) + 0j)
    runtimes = {}
    for approx in APPROXIMATIONS:
        propagator = make_propagator(approx, grid, 532e-9, 0.1)
        propagator(field)  # warm-up
        start = time.perf_counter()
        propagator(field)
        runtimes[approx] = time.perf_counter() - start

    rows = [
        {"approximation": approx, "test_accuracy": accuracies[approx], "forward_seconds_160sq": runtimes[approx]}
        for approx in APPROXIMATIONS
    ]
    notes = (
        "Rayleigh-Sommerfeld and Fresnel agree at the prototype geometry (near field, small angles); "
        "Fraunhofer is outside its validity regime at 0.1 m and may train differently.  RS is the "
        "accuracy reference; Fresnel/Fraunhofer trade accuracy guarantees for slightly cheaper kernels."
    )
    report("Ablation: diffraction approximation choice", rows, notes)
    save_results("ablation_approximations", rows, notes)

    assert accuracies["rayleigh_sommerfeld"] > 0.3
    # Fresnel must be competitive with RS at this geometry (within ~20 points).
    assert abs(accuracies["fresnel"] - accuracies["rayleigh_sommerfeld"]) < 0.25
