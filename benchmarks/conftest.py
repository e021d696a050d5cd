"""Shared fixtures for the experiment-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper
(the file name says which: ``bench_fig09_*`` is Figure 9).  Benchmarks
print the reproduced rows (run with ``-s`` to see them live) and also
write them as JSON under ``benchmarks/results/`` so the numbers can be
quoted from a committed file.

The experiments are scaled down (system size, dataset size, epochs) so the
full suite runs on a laptop-class CPU in minutes; the sweep axes and the
relative comparisons are preserved.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from _bench_helpers import train_donn
from repro import DONNConfig, load_digits, load_fashion

# Same convention as tests/conftest.py: CI pins the global RNGs so the
# benchmark smoke job is reproducible run to run.
if os.environ.get("DERANDOMIZE_CI"):
    np.random.seed(20230423)
    random.seed(20230423)


@pytest.fixture(scope="session")
def bench_digits():
    """Digit dataset at the benchmark system size (64 x 64)."""
    return load_digits(num_train=250, num_test=80, size=64, seed=11)


@pytest.fixture(scope="session")
def bench_fashion():
    return load_fashion(num_train=250, num_test=80, size=64, seed=11)


@pytest.fixture(scope="session")
def bench_config():
    """The scaled-down Section 5.1 system used by most training benchmarks."""
    return DONNConfig(
        sys_size=64,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=3,
        num_classes=10,
        det_size=8,
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_reference_donn(bench_config, bench_digits):
    """A trained 3-layer DONN shared by the deployment-oriented benchmarks."""
    model, result = train_donn(bench_config, bench_digits, epochs=8)
    return model, result
