"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import settings

from repro.data import load_digits, load_fashion, load_segmentation_scenes
from repro.models.config import DONNConfig
from repro.optics.grid import SpatialGrid

# CI sets DERANDOMIZE_CI=1 so any code path that falls back to the global
# (unseeded) RNGs becomes reproducible across runs and python versions.
# All fixtures below already pin explicit seeds; this catches the rest.
if os.environ.get("DERANDOMIZE_CI"):
    np.random.seed(20230423)
    random.seed(20230423)

# The one Hypothesis profile for every property suite.  Loading a profile
# is process-global, so test modules must not load their own: whichever
# imported last would set the example count for all of them.  A test
# that needs another count says so in its own @settings.
settings.register_profile(
    "repro",
    max_examples=int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "20")),
    deadline=None,
    derandomize=bool(os.environ.get("DERANDOMIZE_CI")),
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_grid() -> SpatialGrid:
    """A 32x32 grid with prototype-like pixel pitch."""
    return SpatialGrid(size=32, pixel_size=36e-6)


@pytest.fixture(scope="session")
def small_config() -> DONNConfig:
    """A fast 2-layer, 32x32 DONN configuration used across tests."""
    return DONNConfig(
        sys_size=32,
        pixel_size=36e-6,
        distance=0.05,
        wavelength=532e-9,
        num_layers=2,
        num_classes=10,
        det_size=4,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_digits():
    """A small cached digit dataset: (train_x, train_y, test_x, test_y) at 32x32."""
    return load_digits(num_train=150, num_test=50, size=32, seed=7)


@pytest.fixture(scope="session")
def tiny_fashion():
    return load_fashion(num_train=60, num_test=30, size=32, seed=7)


@pytest.fixture(scope="session")
def tiny_segmentation():
    return load_segmentation_scenes(num_samples=12, size=32, seed=7)


def pytest_collection_modifyitems(config, items):
    """Optional CI sharding: TEST_SHARD_INDEX / TEST_SHARD_COUNT env vars.

    Tests are assigned to shards by a stable hash of their *file*, never
    per-test, so module-scoped fixtures (spawned replica fleets, cached
    sessions) are paid once on exactly one shard.  Unset (the default,
    and every local run) is a no-op.
    """
    count = int(os.environ.get("TEST_SHARD_COUNT", "0") or 0)
    if count <= 1:
        return
    index = int(os.environ.get("TEST_SHARD_INDEX", "0") or 0)
    if not 0 <= index < count:
        raise pytest.UsageError(
            f"TEST_SHARD_INDEX={index} out of range for TEST_SHARD_COUNT={count}"
        )
    import zlib

    kept, shed = [], []
    for item in items:
        path = str(item.fspath)
        if zlib.crc32(path.encode("utf-8")) % count == index:
            kept.append(item)
        else:
            shed.append(item)
    items[:] = kept
    config.hook.pytest_deselected(items=shed)
