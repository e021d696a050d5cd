"""Seeded workload inputs: models and images, all generated, nothing downloaded.

The same seed gives the same model parameters, images, labels and
arrival schedules, in the benchmark process and in the gateway process
alike.
"""

from __future__ import annotations

import numpy as np

#: Serving model: a 5-layer 64x64 DONN classifier (collapses to one operator).
SERVING_SYS = 64
#: Designer-loop model: the paper's 200x200 prototype, 5 layers.
DESIGN_SYS = 200
NUM_LAYERS = 5
NUM_CLASSES = 10
#: Engine chunk size and batcher fusion cap.
BATCH = 32
#: Distinct request images per serving run; requests cycle through them.
POOL = 256


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per named stream of one seed."""
    return np.random.default_rng([int(seed), sum(map(ord, stream))])


def serving_model(seed: int):
    from repro import DONN, DONNConfig

    config = DONNConfig(
        sys_size=SERVING_SYS,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=NUM_LAYERS,
        num_classes=NUM_CLASSES,
        seed=int(seed) % (2**31),
    )
    return DONN(config)


def serving_payloads(seed: int) -> np.ndarray:
    """``POOL`` digit images quantised to 3 decimals, as 8-bit-ish pixels travel."""
    from repro.data import load_digits

    images, _, _, _ = load_digits(num_train=POOL, num_test=0, size=SERVING_SYS, seed=int(seed) % (2**31))
    order = rng_for(seed, "pool").permutation(len(images))
    return np.round(images[order], 3)


def design_model(seed: int):
    from repro import DONN, DONNConfig

    config = DONNConfig(
        sys_size=DESIGN_SYS,
        num_layers=NUM_LAYERS,
        num_classes=NUM_CLASSES,
        seed=int(seed) % (2**31),
    )
    return DONN(config)


def design_data(seed: int, num_train: int, num_test: int):
    """Training images/labels and a held-out set at the designer-loop size."""
    from repro.data import load_digits

    return load_digits(num_train=num_train, num_test=num_test, size=DESIGN_SYS, seed=int(seed) % (2**31))
