"""All-optical image segmentation DONN (Figure 13).

Unlike the classifier, the *entire* detector plane is the output: the
intensity image captured by the camera is the predicted segmentation map.
Two architectural additions from Section 5.6.2:

* an **optical skip connection** around the inner diffractive layers,
  which re-injects a less-diffracted copy of the input so fine detail
  survives; and
* **layer normalisation** of the output intensity *during training only*,
  which stabilises gradients (the physical system outputs raw intensity).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Module, ModuleList, Tensor
from repro.layers.diffractive import DiffractiveLayer
from repro.layers.encoding import data_to_cplex
from repro.layers.nonlinearity import make_nonlinearity
from repro.layers.normalization import PlaneNorm
from repro.layers.skip import OpticalSkipConnection
from repro.models.config import DONNConfig
from repro.optics.propagation import make_propagator


class SegmentationDONN(Module):
    """Image-to-image DONN with optical skip connection and plane norm.

    Parameters
    ----------
    config:
        Architecture; ``num_layers`` counts all diffractive layers (the
        paper uses 5: one before, three inside the skip, one after).
    use_skip:
        Disable to obtain the paper's baseline architecture.
    use_layer_norm:
        Disable to obtain the paper's baseline training method.
    nonlinearity:
        Optional all-optical activation inserted after every diffractive
        layer (instance or ``"saturable"`` / ``"kerr"``).  Inside the
        optical skip connection only the processing arm is nonlinear; the
        bypass arm stays a linear copy.
    """

    def __init__(
        self,
        config: DONNConfig,
        use_skip: bool = True,
        use_layer_norm: bool = True,
        skip_weight: float = 0.5,
        nonlinearity=None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if config.num_layers < 3:
            raise ValueError("segmentation DONN needs at least 3 diffractive layers")
        self.config = config
        self.use_skip = use_skip
        self.use_layer_norm = use_layer_norm
        self.nonlinearity = make_nonlinearity(nonlinearity) if nonlinearity is not None else None
        rng = rng or np.random.default_rng(config.seed)
        grid = config.grid

        def new_layer() -> DiffractiveLayer:
            return DiffractiveLayer(
                grid=grid,
                wavelength=config.wavelength,
                distance=config.distance,
                approx=config.approx,
                amplitude_factor=config.amplitude_factor,
                pad_factor=config.pad_factor,
                rng=rng,
            )

        inner_count = config.num_layers - 2
        self.entry_layer = new_layer()
        inner_layers = [new_layer() for _ in range(inner_count)]
        if use_skip:
            self.inner = OpticalSkipConnection(
                inner_layers, skip_weight=skip_weight, nonlinearity=self.nonlinearity
            )
        else:
            self.inner = ModuleList(inner_layers)
        self.exit_layer = new_layer()
        self.final_propagator = make_propagator(
            config.approx,
            grid=grid,
            wavelength=config.wavelength,
            distance=config.distance,
            pad_factor=config.pad_factor,
        )
        self.plane_norm = PlaneNorm(training_only=True)

    def encode(self, images) -> Tensor:
        return data_to_cplex(images, grid=self.config.grid, amplitude_factor=self.config.amplitude_factor)

    def propagate(self, field: Tensor) -> Tensor:
        field = self.entry_layer(field)
        if self.nonlinearity is not None:
            field = self.nonlinearity(field)
        if self.use_skip:
            field = self.inner(field)
        else:
            for layer in self.inner:
                field = layer(field)
                if self.nonlinearity is not None:
                    field = self.nonlinearity(field)
        field = self.exit_layer(field)
        if self.nonlinearity is not None:
            field = self.nonlinearity(field)
        return self.final_propagator(field)

    def forward(self, images) -> Tensor:
        """Images -> output intensity map ``(B, N, N)``.

        In training mode the map is layer-normalised (if enabled); in eval
        mode the raw intensity is returned, matching the physical system.
        """
        field = images if isinstance(images, Tensor) and images.is_complex else self.encode(images)
        field = self.propagate(field)
        pattern = field.abs2()
        if self.use_layer_norm:
            pattern = self.plane_norm(pattern)
        return pattern

    def predict_mask(self, images, threshold: Optional[float] = None) -> np.ndarray:
        """Binary segmentation mask from the output intensity map.

        With no explicit threshold the per-image median intensity is used,
        which is how the binary building/background masks are extracted.
        """
        was_training = self.training
        self.eval()
        try:
            pattern = np.asarray(self.forward(images).data.real)
        finally:
            self.train(was_training)
        if threshold is not None:
            return (pattern >= threshold).astype(float)
        medians = np.median(pattern, axis=(-2, -1), keepdims=True)
        return (pattern >= medians).astype(float)

    def phase_patterns(self) -> List[np.ndarray]:
        patterns = [self.entry_layer.phase_values()]
        inner_layers = self.inner.body if self.use_skip else self.inner
        patterns.extend(layer.phase_values() for layer in inner_layers)
        patterns.append(self.exit_layer.phase_values())
        return patterns
