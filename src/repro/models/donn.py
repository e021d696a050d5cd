"""The sequentially stacked diffractive optical neural network (Figure 2a).

``DONN`` composes an input encoder, ``num_layers`` diffractive layers, a
final free-space hop to the detector plane, and a :class:`Detector` that
integrates intensity in per-class regions.  Construction mirrors the
paper's DSL: either pass a :class:`DONNConfig` or use the lower-level
constructor with explicit layer modules.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Module, ModuleList, Tensor
from repro.codesign.device import DeviceProfile
from repro.layers.detector import Detector
from repro.layers.diffractive import CodesignDiffractiveLayer, DiffractiveLayer
from repro.layers.encoding import data_to_cplex
from repro.layers.nonlinearity import make_nonlinearity
from repro.models.config import DONNConfig
from repro.optics.propagation import make_propagator


class DONN(Module):
    """A stack of diffractive layers followed by a detector plane.

    Parameters
    ----------
    config:
        Architectural hyper-parameters.
    device_profile:
        If given, layers are built as :class:`CodesignDiffractiveLayer`
        trained over this device's discrete levels (the ``diffractlayer``
        path); otherwise continuous-phase raw layers are used
        (``diffractlayer_raw``).
    detector:
        Custom detector; by default ``config.num_classes`` regions are laid
        out automatically.
    nonlinearity:
        Optional all-optical activation inserted after every diffractive
        layer: a :class:`~repro.layers.nonlinearity.NonlinearLayer`
        instance or a name (``"saturable"`` / ``"kerr"``).  Supported by
        both the autograd path and the compiled inference engine.
    """

    def __init__(
        self,
        config: DONNConfig,
        device_profile: Optional[DeviceProfile] = None,
        detector: Optional[Detector] = None,
        nonlinearity=None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.config = config
        self.device_profile = device_profile
        self.nonlinearity = make_nonlinearity(nonlinearity) if nonlinearity is not None else None
        rng = rng or np.random.default_rng(config.seed)
        grid = config.grid

        layers: List[Module] = []
        for _ in range(config.num_layers):
            if device_profile is None:
                layers.append(
                    DiffractiveLayer(
                        grid=grid,
                        wavelength=config.wavelength,
                        distance=config.distance,
                        approx=config.approx,
                        amplitude_factor=config.amplitude_factor,
                        pad_factor=config.pad_factor,
                        rng=rng,
                    )
                )
            else:
                layers.append(
                    CodesignDiffractiveLayer(
                        grid=grid,
                        wavelength=config.wavelength,
                        distance=config.distance,
                        device_profile=device_profile,
                        approx=config.approx,
                        amplitude_factor=config.amplitude_factor,
                        temperature=config.codesign_temperature,
                        pad_factor=config.pad_factor,
                        rng=rng,
                    )
                )
        self.diffractive_layers = ModuleList(layers)
        # Final free-space hop from the last layer to the detector plane.
        self.final_propagator = make_propagator(
            config.approx,
            grid=grid,
            wavelength=config.wavelength,
            distance=config.distance,
            pad_factor=config.pad_factor,
        )
        self.detector = detector or Detector(grid, num_classes=config.num_classes, det_size=config.det_size)

    # ------------------------------------------------------------------ #
    # Forward paths
    # ------------------------------------------------------------------ #
    def encode(self, images) -> Tensor:
        """Encode a batch of intensity images as input wavefields."""
        return data_to_cplex(images, grid=self.config.grid, amplitude_factor=self.config.amplitude_factor)

    def propagate(self, field: Tensor) -> Tensor:
        """Run the optical stack: all diffractive layers + final hop."""
        for layer in self.diffractive_layers:
            field = layer(field)
            if self.nonlinearity is not None:
                field = self.nonlinearity(field)
        return self.final_propagator(field)

    def forward(self, images) -> Tensor:
        """Images -> per-class collected intensities (the DONN "logits")."""
        field = images if isinstance(images, Tensor) and images.is_complex else self.encode(images)
        field = self.propagate(field)
        return self.detector(field)

    def detector_pattern(self, images) -> Tensor:
        """Intensity image on the detector plane (Figure 6's read-out)."""
        field = images if isinstance(images, Tensor) and images.is_complex else self.encode(images)
        field = self.propagate(field)
        return self.detector.intensity_pattern(field)

    def intermediate_fields(self, images) -> List[Tensor]:
        """Complex field after each diffractive layer (for visualisation)."""
        field = images if isinstance(images, Tensor) and images.is_complex else self.encode(images)
        fields = []
        for layer in self.diffractive_layers:
            field = layer(field)
            if self.nonlinearity is not None:
                field = self.nonlinearity(field)
            fields.append(field)
        fields.append(self.final_propagator(field))
        return fields

    def predict(self, images) -> np.ndarray:
        """Arg-max class prediction for a batch of images."""
        logits = self.forward(images)
        return np.asarray(logits.data.real).argmax(axis=-1)

    # ------------------------------------------------------------------ #
    # Introspection used by deployment & visualisation
    # ------------------------------------------------------------------ #
    def phase_patterns(self) -> List[np.ndarray]:
        """Trained phase pattern of each layer (``lr.layers.view()``)."""
        return [layer.phase_values() for layer in self.diffractive_layers]

    @property
    def num_layers(self) -> int:
        return len(self.diffractive_layers)
