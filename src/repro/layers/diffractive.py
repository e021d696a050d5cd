"""Diffractive layers: trainable phase modulation plus free-space diffraction.

Two variants mirror the paper's API (Table 2):

* :class:`DiffractiveLayer` (``lr.layers.diffractlayer_raw``) keeps a
  continuous phase parameter per diffraction unit -- the "raw" model used
  for fast DSE.
* :class:`CodesignDiffractiveLayer` (``lr.layers.diffractlayer``)
  represents the phase of each unit as a categorical choice over the
  *measured, discrete* phase levels the physical device can realise, made
  differentiable with Gumbel-Softmax (Section 3.2).  After training, each
  unit snaps to a valid hardware level with no extra quantisation loss.

Both are :class:`ModulationLayer` s: a free-space hop, then the layer's
:meth:`~ModulationLayer.modulation`.  A training step that runs as tiles
builds each layer's modulation once (:func:`step_modulations`) and every
tile multiplies by it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import Module, Parameter, Tensor, ops
from repro.codesign.device import DeviceProfile
from repro.codesign.quantization import gumbel_softmax_probabilities, hard_assignment
from repro.optics.grid import SpatialGrid
from repro.optics.propagation import Propagator, make_propagator


class ModulationLayer(Module):
    """A free-space hop followed by the layer's complex modulation.

    ``step_modulation`` is ``None`` except inside :func:`step_modulations`,
    which sets it to a leaf tensor holding this step's
    :meth:`modulation`; a forward then multiplies by that leaf instead of
    building the modulation again.
    """

    propagator: Propagator
    step_modulation: Optional[Tensor] = None

    def modulation(self) -> Tensor:
        raise NotImplementedError  # pragma: no cover - interface

    @property
    def field_bytes(self) -> int:
        """Bytes of one image's widest field here: complex128 on the propagator's work grid."""
        side = self.propagator._work_grid.size
        return side * side * np.dtype(np.complex128).itemsize

    def forward(self, field: Tensor) -> Tensor:
        diffracted = self.propagator(field)
        shared = self.step_modulation
        return diffracted * (self.modulation() if shared is None else shared)


@contextlib.contextmanager
def step_modulations(model: Module) -> Iterator[List[Tuple[Tensor, Tensor]]]:
    """Build every modulation of ``model`` once, as a leaf its layers' forwards multiply by.

    Yields ``(modulation, leaf)`` for each :class:`ModulationLayer`, in the
    model's registration order, which is the order its forward reaches
    them: a codesign layer draws its Gumbel noise here, once, in the same
    order as an untiled forward does.  Back-propagating a leaf's gradient
    through its ``modulation`` reaches the layer's parameters.  On exit,
    normally or not, every layer builds its own modulation again.
    """
    layers = [module for module in model.modules() if isinstance(module, ModulationLayer)]
    pairs: List[Tuple[Tensor, Tensor]] = []
    try:
        for layer in layers:
            modulation = layer.modulation()
            layer.step_modulation = Tensor(modulation.data, requires_grad=True)
            pairs.append((modulation, layer.step_modulation))
        yield pairs
    finally:
        for layer in layers:
            # Deleted rather than set to None, so a model pickles the same
            # whether or not it ever stepped in tiles.
            vars(layer).pop("step_modulation", None)


class DiffractiveLayer(ModulationLayer):
    """Free-space diffraction followed by trainable continuous phase modulation.

    Forward pass (Eq. 5-9): the incoming complex field first diffracts
    over ``distance`` (approximation selected by ``approx``), then each
    diffraction unit multiplies the field by ``gamma * exp(j * phi)`` where
    ``phi`` is the trainable phase and ``gamma`` is the complex-valued
    regularization factor of Section 3.2 (amplitude rescaling that balances
    amplitude/phase gradient magnitudes).
    """

    def __init__(
        self,
        grid: SpatialGrid,
        wavelength: float,
        distance: float,
        approx: str = "rayleigh_sommerfeld",
        amplitude_factor: float = 1.0,
        pad_factor: int = 1,
        phase_init: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.grid = grid
        self.wavelength = float(wavelength)
        self.distance = float(distance)
        self.approx = approx
        self.amplitude_factor = float(amplitude_factor)
        self.propagator: Propagator = make_propagator(
            approx, grid=grid, wavelength=wavelength, distance=distance, pad_factor=pad_factor
        )
        if phase_init is None:
            rng = rng or np.random.default_rng(0)
            phase_init = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
        phase_init = np.asarray(phase_init, dtype=float)
        if phase_init.shape != grid.shape:
            raise ValueError(f"phase_init shape {phase_init.shape} does not match grid {grid.shape}")
        self.phase = Parameter(phase_init, name="phase")

    def modulation(self) -> Tensor:
        """Complex per-unit modulation ``gamma * exp(j * phi)``."""
        return ops.exp_i(self.phase) * self.amplitude_factor

    def phase_values(self) -> np.ndarray:
        """Current phase pattern wrapped to [0, 2 pi) (``lr.layers.view()``)."""
        return np.mod(self.phase.data, 2.0 * np.pi)


class CodesignDiffractiveLayer(ModulationLayer):
    """Hardware-aware diffractive layer trained over discrete device levels.

    Each diffraction unit holds a logit vector over the ``L`` valid phase
    levels of the target device (e.g. the measured response of an SLM, or
    the printable thicknesses of a THz mask).  During training the
    modulation is the Gumbel-Softmax expectation over the *complex*
    responses of the levels, so gradients flow while the layer only ever
    expresses realisable modulations; at deployment each unit takes the
    arg-max level (:meth:`hard_phase_values`), incurring no additional
    quantisation error -- this is what closes the Figure 1 deployment gap.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        wavelength: float,
        distance: float,
        device_profile: DeviceProfile,
        approx: str = "rayleigh_sommerfeld",
        amplitude_factor: float = 1.0,
        temperature: float = 1.0,
        pad_factor: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.grid = grid
        self.wavelength = float(wavelength)
        self.distance = float(distance)
        self.approx = approx
        self.amplitude_factor = float(amplitude_factor)
        self.device_profile = device_profile
        self.temperature = float(temperature)
        self.rng = rng or np.random.default_rng(0)
        self.propagator: Propagator = make_propagator(
            approx, grid=grid, wavelength=wavelength, distance=distance, pad_factor=pad_factor
        )
        num_levels = device_profile.num_levels
        init = self.rng.normal(scale=0.1, size=grid.shape + (num_levels,))
        self.logits = Parameter(init, name="level_logits")

    # ------------------------------------------------------------------ #
    def level_responses(self) -> np.ndarray:
        """Complex response (amplitude * exp(j phase)) of each device level."""
        return self.device_profile.complex_responses()

    def modulation(self) -> Tensor:
        """Expected complex modulation under (Gumbel-)softmax level probabilities."""
        probabilities = gumbel_softmax_probabilities(
            self.logits,
            temperature=self.temperature,
            rng=self.rng if self.training else None,
        )
        responses = Tensor(self.level_responses())  # (L,)
        expected = (probabilities.to_complex() * responses).sum(axis=-1)
        return expected * self.amplitude_factor

    def hard_level_indices(self) -> np.ndarray:
        """Arg-max device level per diffraction unit (deployment setting)."""
        return hard_assignment(self.logits.data)

    def hard_phase_values(self) -> np.ndarray:
        """Deployed phase pattern: each unit snapped to its chosen level."""
        return self.device_profile.phases[self.hard_level_indices()]

    def hard_modulation(self) -> np.ndarray:
        """Deployed complex modulation (what the physical device applies)."""
        return self.level_responses()[self.hard_level_indices()] * self.amplitude_factor

    def phase_values(self) -> np.ndarray:
        """Expected (soft) phase pattern for visualisation."""
        probabilities = gumbel_softmax_probabilities(self.logits, temperature=self.temperature, rng=None)
        return probabilities.data @ self.device_profile.phases
