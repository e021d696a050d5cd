"""FFT-based scalar-diffraction propagators (Section 3.1.1, Eq. 1-7).

Free-space propagation over a distance ``z`` is a linear, shift-invariant
operation, so it is evaluated in the spatial-frequency domain::

    U_out = iFFT2( FFT2(U_in) * H(fx, fy; z) )

where ``H`` is the transfer function of the chosen approximation.  The
three approximations offered by the paper are implemented:

* **Rayleigh-Sommerfeld** (angular-spectrum form) -- valid in near and far
  field, the most accurate and the default.
* **Fresnel** -- parabolic-wavefront approximation, valid in the near
  field (Eq. 3).
* **Fraunhofer** -- far-field approximation, a single Fourier transform
  with a quadratic phase prefactor (Eq. 4).

A :class:`DirectIntegrationPropagator` evaluates Eq. 5 by explicit
convolution with the sampled impulse response; it is slower but serves as
an independent reference for validating the transfer-function kernels.
All propagators are differentiable.  The transfer-function kernels
(Rayleigh-Sommerfeld, Fresnel, direct) apply one fused
:func:`repro.autograd.ops.propagate` node per hop, whose backward is the
same propagation with ``conj(H)``; Fraunhofer is built from
:func:`repro.autograd.ops.fft2` and element-wise products.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from repro.autograd import Tensor, ops
from repro.optics.grid import SpatialGrid


def fresnel_number(aperture_radius: float, wavelength: float, distance: float) -> float:
    """Fresnel number ``N_F = a^2 / (lambda z)`` used to pick approximations."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return aperture_radius**2 / (wavelength * distance)


class Propagator:
    """Base class: precomputes a transfer function and applies it to fields.

    Parameters
    ----------
    grid:
        Sampling grid of the planes (input and output share the grid).
    wavelength:
        Laser wavelength in metres.
    distance:
        Propagation distance ``z`` in metres.
    pad_factor:
        Integer >= 1.  With ``pad_factor=2`` fields are zero padded to twice
        the size before the FFT to suppress wrap-around of the circular
        convolution, then cropped back.  ``1`` (no padding) matches the
        runtime-optimised kernels used for training sweeps.
    """

    name = "base"

    def __init__(self, grid: SpatialGrid, wavelength: float, distance: float, pad_factor: int = 1):
        if wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if distance <= 0:
            raise ValueError("distance must be positive")
        if pad_factor < 1:
            raise ValueError("pad_factor must be >= 1")
        self.grid = grid
        self.wavelength = float(wavelength)
        self.distance = float(distance)
        self.pad_factor = int(pad_factor)
        self._work_grid = grid if pad_factor == 1 else grid.padded(pad_factor)
        self._build_kernels()

    # -- to be provided by subclasses ------------------------------------- #
    def _build_transfer_function(self, grid: SpatialGrid) -> np.ndarray:
        raise NotImplementedError

    def _build_kernels(self) -> None:
        self.transfer_function = self._build_transfer_function(self._work_grid)
        # The backward pass of every hop applies conj(H); compute it once.
        self._transfer_conj = np.conj(self.transfer_function)

    # -- pickling ----------------------------------------------------------- #
    # The transfer function and its conjugate (and the Fraunhofer
    # prefactor) are pure functions of grid/wavelength/distance, so they
    # are dropped from the pickle and rebuilt on load.  This keeps
    # SessionSpec blobs -- which ship a pickled model (with one propagator
    # per layer) to every cluster replica -- proportional to the *trained
    # parameters*, not to cached complex kernels.  The rebuild is
    # bit-exact: the kernels are deterministic numpy expressions of the
    # pickled scalars.
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("transfer_function", None)
        state.pop("_transfer_conj", None)
        state.pop("_cached_prefactor", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_kernels()

    # -- public API -------------------------------------------------------- #
    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def __call__(self, field: Tensor) -> Tensor:
        """Propagate a complex field of shape ``(..., N, N)`` by ``distance``."""
        field = field if isinstance(field, Tensor) else Tensor(field)
        if field.shape[-2:] != self.grid.shape:
            raise ValueError(f"field shape {field.shape[-2:]} does not match grid {self.grid.shape}")
        pad = (self._work_grid.size - self.grid.size) // 2
        return ops.propagate(field, self.transfer_function, self._transfer_conj, pad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(size={self.grid.size}, pixel={self.grid.pixel_size:.2e} m, "
            f"lambda={self.wavelength:.2e} m, z={self.distance:.3e} m)"
        )


class RayleighSommerfeldPropagator(Propagator):
    """Angular-spectrum (exact scalar) transfer function.

    ``H = exp(j k z sqrt(1 - (lambda fx)^2 - (lambda fy)^2))`` for
    propagating components; evanescent components decay exponentially.
    This is the tensor implementation of Eq. 1 used as LightRidge's default
    IR because it is accurate in both near and far field.
    """

    name = "rayleigh_sommerfeld"

    def _build_transfer_function(self, grid: SpatialGrid) -> np.ndarray:
        fx, fy = grid.frequencies
        argument = 1.0 - (self.wavelength * fx) ** 2 - (self.wavelength * fy) ** 2
        # Complex square root: evanescent waves (argument < 0) decay.
        kz = self.wavenumber * np.sqrt(argument.astype(complex))
        return np.exp(1j * kz * self.distance)


class FresnelPropagator(Propagator):
    """Fresnel (paraxial) transfer function, Eq. 3.

    ``H = exp(j k z) exp(-j pi lambda z (fx^2 + fy^2))``; valid when the
    observation plane is in the near field and diffraction angles are
    small.
    """

    name = "fresnel"

    def _build_transfer_function(self, grid: SpatialGrid) -> np.ndarray:
        fx, fy = grid.frequencies
        quadratic = np.exp(-1j * np.pi * self.wavelength * self.distance * (fx**2 + fy**2))
        return np.exp(1j * self.wavenumber * self.distance) * quadratic

    def validity_condition(self, aperture_radius: Optional[float] = None) -> bool:
        """Check the paper's Fresnel validity bound ``z^3 >> pi/(4 lambda) r^4``."""
        radius = aperture_radius if aperture_radius is not None else self.grid.extent / 2.0
        return self.distance**3 > (np.pi / (4.0 * self.wavelength)) * radius**4 / 100.0


class FraunhoferPropagator(Propagator):
    """Fraunhofer (far-field) approximation, Eq. 4.

    The output field is proportional to the Fourier transform of the input
    aperture with a quadratic phase prefactor.  The output plane is sampled
    at ``lambda z / (N dx)``; :attr:`output_pixel_size` exposes that pitch.
    For DONN stacks the pattern (not the absolute scale) is what feeds the
    next layer, so the field is returned on the same array shape.
    """

    name = "fraunhofer"

    def _build_transfer_function(self, grid: SpatialGrid) -> np.ndarray:
        # Not used: Fraunhofer is a single transform, not a convolution.
        return np.ones(grid.shape, dtype=complex)

    @property
    def output_pixel_size(self) -> float:
        return self.wavelength * self.distance / (self.grid.size * self.grid.pixel_size)

    def validity_condition(self) -> bool:
        """Far-field condition ``z >> k (xi^2 + eta^2)_max / 2``."""
        max_radius_sq = 2.0 * (self.grid.extent / 2.0) ** 2
        return self.distance > self.wavenumber * max_radius_sq / 2.0

    def _prefactor_tensor(self) -> Tensor:
        cached = getattr(self, "_cached_prefactor", None)
        if cached is None:
            x, y = self.grid.coordinates
            prefactor = (
                np.exp(1j * self.wavenumber * self.distance)
                * np.exp(1j * self.wavenumber / (2.0 * self.distance) * (x**2 + y**2))
                / (1j * self.wavelength * self.distance)
            )
            cached = Tensor(prefactor * self.grid.pixel_size**2)
            self._cached_prefactor = cached
        return cached

    def __call__(self, field: Tensor) -> Tensor:
        field = field if isinstance(field, Tensor) else Tensor(field)
        if field.shape[-2:] != self.grid.shape:
            raise ValueError(f"field shape {field.shape[-2:]} does not match grid {self.grid.shape}")
        spectrum = ops.fftshift(ops.fft2(ops.ifftshift(field)))
        return spectrum * self._prefactor_tensor()


class DirectIntegrationPropagator(Propagator):
    """Rayleigh-Sommerfeld propagation via the sampled impulse response.

    Implements Eq. 1 literally: the free-space impulse response
    ``h(x, y) = z / (j lambda) * exp(j k r) / r^2`` with
    ``r = sqrt(z^2 + x^2 + y^2)`` is sampled on the (doubled) grid and the
    convolution of Eq. 5 is carried out.  Used as the physics reference
    that the transfer-function kernels are validated against, and as the
    computational model of the LightPipes-style baseline.
    """

    name = "direct"

    def _build_transfer_function(self, grid: SpatialGrid) -> np.ndarray:
        x, y = grid.coordinates
        r = np.sqrt(self.distance**2 + x**2 + y**2)
        impulse = (self.distance / (1j * self.wavelength)) * np.exp(1j * self.wavenumber * r) / r**2
        impulse = impulse * grid.pixel_size**2  # discretise the integral
        # Convolution theorem: transfer function is the FFT of the impulse
        # response (centred at the origin -> ifftshift first).
        return np.fft.fft2(np.fft.ifftshift(impulse))


APPROXIMATIONS: Dict[str, Type[Propagator]] = {
    "rayleigh_sommerfeld": RayleighSommerfeldPropagator,
    "rs": RayleighSommerfeldPropagator,
    "fresnel": FresnelPropagator,
    "fraunhofer": FraunhoferPropagator,
    "direct": DirectIntegrationPropagator,
}


def make_propagator(
    approx: str,
    grid: SpatialGrid,
    wavelength: float,
    distance: float,
    pad_factor: int = 1,
) -> Propagator:
    """Factory used by the layer modules (``approx=`` keyword of the DSL)."""
    key = approx.lower()
    if key not in APPROXIMATIONS:
        raise ValueError(f"unknown diffraction approximation {approx!r}; choose from {sorted(set(APPROXIMATIONS))}")
    return APPROXIMATIONS[key](grid=grid, wavelength=wavelength, distance=distance, pad_factor=pad_factor)
