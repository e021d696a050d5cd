"""Spatial sampling grids.

A :class:`SpatialGrid` captures the two architectural parameters that the
paper's DSE engine explores (Section 4): the number of diffraction units
per side (``size``, the "system size / resolution") and the physical pitch
of each unit (``pixel_size``, the "diffraction unit size").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class SpatialGrid:
    """A square, uniformly sampled plane transverse to the optical axis.

    Parameters
    ----------
    size:
        Number of samples per side (e.g. 200 for the paper's 200x200 SLM
        plane).
    pixel_size:
        Physical pitch of one sample in metres (e.g. 36e-6 for the
        prototype's 36 um SLM pixels).
    """

    size: int
    pixel_size: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"grid size must be positive, got {self.size}")
        if self.pixel_size <= 0:
            raise ValueError(f"pixel size must be positive, got {self.pixel_size}")

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.size, self.size)

    @property
    def extent(self) -> float:
        """Physical side length of the plane in metres."""
        return self.size * self.pixel_size

    @cached_property
    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Centred spatial coordinates ``(x, y)`` as 2-D arrays in metres."""
        axis = (np.arange(self.size) - self.size / 2.0 + 0.5) * self.pixel_size
        x, y = np.meshgrid(axis, axis, indexing="xy")
        return x, y

    @cached_property
    def frequencies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Spatial-frequency coordinates ``(fx, fy)`` as 2-D arrays in 1/m.

        Laid out in FFT order (no shift) so they can multiply FFT spectra
        directly.
        """
        freq = np.fft.fftfreq(self.size, d=self.pixel_size)
        fx, fy = np.meshgrid(freq, freq, indexing="xy")
        return fx, fy

    def __getstate__(self):
        """Pickle ``size`` and ``pixel_size`` only: the cached coordinate
        and frequency arrays are rebuilt on first use after loading."""
        state = self.__dict__.copy()
        state.pop("coordinates", None)
        state.pop("frequencies", None)
        return state

    def padded(self, factor: int = 2) -> "SpatialGrid":
        """Return a grid enlarged ``factor`` times (same pitch), for
        padding-based suppression of FFT wrap-around."""
        if factor < 1:
            raise ValueError("padding factor must be >= 1")
        return SpatialGrid(size=self.size * factor, pixel_size=self.pixel_size)

    def resize(self, size: int) -> "SpatialGrid":
        """Return a grid with a different number of samples, same pitch."""
        return SpatialGrid(size=size, pixel_size=self.pixel_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpatialGrid(size={self.size}, pixel_size={self.pixel_size:.3e} m, extent={self.extent:.3e} m)"
