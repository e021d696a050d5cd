"""Detector plane with per-class read-out regions (``lr.layers.detector``).

The DONN's prediction is made by integrating the light intensity that
falls on a small, pre-defined detector region per class (Section 2.1).
The class whose region collects the most light is the prediction; the
vector of collected intensities plays the role of logits and is fed to the
softmax + MSE loss during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Module, Tensor
from repro.optics.grid import SpatialGrid


@dataclass(frozen=True)
class DetectorRegion:
    """A square read-out window: centre coordinates (pixels) and side length."""

    x: int
    y: int
    size: int

    def bounds(self, grid_size: int) -> Tuple[int, int, int, int]:
        """Return clipped (row_start, row_stop, col_start, col_stop)."""
        half = self.size // 2
        row_start = max(0, self.y - half)
        row_stop = min(grid_size, self.y + half + self.size % 2)
        col_start = max(0, self.x - half)
        col_stop = min(grid_size, self.x + half + self.size % 2)
        if row_start >= row_stop or col_start >= col_stop:
            raise ValueError(f"detector region {self} lies outside a {grid_size}x{grid_size} grid")
        return row_start, row_stop, col_start, col_stop


def grid_region_layout(
    grid_size: int,
    num_classes: int,
    det_size: Optional[int] = None,
    margin_fraction: float = 0.2,
) -> List[DetectorRegion]:
    """Place ``num_classes`` square regions evenly on the detector plane.

    Classes are arranged on a near-square lattice (e.g. 2 rows x 5 columns
    for 10 classes) inside a margin, which is how the paper lays out the
    ten MNIST regions "placed evenly on the detector plane".
    """
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    rows = int(np.floor(np.sqrt(num_classes)))
    cols = int(np.ceil(num_classes / rows))
    margin = int(margin_fraction * grid_size)
    usable = grid_size - 2 * margin
    if det_size is None:
        det_size = max(2, usable // (2 * max(rows, cols)))
    regions: List[DetectorRegion] = []
    for index in range(num_classes):
        row, col = divmod(index, cols)
        y = margin + int((row + 0.5) * usable / rows)
        x = margin + int((col + 0.5) * usable / cols)
        regions.append(DetectorRegion(x=x, y=y, size=det_size))
    return regions


class Detector(Module):
    """Convert a complex field into per-class collected intensities.

    Parameters
    ----------
    grid:
        Detector-plane sampling grid.
    regions:
        Explicit list of :class:`DetectorRegion`.  Alternatively pass
        ``num_classes`` (and optionally ``det_size``) to lay regions out
        automatically, or ``x_loc``/``y_loc`` lists as in the paper's API.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        regions: Optional[Sequence[DetectorRegion]] = None,
        num_classes: Optional[int] = None,
        det_size: Optional[int] = None,
        x_loc: Optional[Sequence[int]] = None,
        y_loc: Optional[Sequence[int]] = None,
    ):
        super().__init__()
        self.grid = grid
        if regions is not None:
            self.regions = list(regions)
        elif x_loc is not None and y_loc is not None:
            if len(x_loc) != len(y_loc):
                raise ValueError("x_loc and y_loc must have the same length")
            size = det_size or max(2, grid.size // 20)
            self.regions = [DetectorRegion(x=int(x), y=int(y), size=size) for x, y in zip(x_loc, y_loc)]
        elif num_classes is not None:
            self.regions = grid_region_layout(grid.size, num_classes, det_size=det_size)
        else:
            raise ValueError("provide regions, num_classes, or x_loc/y_loc")
        self._masks = self._build_masks()

    @property
    def num_classes(self) -> int:
        return len(self.regions)

    # The masks are a pure function of the grid and the regions, so they
    # are dropped from the pickle and rebuilt on load, as a Propagator's
    # kernels are: a model blob then carries its parameters, not a dense
    # C x N x N copy of its read-out.
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_masks", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._masks = self._build_masks()

    def _build_masks(self) -> np.ndarray:
        masks = np.zeros((len(self.regions), self.grid.size, self.grid.size), dtype=float)
        for index, region in enumerate(self.regions):
            r0, r1, c0, c1 = region.bounds(self.grid.size)
            masks[index, r0:r1, c0:c1] = 1.0
        return masks

    def read_matrix(self) -> np.ndarray:
        """Dense ``(N*N, num_classes)`` read-out matrix.

        Flattened intensity patterns right-multiplied by this matrix give
        the per-class collected intensities; the inference engine caches it
        so both execution paths share one definition of the read-out.
        """
        return self._masks.reshape(self.num_classes, -1).T.copy()

    def region_mask(self) -> np.ndarray:
        """A single 2-D map labelling each pixel with its class index (or -1)."""
        label_map = -np.ones((self.grid.size, self.grid.size), dtype=int)
        for index in range(self.num_classes):
            label_map[self._masks[index] > 0] = index
        return label_map

    def intensity_pattern(self, field: Tensor) -> Tensor:
        """Raw intensity image on the detector (what the CMOS camera records)."""
        return field.abs2()

    def read(self, intensity: Tensor) -> Tensor:
        """Integrate an intensity pattern ``(..., N, N)`` over each region."""
        intensity = intensity if isinstance(intensity, Tensor) else Tensor(intensity)
        batch_shape = intensity.shape[:-2]
        flat = intensity.reshape(batch_shape + (self.grid.size * self.grid.size,))
        masks = Tensor(self._masks.reshape(self.num_classes, -1))
        return flat @ masks.T

    def forward(self, field: Tensor) -> Tensor:
        """Field -> per-class collected intensity (the DONN's logits)."""
        return self.read(self.intensity_pattern(field))
