"""Multi-channel RGB DONN for colour image classification (Figure 12).

The input RGB image is split into three grey-scale channel images; a beam
splitter and mirrors route the laser into three parallel optical channels,
each a full diffractive stack; the three output beams are projected onto
one shared detector where their intensities add.  All channels are trained
against the same shared loss.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Module, ModuleList, Tensor
from repro.layers.detector import Detector
from repro.layers.diffractive import DiffractiveLayer
from repro.layers.encoding import data_to_cplex
from repro.layers.nonlinearity import make_nonlinearity
from repro.models.config import DONNConfig
from repro.optics.propagation import make_propagator


class MultiChannelDONN(Module):
    """Three parallel diffractive stacks whose detector intensities sum.

    Parameters
    ----------
    config:
        Per-channel architecture (the paper uses the Section 5.1 system
        with 5 layers per channel).
    num_channels:
        Number of optical channels (3 for R/G/B).
    nonlinearity:
        Optional all-optical activation inserted after every diffractive
        layer in every channel (instance or ``"saturable"`` / ``"kerr"``).
    """

    def __init__(
        self,
        config: DONNConfig,
        num_channels: int = 3,
        detector: Optional[Detector] = None,
        nonlinearity=None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        self.config = config
        self.num_channels = num_channels
        self.nonlinearity = make_nonlinearity(nonlinearity) if nonlinearity is not None else None
        rng = rng or np.random.default_rng(config.seed)
        grid = config.grid

        channels: List[ModuleList] = []
        for _ in range(num_channels):
            layers = ModuleList(
                [
                    DiffractiveLayer(
                        grid=grid,
                        wavelength=config.wavelength,
                        distance=config.distance,
                        approx=config.approx,
                        amplitude_factor=config.amplitude_factor,
                        pad_factor=config.pad_factor,
                        rng=rng,
                    )
                    for _ in range(config.num_layers)
                ]
            )
            channels.append(layers)
        self.channels = ModuleList(channels)
        self.final_propagator = make_propagator(
            config.approx,
            grid=grid,
            wavelength=config.wavelength,
            distance=config.distance,
            pad_factor=config.pad_factor,
        )
        self.detector = detector or Detector(grid, num_classes=config.num_classes, det_size=config.det_size)
        # The beam splitter halves the power per channel twice (split + merge);
        # channel fields are scaled so total collected power is comparable to
        # a single-channel system.
        self._channel_scale = 1.0 / np.sqrt(num_channels)

    def encode_channel(self, channel_images) -> Tensor:
        return data_to_cplex(
            channel_images, grid=self.config.grid, amplitude_factor=self.config.amplitude_factor
        )

    def propagate_channel(self, index: int, field: Tensor) -> Tensor:
        for layer in self.channels[index]:
            field = layer(field)
            if self.nonlinearity is not None:
                field = self.nonlinearity(field)
        return self.final_propagator(field)

    def forward(self, rgb_images) -> Tensor:
        """RGB batch ``(B, C, H, W)`` -> per-class collected intensities.

        Channel intensities add incoherently at the shared detector (the
        three beams originate from different optical paths, so their
        interference averages out over the camera integration time).
        """
        rgb = rgb_images.data if isinstance(rgb_images, Tensor) else np.asarray(rgb_images, dtype=float)
        if rgb.ndim == 3:
            rgb = rgb[None]
        if rgb.shape[1] != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {rgb.shape[1]}")
        logits: Optional[Tensor] = None
        for index in range(self.num_channels):
            field = self.encode_channel(rgb[:, index]) * self._channel_scale
            field = self.propagate_channel(index, field)
            channel_logits = self.detector(field)
            logits = channel_logits if logits is None else logits + channel_logits
        return logits

    def predict(self, rgb_images) -> np.ndarray:
        return np.asarray(self.forward(rgb_images).data.real).argmax(axis=-1)

    def phase_patterns(self) -> List[List[np.ndarray]]:
        """Per-channel list of per-layer trained phase patterns."""
        return [[layer.phase_values() for layer in channel] for channel in self.channels]
