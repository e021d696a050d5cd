"""``repro``: a from-scratch reproduction of the LightRidge DONN framework.

LightRidge (ASPLOS 2023) is an end-to-end design framework for diffractive
optical neural networks: differentiable optical physics kernels,
runtime-optimised emulation, hardware-software codesign, design space
exploration and deployment backends.  This package rebuilds that stack on
numpy (including the complex-valued autodiff engine that PyTorch provided
in the original) -- see ``docs/architecture.md`` for the system inventory
and ``benchmarks/bench_fig*.py`` / ``bench_table*.py`` for the reproduced
tables and figures.

Quick start
-----------
>>> from repro import DONNConfig, DONN, Trainer, load_digits
>>> config = DONNConfig(sys_size=64, pixel_size=4e-6, distance=0.02,
...                     wavelength=532e-9, num_layers=3)
>>> train_x, train_y, test_x, test_y = load_digits(num_train=200, num_test=50, size=64)
>>> model = DONN(config)
>>> trainer = Trainer(model, num_classes=10, learning_rate=0.3)
>>> history = trainer.fit(train_x, train_y, epochs=2, test_images=test_x, test_labels=test_y)
"""

from repro.autograd import Tensor, Module, Parameter, Sequential, Adam, SGD
from repro.models import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.layers import DiffractiveLayer, CodesignDiffractiveLayer, Detector, data_to_cplex
from repro.optics import SpatialGrid, LaserSource, make_propagator
from repro.codesign import DeviceProfile, slm_profile, ideal_profile, thz_mask_profile
from repro.train import Trainer, SegmentationTrainer, evaluate_classifier
from repro.data import load_digits, load_fashion, load_scenes, load_segmentation_scenes
from repro.engine import InferenceSession
from repro.serve import InferenceServer
from repro.dse import AnalyticalDSEModel, DesignSpace, run_analytical_dse
from repro.dsl import build_donn, DesignFlow
from repro.hardware import HardwareTestbench, to_system, energy_efficiency_table

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "Module",
    "Parameter",
    "Sequential",
    "Adam",
    "SGD",
    "DONN",
    "DONNConfig",
    "MultiChannelDONN",
    "SegmentationDONN",
    "DiffractiveLayer",
    "CodesignDiffractiveLayer",
    "Detector",
    "data_to_cplex",
    "SpatialGrid",
    "LaserSource",
    "make_propagator",
    "DeviceProfile",
    "slm_profile",
    "ideal_profile",
    "thz_mask_profile",
    "InferenceSession",
    "InferenceServer",
    "Trainer",
    "SegmentationTrainer",
    "evaluate_classifier",
    "load_digits",
    "load_fashion",
    "load_scenes",
    "load_segmentation_scenes",
    "AnalyticalDSEModel",
    "DesignSpace",
    "run_analytical_dse",
    "build_donn",
    "DesignFlow",
    "HardwareTestbench",
    "to_system",
    "energy_efficiency_table",
    "__version__",
]
