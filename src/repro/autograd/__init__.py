"""Reverse-mode, complex-aware automatic differentiation on numpy.

This package is the substrate that replaces PyTorch in the LightRidge
reproduction.  It provides:

* :class:`~repro.autograd.tensor.Tensor` -- an n-dimensional array wrapper
  that records the operations applied to it and can back-propagate a real
  scalar loss through complex-valued computation graphs (Wirtinger
  calculus).
* :mod:`~repro.autograd.ops` -- FFT2/iFFT2, the fused free-space
  ``propagate`` op, padding, stacking and other array-level operators
  used by the optical physics kernels.
* :mod:`~repro.autograd.fft` -- the scipy/numpy FFT dispatcher that
  ``propagate`` and the inference engine share.
* :mod:`~repro.autograd.functional` -- neural-network style operators
  (softmax, relu, layer norm, conv2d, losses) used by the digital
  baselines and by DONN training.
* :mod:`~repro.autograd.module` -- ``Module``/``Parameter``/``Sequential``
  containers mirroring the ``torch.nn`` idiom the paper's DSL builds upon.
* :mod:`~repro.autograd.optim` -- SGD and Adam optimizers.
* :mod:`~repro.autograd.gradcheck` -- finite-difference gradient checking
  used extensively in the test suite.

Gradient convention
-------------------
For a real scalar loss ``L``:

* real tensors store ``dL/dx`` in ``.grad``;
* complex tensors store ``dL/d(Re x) + j * dL/d(Im x)`` (equivalently
  ``2 * dL/dx*`` in Wirtinger notation), which is the steepest-descent
  direction, so ``x -= lr * x.grad`` always descends.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, tensor
from repro.autograd import ops
from repro.autograd import functional
from repro.autograd.module import Module, Parameter, Sequential, ModuleList
from repro.autograd.optim import SGD, Adam, Optimizer
from repro.autograd.gradcheck import numerical_gradient, check_gradients

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "ops",
    "functional",
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "SGD",
    "Adam",
    "Optimizer",
    "numerical_gradient",
    "check_gradients",
]
