"""Array-level differentiable operators used by the optical kernels.

The heavy lifting of DONN emulation is three operators (Section 5.3 of the
paper): complex 2-D FFT, inverse 2-D FFT, and complex element-wise /
matrix multiplication.  The FFTs live here; multiplication is on
:class:`~repro.autograd.tensor.Tensor` directly.

Free-space hops do not chain those nodes: :func:`propagate` fuses pad,
FFT, transfer-function product, inverse FFT and crop into one tape node
whose backward is the same op with the conjugate transfer function, and
runs its transforms on the FFT backend the engine uses
(:func:`repro.autograd.fft.autograd_backend`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.autograd import fft as fft_backends
from repro.autograd.tensor import Tensor


def _axes_size(shape: Tuple[int, ...], axes: Tuple[int, int]) -> int:
    return int(np.prod([shape[a] for a in axes]))


def fft2(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable 2-D FFT (numpy "backward" normalisation).

    The adjoint of the unnormalised DFT matrix ``F`` is ``N * ifft``, so the
    backward pass multiplies the inverse transform of the upstream gradient
    by the transform size.
    """
    x = Tensor._coerce(x)
    data = np.fft.fft2(x.data, axes=axes)
    n = _axes_size(x.shape, tuple(a % x.ndim for a in axes))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.ifft2(grad, axes=axes) * n)

    return Tensor._make(data, (x,), backward)


def ifft2(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable inverse 2-D FFT (numpy "backward" normalisation)."""
    x = Tensor._coerce(x)
    data = np.fft.ifft2(x.data, axes=axes)
    n = _axes_size(x.shape, tuple(a % x.ndim for a in axes))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.fft2(grad, axes=axes) / n)

    return Tensor._make(data, (x,), backward)


def _propagate_array(field: np.ndarray, transfer: np.ndarray, pad: int, fft) -> np.ndarray:
    """``crop(ifft2(fft2(pad(field)) * transfer))``, never writing into ``field``.

    Only arrays allocated here (the padded field, the spectrum) are handed
    to the backend with ``overwrite_x=True``.
    """
    if pad:
        rows, cols = field.shape[-2:]
        padded = np.zeros(field.shape[:-2] + (rows + 2 * pad, cols + 2 * pad), dtype=np.complex128)
        padded[..., pad:-pad, pad:-pad] = field
        spectrum = fft.fft2(padded, overwrite_x=True)
    else:
        spectrum = fft.fft2(field)
    spectrum *= transfer
    out = fft.ifft2(spectrum, overwrite_x=True)
    if pad:
        # Copy the crop so the tape does not keep the padded buffer alive.
        out = out[..., pad:-pad, pad:-pad].copy()
    return out


def propagate(field: Tensor, transfer: np.ndarray, transfer_conj: np.ndarray, pad: int = 0) -> Tensor:
    """Free-space propagation ``crop(ifft2(fft2(pad(field)) * transfer))`` as one tape node.

    The map is linear in the field: ``P = C F^-1 diag(H) F Z`` with ``Z``
    zero padding by ``pad`` pixels and ``C`` the matching crop.  Its
    adjoint, which the package's gradient convention back-propagates, is
    ``Z^T F^H diag(conj H) F^-H C^T``.  Numpy's normalisation gives
    ``F^H = N F^-1`` and ``F^-H = F / N``; the factors cancel, so the
    adjoint is the same op on ``transfer_conj`` (``conj(transfer)``,
    passed in so callers compute it once).  The node saves nothing beyond
    its input; the transforms run on
    :func:`repro.autograd.fft.autograd_backend`.
    """
    field = Tensor._coerce(field)
    fft = fft_backends.autograd_backend()
    data = _propagate_array(field.data, transfer, pad, fft)

    def backward(grad: np.ndarray) -> None:
        if field.requires_grad:
            field._accumulate(_propagate_array(grad, transfer_conj, pad, fft))

    return Tensor._make(data, (field,), backward)


def fftshift(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable ``np.fft.fftshift`` (a pure permutation)."""
    x = Tensor._coerce(x)
    data = np.fft.fftshift(x.data, axes=axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.ifftshift(grad, axes=axes))

    return Tensor._make(data, (x,), backward)


def ifftshift(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable ``np.fft.ifftshift``."""
    x = Tensor._coerce(x)
    data = np.fft.ifftshift(x.data, axes=axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.fftshift(grad, axes=axes))

    return Tensor._make(data, (x,), backward)


def pad2d(x: Tensor, pad: int, value: float = 0.0) -> Tensor:
    """Zero-pad the last two axes of ``x`` by ``pad`` pixels on every side."""
    x = Tensor._coerce(x)
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    data = np.pad(x.data, widths, mode="constant", constant_values=value)
    slices = tuple([slice(None)] * (x.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)])

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[slices])

    return Tensor._make(data, (x,), backward)


def crop2d(x: Tensor, crop: int) -> Tensor:
    """Remove ``crop`` pixels from every side of the last two axes."""
    x = Tensor._coerce(x)
    if crop == 0:
        return x
    slices = tuple([slice(None)] * (x.ndim - 2) + [slice(crop, -crop), slice(crop, -crop)])
    data = x.data[slices]
    widths = [(0, 0)] * (x.ndim - 2) + [(crop, crop), (crop, crop)]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.pad(grad, widths, mode="constant"))

    return Tensor._make(data, (x,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a non-differentiable condition."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(condition, grad, 0))
        if b.requires_grad:
            b._accumulate(np.where(condition, 0, grad))

    return Tensor._make(data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum of two real tensors."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    return where(a.data >= b.data, a, b)


def roll(x: Tensor, shift, axis) -> Tensor:
    """Differentiable ``np.roll``."""
    x = Tensor._coerce(x)
    data = np.roll(x.data, shift, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            if isinstance(shift, (tuple, list)):
                inverse = tuple(-s for s in shift)
            else:
                inverse = -shift
            x._accumulate(np.roll(grad, inverse, axis=axis))

    return Tensor._make(data, (x,), backward)


def exp_i(phase: Tensor) -> Tensor:
    """Compute ``exp(1j * phase)`` for a real-valued phase tensor.

    This is the phase-modulation primitive of Eq. (9): the trainable phase
    of a diffractive layer enters the field as a unit-magnitude complex
    exponential.
    """
    phase = Tensor._coerce(phase)
    # The parts of np.exp(1j * phase), to the ulp, written straight into
    # one complex buffer: a cos and a sin cost less than a complex exp.
    data = np.empty(phase.data.shape, dtype=np.complex128)
    np.cos(phase.data, out=data.real)
    np.sin(phase.data, out=data.imag)

    def backward(grad: np.ndarray) -> None:
        if phase.requires_grad:
            # d/dphi exp(j phi) = j exp(j phi); for a real input the exact
            # derivative is Re(conj(grad) * j * exp(j phi)) under the
            # stored-gradient convention (see package docstring).
            phase._accumulate((np.conj(grad) * 1j * data).real)

    return Tensor._make(data, (phase,), backward)


def complex_from_amplitude_phase(amplitude: Tensor, phase: Tensor) -> Tensor:
    """Build the complex field ``A * exp(1j * theta)`` from real tensors."""
    return amplitude.to_complex() * exp_i(phase)
