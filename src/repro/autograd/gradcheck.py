"""Finite-difference gradient checking utilities.

Used by the test suite to verify every differentiable operator, and in
particular the complex/real boundary rules that the optical kernels rely
on (intensity read-out, phase modulation, FFT propagation).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import GradSink, Tensor


def numerical_gradient(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int = 0,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``func(*inputs)`` w.r.t. ``inputs[index]``.

    For a complex input the returned array is
    ``dL/dRe(x) + j * dL/dIm(x)`` to match the stored-gradient convention.
    """
    target = inputs[index]
    base = target.data.copy()
    grad = np.zeros_like(base, dtype=complex if np.iscomplexobj(base) else float)

    def evaluate() -> float:
        result = func(*inputs)
        value = result.data
        if value.size != 1:
            raise ValueError("numerical_gradient requires a scalar-valued function")
        return float(value.real)

    iterator = np.nditer(base, flags=["multi_index"])
    while not iterator.finished:
        idx = iterator.multi_index
        original = base[idx]

        target.data[idx] = original + eps
        plus = evaluate()
        target.data[idx] = original - eps
        minus = evaluate()
        real_part = (plus - minus) / (2 * eps)

        if np.iscomplexobj(base):
            target.data[idx] = original + 1j * eps
            plus_imag = evaluate()
            target.data[idx] = original - 1j * eps
            minus_imag = evaluate()
            imag_part = (plus_imag - minus_imag) / (2 * eps)
            grad[idx] = real_part + 1j * imag_part
        else:
            grad[idx] = real_part

        target.data[idx] = original
        iterator.iternext()

    return grad


def check_gradients(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> bool:
    """Compare analytic and numeric gradients for every grad-requiring input.

    Raises ``AssertionError`` with a diagnostic message on mismatch; returns
    ``True`` otherwise so it can be used directly in assertions.  The
    analytic gradients pass through a :class:`GradSink`, as a tiled
    training step's do, and are then added into each leaf's ``grad``; so
    the check also holds on a thread where another sink is active.
    """
    for tensor in inputs:
        tensor.zero_grad()
    output = func(*inputs)
    if output.data.size != 1:
        raise ValueError("check_gradients requires a scalar-valued function")
    with GradSink() as sink:
        output.backward()
    sink.add_to_grads()

    for position, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        numeric = numerical_gradient(func, inputs, index=position, eps=eps)
        analytic = tensor.grad
        if analytic is None:
            raise AssertionError(f"input {position} received no gradient")
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch for input {position}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
