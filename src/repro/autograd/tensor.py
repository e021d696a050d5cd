"""Core :class:`Tensor` type with reverse-mode complex autodiff.

The implementation follows the classic tape-based design: every operation
creates a new ``Tensor`` holding a closure (``_backward``) that knows how
to push the upstream gradient to the operation's inputs.  Calling
``Tensor.backward()`` topologically sorts the graph and runs the closures
in reverse order.

Complex support uses Wirtinger calculus with the convention described in
:mod:`repro.autograd`: the stored gradient of a complex tensor is
``dL/dRe(x) + j dL/dIm(x)``, which keeps gradients of *real* leaf tensors
exact (no stray factors of two) and makes ``x -= lr * grad`` a proper
steepest-descent step for both real and complex parameters.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, complex, list, tuple]


class _GradMode(threading.local):
    """Grad mode is per thread (as in torch): a process-wide flag saved and
    restored by overlapping ``no_grad`` blocks on two threads (say, sessions
    compiling concurrently) can be restored out of order and stay off.
    The class attribute is each thread's starting value."""

    enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record gradient information."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording on this thread (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value)
    if array.dtype == np.float32 or array.dtype == np.float16:
        array = array.astype(np.float64)
    elif array.dtype == np.complex64:
        array = array.astype(np.complex128)
    elif np.issubdtype(array.dtype, np.integer) or array.dtype == bool:
        array = array.astype(np.float64)
    return array


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; a view when ``matrix`` is real."""
    swapped = np.swapaxes(matrix, -1, -2)
    return np.conj(swapped) if np.iscomplexobj(swapped) else swapped


class Tensor:
    """A numpy-backed array that supports reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 1000  # so ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._prev: Tuple[Tensor, ...] = tuple(_prev) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> complex:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __getstate__(self):
        """Pickle without the gradient (as torch does).

        A pickled model is a snapshot of its parameters (session specs,
        store blobs), so a pending gradient must not change its bytes or
        its content hash.  The state is the one pickle builds by default,
        slots in ``__slots__`` order with ``grad`` set to ``None``: a tensor
        without a gradient pickles to the same bytes as before.
        """
        slots = {name: getattr(self, name) for name in Tensor.__slots__}
        slots["grad"] = None
        return (getattr(self, "__dict__", None) or None, slots)

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, handling dtype/broadcast mismatch.

        The first gradient is copied once into a buffer this tensor owns
        (C-contiguous, of its shape and gradient dtype); later ones are
        added into it in place.  ``grad`` itself is never written, so one
        upstream array can reach several parents.
        """
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if not np.iscomplexobj(self.data) and np.iscomplexobj(grad):
            grad = grad.real
        if self.grad is None:
            self.grad = np.empty(self.data.shape, dtype=complex if np.iscomplexobj(self.data) else float)
            self.grad[...] = grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` which requires ``self`` to
            be a scalar (the usual "loss.backward()" use).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad))

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Helpers for constructing result tensors
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return self._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(other.data))
            if other.requires_grad:
                other._accumulate(grad * np.conj(self.data))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(1.0 / other.data))
            if other.requires_grad:
                other._accumulate(grad * np.conj(-self.data / other.data**2))

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            exponent = exponent.data
        exponent = np.asarray(exponent)
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                local = exponent * self.data ** (exponent - 1)
                self._accumulate(grad * np.conj(local))

        return self._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ _adjoint(other.data)
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                g = _adjoint(self.data) @ grad
                other._accumulate(_unbroadcast(g, other.data.shape))

        return self._make(data, (self, other), backward)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__matmul__(self)

    # Comparison operators return plain numpy boolean arrays (no grad).
    def __gt__(self, other: ArrayLike):
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike):
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(float)
            mask /= mask.sum(axis=axis, keepdims=True)
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(mask * g)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(data))

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(1.0 / self.data))

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def sin(self) -> "Tensor":
        data = np.sin(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(np.cos(self.data)))

        return self._make(data, (self,), backward)

    def cos(self) -> "Tensor":
        data = np.cos(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(-np.sin(self.data)))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.conj(1.0 - data**2))

        return self._make(data, (self,), backward)

    def conj(self) -> "Tensor":
        data = np.conj(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.conj(grad))

        return self._make(data, (self,), backward)

    # ---- real <-> complex boundary ops (non-holomorphic) -------------- #
    def real(self) -> "Tensor":
        data = self.data.real.copy()

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).real.astype(complex) if self.is_complex else grad)

        return self._make(data, (self,), backward)

    def imag(self) -> "Tensor":
        data = self.data.imag.copy()

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(1j * np.asarray(grad).real)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            safe = np.where(data == 0, 1.0, data)
            if self.is_complex:
                self._accumulate(np.asarray(grad).real * self.data / safe)
            else:
                self._accumulate(grad * np.sign(self.data))

        return self._make(data, (self,), backward)

    def abs2(self) -> "Tensor":
        """Squared magnitude ``|x|**2`` (light intensity for a wavefield)."""
        data = (self.data * np.conj(self.data)).real

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if self.is_complex:
                self._accumulate(2.0 * np.asarray(grad).real * self.data)
            else:
                self._accumulate(2.0 * grad * self.data)

        return self._make(data, (self,), backward)

    def angle(self) -> "Tensor":
        data = np.angle(self.data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            safe = np.where(self.data == 0, 1.0, self.data)
            self._accumulate(np.asarray(grad).real * 1j / np.conj(safe))

        return self._make(data, (self,), backward)

    def to_complex(self) -> "Tensor":
        """Promote a real tensor to complex dtype (identity if already complex)."""
        if self.is_complex:
            return self
        data = self.data.astype(complex)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).real)

        return self._make(data, (self,), backward)

    def clip(self, minimum=None, maximum=None) -> "Tensor":
        data = np.clip(self.data, minimum, maximum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                mask = np.ones_like(self.data)
                if minimum is not None:
                    mask = mask * (self.data >= minimum)
                if maximum is not None:
                    mask = mask * (self.data <= maximum)
                self._accumulate(grad * mask)

        return self._make(data, (self,), backward)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
