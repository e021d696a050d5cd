"""FFT backend dispatch shared by autograd and the inference engine.

Training's free-space hops (:func:`repro.autograd.ops.propagate`) and the
engine's hot loop are both batched 2-D FFTs over the trailing axes.  Two
backends are supported:

* **scipy** -- ``scipy.fft`` (pocketfft with a C++ kernel set that is
  measurably faster than numpy's, plus a ``workers=N`` thread pool that
  parallelises over the batch axis).  Selected automatically when scipy is
  importable.  Autograd passes ``workers=usable_cores()``
  (:func:`autograd_backend`) on a thread that is not running a tile, and
  no ``workers`` on one that is; the engine passes no ``workers``.  A
  transform inside a tile runs single-threaded, because the tiles of a
  batch already spread over every usable core
  (:mod:`repro.autograd.tiles`).
* **numpy** -- ``np.fft``, always available; the fallback when scipy is
  absent so neither autograd nor the engine depends on more than numpy.

Both backends use numpy's "backward" normalisation, so the engine's
outputs match the autograd kernels bit-for-bit in practice and to
``1e-10`` by contract.  Results do not depend on the worker count.

Both backends also preserve ``complex64`` inputs for the engine's
reduced-precision mode: ``scipy.fft`` computes single-precision
transforms natively, while ``np.fft`` always promotes to ``complex128``,
so the numpy backend casts its results back to the input dtype.

This module is a leaf (numpy, ``os``, the tile executor and, lazily,
scipy) so that autograd and the engine share one dispatcher without an
import cycle.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.autograd import tiles

_AXES = (-2, -1)


def usable_cores() -> int:
    """Cores this process may run on (its scheduler affinity).

    On cgroup-limited containers this, not ``os.cpu_count()``, is the
    number that bounds multi-process scaling and FFT threading.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-linux


def _match_input_precision(out: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Cast an np.fft result back to complex64 when the input was complex64."""
    if field.dtype == np.complex64:
        return out.astype(np.complex64, copy=False)
    return out


def _import_scipy_fft():
    """Return ``scipy.fft`` or ``None``; patchable seam for fallback tests."""
    try:
        import scipy.fft as scipy_fft
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        return None
    return scipy_fft


class NumpyFFTBackend:
    """Plain ``np.fft`` transforms over the trailing two axes."""

    name = "numpy"

    def __init__(self, workers: Optional[int] = None):
        # numpy's pocketfft is single threaded and always allocates its
        # output; ``workers`` and ``overwrite_x`` are accepted for interface
        # compatibility and ignored.
        self.workers = workers

    def fft2(self, field: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return _match_input_precision(np.fft.fft2(field, axes=_AXES), field)

    def ifft2(self, spectrum: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return _match_input_precision(np.fft.ifft2(spectrum, axes=_AXES), spectrum)


class ScipyFFTBackend:
    """``scipy.fft`` transforms with optional multi-threaded batching.

    ``overwrite_x=True`` lets scipy transform in the input's memory, and it
    does write there: pass it only for an array the caller allocated and
    no longer needs.
    """

    name = "scipy"

    def __init__(self, module, workers: Optional[int] = None):
        self._fft = module
        self.workers = int(workers) if workers else None

    def fft2(self, field: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return self._fft.fft2(field, axes=_AXES, workers=self.workers, overwrite_x=overwrite_x)

    def ifft2(self, spectrum: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        return self._fft.ifft2(spectrum, axes=_AXES, workers=self.workers, overwrite_x=overwrite_x)


def available_backends() -> tuple:
    """Names of the FFT backends importable in this environment."""
    names = ["numpy"]
    if _import_scipy_fft() is not None:
        names.insert(0, "scipy")
    return tuple(names)


#: The names :func:`get_fft_backend` takes (case-insensitive).
BACKEND_NAMES = ("auto", "scipy", "numpy")


def get_fft_backend(name: str = "auto", workers: Optional[int] = None):
    """Resolve a backend by name.

    Parameters
    ----------
    name:
        ``"auto"`` (scipy when installed, else numpy), ``"scipy"`` or
        ``"numpy"``.
    workers:
        Thread count forwarded to ``scipy.fft``; ignored by numpy.
    """
    key = name.lower()
    if key not in BACKEND_NAMES:
        raise ValueError(f"unknown FFT backend {name!r}; choose from {BACKEND_NAMES}")
    module = None if key == "numpy" else _import_scipy_fft()
    if module is not None:
        return ScipyFFTBackend(module, workers=workers)
    if key == "scipy":
        raise RuntimeError("scipy backend requested but scipy is not installed")
    return NumpyFFTBackend(workers=workers)


def autograd_backend():
    """The backend autograd's kernels run on: scipy, else numpy.

    Outside a tile scipy runs a worker per usable core; inside one
    (:func:`repro.autograd.tiles.in_tile`) it runs single-threaded,
    because the tiles themselves use every core.  Resolved on every call,
    so it follows the process's affinity, the thread and the
    ``_import_scipy_fft`` seam; resolving costs microseconds next to a
    transform.
    """
    return get_fft_backend("auto", workers=None if tiles.in_tile() else usable_cores())
