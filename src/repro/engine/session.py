"""Autograd-free batched inference for trained DONN systems.

Training needs the tape-based :class:`~repro.autograd.tensor.Tensor`
machinery; serving does not.  :func:`compile` — the engine's one front
door — runs a trained model through an explicit three-stage pipeline:

1. **lower** (:mod:`repro.engine.plan`): snapshot the model in eval mode
   into a :class:`~repro.engine.plan.Plan` of typed ops — every
   diffraction transfer function, phase modulation, Fraunhofer
   prefactor and detector read-out matrix captured as plain ndarrays;
2. **optimize** (:mod:`repro.engine.passes`): fuse adjacent multiplies,
   cancel inverse/forward FFT pairs, drop all-ones kernels, and — for
   nonlinearity-free classifiers — collapse the whole cascade into one
   precomputed input→detector operator pair;
3. **emit**: close the optimized ops over the FFT backend into the flat
   numpy program an :class:`InferenceSession` streams batches through.

The session itself is a thin executor: batching, chunk streaming, and
introspection (:meth:`InferenceSession.plan_summary` reports op counts
before/after the passes).  At the default ``dtype="complex128"`` outputs
match the autograd eval path to ``atol=1e-10``; the opt-in
``dtype="complex64"`` mode halves the memory footprint of every cached
kernel and intermediate, trading exactness for a documented accuracy
budget of :data:`COMPLEX64_LOGIT_ATOL` on detector logits (see
``tests/test_engine.py``).
"""

from __future__ import annotations

import pickle
from typing import Callable, Optional

import numpy as np

from repro.autograd.fft import get_fft_backend
from repro.engine.plan import Plan, emit, lower
from repro.engine.passes import OPTIMIZE_LEVELS, optimize_plan

#: Accuracy budget of the reduced-precision engine: with
#: ``dtype="complex64"`` the detector logits (and segmentation intensity
#: maps) of unit-scale inputs agree with the ``complex128`` engine within
#: this absolute tolerance across all three model families.
COMPLEX64_LOGIT_ATOL = 1e-4


def _resolve_complex_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.complex64), np.dtype(np.complex128)):
        raise ValueError(f"dtype must be complex64 or complex128, got {dtype!r}")
    return resolved


class InferenceSession:
    """A trained DONN compiled for batched, autograd-free serving.

    Build sessions with :func:`repro.engine.compile`, which resolves the
    option defaults; the constructor takes every option by keyword, so
    ``InferenceSession(model)`` alone raises ``TypeError``.

    Parameters
    ----------
    model:
        A (trained) :class:`DONN`, :class:`MultiChannelDONN` or
        :class:`SegmentationDONN`.  The model is snapshotted in eval mode
        at compile time; its train/eval mode is restored afterwards and
        later parameter updates do **not** propagate into the session
        (rebuild or call :meth:`refresh` to pick them up).
    batch_size:
        Default chunk size used by :meth:`run`/:meth:`predict` when
        streaming large inputs.
    backend:
        FFT backend: ``"auto"`` (scipy when installed, numpy otherwise),
        ``"scipy"`` or ``"numpy"``.
    workers:
        Thread count for the scipy backend's batched FFTs.
    dtype:
        ``"complex128"`` (default, matches autograd to ``1e-10``) or
        ``"complex64"``: reduced-precision mode that halves cached-kernel
        and intermediate memory for memory-bound sizes, accurate to
        :data:`COMPLEX64_LOGIT_ATOL` on detector logits.
    optimize:
        Pass level: ``"full"`` (default; local rewrites plus cascade
        collapse), ``"fuse"`` (local rewrites only) or ``"none"``
        (emit the lowered plan verbatim).
    max_operator_bytes:
        Budget for the collapsed cascade operator (``None`` = the passes'
        64 MiB default); plans over budget stay in FFT form.

    Raises
    ------
    ValueError
        For ``batch_size < 1``, an unknown ``dtype``, an unknown
        ``backend`` name, or an unknown ``optimize`` level.
    TypeError
        When ``model`` is not one of the three compilable families, or a
        configured nonlinearity does not expose ``apply_numpy``.
    RuntimeError
        From :meth:`predict` / :meth:`predict_mask` / :meth:`read_detector`
        when called on the wrong session kind.

    Thread-safety: a compiled session is **immutable between**
    :meth:`refresh` calls -- ``run``/``predict`` only read the cached
    kernel arrays, so concurrent calls from multiple threads are safe
    (this is what lets ``repro.serve`` run engine calls in a thread-pool
    executor).  :meth:`refresh` swaps the compiled program in a single
    attribute assignment; in-flight calls finish on the snapshot they
    started with.  The scipy FFT backend additionally parallelizes
    *within* one call via ``workers``.
    """

    def __init__(
        self,
        model,
        *,
        batch_size: int,
        backend: str,
        workers: Optional[int],
        dtype,
        optimize: str,
        max_operator_bytes: Optional[int],
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if optimize not in OPTIMIZE_LEVELS:
            raise ValueError(f"optimize must be one of {OPTIMIZE_LEVELS}, got {optimize!r}")
        self.batch_size = int(batch_size)
        self.dtype = _resolve_complex_dtype(dtype)
        self.optimize = optimize
        self.fft = get_fft_backend(backend, workers=workers)
        self._max_operator_bytes = max_operator_bytes
        self._model = model
        self._recompile()

    def _recompile(self) -> None:
        """Lower → optimize → emit from the model's *current* parameters.

        This is the one code path for cold start and :meth:`refresh`:
        both snapshot the live model into a fresh plan, re-run the
        passes, and swap the emitted program in.
        """
        model = self._model
        raw_plan = lower(model, self.dtype)  # TypeError outside the compilable families
        was_training = model.training
        model.eval()
        try:
            # Captured *here*, not in to_spec(): the spec must rebuild
            # the parameters this program compiled, and the model may
            # train on after the snapshot (that is why refresh()
            # exists).  Pickling at snapshot time keeps spec and
            # program in lock-step.
            try:
                self._model_blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                self._model_blob = None  # unpicklable model: to_spec() will refuse
        finally:
            model.train(was_training)
        plan, report = optimize_plan(
            raw_plan, self.optimize, fft=self.fft, max_operator_bytes=self._max_operator_bytes
        )
        self._raw_plan = raw_plan
        self._plan = plan
        self._pass_report = report
        self._reference_program = None  # lazy full-plane program for collapsed plans
        self._program = emit(plan, self.fft)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"classifier"`` or ``"segmentation"``."""
        return self._program.kind

    @property
    def backend_name(self) -> str:
        return self.fft.name

    @property
    def plan(self) -> Plan:
        """The optimized plan the session's program was emitted from."""
        return self._plan

    @property
    def unoptimized_plan(self) -> Plan:
        """The plan as lowered from the model, before any passes."""
        return self._raw_plan

    def plan_summary(self) -> dict:
        """Op counts and pass report: what the optimizer did to the plan.

        Returns a dict with ``ops_before``/``ops_after`` (op counts by
        type), ``fft_ops_before``/``fft_ops_after`` (FFT+IFFT totals),
        ``passes`` (which rewrites fired), ``collapsed`` (whether the
        cascade folded to a precomputed operator) and ``optimize`` (the
        requested level).
        """
        report = self._pass_report
        return {
            "optimize": report["optimize"],
            "ops_before": dict(report["ops_before"]),
            "ops_after": dict(report["ops_after"]),
            "fft_ops_before": report["fft_ops_before"],
            "fft_ops_after": report["fft_ops_after"],
            "passes": list(report["passes"]),
            "collapsed": report["collapsed"],
        }

    @property
    def input_shape(self):
        """Expected per-request input shape (used by ``repro.serve``)."""
        shape = self._program.grid.shape
        if self._program.expects_channels:
            return (self._program.num_channels,) + shape
        return shape

    def refresh(self) -> "InferenceSession":
        """Re-compile from the model's current parameters.

        Runs the identical lower→optimize→emit pipeline as cold start
        (:func:`compile`), so refreshed sessions and freshly compiled
        ones are the same artifact.
        """
        self._recompile()
        return self

    def to_spec(self):
        """Picklable :class:`~repro.engine.SessionSpec` rebuilding this session.

        A compiled session cannot cross a process boundary (its program is
        closures over cached arrays); the spec carries the pickled model
        plus the session options instead, and ``spec.build()`` on the
        other side compiles an identical session.  The model parameters
        in the spec are the ones captured at the last snapshot
        (compilation or :meth:`refresh`) -- training steps taken since
        do **not** leak in, so replicas built from the spec match *this*
        session's outputs even when the live model has moved on.  The
        *resolved* backend name is recorded (not ``"auto"``), so the
        rebuilt session uses the same FFT implementation as this one.

        Raises ``TypeError`` when the snapshotted model could not be
        pickled.
        """
        from repro.engine.spec import SessionSpec

        if self._model_blob is None:
            raise TypeError(
                f"cannot build a SessionSpec: {type(self._model).__name__} failed to pickle at snapshot time"
            )
        return SessionSpec(
            model_blob=self._model_blob,
            model_type=type(self._model).__name__,
            batch_size=self.batch_size,
            backend=self.backend_name,
            workers=self.fft.workers,
            dtype=self.dtype.name,
            optimize=self.optimize,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceSession(kind={self.kind!r}, backend={self.backend_name!r}, "
            f"batch_size={self.batch_size}, dtype={self.dtype.name!r}, optimize={self.optimize!r})"
        )

    # ------------------------------------------------------------------ #
    # Batched execution
    # ------------------------------------------------------------------ #
    def _batched(self, images, compute: Callable[[np.ndarray], np.ndarray], batch_size: Optional[int]):
        array = np.asarray(images, dtype=float)
        # Single-sample semantics mirror the models': MultiChannelDONN
        # promotes (C, H, W) to a batch of one, DONN/SegmentationDONN run
        # an (H, W) sample unbatched.
        if self._program.expects_channels:
            if array.ndim == 3:
                array = array[None]
        elif array.ndim == 2:
            return compute(array)
        size = int(batch_size or self.batch_size)
        total = len(array)
        if total <= size:
            # One chunk covers everything (chunk_size >= batch, a batch of
            # one, or an empty query batch): hand the whole array to the
            # program and return its output as-is -- no scratch buffer.
            return compute(array)
        # Stream into a preallocated output so peak extra memory is one
        # chunk, not a list of every chunk plus a concatenate copy.
        first = compute(array[:size])
        out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
        out[:size] = first
        for start in range(size, total, size):
            out[start : start + size] = compute(array[start : start + size])
        return out

    def run(self, images, batch_size: Optional[int] = None) -> np.ndarray:
        """Forward a dataset in chunks.

        Returns per-class collected intensities ``(B, C)`` for classifiers
        or output intensity maps ``(B, N, N)`` for segmentation models.
        A single unbatched sample (``(N, N)``, or ``(C, N, N)`` for
        multi-channel models) is forwarded unbatched / as a batch of one,
        mirroring the autograd models' semantics.
        """
        return self._batched(images, self._program.run, batch_size)

    def predict(self, images, batch_size: Optional[int] = None) -> np.ndarray:
        """Arg-max class predictions (classifier sessions only)."""
        if self.kind != "classifier":
            raise RuntimeError("predict() requires a classifier session; use predict_mask()")
        return self.run(images, batch_size=batch_size).argmax(axis=-1)

    def predict_mask(self, images, threshold: Optional[float] = None, batch_size: Optional[int] = None) -> np.ndarray:
        """Binary masks via per-image median threshold (segmentation only)."""
        if self.kind != "segmentation":
            raise RuntimeError("predict_mask() requires a segmentation session; use predict()")
        pattern = self.run(images, batch_size=batch_size)
        if threshold is not None:
            return (pattern >= threshold).astype(float)
        medians = np.median(pattern, axis=(-2, -1), keepdims=True)
        return (pattern >= medians).astype(float)

    def _full_plane_intensity(self) -> Callable[[np.ndarray], np.ndarray]:
        """Intensity fn over the whole detector plane.

        A collapsed program computes only the read-out pixels, so camera
        views come from a reference program emitted (lazily, once) from
        the unoptimized plan — same arrays, full plane.
        """
        if self._program.intensity is not None:
            return self._program.intensity
        if self._reference_program is None:
            self._reference_program = emit(self._raw_plan, self.fft)
        return self._reference_program.intensity

    def intensity_patterns(self, images, batch_size: Optional[int] = None) -> np.ndarray:
        """Detector-plane intensity images (what the CMOS camera records)."""
        return self._batched(images, self._full_plane_intensity(), batch_size)

    def read_detector(self, intensity: np.ndarray) -> np.ndarray:
        """Integrate intensity patterns over the per-class detector regions."""
        if self.kind != "classifier":
            raise RuntimeError("read_detector() requires a classifier session")
        return self._program.read(np.asarray(intensity, dtype=self._program.rdtype))


def compile(
    model_or_spec,
    *,
    optimize: Optional[str] = None,
    batch_size: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    dtype=None,
    max_operator_bytes: Optional[int] = None,
) -> InferenceSession:
    """Compile a trained model (or a :class:`SessionSpec`) for inference.

    The engine's front door: lowers the model to a plan, runs the
    optimization passes at the requested level, and emits an
    :class:`InferenceSession`.

    Parameters
    ----------
    model_or_spec:
        A :class:`DONN` / :class:`MultiChannelDONN` /
        :class:`SegmentationDONN`, or a picklable
        :class:`~repro.engine.SessionSpec` (whose recorded options become
        the defaults).
    optimize:
        ``"full"`` (default), ``"fuse"`` or ``"none"``; see
        :func:`repro.engine.passes.optimize_plan`.
    batch_size, backend, workers, dtype:
        As on :class:`InferenceSession`; ``None`` means "the spec's
        recorded value" when compiling a spec, the usual default
        otherwise.
    max_operator_bytes:
        As on :class:`InferenceSession`.
    """
    from repro.engine.spec import SessionSpec

    if isinstance(model_or_spec, SessionSpec):
        spec = model_or_spec
        model = pickle.loads(spec.model_blob)
        batch_size = spec.batch_size if batch_size is None else batch_size
        backend = spec.backend if backend is None else backend
        workers = spec.workers if workers is None else workers
        dtype = spec.dtype if dtype is None else dtype
        optimize = spec.optimize if optimize is None else optimize
    else:
        model = model_or_spec
        batch_size = 64 if batch_size is None else batch_size
        backend = "auto" if backend is None else backend
        dtype = "complex128" if dtype is None else dtype
        optimize = "full" if optimize is None else optimize
    return InferenceSession(
        model,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
        dtype=dtype,
        optimize=optimize,
        max_operator_bytes=max_operator_bytes,
    )
