"""Autograd-free batched inference for trained DONN systems.

Training needs the tape-based :class:`~repro.autograd.tensor.Tensor`
machinery; serving does not.  :func:`compile` — the engine's one front
door — runs a trained model through an explicit three-stage pipeline:

1. **lower** (:mod:`repro.engine.plan`): snapshot the model in eval mode
   into a :class:`~repro.engine.plan.Plan` of typed ops — every
   diffraction transfer function, phase modulation, Fraunhofer
   prefactor and detector read-out matrix captured as plain ndarrays;
2. **optimize** (:mod:`repro.engine.passes`): for nonlinearity-free
   classifiers, collapse the whole cascade into one precomputed
   input→detector operator pair;
3. **emit**: close the optimized ops over the FFT backend into the flat
   numpy program an :class:`InferenceSession` runs batches through.

The session itself is a thin executor: batching, tiles on threads
(:mod:`repro.autograd.tiles`), and introspection
(:meth:`InferenceSession.plan_summary` reports op counts before/after
the pass).  At the default ``dtype="complex128"`` outputs
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

from repro.autograd.fft import BACKEND_NAMES, get_fft_backend, usable_cores
from repro.autograd.tiles import run_tiles, tile_size
from repro.engine.plan import CompiledProgram, Plan, emit, lower
from repro.engine.passes import OPTIMIZE_LEVELS, optimize_plan

#: Accuracy budget of the reduced-precision engine: with
#: ``dtype="complex64"`` the detector logits (and segmentation intensity
#: maps) of unit-scale inputs agree with the ``complex128`` engine within
#: this absolute tolerance across all three model families.
COMPLEX64_LOGIT_ATOL = 1e-4


def _resolve_complex_dtype(dtype) -> np.dtype:
    refused = ValueError(f"dtype must be complex64 or complex128, got {dtype!r}")
    try:
        resolved = np.dtype(dtype)
    except TypeError:  # not a dtype at all, such as "bogus"
        raise refused from None
    if resolved not in (np.dtype(np.complex64), np.dtype(np.complex128)):
        raise refused
    return resolved


def check_options(*, batch_size: int, backend: str, workers: Optional[int], dtype, optimize: str) -> None:
    """Refuse session options by value: the one check ``compile`` and specs share.

    Raises ``ValueError`` for ``batch_size < 1``, ``workers < 1``, a
    ``dtype`` other than complex64/complex128, a backend name outside
    :data:`~repro.autograd.fft.BACKEND_NAMES` or an unknown ``optimize``
    level.  Whether the named backend is installed is checked when the
    session is built.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    _resolve_complex_dtype(dtype)
    if str(backend).lower() not in BACKEND_NAMES:
        raise ValueError(f"unknown FFT backend {backend!r}; choose from {BACKEND_NAMES}")
    if optimize not in OPTIMIZE_LEVELS:
        raise ValueError(f"optimize must be one of {OPTIMIZE_LEVELS}, got {optimize!r}")


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
        Default chunk size used by :meth:`run`/:meth:`predict`: no tile
        holds more images than this.
    backend:
        FFT backend: ``"auto"`` (scipy when installed, numpy otherwise),
        ``"scipy"`` or ``"numpy"``.
    workers:
        The number of threads the session runs on: a batch's tiles (and
        the collapse pass's operator build) spread over this many
        threads, each transform inside a tile single-threaded.  ``None``
        means :func:`~repro.autograd.fft.usable_cores`, resolved here;
        a replica worker passes its thread budget instead.  Outputs are
        bit-identical for any count.
    dtype:
        ``"complex128"`` (default, matches autograd to ``1e-10``) or
        ``"complex64"``: reduced-precision mode that halves cached-kernel
        and intermediate memory for memory-bound sizes, accurate to
        :data:`COMPLEX64_LOGIT_ATOL` on detector logits.
    optimize:
        ``"full"`` (default; collapse the cascade when
        :func:`~repro.engine.passes.collapse_cascade` accepts the plan)
        or ``"none"`` (emit the lowered plan verbatim).

    Raises
    ------
    ValueError
        For ``batch_size < 1``, ``workers < 1``, an unknown ``dtype``, an
        unknown ``backend`` name, or an unknown ``optimize`` level.
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
    started with.  One call additionally runs its tiles on ``workers``
    threads, started for the call and joined before it returns.
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
    ) -> None:
        check_options(batch_size=batch_size, backend=backend, workers=workers, dtype=dtype, optimize=optimize)
        self.batch_size = int(batch_size)
        self.dtype = _resolve_complex_dtype(dtype)
        self.optimize = optimize
        self.fft = get_fft_backend(backend)
        self._requested_workers = workers  # what to_spec() records: None stays None
        self.workers = usable_cores() if workers is None else int(workers)
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
        plan, report = optimize_plan(raw_plan, self.optimize, fft=self.fft, workers=self.workers)
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
        ``passes`` (which passes fired), ``collapsed`` (whether the
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
        rebuilt session uses the same FFT implementation as this one;
        ``workers`` is recorded as the caller gave it, so ``None`` stays
        ``None`` and each host that builds the spec resolves its own.

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
            workers=self._requested_workers,
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
    def _batched(
        self,
        images,
        program: CompiledProgram,
        compute: Callable[[np.ndarray], np.ndarray],
        batch_size: Optional[int],
    ):
        array = np.asarray(images, dtype=float)
        # Single-sample semantics mirror the models': MultiChannelDONN
        # promotes (C, H, W) to a batch of one, DONN/SegmentationDONN run
        # an (H, W) sample unbatched.
        if program.expects_channels:
            if array.ndim == 3:
                array = array[None]
        elif array.ndim == 2:
            return compute(array)
        tile = tile_size(program.field_bytes, batch_size or self.batch_size)
        total = len(array)
        if total <= tile:
            # One tile (every serving call at 64x64, a batch of one, an
            # empty query batch): one compute() on this thread, its output
            # returned as-is -- no scratch buffer, no helper thread.
            return compute(array)
        # This thread allocates the output, shaped by an empty batch.
        empty = compute(array[:0])
        out = np.empty((total,) + empty.shape[1:], dtype=empty.dtype)

        def fill(start: int, stop: int) -> None:
            out[start:stop] = compute(array[start:stop])

        run_tiles(fill, total, tile, self.workers)
        return out

    def run(self, images, batch_size: Optional[int] = None) -> np.ndarray:
        """Forward a dataset in tiles of at most ``batch_size`` images.

        Returns per-class collected intensities ``(B, C)`` for classifiers
        or output intensity maps ``(B, N, N)`` for segmentation models.
        A single unbatched sample (``(N, N)``, or ``(C, N, N)`` for
        multi-channel models) is forwarded unbatched / as a batch of one,
        mirroring the autograd models' semantics.
        """
        program = self._program
        return self._batched(images, program, program.run, batch_size)

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

    def _full_plane_program(self) -> CompiledProgram:
        """A program whose ``intensity`` covers the whole detector plane.

        A collapsed program computes only the read-out pixels, so camera
        views come from a reference program emitted (lazily, once) from
        the unoptimized plan — same arrays, full plane.
        """
        if self._program.intensity is not None:
            return self._program
        if self._reference_program is None:
            self._reference_program = emit(self._raw_plan, self.fft)
        return self._reference_program

    def intensity_patterns(self, images, batch_size: Optional[int] = None) -> np.ndarray:
        """Detector-plane intensity images (what the CMOS camera records)."""
        program = self._full_plane_program()
        return self._batched(images, program, program.intensity, batch_size)

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
) -> InferenceSession:
    """Compile a trained model (or a :class:`SessionSpec`) for inference.

    The engine's front door: lowers the model to a plan, runs the
    optimization pass at the requested level, and emits an
    :class:`InferenceSession`.

    Parameters
    ----------
    model_or_spec:
        A :class:`DONN` / :class:`MultiChannelDONN` /
        :class:`SegmentationDONN`, or a picklable
        :class:`~repro.engine.SessionSpec` (whose recorded options become
        the defaults).
    optimize:
        ``"full"`` (default) or ``"none"``; see
        :func:`repro.engine.passes.optimize_plan`.
    batch_size, backend, workers, dtype:
        As on :class:`InferenceSession`; ``None`` means "the spec's
        recorded value" when compiling a spec, the usual default
        otherwise.  ``workers`` is the number of threads the session
        runs on; left ``None`` (here and in the spec) it is this host's
        :func:`~repro.autograd.fft.usable_cores`.
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
    )
