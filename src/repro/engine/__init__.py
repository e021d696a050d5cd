"""Inference engine: autograd-free batched serving of trained DONNs.

Public surface:

* :func:`compile` -- the one front door: lower a trained ``DONN`` /
  ``MultiChannelDONN`` / ``SegmentationDONN`` (or a
  :class:`SessionSpec`) to the :mod:`~repro.engine.plan` IR, run the
  :mod:`~repro.engine.passes` optimizations (fusion, FFT-pair
  cancellation, dead-kernel elimination, cascade collapse), and emit an
  :class:`InferenceSession`.
* :class:`InferenceSession` -- the thin executor over the emitted plan
  (batching, streaming, ``plan_summary()`` introspection).
* :func:`get_fft_backend` / :func:`available_backends` -- the FFT
  dispatch layer (scipy with thread workers when installed, numpy
  fallback otherwise), re-exported from :mod:`repro.autograd.fft`, which
  autograd's training kernels share.
* :class:`SessionSpec` -- picklable recipe (``session.to_spec()`` /
  ``spec.build()``) that lets ``repro.cluster`` rebuild the session in a
  spawned worker process; ``SessionSpec.of`` specs out a model, session
  or spec for the store and the cluster.
* :mod:`repro.engine.plan` / :mod:`repro.engine.passes` -- the plan IR
  (``lower`` / ``emit`` / ``format_plan``) and its optimization passes
  (``optimize_plan``), for tooling such as ``tools/dump_plan.py``.
"""

from repro.autograd.fft import (
    NumpyFFTBackend,
    ScipyFFTBackend,
    available_backends,
    get_fft_backend,
)
from repro.engine.passes import OPTIMIZE_LEVELS, optimize_plan
from repro.engine.plan import Plan, count_ops, emit, format_plan, lower
from repro.engine.session import COMPLEX64_LOGIT_ATOL, InferenceSession, compile
from repro.engine.spec import SessionSpec

__all__ = [
    "compile",
    "InferenceSession",
    "SessionSpec",
    "COMPLEX64_LOGIT_ATOL",
    "OPTIMIZE_LEVELS",
    "Plan",
    "lower",
    "emit",
    "count_ops",
    "format_plan",
    "optimize_plan",
    "available_backends",
    "get_fft_backend",
    "NumpyFFTBackend",
    "ScipyFFTBackend",
]
