"""Property-based tests for the engine's plan IR and optimization passes.

The fused program (``repro.engine.compile(model, optimize="full")``) must
be *indistinguishable* from the unoptimized one (``optimize="none"``) on
every model family, depth, nonlinearity and dtype -- a plan rewrite that
moves a logit is a miscompilation, not an optimization.  Hypothesis
searches that space.  Parity is asserted at ``1e-10`` for ``complex128``;
``complex64`` programs compare at the engine's documented
:data:`~repro.engine.COMPLEX64_LOGIT_ATOL` budget (float32 arithmetic
cannot express a 1e-10 bound).

Also covered: the collapse guarantee (a nonlinearity-free classifier
plan folds to a single precomputed input→detector operator, asserted via
``plan_summary()``), the local rewrites on a zero-phase cascade, the
transpose rules behind the adjoint operator build, the operator budget
gate, ``refresh()`` as a re-compile, and the deprecation shims.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.engine import COMPLEX64_LOGIT_ATOL, InferenceSession, compile as engine_compile
from repro.autograd.fft import get_fft_backend
from repro.engine.plan import Encode, Intensity, count_ops, emit_ops, lower
from repro.engine.passes import optimize_plan, transpose_linear_ops

PARITY_ATOL = 1e-10

_SYS_SIZES = (12, 16)
_FAMILIES = ("donn", "multichannel", "segmentation")
_NONLINEARITIES = (None, "saturable", "kerr")
_DEPTHS = (3, 4, 5)

_cache: dict = {}


def _config(sys_size: int, num_layers: int = 3, **overrides) -> DONNConfig:
    base = dict(
        sys_size=sys_size,
        pixel_size=36e-6,
        distance=0.05,
        wavelength=532e-9,
        num_layers=num_layers,
        num_classes=4,
        det_size=3,
        seed=11,
    )
    base.update(overrides)
    return DONNConfig(**base)


def _model(family: str, sys_size: int, num_layers: int, nonlinearity):
    key = ("model", family, sys_size, num_layers, nonlinearity)
    if key not in _cache:
        config = _config(sys_size, num_layers)
        if family == "donn":
            _cache[key] = DONN(config, nonlinearity=nonlinearity)
        elif family == "multichannel":
            _cache[key] = MultiChannelDONN(config, nonlinearity=nonlinearity)
        else:
            _cache[key] = SegmentationDONN(config, nonlinearity=nonlinearity)
    return _cache[key]


def _session(family: str, sys_size: int, num_layers: int, nonlinearity, optimize: str, dtype: str):
    key = ("session", family, sys_size, num_layers, nonlinearity, optimize, dtype)
    if key not in _cache:
        model = _model(family, sys_size, num_layers, nonlinearity)
        _cache[key] = engine_compile(model, optimize=optimize, dtype=dtype)
    return _cache[key]


def _images(family: str, sys_size: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "multichannel":
        return rng.uniform(0.0, 1.0, size=(batch, 3, sys_size, sys_size))
    return rng.uniform(0.0, 1.0, size=(batch, sys_size, sys_size))


def _zero_phase_donn(sys_size: int = 12, num_layers: int = 4) -> DONN:
    """A cascade whose modulations are exactly one (e^{j0}): every
    inter-layer IFFT/FFT pair is then an identity the passes must fold."""
    model = DONN(_config(sys_size, num_layers))
    for layer in model.diffractive_layers:
        layer.phase.data = np.zeros_like(layer.phase.data)
    return model


# --------------------------------------------------------------------- #
# Fused vs unfused parity (the core property)
# --------------------------------------------------------------------- #
class TestFusedUnfusedParity:
    @given(
        family=st.sampled_from(_FAMILIES),
        sys_size=st.sampled_from(_SYS_SIZES),
        num_layers=st.sampled_from(_DEPTHS),
        nonlinearity=st.sampled_from(_NONLINEARITIES),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_complex128_parity_at_1e10(self, family, sys_size, num_layers, nonlinearity, batch, seed):
        fused = _session(family, sys_size, num_layers, nonlinearity, "full", "complex128")
        unfused = _session(family, sys_size, num_layers, nonlinearity, "none", "complex128")
        images = _images(family, sys_size, batch, seed)
        np.testing.assert_allclose(fused.run(images), unfused.run(images), atol=PARITY_ATOL)

    @given(
        family=st.sampled_from(_FAMILIES),
        num_layers=st.sampled_from(_DEPTHS),
        nonlinearity=st.sampled_from(_NONLINEARITIES),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_complex64_parity_within_engine_budget(self, family, num_layers, nonlinearity, batch, seed):
        """float32 programs compare at the engine's documented budget --
        a 1e-10 bound is not expressible in complex64 arithmetic."""
        fused = _session(family, 16, num_layers, nonlinearity, "full", "complex64")
        unfused = _session(family, 16, num_layers, nonlinearity, "none", "complex64")
        images = _images(family, 16, batch, seed)
        fused_out = fused.run(images)
        assert fused_out.dtype == np.float32
        np.testing.assert_allclose(fused_out, unfused.run(images), atol=COMPLEX64_LOGIT_ATOL)

    @given(
        approx=st.sampled_from(("fraunhofer", "fresnel")),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_other_approximations_keep_parity(self, approx, batch, seed):
        key = ("approx", approx)
        if key not in _cache:
            model = DONN(_config(16, 3, approx=approx))
            _cache[key] = (
                engine_compile(model, optimize="full"),
                engine_compile(model, optimize="none"),
            )
        fused, unfused = _cache[key]
        images = _images("donn", 16, batch, seed)
        np.testing.assert_allclose(fused.run(images), unfused.run(images), atol=PARITY_ATOL)

    @given(batch=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=2**16))
    def test_padded_propagation_keeps_parity(self, batch, seed):
        """pad_factor=2 exercises the pad/crop transpose rules in the
        adjoint operator build."""
        key = ("padded",)
        if key not in _cache:
            model = DONN(_config(12, 3, pad_factor=2))
            _cache[key] = (
                engine_compile(model, optimize="full"),
                engine_compile(model, optimize="none"),
            )
        fused, unfused = _cache[key]
        assert fused.plan_summary()["collapsed"]
        images = _images("donn", 12, batch, seed)
        np.testing.assert_allclose(fused.run(images), unfused.run(images), atol=PARITY_ATOL)


# --------------------------------------------------------------------- #
# The collapse guarantee and the local rewrites
# --------------------------------------------------------------------- #
class TestPlanOptimization:
    def test_linear_classifier_collapses_to_single_operator(self):
        """Acceptance: a nonlinearity-free model's plan collapses to one
        precomputed input->detector operator (via plan_summary())."""
        session = _session("donn", 16, 4, None, "full", "complex128")
        summary = session.plan_summary()
        assert summary["collapsed"]
        assert summary["fft_ops_after"] == 0
        assert summary["ops_after"] == {"Encode": 1, "DetectorOperator": 1, "ReadIntensity": 1}
        assert summary["fft_ops_before"] == 2 * (4 + 1)  # FFT+IFFT per propagator
        assert "collapse_cascade" in summary["passes"]

    def test_multichannel_collapses_per_branch(self):
        session = _session("multichannel", 12, 3, None, "full", "complex128")
        summary = session.plan_summary()
        assert summary["collapsed"]
        assert summary["ops_after"]["DetectorOperator"] == 3
        assert summary["fft_ops_after"] == 0

    def test_nonlinear_model_does_not_collapse(self):
        session = _session("donn", 12, 3, "saturable", "full", "complex128")
        summary = session.plan_summary()
        assert not summary["collapsed"]
        assert summary["ops_after"]["Nonlinear"] == 3
        assert summary["fft_ops_after"] == summary["fft_ops_before"]

    def test_segmentation_never_collapses(self):
        """The whole output plane is the answer: a dense operator would be
        a pessimization, so the collapse is gated to classifiers."""
        session = _session("segmentation", 12, 3, None, "full", "complex128")
        assert not session.plan_summary()["collapsed"]

    def test_zero_phase_cascade_folds_to_one_transform_pair(self):
        """Dead-kernel elimination exposes IFFT/FFT identity pairs, which
        cancel, and the surviving transfer functions fuse into one
        product: FFT -> PointwiseMul -> IFFT, whatever the depth."""
        model = _zero_phase_donn(num_layers=4)
        session = engine_compile(model, optimize="fuse")
        summary = session.plan_summary()
        assert summary["fft_ops_before"] == 10
        assert summary["fft_ops_after"] == 2
        assert summary["ops_after"]["PointwiseMul"] == 1
        for rewrite in ("eliminate_dead_kernels", "cancel_transform_pairs", "fuse_pointwise"):
            assert rewrite in summary["passes"]
        images = _images("donn", 12, 3, 7)
        reference = engine_compile(model, optimize="none").run(images)
        np.testing.assert_allclose(session.run(images), reference, atol=PARITY_ATOL)

    def test_operator_budget_gates_collapse(self):
        model = _model("donn", 12, 3, None)
        gated = engine_compile(model, max_operator_bytes=1)
        assert not gated.plan_summary()["collapsed"]
        reference = engine_compile(model, optimize="none")
        images = _images("donn", 12, 2, 3)
        np.testing.assert_allclose(gated.run(images), reference.run(images), atol=PARITY_ATOL)

    def test_transposed_chain_computes_operator_rows(self):
        """The adjoint build's core identity: pushing a one-hot output
        field through the transposed linear chain yields the matching row
        of the forward operator -- forward(x)[p] == row_p . x."""
        model = _model("donn", 12, 2, None)
        plan = lower(model, "complex128")
        ops = plan.branches[0].ops
        assert isinstance(ops[0], Encode) and isinstance(ops[-1], Intensity)
        linear = ops[1:-1]
        fft = get_fft_backend("numpy")
        forward = emit_ops(linear, fft, plan.cdtype)
        size = plan.grid.size
        rng = np.random.default_rng(5)
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        out = forward(x.astype(plan.cdtype))
        transposed = transpose_linear_ops(linear)
        for flat_index in (0, 37, size * size - 1):
            basis = np.zeros((size, size), dtype=plan.cdtype)
            basis[flat_index // size, flat_index % size] = 1.0
            row = emit_ops(transposed, fft, plan.cdtype)(basis)
            np.testing.assert_allclose(
                np.sum(row * x), out.reshape(-1)[flat_index], atol=1e-12
            )

    def test_optimize_levels_are_validated(self):
        model = _model("donn", 12, 3, None)
        with pytest.raises(ValueError, match="optimize"):
            engine_compile(model, optimize="aggressive")
        with pytest.raises(ValueError, match="optimize"):
            optimize_plan(lower(model, "complex128"), "aggressive")

    def test_optimize_none_leaves_plan_untouched(self):
        session = _session("donn", 12, 3, None, "none", "complex128")
        summary = session.plan_summary()
        assert summary["passes"] == [] and not summary["collapsed"]
        assert summary["ops_before"] == summary["ops_after"]
        assert count_ops(session.plan) == count_ops(session.unoptimized_plan)


# --------------------------------------------------------------------- #
# Collapsed sessions keep the full session surface
# --------------------------------------------------------------------- #
class TestCollapsedSessionSurface:
    def test_intensity_patterns_still_full_plane(self):
        """The collapsed program only computes the read-out pixels; the
        camera view must still be the whole detector plane."""
        model = _model("donn", 16, 3, None)
        fused = engine_compile(model, optimize="full")
        unfused = engine_compile(model, optimize="none")
        images = _images("donn", 16, 3, 1)
        patterns = fused.intensity_patterns(images)
        assert patterns.shape == (3, 16, 16)
        np.testing.assert_allclose(patterns, unfused.intensity_patterns(images), atol=PARITY_ATOL)
        np.testing.assert_allclose(
            fused.read_detector(patterns), fused.run(images), atol=PARITY_ATOL
        )

    def test_spec_round_trip_preserves_optimize_level(self):
        model = _model("donn", 12, 3, None)
        for level in ("full", "none"):
            session = engine_compile(model, optimize=level)
            spec = session.to_spec()
            assert spec.optimize == level
            rebuilt = spec.build()
            assert rebuilt.optimize == level
            assert rebuilt.plan_summary()["collapsed"] == (level == "full")
            images = _images("donn", 12, 2, 9)
            np.testing.assert_allclose(rebuilt.run(images), session.run(images), atol=PARITY_ATOL)

    def test_spec_pickle_smaller_than_session_kernels(self):
        """Propagators rebuild their cached kernels on unpickle, so the
        spec blob must not pay for them."""
        model = _model("donn", 16, 4, None)
        spec = engine_compile(model).to_spec()
        blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        kernel_bytes = 5 * (16 * 16) * 16  # 5 complex128 transfer functions
        parameter_bytes = sum(p.data.nbytes for p in model.parameters())
        assert len(blob) < parameter_bytes + kernel_bytes


# --------------------------------------------------------------------- #
# refresh() as re-compile, deprecation shims
# --------------------------------------------------------------------- #
class TestRefreshRecompiles:
    def test_refresh_picks_up_retrained_weights(self, rng):
        """Regression for the satellite: refresh re-runs the full
        compile pipeline, so a collapsed operator is rebuilt from the new
        weights (not patched from stale cached arrays)."""
        model = DONN(_config(12, 3))
        session = engine_compile(model)
        images = _images("donn", 12, 3, 13)
        stale = session.run(images)
        for parameter in model.parameters():
            # Non-uniform perturbation: a constant phase offset is a
            # global phase factor, invisible to detector intensity.
            parameter.data = parameter.data + rng.uniform(0.0, 1.0, size=parameter.data.shape)
        assert np.abs(session.run(images) - stale).max() < PARITY_ATOL  # still the snapshot
        session.refresh()
        reference = engine_compile(model, optimize="none").run(images)
        refreshed = session.run(images)
        assert session.plan_summary()["collapsed"]
        np.testing.assert_allclose(refreshed, reference, atol=PARITY_ATOL)
        assert np.abs(refreshed - stale).max() > 1e-6

    def test_refresh_returns_self(self):
        session = engine_compile(DONN(_config(12, 3)))
        assert session.refresh() is session


class TestDeprecatedEntryPoints:
    """compile() is the only front door; the removed shims stay removed."""

    def test_direct_constructor_is_refused(self):
        with pytest.raises(TypeError):
            InferenceSession(_model("donn", 12, 3, None))

    def test_every_front_door_refuses_the_same_non_compilable_object(self, tmp_path):
        from repro.autograd import Sequential
        from repro.serve import InferenceServer, SessionRegistry
        from repro.store import ModelStore

        stranger = Sequential()  # a Module, but not one of the compilable families
        with pytest.raises(TypeError, match="cannot compile"):
            engine_compile(stranger)
        with pytest.raises(TypeError, match="cannot compile"):
            ModelStore(tmp_path).publish("m", stranger)
        with pytest.raises(TypeError, match="cannot compile"):
            SessionRegistry().register("m", stranger)
        with pytest.raises(TypeError, match="cannot compile"):
            InferenceServer().add_model("m", stranger, replicas=2)

    def test_compile_rejects_unsupported_models(self):
        with pytest.raises(TypeError, match="cannot compile"):
            engine_compile(object())
