"""Property-based tests (hypothesis) for the inference engine.

Engine/autograd parity must hold for *any* input shape, batch size and
chunk size, not just the handful pinned in ``tests/test_engine.py`` --
hypothesis searches that space.  CI sets ``DERANDOMIZE_CI=1``, which
derandomizes the suite's one settings profile (``tests/conftest.py``; the
tinygrad idiom), so the suite is reproducible run to run there while
still exploring locally.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.autograd import no_grad
from repro.engine import COMPLEX64_LOGIT_ATOL, compile as engine_compile

PARITY_ATOL = 1e-10
# Different chunkings batch the FFTs differently, which moves the last
# couple of float64 bits; anything above that is a real streaming bug.
CHUNKING_ATOL = 1e-12

_SYS_SIZES = (12, 16)
_FAMILIES = ("donn", "multichannel", "segmentation")
_NONLINEARITIES = (None, "saturable", "kerr")

_cache: dict = {}


def _config(sys_size: int) -> DONNConfig:
    return DONNConfig(
        sys_size=sys_size,
        pixel_size=36e-6,
        distance=0.05,
        wavelength=532e-9,
        num_layers=3,
        num_classes=4,
        det_size=3,
        seed=11,
    )


def _build(family: str, sys_size: int, nonlinearity):
    if family == "donn":
        return DONN(_config(sys_size), nonlinearity=nonlinearity)
    if family == "multichannel":
        return MultiChannelDONN(_config(sys_size), nonlinearity=nonlinearity)
    return SegmentationDONN(_config(sys_size), nonlinearity=nonlinearity)


def _model_and_session(family: str, sys_size: int, nonlinearity=None, dtype="complex128"):
    """Models/sessions are deterministic given the key; cache across examples."""
    key = (family, sys_size, nonlinearity, dtype)
    if key not in _cache:
        model_key = (family, sys_size, nonlinearity)
        if model_key not in _cache:
            _cache[model_key] = _build(family, sys_size, nonlinearity)
        _cache[key] = engine_compile(_cache[model_key], dtype=dtype)
    return _cache[(family, sys_size, nonlinearity)], _cache[key]


def _images(family: str, sys_size: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "multichannel":
        return rng.uniform(0.0, 1.0, size=(batch, 3, sys_size, sys_size))
    return rng.uniform(0.0, 1.0, size=(batch, sys_size, sys_size))


def _graph_eval(model, inputs) -> np.ndarray:
    was_training = model.training
    model.eval()
    with no_grad():
        out = np.asarray(model(inputs).data.real)
    model.train(was_training)
    return out


class TestEngineAutogradParity:
    @given(
        family=st.sampled_from(_FAMILIES),
        sys_size=st.sampled_from(_SYS_SIZES),
        batch=st.integers(min_value=1, max_value=7),
        chunk=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_parity_under_random_shapes_and_chunking(self, family, sys_size, batch, chunk, seed):
        """session.run == autograd eval for any batch/chunk combination."""
        model, session = _model_and_session(family, sys_size)
        images = _images(family, sys_size, batch, seed)
        engine = session.run(images, batch_size=chunk)
        np.testing.assert_allclose(engine, _graph_eval(model, images), atol=PARITY_ATOL)

    @given(
        nonlinearity=st.sampled_from(_NONLINEARITIES),
        batch=st.integers(min_value=1, max_value=5),
        chunk=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_nonlinear_models_keep_parity(self, nonlinearity, batch, chunk, seed):
        """NonlinearLayer compilation must not break engine/autograd parity."""
        model, session = _model_and_session("donn", 16, nonlinearity)
        images = _images("donn", 16, batch, seed)
        engine = session.run(images, batch_size=chunk)
        np.testing.assert_allclose(engine, _graph_eval(model, images), atol=PARITY_ATOL)


class TestStreamingProperties:
    @given(
        family=st.sampled_from(_FAMILIES),
        batch=st.integers(min_value=1, max_value=9),
        chunk_a=st.integers(min_value=1, max_value=12),
        chunk_b=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_chunking_is_invariant(self, family, batch, chunk_a, chunk_b, seed):
        """Any two chunk sizes -- including chunks larger than the batch --
        stream to the same result."""
        _, session = _model_and_session(family, 12)
        images = _images(family, 12, batch, seed)
        a = session.run(images, batch_size=chunk_a)
        b = session.run(images, batch_size=chunk_b)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=CHUNKING_ATOL)

    @given(
        batch=st.integers(min_value=1, max_value=6),
        chunk=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_predictions_match_model_for_any_chunking(self, batch, chunk, seed):
        model, session = _model_and_session("donn", 12)
        images = _images("donn", 12, batch, seed)
        np.testing.assert_array_equal(session.predict(images, batch_size=chunk), model.predict(images))


class TestReducedPrecisionProperties:
    @given(
        family=st.sampled_from(_FAMILIES),
        batch=st.integers(min_value=1, max_value=4),
        chunk=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_complex64_within_documented_budget(self, family, batch, chunk, seed):
        """complex64 logits/intensities stay within COMPLEX64_LOGIT_ATOL of
        the float64 engine for every model family."""
        _, exact = _model_and_session(family, 16)
        _, reduced = _model_and_session(family, 16, dtype="complex64")
        images = _images(family, 16, batch, seed)
        full = exact.run(images, batch_size=chunk)
        half = reduced.run(images, batch_size=chunk)
        assert half.dtype == np.float32
        np.testing.assert_allclose(half, full, atol=COMPLEX64_LOGIT_ATOL)
