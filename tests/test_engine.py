"""Tests for the autograd-free inference engine (``repro.engine``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DONN, MultiChannelDONN, SegmentationDONN
from repro.autograd import Module, no_grad
from repro.codesign import slm_profile
from repro.engine import (
    COMPLEX64_LOGIT_ATOL,
    available_backends,
    compile as engine_compile,
    get_fft_backend,
)
from repro.autograd import fft as engine_backends
from repro.train import evaluate_classifier
from repro.train.loop import evaluate_with_detector_noise

PARITY_ATOL = 1e-10


def graph_eval(model, inputs) -> np.ndarray:
    """Reference logits/patterns from the autograd path in eval mode."""
    was_training = model.training
    model.eval()
    with no_grad():
        out = np.asarray(model(inputs).data.real)
    model.train(was_training)
    return out


@pytest.fixture(scope="module")
def images(rng):
    return rng.uniform(0.0, 1.0, size=(12, 32, 32))


class TestParity:
    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_donn_parity_with_and_without_padding(self, small_config, images, pad_factor):
        model = DONN(small_config.with_updates(pad_factor=pad_factor))
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    @pytest.mark.parametrize("approx", ["fresnel", "fraunhofer"])
    def test_donn_parity_other_approximations(self, small_config, images, approx):
        model = DONN(small_config.with_updates(approx=approx))
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_codesign_donn_parity(self, small_config, images):
        model = DONN(small_config, device_profile=slm_profile(num_levels=16))
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_multichannel_parity(self, small_config, rng, pad_factor):
        model = MultiChannelDONN(small_config.with_updates(pad_factor=pad_factor))
        rgb = rng.uniform(0.0, 1.0, size=(6, 3, 32, 32))
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(rgb), graph_eval(model, rgb), atol=PARITY_ATOL)

    @pytest.mark.parametrize("use_skip", [True, False])
    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_segmentation_parity(self, small_config, images, use_skip, pad_factor):
        config = small_config.with_updates(num_layers=4, pad_factor=pad_factor)
        model = SegmentationDONN(config, use_skip=use_skip)
        session = engine_compile(model)
        assert session.kind == "segmentation"
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_predictions_match_model(self, small_config, images):
        model = DONN(small_config)
        session = engine_compile(model)
        np.testing.assert_array_equal(session.predict(images), model.predict(images))

    def test_session_snapshots_parameters(self, small_config, images):
        """Parameter updates after export only land after refresh()."""
        model = DONN(small_config)
        session = engine_compile(model)
        before = session.run(images)
        model.diffractive_layers[0].phase.data = model.diffractive_layers[0].phase.data + 0.5
        np.testing.assert_array_equal(session.run(images), before)
        session.refresh()
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_training_mode_restored_after_export(self, small_config):
        model = DONN(small_config)
        model.train()
        engine_compile(model)
        assert model.training
        model.eval()
        engine_compile(model)
        assert not model.training


class TestNonlinearCompilation:
    """Models with NonlinearLayer elements must compile and keep parity."""

    @pytest.mark.parametrize("nonlinearity", ["saturable", "kerr"])
    def test_donn_nonlinear_parity(self, small_config, images, nonlinearity):
        model = DONN(small_config, nonlinearity=nonlinearity)
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_codesign_nonlinear_parity(self, small_config, images):
        model = DONN(small_config, device_profile=slm_profile(num_levels=16), nonlinearity="kerr")
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_multichannel_nonlinear_parity(self, small_config, rng):
        model = MultiChannelDONN(small_config, nonlinearity="saturable")
        rgb = rng.uniform(0.0, 1.0, size=(5, 3, 32, 32))
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(rgb), graph_eval(model, rgb), atol=PARITY_ATOL)

    @pytest.mark.parametrize("use_skip", [True, False])
    def test_segmentation_nonlinear_parity(self, small_config, images, use_skip):
        model = SegmentationDONN(small_config.with_updates(num_layers=4), use_skip=use_skip, nonlinearity="kerr")
        session = engine_compile(model)
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_unsupported_nonlinearity_rejected_at_compile(self, small_config):
        class Opaque(Module):
            def forward(self, field):
                return field

        model = DONN(small_config)
        model.nonlinearity = Opaque()  # bypasses make_nonlinearity validation
        with pytest.raises(TypeError, match="apply_numpy"):
            engine_compile(model)


class TestReducedPrecision:
    """dtype="complex64": half the memory, documented accuracy budget."""

    def test_donn_within_budget(self, small_config, images):
        model = DONN(small_config)
        full = engine_compile(model).run(images)
        half = engine_compile(model, dtype="complex64").run(images)
        assert half.dtype == np.float32
        np.testing.assert_allclose(half, full, atol=COMPLEX64_LOGIT_ATOL)

    def test_multichannel_within_budget(self, small_config, rng):
        model = MultiChannelDONN(small_config)
        rgb = rng.uniform(0.0, 1.0, size=(4, 3, 32, 32))
        full = engine_compile(model).run(rgb)
        half = engine_compile(model, dtype="complex64").run(rgb)
        np.testing.assert_allclose(half, full, atol=COMPLEX64_LOGIT_ATOL)

    def test_segmentation_within_budget(self, small_config, images):
        model = SegmentationDONN(small_config.with_updates(num_layers=3))
        full = engine_compile(model).run(images)
        half = engine_compile(model, dtype="complex64").run(images)
        np.testing.assert_allclose(half, full, atol=COMPLEX64_LOGIT_ATOL)

    def test_nonlinear_complex64_stays_complex64(self, small_config, images):
        """Nonlinearities must not silently promote back to complex128."""
        model = DONN(small_config, nonlinearity="kerr")
        session = engine_compile(model, dtype="complex64")
        pattern = session.intensity_patterns(images)
        assert pattern.dtype == np.float32
        np.testing.assert_allclose(
            session.run(images), engine_compile(model).run(images), atol=COMPLEX64_LOGIT_ATOL
        )

    @pytest.mark.parametrize("backend", ["numpy", "scipy"])
    def test_backends_preserve_complex64(self, backend):
        if backend == "scipy" and "scipy" not in available_backends():
            pytest.skip("scipy not installed")
        fft = get_fft_backend(backend)
        field = np.ones((2, 8, 8), dtype=np.complex64)
        assert fft.fft2(field).dtype == np.complex64
        assert fft.ifft2(field).dtype == np.complex64
        field128 = np.ones((2, 8, 8), dtype=np.complex128)
        assert fft.fft2(field128).dtype == np.complex128

    def test_dtype_accepts_aliases_and_rejects_garbage(self, small_config):
        model = DONN(small_config)
        assert engine_compile(model, dtype=np.complex64).dtype == np.complex64
        assert engine_compile(model, dtype="complex128").dtype == np.complex128
        with pytest.raises(ValueError, match="complex64 or complex128"):
            engine_compile(model, dtype="float32")

    def test_predictions_usually_match_full_precision(self, small_config, images):
        model = DONN(small_config)
        full = engine_compile(model).predict(images)
        half = engine_compile(model, dtype="complex64").predict(images)
        np.testing.assert_array_equal(half, full)


class TestStreaming:
    def test_chunked_streaming_equivalence(self, small_config, images):
        """batch_size 1 and 64 must give the same outputs."""
        session = engine_compile(DONN(small_config))
        one = session.run(images, batch_size=1)
        many = session.run(images, batch_size=64)
        np.testing.assert_allclose(one, many, rtol=0.0, atol=1e-12)

    def test_default_batch_size_streams_all_inputs(self, small_config, images):
        session = engine_compile(DONN(small_config), batch_size=5)
        assert session.run(images).shape == (len(images), 10)

    def test_single_sample_has_no_batch_axis(self, small_config, images):
        session = engine_compile(DONN(small_config))
        assert session.run(images[0]).shape == (10,)
        assert session.predict(images[:3]).shape == (3,)

    def test_multichannel_single_sample_promoted_like_model(self, small_config, rng):
        model = MultiChannelDONN(small_config)
        session = engine_compile(model)
        sample = rng.uniform(0.0, 1.0, size=(3, 32, 32))
        assert session.run(sample).shape == graph_eval(model, sample).shape == (1, 10)
        np.testing.assert_array_equal(session.predict(sample), model.predict(sample))

    def test_empty_batch_yields_empty_logits(self, small_config):
        session = engine_compile(DONN(small_config))
        assert session.run(np.zeros((0, 32, 32))).shape == (0, 10)

    def test_chunk_larger_than_batch_runs_one_pass_without_scratch_copy(self, small_config, images):
        """chunk_size > len(batch) must mean a single program call whose
        output is returned as-is (no scratch buffer, no concatenate copy)."""
        session = engine_compile(DONN(small_config))
        program = session._program
        calls = []
        original = program.run

        def counting_run(batch):
            calls.append(len(batch))
            return original(batch)

        program.run = counting_run
        out = session.run(images, batch_size=len(images) + 100)
        assert calls == [len(images)]
        np.testing.assert_allclose(out, original(np.asarray(images, dtype=float)), atol=1e-12)

        sentinel = np.zeros((len(images), 10))
        program.run = lambda batch: sentinel
        assert session.run(images, batch_size=10_000) is sentinel

    def test_batch_of_one_streams_without_scratch_copy(self, small_config, images):
        """A (1, H, W) batch is one direct program call at any chunk size."""
        session = engine_compile(DONN(small_config))
        single = images[:1]
        reference = graph_eval(DONN(small_config), single)
        for chunk in (1, 4, 64):
            program = session._program
            calls = []
            original = program.run

            def counting_run(batch, _calls=calls, _original=original):
                _calls.append(len(batch))
                return _original(batch)

            program.run = counting_run
            out = session.run(single, batch_size=chunk)
            program.run = original
            assert calls == [1]
            assert out.shape == (1, 10)
            np.testing.assert_allclose(out, reference, atol=PARITY_ATOL)

    def test_multi_chunk_streaming_preallocates_correctly(self, small_config, images):
        """Uneven chunking (7 images, chunks of 3) fills the output exactly."""
        session = engine_compile(DONN(small_config))
        seven = images[:7]
        chunked = session.run(seven, batch_size=3)
        whole = session.run(seven, batch_size=64)
        assert chunked.shape == whole.shape == (7, 10)
        np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=1e-12)

    def test_invalid_batch_size_rejected(self, small_config):
        with pytest.raises(ValueError):
            engine_compile(DONN(small_config), batch_size=0)


class TestBackends:
    def test_numpy_fallback_when_scipy_missing(self, monkeypatch, small_config, images):
        """With scipy unavailable, auto selection degrades to numpy."""
        monkeypatch.setattr(engine_backends, "_import_scipy_fft", lambda: None)
        assert available_backends() == ("numpy",)
        backend = get_fft_backend("auto")
        assert backend.name == "numpy"
        model = DONN(small_config)
        session = engine_compile(model)
        assert session.backend_name == "numpy"
        np.testing.assert_allclose(session.run(images), graph_eval(model, images), atol=PARITY_ATOL)

    def test_scipy_request_without_scipy_raises(self, monkeypatch):
        monkeypatch.setattr(engine_backends, "_import_scipy_fft", lambda: None)
        with pytest.raises(RuntimeError):
            get_fft_backend("scipy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_fft_backend("fftw")

    def test_numpy_and_auto_backends_agree(self, small_config, images):
        model = DONN(small_config)
        auto = engine_compile(model).run(images)
        explicit = engine_compile(model, backend="numpy").run(images)
        np.testing.assert_allclose(auto, explicit, atol=PARITY_ATOL)

    def test_workers_forwarded(self, small_config, images):
        session = engine_compile(DONN(small_config), workers=2)
        assert session.run(images).shape == (len(images), 10)


class TestSessionAPI:
    def test_unsupported_model_rejected(self, small_grid):
        from repro.layers.detector import Detector

        with pytest.raises(TypeError):
            engine_compile(Detector(small_grid, num_classes=10))

    def test_classifier_only_methods_guarded(self, small_config, images):
        seg = engine_compile(SegmentationDONN(small_config.with_updates(num_layers=3)))
        with pytest.raises(RuntimeError):
            seg.predict(images)
        clf = engine_compile(DONN(small_config))
        with pytest.raises(RuntimeError):
            clf.predict_mask(images)

    def test_segmentation_predict_mask_matches_model(self, small_config, images):
        model = SegmentationDONN(small_config.with_updates(num_layers=3))
        session = engine_compile(model)
        np.testing.assert_array_equal(session.predict_mask(images), model.predict_mask(images))

    def test_detector_pattern_and_read(self, small_config, images):
        model = DONN(small_config)
        session = engine_compile(model)
        pattern = session.intensity_patterns(images)
        assert pattern.shape == (len(images), 32, 32)
        np.testing.assert_allclose(session.read_detector(pattern), session.run(images), atol=PARITY_ATOL)


class TestEvaluateIntegration:
    def test_evaluate_classifier_engine_path_matches(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        model = DONN(small_config)
        graph_acc = evaluate_classifier(model, train_x[:40], train_y[:40])
        engine_acc = evaluate_classifier(model, train_x[:40], train_y[:40], use_engine=True)
        assert graph_acc == pytest.approx(engine_acc)

    def test_evaluate_with_detector_noise_engine_path_matches(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        model = DONN(small_config)
        graph = evaluate_with_detector_noise(model, train_x[:32], train_y[:32], noise_level=0.03, seed=5)
        engine = evaluate_with_detector_noise(
            model, train_x[:32], train_y[:32], noise_level=0.03, seed=5, use_engine=True
        )
        assert graph["accuracy"] == pytest.approx(engine["accuracy"])
        assert graph["confidence"] == pytest.approx(engine["confidence"], abs=1e-9)

    def test_evaluate_restores_previous_mode(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        model = DONN(small_config)
        model.eval()
        evaluate_classifier(model, train_x[:16], train_y[:16])
        assert not model.training, "evaluate_classifier must restore the pre-call eval mode"
        model.train()
        evaluate_classifier(model, train_x[:16], train_y[:16])
        assert model.training
        model.eval()
        evaluate_with_detector_noise(model, train_x[:16], train_y[:16], noise_level=0.01)
        assert not model.training
