"""Tests for the baselines: LightPipes-style emulator, digital NNs, regularization."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.baselines import (
    CNNBaseline,
    KernelTimings,
    LightPipesEmulator,
    MLPBaseline,
    build_baseline_donn,
    build_regularized_donn,
    calibrate_amplitude_factor,
)
from repro.models import DONN, DONNConfig
from repro.optics import RayleighSommerfeldPropagator, SpatialGrid
from repro.train import Trainer


class TestLightPipesEmulator:
    @pytest.fixture(scope="class")
    def grid(self):
        return SpatialGrid(size=32, pixel_size=10e-6)

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError):
            LightPipesEmulator(grid, wavelength=-1.0, distance=0.01)

    def test_field_shape_checked(self, grid):
        emulator = LightPipesEmulator(grid, 532e-9, 0.01)
        with pytest.raises(ValueError):
            emulator.propagate(np.zeros((8, 8), dtype=complex))

    def test_propagation_matches_optimised_kernel(self, grid, rng):
        """The reference emulator and the tensor kernel evaluate the same
        physics, so their output fields must agree to numerical precision."""
        field = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        reference = LightPipesEmulator(grid, 532e-9, 0.01).propagate(field)
        optimised = RayleighSommerfeldPropagator(grid, 532e-9, 0.01)(Tensor(field)).data
        np.testing.assert_allclose(reference, optimised, atol=1e-9)

    def test_run_layer_applies_phase_screen(self, grid, rng):
        emulator = LightPipesEmulator(grid, 532e-9, 0.01)
        field = rng.normal(size=grid.shape).astype(complex)
        phase = rng.uniform(0, 2 * np.pi, size=grid.shape)
        layered = emulator.run_layer(field, phase)
        np.testing.assert_allclose(np.abs(layered), np.abs(emulator.propagate(field)), atol=1e-9)

    def test_run_donn_matches_donn_model_detector_pattern(self, rng):
        """A full multi-layer emulation must match the DONN model's pattern."""
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=3, seed=0, amplitude_factor=1.0)
        model = DONN(config)
        images = rng.uniform(size=(2, 32, 32))
        with no_grad():
            expected = model.detector_pattern(images).data
        emulator = LightPipesEmulator(config.grid, config.wavelength, config.distance)
        fields = model.encode(images).data
        outputs = emulator.run_donn(list(fields), model.phase_patterns())
        np.testing.assert_allclose(np.stack(outputs), expected, atol=1e-8)

    def test_timings_recorded_and_reset(self, grid, rng):
        emulator = LightPipesEmulator(grid, 532e-9, 0.01)
        emulator.run_donn([rng.normal(size=grid.shape).astype(complex)], [np.zeros(grid.shape)])
        assert emulator.timings.fft2 > 0
        assert emulator.timings.ifft2 > 0
        assert emulator.timings.complex_multiply > 0
        assert emulator.timings.total() > 0
        emulator.reset_timings()
        assert emulator.timings.total() == 0.0

    def test_kernel_timings_accumulate(self):
        total = KernelTimings(fft2=1.0, ifft2=2.0)
        total += KernelTimings(fft2=0.5, complex_multiply=1.0)
        assert total.fft2 == 1.5
        assert total.as_dict()["complex_multiply"] == 1.0


class TestDigitalBaselines:
    def test_mlp_forward_shape(self, rng):
        model = MLPBaseline(input_size=64, hidden=16, num_classes=10)
        logits = model(rng.normal(size=(5, 8, 8)))
        assert logits.shape == (5, 10)

    def test_mlp_operation_count(self):
        model = MLPBaseline(input_size=100, hidden=20, num_classes=10)
        assert model.operation_count() == 100 * 20 + 20 * 10

    def test_mlp_learns_digits(self, tiny_digits):
        train_x, train_y, test_x, test_y = tiny_digits
        model = MLPBaseline(input_size=32 * 32, hidden=32, num_classes=10, seed=0)
        trainer = Trainer(model, num_classes=10, learning_rate=0.005, batch_size=25, loss="cross_entropy", seed=0)
        result = trainer.fit(train_x, train_y, epochs=10, test_images=test_x, test_labels=test_y)
        assert result.final_test_accuracy > 0.6

    def test_cnn_forward_shape(self, rng):
        model = CNNBaseline(image_size=28, num_classes=10, hidden=32)
        logits = model(rng.normal(size=(3, 28, 28)))
        assert logits.shape == (3, 10)

    def test_cnn_accepts_channel_dimension(self, rng):
        model = CNNBaseline(image_size=28)
        logits = model(Tensor(rng.normal(size=(2, 1, 28, 28))))
        assert logits.shape == (2, 10)

    def test_cnn_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            CNNBaseline(image_size=4)

    def test_cnn_operation_count_exceeds_mlp_for_same_input(self):
        cnn = CNNBaseline(image_size=28)
        mlp = MLPBaseline(input_size=28 * 28)
        assert cnn.operation_count() > 0
        assert mlp.operation_count() > 0

    def test_cnn_trains_on_small_subset(self, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        small_x, small_y = train_x[:40], train_y[:40]
        model = CNNBaseline(image_size=32, num_classes=10, hidden=16, seed=0)
        trainer = Trainer(model, num_classes=10, learning_rate=0.01, batch_size=10, loss="cross_entropy", seed=0)
        result = trainer.fit(small_x, small_y, epochs=3)
        assert result.losses[-1] < result.losses[0]


class TestRegularizationCalibration:
    def test_gamma_brings_logits_to_target(self, small_config, tiny_digits):
        train_x = tiny_digits[0]
        probe = DONN(small_config.with_updates(amplitude_factor=1.0))
        gamma = calibrate_amplitude_factor(probe, train_x[:8], target=1.0)
        calibrated = DONN(small_config.with_updates(amplitude_factor=gamma))
        with no_grad():
            logits = calibrated(train_x[:8]).data.real
        assert logits.max(axis=-1).mean() == pytest.approx(1.0, rel=0.05)

    def test_invalid_target_rejected(self, small_config, tiny_digits):
        probe = DONN(small_config)
        with pytest.raises(ValueError):
            calibrate_amplitude_factor(probe, tiny_digits[0][:4], target=0.0)

    def test_build_regularized_sets_gamma(self, small_config, tiny_digits):
        model = build_regularized_donn(small_config, tiny_digits[0][:8])
        assert model.config.amplitude_factor != 1.0

    def test_build_baseline_keeps_gamma_one(self, small_config):
        assert build_baseline_donn(small_config).config.amplitude_factor == 1.0

    @pytest.mark.slow
    def test_regularized_training_beats_baseline(self, small_config, tiny_digits):
        """The Figure 7 effect: for a shallow DONN, calibrated-gamma training
        reaches higher accuracy than the gamma = 1 baseline training."""
        train_x, train_y, test_x, test_y = tiny_digits
        epochs = 6

        regularized = build_regularized_donn(small_config, train_x[:8])
        reg_result = Trainer(regularized, 10, learning_rate=0.5, batch_size=25, seed=0).fit(
            train_x, train_y, epochs=epochs, test_images=test_x, test_labels=test_y
        )
        baseline = build_baseline_donn(small_config)
        base_result = Trainer(baseline, 10, learning_rate=0.5, batch_size=25, seed=0).fit(
            train_x, train_y, epochs=epochs, test_images=test_x, test_labels=test_y
        )
        assert reg_result.final_test_accuracy >= base_result.final_test_accuracy
