"""Tests for the DONN model containers: classifier, multi-channel, segmentation."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.codesign import ideal_profile
from repro.models import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN


class TestDONNConfig:
    def test_defaults_follow_prototype(self):
        config = DONNConfig()
        assert config.sys_size == 200
        assert config.wavelength == pytest.approx(532e-9)
        assert config.pixel_size == pytest.approx(36e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DONNConfig(sys_size=0)
        with pytest.raises(ValueError):
            DONNConfig(num_layers=0)
        with pytest.raises(ValueError):
            DONNConfig(distance=-1)
        with pytest.raises(ValueError):
            DONNConfig(wavelength=0)
        with pytest.raises(ValueError):
            DONNConfig(pixel_size=0)

    def test_grid_property(self, small_config):
        assert small_config.grid.size == small_config.sys_size

    def test_unit_size_in_wavelengths(self):
        config = DONNConfig(pixel_size=53.2e-6, wavelength=532e-9)
        assert config.unit_size_in_wavelengths == pytest.approx(100.0)

    def test_with_updates_returns_new_config(self, small_config):
        updated = small_config.with_updates(distance=0.123)
        assert updated.distance == pytest.approx(0.123)
        assert small_config.distance != updated.distance

    def test_dict_roundtrip(self, small_config):
        assert DONNConfig.from_dict(small_config.to_dict()) == small_config


class TestDONN:
    def test_layer_count(self, small_config):
        assert DONN(small_config).num_layers == small_config.num_layers

    def test_forward_logits_shape(self, small_config, tiny_digits):
        images = tiny_digits[0][:4]
        logits = DONN(small_config)(images)
        assert logits.shape == (4, 10)
        assert np.all(logits.data.real >= 0)

    def test_predict_returns_labels(self, small_config, tiny_digits):
        predictions = DONN(small_config).predict(tiny_digits[0][:4])
        assert predictions.shape == (4,)
        assert np.all((predictions >= 0) & (predictions < 10))

    def test_detector_pattern_shape(self, small_config, tiny_digits):
        pattern = DONN(small_config).detector_pattern(tiny_digits[0][:2])
        assert pattern.shape == (2, 32, 32)
        assert np.all(pattern.data >= 0)

    def test_intermediate_fields(self, small_config, tiny_digits):
        fields = DONN(small_config).intermediate_fields(tiny_digits[0][:1])
        assert len(fields) == small_config.num_layers + 1
        assert all(field.is_complex for field in fields)

    def test_phase_patterns(self, small_config):
        patterns = DONN(small_config).phase_patterns()
        assert len(patterns) == small_config.num_layers
        assert patterns[0].shape == small_config.grid.shape

    def test_forward_accepts_precomputed_field(self, small_config, tiny_digits):
        model = DONN(small_config)
        field = model.encode(tiny_digits[0][:2])
        logits_from_field = model(field)
        logits_from_images = model(tiny_digits[0][:2])
        np.testing.assert_allclose(logits_from_field.data, logits_from_images.data, rtol=1e-10)

    def test_deterministic_given_seed(self, small_config, tiny_digits):
        a = DONN(small_config)(tiny_digits[0][:2]).data
        b = DONN(small_config)(tiny_digits[0][:2]).data
        np.testing.assert_allclose(a, b)

    def test_different_seed_different_phases(self, small_config):
        a = DONN(small_config)
        b = DONN(small_config.with_updates(seed=small_config.seed + 1))
        assert not np.allclose(a.phase_patterns()[0], b.phase_patterns()[0])

    def test_codesign_variant_uses_codesign_layers(self, small_config, tiny_digits):
        from repro.layers import CodesignDiffractiveLayer

        model = DONN(small_config, device_profile=ideal_profile(num_levels=8))
        assert all(isinstance(layer, CodesignDiffractiveLayer) for layer in model.diffractive_layers)
        model.eval()
        logits = model(tiny_digits[0][:2])
        assert logits.shape == (2, 10)

    def test_gradients_reach_every_layer(self, small_config, tiny_digits):
        from repro.autograd import functional as F

        model = DONN(small_config)
        logits = model(tiny_digits[0][:2])
        target = Tensor(F.one_hot(tiny_digits[1][:2], 10))
        F.softmax_mse_loss(logits, target).backward()
        for layer in model.diffractive_layers:
            assert layer.phase.grad is not None
            assert np.any(layer.phase.grad != 0)


class TestMultiChannelDONN:
    @pytest.fixture(scope="class")
    def rgb_config(self):
        return DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, wavelength=532e-9, num_layers=2, num_classes=6, det_size=4, seed=0)

    def test_forward_shape(self, rgb_config, rng):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        rgb = rng.uniform(size=(2, 3, 32, 32))
        logits = model(rgb)
        assert logits.shape == (2, 6)

    def test_channel_count_validated(self, rgb_config, rng):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        with pytest.raises(ValueError):
            model(rng.uniform(size=(1, 2, 32, 32)))
        with pytest.raises(ValueError):
            MultiChannelDONN(rgb_config, num_channels=0)

    def test_single_image_without_batch_dim(self, rgb_config, rng):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        logits = model(rng.uniform(size=(3, 32, 32)))
        assert logits.shape == (1, 6)

    def test_channels_have_independent_parameters(self, rgb_config):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        assert len(model.parameters()) == 3 * rgb_config.num_layers

    def test_channels_contribute_additively(self, rgb_config, rng):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        rgb = rng.uniform(size=(1, 3, 32, 32))
        full = model(rgb).data
        # Zeroing one channel must reduce (or keep) every collected intensity.
        partial = rgb.copy()
        partial[:, 0] = 0.0
        reduced = model(partial).data
        assert np.all(reduced <= full + 1e-9)

    def test_phase_patterns_structure(self, rgb_config):
        patterns = MultiChannelDONN(rgb_config, num_channels=3).phase_patterns()
        assert len(patterns) == 3
        assert len(patterns[0]) == rgb_config.num_layers

    def test_predict(self, rgb_config, rng):
        model = MultiChannelDONN(rgb_config, num_channels=3)
        predictions = model.predict(rng.uniform(size=(4, 3, 32, 32)))
        assert predictions.shape == (4,)


class TestSegmentationDONN:
    @pytest.fixture(scope="class")
    def seg_config(self):
        return DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, wavelength=532e-9, num_layers=4, seed=0)

    def test_requires_at_least_three_layers(self):
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=2)
        with pytest.raises(ValueError):
            SegmentationDONN(config)

    def test_output_is_full_plane(self, seg_config, tiny_segmentation):
        images, _ = tiny_segmentation
        model = SegmentationDONN(seg_config)
        output = model(images[:2])
        assert output.shape == (2, 32, 32)

    def test_training_mode_normalises_output(self, seg_config, tiny_segmentation):
        images, _ = tiny_segmentation
        model = SegmentationDONN(seg_config, use_layer_norm=True)
        model.train()
        out = model(images[:2]).data
        np.testing.assert_allclose(out.mean(axis=(-2, -1)), 0.0, atol=1e-6)

    def test_eval_mode_returns_raw_intensity(self, seg_config, tiny_segmentation):
        images, _ = tiny_segmentation
        model = SegmentationDONN(seg_config, use_layer_norm=True)
        model.eval()
        out = model(images[:2]).data
        assert np.all(out >= 0)

    def test_predict_mask_binary(self, seg_config, tiny_segmentation):
        images, _ = tiny_segmentation
        mask = SegmentationDONN(seg_config).predict_mask(images[:2])
        assert set(np.unique(mask)).issubset({0.0, 1.0})

    def test_predict_mask_with_threshold(self, seg_config, tiny_segmentation):
        images, _ = tiny_segmentation
        mask = SegmentationDONN(seg_config).predict_mask(images[:1], threshold=1e9)
        assert mask.sum() == 0.0

    def test_baseline_variant_has_no_skip(self, seg_config):
        baseline = SegmentationDONN(seg_config, use_skip=False, use_layer_norm=False)
        advanced = SegmentationDONN(seg_config, use_skip=True)
        assert len(baseline.parameters()) == len(advanced.parameters()) == seg_config.num_layers

    def test_phase_patterns_count(self, seg_config):
        assert len(SegmentationDONN(seg_config).phase_patterns()) == seg_config.num_layers

    def test_gradients_flow_in_training(self, seg_config, tiny_segmentation):
        from repro.autograd import functional as F

        images, masks = tiny_segmentation
        model = SegmentationDONN(seg_config)
        model.train()
        output = model(images[:2])
        target = Tensor((masks[:2] - masks[:2].mean()) / (masks[:2].std() + 1e-6))
        F.mse_loss(output, target).backward()
        assert model.entry_layer.phase.grad is not None
        assert model.exit_layer.phase.grad is not None


class TestModelPickles:
    """A model pickles to its parameters: the detector's masks and the grid's
    cached coordinate arrays are rebuilt on load, as a propagator's kernels are."""

    @pytest.fixture(scope="class")
    def config(self):
        return DONNConfig(sys_size=64, num_layers=3, num_classes=10, det_size=6, seed=5)

    @staticmethod
    def _family(name, config):
        if name == "donn":
            return DONN(config)
        if name == "multichannel":
            return MultiChannelDONN(config)
        return SegmentationDONN(config)

    @staticmethod
    def _inputs(name, rng):
        images = rng.uniform(0.0, 1.0, size=(3, 64, 64))
        if name == "multichannel":
            return np.stack([images, images[::-1], np.sqrt(images)], axis=1)
        return images

    @pytest.mark.parametrize("family", ["donn", "multichannel", "segmentation"])
    def test_blob_is_at_most_one_point_one_times_the_parameter_bytes(self, config, family):
        import pickle

        model = self._family(family, config)
        model.eval()
        model(self._inputs(family, np.random.default_rng(0)))  # the grid caches its frequencies
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        parameter_bytes = sum(param.data.nbytes for param in model.parameters())
        assert len(blob) <= 1.1 * parameter_bytes

    @pytest.mark.parametrize("family", ["donn", "multichannel", "segmentation"])
    def test_a_blob_pickled_the_old_way_loads_and_runs_bit_identically(self, config, family, monkeypatch):
        import pickle

        from repro.layers.detector import Detector
        from repro.optics.grid import SpatialGrid

        model = self._family(family, config)
        model.eval()
        inputs = self._inputs(family, np.random.default_rng(1))
        expected = model(inputs).data
        new = pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
        with monkeypatch.context() as patch:
            patch.delattr(Detector, "__getstate__")
            patch.delattr(SpatialGrid, "__getstate__")
            old_blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(old_blob) > len(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
        old = pickle.loads(old_blob)
        for restored in (new, old):
            np.testing.assert_array_equal(restored(inputs).data.view("<u8"), expected.view("<u8"))
        if family != "segmentation":
            np.testing.assert_array_equal(new.detector._masks, model.detector._masks)
