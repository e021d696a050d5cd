"""Tests for metrics and the training loops."""

import numpy as np
import pytest

from repro.autograd import Adam
from repro.baselines.regularization import build_regularized_donn
from repro.models import DONN, DONNConfig, SegmentationDONN
from repro.train import (
    SegmentationTrainer,
    Trainer,
    accuracy,
    confusion_matrix,
    evaluate_classifier,
    evaluate_with_detector_noise,
    intersection_over_union,
    prediction_confidence,
    top_k_accuracy,
)
from repro.train.metrics import pixel_accuracy


class TestMetrics:
    def test_accuracy_perfect_and_zero(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0
        assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_accuracy_accepts_tensor(self):
        from repro.autograd import Tensor

        assert accuracy(Tensor(np.eye(3)), np.arange(3)) == 1.0

    def test_top_k_accuracy_monotone_in_k(self, rng):
        logits = rng.normal(size=(50, 10))
        labels = rng.integers(0, 10, size=50)
        top1 = top_k_accuracy(logits, labels, k=1)
        top3 = top_k_accuracy(logits, labels, k=3)
        top5 = top_k_accuracy(logits, labels, k=5)
        assert top1 <= top3 <= top5

    def test_top_k_equals_accuracy_for_k1(self, rng):
        logits = rng.normal(size=(20, 6))
        labels = rng.integers(0, 6, size=20)
        assert top_k_accuracy(logits, labels, k=1) == accuracy(logits, labels)

    def test_top_k_caps_at_num_classes(self, rng):
        logits = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        assert top_k_accuracy(logits, labels, k=10) == 1.0

    def test_confusion_matrix_diagonal_for_perfect(self):
        logits = np.eye(5)
        matrix = confusion_matrix(logits, np.arange(5), 5)
        np.testing.assert_array_equal(matrix, np.eye(5, dtype=int))

    def test_confusion_matrix_row_sums_are_class_counts(self, rng):
        logits = rng.normal(size=(30, 4))
        labels = rng.integers(0, 4, size=30)
        matrix = confusion_matrix(logits, labels, 4)
        np.testing.assert_array_equal(matrix.sum(axis=1), np.bincount(labels, minlength=4))

    def test_iou_perfect_and_disjoint(self):
        mask = np.zeros((8, 8))
        mask[:4] = 1.0
        assert intersection_over_union(mask, mask) == 1.0
        assert intersection_over_union(mask, 1.0 - mask) == 0.0

    def test_iou_partial_overlap(self):
        a = np.zeros((4, 4))
        a[:, :2] = 1.0
        b = np.zeros((4, 4))
        b[:, 1:3] = 1.0
        assert intersection_over_union(a, b) == pytest.approx(1.0 / 3.0)

    def test_iou_empty_masks_count_as_match(self):
        empty = np.zeros((4, 4))
        assert intersection_over_union(empty, empty) == 1.0

    def test_pixel_accuracy(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        b[0, 0] = 1.0
        assert pixel_accuracy(a, b) == pytest.approx(15 / 16)

    def test_prediction_confidence_bounds(self, rng):
        logits = rng.normal(size=(20, 10))
        confidence = prediction_confidence(logits)
        assert 0.1 <= confidence <= 1.0

    def test_prediction_confidence_increases_with_margin(self, rng):
        weak = rng.normal(size=(20, 10))
        strong = weak.copy()
        strong[np.arange(20), weak.argmax(axis=1)] += 10.0
        assert prediction_confidence(strong) > prediction_confidence(weak)


class TestTrainer:
    def test_invalid_loss_rejected(self, small_config):
        with pytest.raises(ValueError):
            Trainer(DONN(small_config), num_classes=10, loss="hinge")

    @pytest.mark.slow
    def test_training_reduces_loss_and_improves_accuracy(self, small_config, tiny_digits):
        train_x, train_y, test_x, test_y = tiny_digits
        model = build_regularized_donn(small_config, train_x[:8])
        trainer = Trainer(model, num_classes=10, learning_rate=0.5, batch_size=25, seed=0)
        result = trainer.fit(train_x, train_y, epochs=8, test_images=test_x, test_labels=test_y)
        assert len(result.losses) == 8
        assert result.losses[-1] < result.losses[0]
        assert result.final_test_accuracy > 0.25  # well above the 10% chance level
        assert result.total_seconds > 0

    def test_custom_optimizer_used(self, small_config, tiny_digits):
        model = DONN(small_config)
        optimizer = Adam(model.parameters(), lr=0.1)
        trainer = Trainer(model, num_classes=10, optimizer=optimizer)
        assert trainer.optimizer is optimizer

    @pytest.mark.slow
    def test_cross_entropy_training(self, small_config, tiny_digits):
        train_x, train_y, test_x, test_y = tiny_digits
        model = build_regularized_donn(small_config, train_x[:8])
        trainer = Trainer(model, num_classes=10, learning_rate=0.1, batch_size=25, loss="cross_entropy", seed=0)
        result = trainer.fit(train_x, train_y, epochs=8, test_images=test_x, test_labels=test_y)
        assert result.final_test_accuracy > 0.3

    def test_evaluate_classifier_range(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        score = evaluate_classifier(DONN(small_config), train_x[:20], train_y[:20])
        assert 0.0 <= score <= 1.0

    def test_training_result_empty_accuracy_is_nan(self):
        from repro.train.loop import TrainingResult

        assert np.isnan(TrainingResult().final_test_accuracy)


class TestNoiseRobustnessEvaluation:
    def test_noise_free_matches_clean_accuracy(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        model = DONN(small_config)
        clean = evaluate_classifier(model, train_x[:20], train_y[:20])
        report = evaluate_with_detector_noise(model, train_x[:20], train_y[:20], noise_level=0.0)
        assert report["accuracy"] == pytest.approx(clean, abs=1e-9)

    def test_report_contains_confidence_and_level(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        report = evaluate_with_detector_noise(DONN(small_config), train_x[:10], train_y[:10], noise_level=0.03)
        assert set(report) == {"accuracy", "confidence", "noise_level"}
        assert report["noise_level"] == pytest.approx(0.03)

    def test_heavy_noise_hurts_untrained_model_no_more_than_total(self, small_config, tiny_digits):
        train_x, train_y, _, _ = tiny_digits
        report = evaluate_with_detector_noise(DONN(small_config), train_x[:10], train_y[:10], noise_level=1.0)
        assert 0.0 <= report["accuracy"] <= 1.0


class TestSegmentationTrainer:
    def test_training_reduces_loss(self, tiny_segmentation):
        images, masks = tiny_segmentation
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=3, seed=1)
        model = SegmentationDONN(config)
        trainer = SegmentationTrainer(model, learning_rate=0.2, batch_size=4, seed=0)
        history = trainer.fit(images, masks, epochs=4)
        assert history[-1] < history[0]

    def test_evaluate_returns_iou(self, tiny_segmentation):
        images, masks = tiny_segmentation
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=3, seed=1)
        trainer = SegmentationTrainer(SegmentationDONN(config))
        iou = trainer.evaluate(images[:4], masks[:4])
        assert 0.0 <= iou <= 1.0

    def test_baseline_without_norm_uses_raw_targets(self, tiny_segmentation):
        images, masks = tiny_segmentation
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=3, seed=1)
        model = SegmentationDONN(config, use_skip=False, use_layer_norm=False)
        trainer = SegmentationTrainer(model, learning_rate=0.2, batch_size=4)
        history = trainer.fit(images[:8], masks[:8], epochs=2)
        assert len(history) == 2


class TestModeRestoredOnError:
    """An evaluation whose forward raises leaves the model in the mode it was in."""

    @staticmethod
    def _raising(model, method: str):
        def fail(*args, **kwargs):
            raise RuntimeError("forward failed")

        setattr(model, method, fail)
        return model

    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_classifier(self, small_config, tiny_digits, training):
        train_x, train_y, _, _ = tiny_digits
        model = self._raising(DONN(small_config).train(training), "forward")
        with pytest.raises(RuntimeError, match="forward failed"):
            evaluate_classifier(model, train_x[:4], train_y[:4])
        assert model.training is training
        assert all(module.training is training for module in model.modules())

    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_with_detector_noise_graph_path(self, small_config, tiny_digits, training):
        train_x, train_y, _, _ = tiny_digits
        model = self._raising(DONN(small_config).train(training), "detector_pattern")
        with pytest.raises(RuntimeError, match="forward failed"):
            evaluate_with_detector_noise(model, train_x[:4], train_y[:4], noise_level=0.1)
        assert model.training is training

    @pytest.mark.parametrize("training", [True, False])
    def test_predict_mask(self, tiny_segmentation, training):
        images, _ = tiny_segmentation
        config = DONNConfig(sys_size=32, pixel_size=36e-6, distance=0.05, num_layers=3, seed=1)
        model = self._raising(SegmentationDONN(config).train(training), "forward")
        with pytest.raises(RuntimeError, match="forward failed"):
            model.predict_mask(images[:2])
        assert model.training is training
        assert model.plane_norm.training is training
