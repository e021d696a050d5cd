"""Training loops for DONN classifiers, segmenters and digital baselines.

The paper trains DONNs with Adam on the MSE-over-softmax loss (Section
5.1); the same :class:`Trainer` also drives the MLP/CNN baselines of
Table 4 (with cross-entropy) so runtime and accuracy comparisons share one
code path.

Every optimizer step of both trainers runs as cache-sized tiles of images
on every usable core (:func:`_step`): one image per tile at sys 200,
while a small model's batch, or a digital baseline's, is one tile, run
on the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Adam, GradSink, Module, Optimizer, Tensor, functional, no_grad
from repro.autograd.fft import usable_cores
from repro.autograd.tiles import run_tiles, tile_size
from repro.codesign.noise import DetectorNoiseModel
from repro.engine import compile as engine_compile
from repro.layers.diffractive import ModulationLayer, step_modulations
from repro.train.metrics import accuracy, intersection_over_union, prediction_confidence


@dataclass
class TrainingResult:
    """Per-epoch history plus final evaluation produced by a trainer."""

    losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    test_accuracies: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracies[-1] if self.test_accuracies else float("nan")

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))


def _iterate_batches(inputs: np.ndarray, labels: np.ndarray, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(inputs))
    for start in range(0, len(inputs), batch_size):
        chosen = order[start : start + batch_size]
        yield inputs[chosen], labels[chosen]


def _images_per_tile(model: Module, total: int) -> int:
    """Images per tile of a step: the tile rule on the model's widest diffractive-layer field.

    A model without diffractive layers (a digital baseline) is one tile.
    """
    widths = [module.field_bytes for module in model.modules() if isinstance(module, ModulationLayer)]
    return tile_size(max(widths), total) if widths else total


def _step(model: Module, optimizer: Optimizer, images: np.ndarray, loss_of: Callable[[Tensor, slice], Tensor]) -> float:
    """One optimizer step over a batch; returns the batch loss.

    ``loss_of(output, rows)`` is the batch loss (a mean over images)
    restricted to ``images[rows]``, whose model output is ``output``.

    The batch runs as tiles of images on every usable core
    (:func:`repro.autograd.tiles.run_tiles`), each tile's transforms
    single-threaded; a batch that fits one tile is one tile on the
    calling thread, with no helper thread:

    * each diffractive layer's ``modulation()`` runs once, here, and the
      tiles multiply by a leaf holding its value (:func:`step_modulations`);
    * a tile's loss is ``loss_of`` on its rows, scaled by their share of
      the batch, so the tiles' losses sum to the batch loss;
    * a tile back-propagates into its own :class:`GradSink`; the sinks are
      added into the leaves' ``grad`` in tile order, and each modulation
      leaf's gradient is back-propagated once through its ``modulation()``.

    Gradients therefore match a plain one-block step's, bit for bit when
    the batch is one tile and to rounding otherwise, and are bit-identical
    for any thread count.  If a tile raises, every ``grad`` is cleared and
    the optimizer does not step.
    """
    optimizer.zero_grad()
    total = len(images)

    def run(start: int, stop: int) -> Tuple[GradSink, float]:
        with GradSink() as sink:
            loss = loss_of(model(images[start:stop]), slice(start, stop)) * ((stop - start) / total)
            loss.backward()
        return sink, float(loss.data.real)

    try:
        with step_modulations(model) as modulations:
            tiles = run_tiles(run, total, _images_per_tile(model, total), usable_cores())
        for sink, _ in tiles:
            sink.add_to_grads()
        for modulation, leaf in modulations:
            if leaf.grad is not None:
                modulation.backward(leaf.grad)
    except BaseException:
        optimizer.zero_grad()
        raise
    optimizer.step()
    return float(sum(loss for _, loss in tiles))


class Trainer:
    """Classifier trainer (DONNs and digital baselines).

    Parameters
    ----------
    model:
        Any module mapping an image batch to per-class scores.
    learning_rate, batch_size:
        Defaults follow the paper's setup (lr = 0.5 works for DONN phase
        parameters because the loss surface over phases is smooth; the
        digital baselines pass a smaller value).
    loss:
        ``"softmax_mse"`` (paper's DONN loss) or ``"cross_entropy"``.
    """

    def __init__(
        self,
        model: Module,
        num_classes: int,
        learning_rate: float = 0.5,
        batch_size: int = 32,
        loss: str = "softmax_mse",
        optimizer: Optional[Optimizer] = None,
        seed: int = 0,
    ):
        if loss not in ("softmax_mse", "cross_entropy"):
            raise ValueError("loss must be 'softmax_mse' or 'cross_entropy'")
        self.model = model
        self.num_classes = num_classes
        self.batch_size = int(batch_size)
        self.loss_name = loss
        self.optimizer = optimizer or Adam(model.parameters(), lr=learning_rate)
        self.rng = np.random.default_rng(seed)

    def _loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        if self.loss_name == "softmax_mse":
            one_hot = functional.one_hot(labels, self.num_classes)
            return functional.softmax_mse_loss(logits, Tensor(one_hot))
        return functional.cross_entropy(logits, labels)

    def train_epoch(self, images: np.ndarray, labels: np.ndarray) -> float:
        """One pass over the training set; returns the mean batch loss."""
        self.model.train()
        losses = []
        for batch_images, batch_labels in _iterate_batches(images, labels, self.batch_size, self.rng):
            losses.append(
                _step(
                    self.model,
                    self.optimizer,
                    batch_images,
                    lambda logits, rows, labels=batch_labels: self._loss(logits, labels[rows]),
                )
            )
        return float(np.mean(losses))

    def fit(
        self,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        epochs: int = 5,
        test_images: Optional[np.ndarray] = None,
        test_labels: Optional[np.ndarray] = None,
        verbose: bool = False,
    ) -> TrainingResult:
        result = TrainingResult()
        for epoch in range(epochs):
            start = time.perf_counter()
            mean_loss = self.train_epoch(train_images, train_labels)
            elapsed = time.perf_counter() - start
            result.losses.append(mean_loss)
            result.epoch_seconds.append(elapsed)
            result.train_accuracies.append(evaluate_classifier(self.model, train_images, train_labels))
            if test_images is not None and test_labels is not None:
                result.test_accuracies.append(evaluate_classifier(self.model, test_images, test_labels))
            if verbose:  # pragma: no cover - console output
                test_msg = f", test acc {result.test_accuracies[-1]:.3f}" if result.test_accuracies else ""
                print(f"epoch {epoch + 1}/{epochs}: loss {mean_loss:.4f}{test_msg} ({elapsed:.1f}s)")
        return result


def evaluate_classifier(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 64,
    use_engine: bool = False,
) -> float:
    """Accuracy of a classifier model over a dataset (no gradient recording).

    With ``use_engine=True`` the model is compiled once into an
    autograd-free :class:`~repro.engine.InferenceSession` and the dataset
    is streamed through it -- the fast path for large evaluation sets.
    """
    labels = np.asarray(labels)
    if use_engine:
        session = engine_compile(model, batch_size=batch_size)
        predictions = session.predict(images, batch_size=batch_size)
        return float((predictions == labels).sum() / len(labels))
    was_training = model.training
    model.eval()
    correct = 0
    try:
        with no_grad():
            for start in range(0, len(images), batch_size):
                batch = images[start : start + batch_size]
                batch_labels = labels[start : start + batch_size]
                logits = model(batch)
                predictions = np.asarray(logits.data.real).argmax(axis=-1)
                correct += int((predictions == batch_labels).sum())
    finally:
        model.train(was_training)
    return correct / len(images)


def evaluate_with_detector_noise(
    model,
    images: np.ndarray,
    labels: np.ndarray,
    noise_level: float,
    seed: int = 0,
    batch_size: int = 32,
    use_engine: bool = False,
) -> Dict[str, float]:
    """Accuracy and confidence of a DONN under detector intensity noise.

    Reproduces the Figure 7 robustness protocol: uniform noise with upper
    bound ``noise_level`` (relative to the pattern maximum) is added to the
    detector intensity pattern *before* region integration.  With
    ``use_engine=True`` the detector patterns come from the compiled
    inference engine; batching (and therefore the noise sequence) is
    identical to the graph path.
    """
    noise = DetectorNoiseModel(level=noise_level, seed=seed)
    all_logits = []
    if use_engine:
        session = engine_compile(model, batch_size=batch_size)
        for start in range(0, len(images), batch_size):
            batch = images[start : start + batch_size]
            pattern = session.intensity_patterns(batch, batch_size=batch_size)
            noisy = noise.apply(pattern)
            all_logits.append(np.asarray(session.read_detector(noisy)))
    else:
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                for start in range(0, len(images), batch_size):
                    batch = images[start : start + batch_size]
                    pattern = model.detector_pattern(batch)
                    noisy = noise.apply(np.asarray(pattern.data.real))
                    logits = model.detector.read(Tensor(noisy))
                    all_logits.append(np.asarray(logits.data.real))
        finally:
            model.train(was_training)
    stacked = np.concatenate(all_logits, axis=0)
    return {
        "accuracy": accuracy(stacked, labels),
        "confidence": prediction_confidence(stacked),
        "noise_level": float(noise_level),
    }


class SegmentationTrainer:
    """Trainer for image-to-image DONNs (Figure 13).

    The loss is the MSE between the (layer-normalised) output intensity
    map and the normalised target mask.
    """

    def __init__(
        self,
        model: Module,
        learning_rate: float = 0.1,
        batch_size: int = 8,
        optimizer: Optional[Optimizer] = None,
        seed: int = 0,
    ):
        self.model = model
        self.batch_size = int(batch_size)
        self.optimizer = optimizer or Adam(model.parameters(), lr=learning_rate)
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def _normalise_target(masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=float)
        centred = masks - masks.mean(axis=(-2, -1), keepdims=True)
        scale = centred.std(axis=(-2, -1), keepdims=True)
        return centred / np.maximum(scale, 1e-6)

    def train_epoch(self, images: np.ndarray, masks: np.ndarray) -> float:
        self.model.train()
        losses = []
        use_norm = getattr(self.model, "use_layer_norm", True)
        targets = self._normalise_target(masks) if use_norm else np.asarray(masks, dtype=float)
        for batch_images, batch_masks in _iterate_batches(images, targets, self.batch_size, self.rng):
            losses.append(
                _step(
                    self.model,
                    self.optimizer,
                    batch_images,
                    lambda output, rows, masks=batch_masks: functional.mse_loss(output, Tensor(masks[rows])),
                )
            )
        return float(np.mean(losses))

    def fit(self, images: np.ndarray, masks: np.ndarray, epochs: int = 5, verbose: bool = False) -> List[float]:
        history = []
        for epoch in range(epochs):
            mean_loss = self.train_epoch(images, masks)
            history.append(mean_loss)
            if verbose:  # pragma: no cover - console output
                print(f"epoch {epoch + 1}/{epochs}: loss {mean_loss:.4f}")
        return history

    def evaluate(self, images: np.ndarray, masks: np.ndarray) -> float:
        """Mean IoU of the predicted masks against the targets."""
        predicted = self.model.predict_mask(images)
        return intersection_over_union(predicted, masks)
