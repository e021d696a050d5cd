"""Tests for the tile executor (``repro.autograd.tiles``).

A session runs a batch as tiles of at most ``tiles.BUDGET`` bytes of
field on its ``workers`` threads, and a training step runs its images as
tiles on every usable core.  Most tests patch the budget small, so that
a 32x32 batch splits into several tiles, and check that outputs match
the autograd eval path (or a plain block step) and do not depend on the
thread count.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN, SegmentationTrainer, Trainer
from repro.autograd import GradSink, Tensor, check_gradients, functional, no_grad, tiles
from repro.autograd import fft as fft_backends
from repro.autograd.tensor import _SINK_MODE
from repro.baselines import MLPBaseline
from repro.cluster import ReplicaGroup, usable_cores
from repro.cluster import worker as cluster_worker
from repro.codesign import ideal_profile
from repro.engine import SessionSpec, compile as engine_compile
from repro.train import loop as train_loop

PARITY_ATOL = 1e-10
#: Two 32x32 complex128 fields: an uncollapsed tile holds two images, a
#: collapsed one (real amplitudes) four.
SMALL_BUDGET = 2 * 32 * 32 * 16

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def graph_eval(model, inputs) -> np.ndarray:
    """Reference logits/patterns from the autograd path in eval mode."""
    was_training = model.training
    model.eval()
    with no_grad():
        out = np.asarray(model(inputs).data.real)
    model.train(was_training)
    return out


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view("<u8")


def _tile_threads() -> list:
    return [thread for thread in threading.enumerate() if thread.name.startswith("repro-tiles")]


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(tiles, "BUDGET", SMALL_BUDGET)


@pytest.fixture(scope="module")
def images(rng):
    return rng.uniform(0.0, 1.0, size=(12, 32, 32))


def _family(name: str, config):
    if name == "donn":
        return DONN(config)
    if name == "multichannel":
        return MultiChannelDONN(config)
    return SegmentationDONN(config.with_updates(num_layers=3))


def _inputs(name: str, images: np.ndarray) -> np.ndarray:
    if name == "multichannel":
        return np.stack([images, images[::-1], np.sqrt(images)], axis=1)
    return images


class TestRunTiles:
    def test_every_row_is_covered_once_in_tiles(self):
        for workers in (1, 2, 4):
            seen = []
            tiles.run_tiles(lambda start, stop: seen.append((start, stop)), 10, 3, workers)
            assert sorted(seen) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    @given(
        total=st.integers(min_value=1, max_value=300),
        tile=st.integers(min_value=1, max_value=64),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_tiles_are_balanced_and_returned_in_order(self, total, tile, workers):
        """ceil(total / tile) contiguous tiles of at most ``tile`` rows whose
        sizes differ by at most one, whatever the thread count; results
        come back in tile order."""
        bounds = tiles.run_tiles(lambda start, stop: (start, stop), total, tile, workers)
        assert len(bounds) == -(-total // tile)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == total
        sizes = {stop - start for start, stop in bounds}
        assert max(sizes) <= tile and max(sizes) - min(sizes) <= 1
        assert bounds == tiles.run_tiles(lambda start, stop: (start, stop), total, tile, 1)

    def test_tile_size_rule(self, monkeypatch):
        monkeypatch.setattr(tiles, "BUDGET", 100)
        assert tiles.tile_size(30, 64) == 3
        assert tiles.tile_size(30, 2) == 2  # never more than the chunk
        assert tiles.tile_size(1000, 64) == 1  # never less than one image

    def test_a_failing_tile_raises_after_every_thread_stopped(self):
        def task(start: int, stop: int) -> None:
            if start <= 6 < stop:
                raise ValueError("tile 6 failed")

        with pytest.raises(ValueError, match="tile 6"):
            tiles.run_tiles(task, 12, 2, 3)
        assert not _tile_threads()

    def test_many_threads_lose_no_tile(self):
        """More threads than cores and a short switch interval: every tile
        lands once, in its own rows, with no thread left behind."""
        array = np.arange(4000.0).reshape(400, 10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                out = np.zeros_like(array)

                def task(start: int, stop: int) -> None:
                    out[start:stop] += array[start:stop] + 1.0

                tiles.run_tiles(task, len(array), 1, 8)
                np.testing.assert_array_equal(out, array + 1.0)
        finally:
            sys.setswitchinterval(interval)
        assert not _tile_threads()


class TestSessionTiles:
    @pytest.mark.parametrize("optimize", ["full", "none"])
    @pytest.mark.parametrize("family", ["donn", "multichannel", "segmentation"])
    def test_families_match_autograd_and_are_bit_identical_across_threads(
        self, small_config, images, small_budget, family, optimize
    ):
        model = _family(family, small_config)
        batch = _inputs(family, images)
        reference = graph_eval(model, batch)
        outputs = []
        for workers in (1, 2, 3):
            session = engine_compile(model, optimize=optimize, workers=workers)
            assert session.workers == workers
            assert tiles.tile_size(session._program.field_bytes, session.batch_size) < len(batch)
            outputs.append(session.run(batch))
            np.testing.assert_allclose(outputs[-1], reference, rtol=0.0, atol=PARITY_ATOL)
        for out in outputs[1:]:
            np.testing.assert_array_equal(_bits(out), _bits(outputs[0]))

    def test_predict_and_intensity_patterns_go_through_tiles(self, small_config, images, small_budget):
        model = DONN(small_config)
        session = engine_compile(model, workers=2)
        np.testing.assert_array_equal(session.predict(images), model.predict(images))
        model.eval()
        with no_grad():
            expected = np.asarray(model.detector_pattern(images).data.real)
        patterns = session.intensity_patterns(images)
        np.testing.assert_allclose(patterns, expected, atol=PARITY_ATOL)
        np.testing.assert_allclose(session.read_detector(patterns), session.run(images), atol=PARITY_ATOL)

    def test_one_tile_batch_is_one_call_on_the_calling_thread(self, small_config, images, monkeypatch):
        session = engine_compile(DONN(small_config), optimize="none", workers=4)
        program = session._program
        assert tiles.tile_size(program.field_bytes, session.batch_size) >= len(images)
        calls = []
        original = program.run

        def recording_run(batch):
            calls.append((len(batch), threading.current_thread()))
            return original(batch)

        started = []
        thread_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            thread_start(thread)

        program.run = recording_run
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        session.run(images)
        assert calls == [(len(images), threading.current_thread())]
        assert started == []

    def test_no_engine_thread_outlives_a_multi_tile_run(self, small_config, images, small_budget):
        session = engine_compile(DONN(small_config), optimize="none", workers=3)
        program = session._program
        names = set()
        original = program.run

        def recording_run(batch):
            names.add(threading.current_thread().name)
            return original(batch)

        program.run = recording_run
        session.run(images)
        assert any(name.startswith("repro-tiles") for name in names), names
        assert threading.current_thread().name in names
        assert not _tile_threads()

    def test_collapsed_operator_is_bit_identical_tiled_or_not(self, small_config, monkeypatch):
        model = DONN(small_config)
        monkeypatch.setattr(tiles, "BUDGET", 1 << 40)
        whole = engine_compile(model, workers=1).plan.branches[0].ops[1]
        monkeypatch.setattr(tiles, "BUDGET", SMALL_BUDGET)
        tiled = engine_compile(model, workers=3).plan.branches[0].ops[1]
        assert whole.op_real.shape == tiled.op_real.shape
        np.testing.assert_array_equal(_bits(tiled.op_real), _bits(whole.op_real))
        np.testing.assert_array_equal(_bits(tiled.op_imag), _bits(whole.op_imag))

    def test_workers_default_to_usable_cores_and_stay_unset_in_the_spec(self, small_config):
        model = DONN(small_config)
        session = engine_compile(model)
        assert session.workers == usable_cores()
        assert session.to_spec().workers is None
        assert engine_compile(model, workers=2).to_spec().workers == 2
        with pytest.raises(ValueError, match="workers"):
            engine_compile(model, workers=0)

    def test_numpy_backend_without_scipy(self, small_config, images, small_budget, monkeypatch):
        monkeypatch.setattr(fft_backends, "_import_scipy_fft", lambda: None)
        model = DONN(small_config)
        outputs = []
        for workers in (1, 2):
            session = engine_compile(model, optimize="none", workers=workers)
            assert session.backend_name == "numpy"
            outputs.append(session.run(images))
        np.testing.assert_allclose(outputs[0], graph_eval(model, images), rtol=0.0, atol=PARITY_ATOL)
        np.testing.assert_array_equal(_bits(outputs[1]), _bits(outputs[0]))


class TestReplicaThreads:
    def test_worker_session_follows_the_budget_unless_the_spec_fixed_workers(self, small_config, monkeypatch):
        """No processes: ``serve_calls`` builds on the spawn budget, a spec's
        own ``workers`` wins, and without a budget the host's cores apply."""
        spec = engine_compile(DONN(small_config)).to_spec()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cluster_worker._build_session(spec).workers == 1
        fixed = SessionSpec.from_model(DONN(small_config), workers=3)
        assert cluster_worker._build_session(fixed).workers == 3
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert cluster_worker._build_session(spec).workers == usable_cores()

    def test_two_local_replicas_run_on_half_the_cores_each(self, small_config, images):
        session = engine_compile(DONN(small_config))
        with ReplicaGroup(session.to_spec(), replicas=2, name="tiles", call_timeout_s=60.0) as group:
            rows = group.stats()
            got = group.infer_sync(images)
        assert [row["threads"] for row in rows] == [max(1, usable_cores() // 2)] * 2
        np.testing.assert_array_equal(_bits(got), _bits(session.run(images)))


# --------------------------------------------------------------------- #
# Training steps as tiles
# --------------------------------------------------------------------- #
#: Rows of the training batch: three tiles of two images under SMALL_BUDGET.
STEP_IMAGES = 6
GRAD_ATOL = 1e-10


def _training_model(name: str, config):
    if name == "codesign":
        return DONN(config, device_profile=ideal_profile(num_levels=6))
    return _family(name, config)


def _training_batch(name: str, images: np.ndarray, config):
    batch = _inputs(name, images[:STEP_IMAGES])
    if name == "segmentation":
        return batch, (images[:STEP_IMAGES] > 0.5).astype(float)
    return batch, np.arange(STEP_IMAGES) % config.num_classes


def _step_once(name: str, config, images, monkeypatch, budget: int, workers: int = 2):
    """A fresh model after one optimizer step on one batch, and that step's loss."""
    monkeypatch.setattr(tiles, "BUDGET", budget)
    monkeypatch.setattr(train_loop, "usable_cores", lambda: workers)
    model = _training_model(name, config)
    batch, targets = _training_batch(name, images, config)
    if name == "segmentation":
        trainer = SegmentationTrainer(model, batch_size=STEP_IMAGES, seed=0)
    else:
        trainer = Trainer(model, num_classes=config.num_classes, batch_size=STEP_IMAGES, seed=0)
    loss = trainer.train_epoch(batch, targets)
    return model, trainer, loss


def _block_step(name: str, config, images):
    """A fresh model after one plain step, and its loss: one forward and one
    backward on the whole batch, each layer running its own ``modulation()``,
    then Adam -- no sink, no tile, no step modulation."""
    model = _training_model(name, config)
    batch, targets = _training_batch(name, images, config)
    order = np.random.default_rng(0).permutation(STEP_IMAGES)  # the trainers' shuffle at seed 0
    model.train()
    if name == "segmentation":
        trainer = SegmentationTrainer(model, batch_size=STEP_IMAGES, seed=0)
        masks = trainer._normalise_target(targets) if model.use_layer_norm else targets
        loss = functional.mse_loss(model(batch[order]), Tensor(masks[order]))
    else:
        trainer = Trainer(model, num_classes=config.num_classes, batch_size=STEP_IMAGES, seed=0)
        loss = trainer._loss(model(batch[order]), targets[order])
    loss.backward()
    trainer.optimizer.step()
    return model, float(loss.data.real)


class TestTrainingTiles:
    def test_tile_rule_uses_the_widest_diffractive_layer_field(self, small_config):
        sys_200 = DONN(DONNConfig(sys_size=200, num_layers=2, num_classes=10))
        assert train_loop._images_per_tile(sys_200, 8) == 1
        padded = DONN(small_config.with_updates(pad_factor=2))
        assert train_loop._images_per_tile(padded, 64) == tiles.BUDGET // (64 * 64 * 16)
        assert train_loop._images_per_tile(DONN(small_config), 32) == 32
        assert train_loop._images_per_tile(MLPBaseline(32 * 32), 10**7) == 10**7

    @pytest.mark.parametrize("family", ["donn", "multichannel", "segmentation", "codesign"])
    def test_tiled_gradients_match_the_one_tile_step(self, small_config, images, monkeypatch, family):
        """Against a plain block step (:func:`_block_step`): a step whose
        batch fits one tile matches it bit for bit, a three-tile step to
        rounding."""
        block, block_loss = _block_step(family, small_config, images)
        whole, _, whole_loss = _step_once(family, small_config, images, monkeypatch, 1 << 40)
        tiled, _, tiled_loss = _step_once(family, small_config, images, monkeypatch, SMALL_BUDGET)
        assert train_loop._images_per_tile(tiled, STEP_IMAGES) == 2
        assert whole_loss == block_loss
        assert tiled_loss == pytest.approx(block_loss, rel=1e-12)
        for (name, expected), one_tile, actual in zip(block.named_parameters(), whole.parameters(), tiled.parameters()):
            assert actual.grad is not None, name
            np.testing.assert_array_equal(_bits(one_tile.grad), _bits(expected.grad), err_msg=name)
            np.testing.assert_array_equal(_bits(one_tile.data), _bits(expected.data), err_msg=name)
            np.testing.assert_allclose(actual.grad, expected.grad, rtol=0.0, atol=GRAD_ATOL, err_msg=name)

    @pytest.mark.parametrize("family", ["donn", "codesign"])
    def test_parameters_after_a_step_are_bit_identical_on_1_2_and_3_threads(
        self, small_config, images, monkeypatch, family
    ):
        stepped = []
        for workers in (1, 2, 3):
            model, _, loss = _step_once(family, small_config, images, monkeypatch, SMALL_BUDGET, workers)
            stepped.append((loss, [param.data.copy() for param in model.parameters()]))
        for loss, params in stepped[1:]:
            assert loss == stepped[0][0]
            for param, first in zip(params, stepped[0][1]):
                np.testing.assert_array_equal(_bits(param), _bits(first))

    def test_codesign_step_draws_the_noise_of_the_one_tile_step(self, small_config, images, monkeypatch):
        """In one tile or three, a step draws each layer's Gumbel noise as a
        plain forward does.  The layers share one generator: its state shows
        the noise was drawn once per layer, and the stepped logits that each
        layer got its own draw."""
        block, _ = _block_step("codesign", small_config, images)
        for budget in (1 << 40, SMALL_BUDGET):
            stepped, _, _ = _step_once("codesign", small_config, images, monkeypatch, budget)
            for block_layer, layer in zip(block.diffractive_layers, stepped.diffractive_layers):
                assert layer.rng.bit_generator.state == block_layer.rng.bit_generator.state
                np.testing.assert_allclose(layer.logits.data, block_layer.logits.data, rtol=0.0, atol=1e-12)

    def test_tiles_run_on_helper_threads_with_single_threaded_transforms(self, small_config, images, monkeypatch):
        model = DONN(small_config)
        seen = set()
        original = model.forward
        # The first two tiles wait for each other, so two threads run tiles
        # at once, and at least one of them is a helper.  Counted by call,
        # not by distinct entry: a thread may take a third tile before the
        # third thread takes any, and that call must not wait.
        together = threading.Barrier(2)
        arrivals = itertools.count()

        def recording_forward(batch):
            backend = fft_backends.autograd_backend()
            seen.add((threading.current_thread().name, len(batch), backend.workers))
            if next(arrivals) < 2:
                together.wait(timeout=30)
            return original(batch)

        model.forward = recording_forward
        monkeypatch.setattr(tiles, "BUDGET", SMALL_BUDGET)
        monkeypatch.setattr(train_loop, "usable_cores", lambda: 3)
        Trainer(model, num_classes=small_config.num_classes, batch_size=STEP_IMAGES).train_epoch(
            images[:STEP_IMAGES], np.zeros(STEP_IMAGES, dtype=int)
        )
        names = {name for name, _, _ in seen}
        assert any(name.startswith("repro-tiles") for name in names), names
        assert {(size, workers) for _, size, workers in seen} == {(2, None)}
        assert not _tile_threads()
        assert fft_backends.autograd_backend().workers == fft_backends.usable_cores()

    def test_a_one_tile_step_runs_on_the_calling_thread(self, small_config, images, monkeypatch):
        model = DONN(small_config)
        calls = []
        original = model.forward

        def recording_forward(batch):
            calls.append((len(batch), threading.current_thread()))
            return original(batch)

        started = []
        thread_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            thread_start(thread)

        model.forward = recording_forward
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        Trainer(model, num_classes=small_config.num_classes, batch_size=len(images)).train_epoch(
            images, np.zeros(len(images), dtype=int)
        )
        assert calls == [(len(images), threading.current_thread())]
        assert started == []
        assert "step_modulation" not in vars(model.diffractive_layers[0])
        # The one tile is the block step bit for bit: one forward and one
        # backward through modulation() on the whole batch, then Adam.
        labels = np.zeros(len(images), dtype=int)
        mlp = MLPBaseline(32 * 32)
        Trainer(mlp, num_classes=small_config.num_classes, batch_size=len(images)).train_epoch(images, labels)
        for stepped, block in ((model, DONN(small_config)), (mlp, MLPBaseline(32 * 32))):
            trainer = Trainer(block, num_classes=small_config.num_classes, batch_size=len(images))
            order = np.random.default_rng(0).permutation(len(images))  # the trainer's shuffle at seed 0
            trainer._loss(block(images[order]), labels[order]).backward()
            trainer.optimizer.step()
            for param, expected in zip(stepped.parameters(), block.parameters()):
                np.testing.assert_array_equal(_bits(param.data), _bits(expected.data))

    def test_a_tile_that_raises_leaves_nothing_behind(self, small_config, images, monkeypatch):
        model = DONN(small_config)
        trainer = Trainer(model, num_classes=small_config.num_classes, batch_size=STEP_IMAGES)
        before = [param.data.copy() for param in model.parameters()]
        original = model.forward
        calls = []

        def failing_forward(batch):
            calls.append(len(batch))
            out = original(batch)
            if len(calls) == 2:
                raise RuntimeError("tile failed")
            return out

        model.forward = failing_forward
        monkeypatch.setattr(tiles, "BUDGET", SMALL_BUDGET)
        monkeypatch.setattr(train_loop, "usable_cores", lambda: 2)
        with pytest.raises(RuntimeError, match="tile failed"):
            trainer.train_epoch(images[:STEP_IMAGES], np.zeros(STEP_IMAGES, dtype=int))
        assert _SINK_MODE.active is None
        assert not tiles.in_tile()
        assert not _tile_threads()
        for layer in model.diffractive_layers:
            assert "step_modulation" not in vars(layer)
            assert layer.step_modulation is None
        assert all(param.grad is None for param in model.parameters())
        assert trainer.optimizer._step == 0
        for param, data in zip(model.parameters(), before):
            np.testing.assert_array_equal(param.data, data)

    def test_check_gradients_passes_through_the_sink(self, small_config, images):
        """The checker's analytic gradients pass through a sink, so it holds
        on a thread where a tile's sink is active, and that sink gets nothing."""
        model = DONN(small_config.with_updates(sys_size=8, det_size=2, num_layers=1, num_classes=4))
        phase = model.diffractive_layers[0].phase
        batch = images[:2, ::4, ::4]

        def loss(_):
            return functional.softmax_mse_loss(model(batch), Tensor(np.eye(4)[[0, 3]]))

        with GradSink() as outer:
            assert check_gradients(loss, [phase], atol=1e-6)
        checked = phase.grad.copy()
        outer.add_to_grads()
        np.testing.assert_array_equal(phase.grad, checked)

    def test_sinks_added_in_tile_order_give_the_block_gradient(self, rng):
        weights = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        rows = rng.normal(size=(6, 4))
        (Tensor(rows) @ weights).abs2().sum().backward()
        block = weights.grad
        weights.zero_grad()
        sinks = [GradSink() for _ in range(3)]
        for index, sink in enumerate(sinks):
            with sink:
                (Tensor(rows[2 * index : 2 * index + 2]) @ weights).abs2().sum().backward()
            assert weights.grad is None
        for sink in sinks:
            sink.add_to_grads()
        np.testing.assert_allclose(weights.grad, block, rtol=0.0, atol=1e-12)
