"""Tests for the engine's tile executor (``repro.engine.tiles``).

A session runs a batch as tiles of at most ``tiles.BUDGET`` bytes of
field on its ``workers`` threads.  Most tests patch the budget small, so
that a 12-image 32x32 batch splits into several tiles, and check that
outputs match the autograd eval path and do not depend on the thread
count.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import DONN, MultiChannelDONN, SegmentationDONN
from repro.autograd import fft as fft_backends
from repro.autograd import no_grad
from repro.cluster import ReplicaGroup, usable_cores
from repro.cluster import worker as cluster_worker
from repro.engine import SessionSpec, compile as engine_compile
from repro.engine import tiles

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


def _engine_threads() -> list:
    return [thread for thread in threading.enumerate() if thread.name.startswith("repro-engine")]


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
            assert sorted(seen) == [(0, 3), (3, 6), (6, 9), (9, 10)]

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
        assert not _engine_threads()

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
        assert not _engine_threads()


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
        assert any(name.startswith("repro-engine") for name in names), names
        assert threading.current_thread().name in names
        assert not _engine_threads()

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
