"""The fused free-space op ``ops.propagate`` against the unfused chain.

``Propagator.__call__`` (Rayleigh-Sommerfeld, Fresnel, direct) runs one
``ops.propagate`` node per hop: pad -> FFT -> x H -> IFFT -> crop, with
the same op on ``conj(H)`` as its backward.  These tests pin it to the
differentiable chain it replaces (``pad2d`` -> ``fft2`` -> x H ->
``ifft2`` -> ``crop2d``), to finite differences, and to the shared FFT
dispatcher it runs on.
"""

import numpy as np
import pytest

from repro import DONN, Trainer
from repro.autograd import Tensor, check_gradients, ops
from repro.autograd import fft as fft_backends
from repro.optics import SpatialGrid, make_propagator

APPROXIMATIONS = ("rayleigh_sommerfeld", "fresnel", "direct")
GRID = SpatialGrid(size=8, pixel_size=36e-6)
WAVELENGTH = 532e-9
DISTANCE = 0.01
ATOL = 1e-10
SCIPY = "scipy" in fft_backends.available_backends()


def _propagator(approx, pad_factor):
    return make_propagator(approx, GRID, WAVELENGTH, DISTANCE, pad_factor=pad_factor)


def _unfused(propagator, field):
    pad = (propagator._work_grid.size - propagator.grid.size) // 2
    spectrum = ops.fft2(ops.pad2d(field, pad))
    return ops.crop2d(ops.ifft2(spectrum * Tensor(propagator.transfer_function)), pad)


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _forward_backward(run, field_data, upstream):
    """Values and input gradient of ``run`` for the upstream gradient ``upstream``."""
    field = Tensor(field_data.copy(), requires_grad=True)
    out = run(field)
    out.backward(upstream)
    return out.data, field.grad


CASES = [
    pytest.param(approx, pad_factor, shape, id=f"{approx}-pad{pad_factor}-{'batched' if len(shape) == 3 else 'single'}")
    for approx in APPROXIMATIONS
    for pad_factor in (1, 2)
    for shape in ((3,) + GRID.shape, GRID.shape)
]


@pytest.mark.parametrize("approx, pad_factor, shape", CASES)
class TestAgainstUnfusedChain:
    def test_gradcheck(self, approx, pad_factor, shape):
        propagator = _propagator(approx, pad_factor)
        field = Tensor(_field(shape), requires_grad=True)
        weights = np.random.default_rng(1).normal(size=shape)
        assert check_gradients(lambda f: (propagator(f).abs2() * weights).sum(), [field])

    def test_values_and_gradients_match_unfused(self, approx, pad_factor, shape):
        propagator = _propagator(approx, pad_factor)
        data, upstream = _field(shape), _field(shape, seed=2)
        fused_out, fused_grad = _forward_backward(propagator, data, upstream)
        chain_out, chain_grad = _forward_backward(lambda f: _unfused(propagator, f), data, upstream)
        np.testing.assert_allclose(fused_out, chain_out, rtol=0, atol=ATOL)
        np.testing.assert_allclose(fused_grad, chain_grad, rtol=0, atol=ATOL)

    def test_leaves_field_and_upstream_gradient_unchanged(self, approx, pad_factor, shape):
        propagator = _propagator(approx, pad_factor)
        field = Tensor(_field(shape), requires_grad=True)
        upstream = _field(shape, seed=3)
        field_before, upstream_before = field.data.copy(), upstream.copy()
        out = propagator(field)
        np.testing.assert_array_equal(field.data, field_before)
        out.backward(upstream)
        np.testing.assert_array_equal(field.data, field_before)
        np.testing.assert_array_equal(upstream, upstream_before)
        np.testing.assert_array_equal(out.grad, upstream_before)


class TestTape:
    def test_one_node_per_hop(self):
        propagator = _propagator("rayleigh_sommerfeld", 2)
        field = Tensor(_field(GRID.shape), requires_grad=True)
        out = propagator(field)
        assert out._prev == (field,)

    def test_constant_field_records_nothing(self):
        out = _propagator("fresnel", 1)(Tensor(_field(GRID.shape)))
        assert not out.requires_grad and out._backward is None

    def test_real_field_gets_real_gradient(self):
        propagator = _propagator("rayleigh_sommerfeld", 1)
        field = Tensor(np.random.default_rng(4).normal(size=GRID.shape), requires_grad=True)
        assert check_gradients(lambda f: propagator(f).abs2().sum(), [field])
        assert field.grad.dtype == np.float64

    def test_conjugate_transfer_dropped_from_pickle_and_rebuilt(self):
        import pickle

        propagator = _propagator("rayleigh_sommerfeld", 2)
        assert "_transfer_conj" not in propagator.__getstate__()
        clone = pickle.loads(pickle.dumps(propagator))
        np.testing.assert_array_equal(clone._transfer_conj, np.conj(propagator.transfer_function))
        data = _field((2,) + GRID.shape)
        assert np.array_equal(clone(Tensor(data)).data, propagator(Tensor(data)).data)


class TestBackend:
    @pytest.mark.skipif(not SCIPY, reason="worker counts only apply to the scipy backend")
    @pytest.mark.parametrize("shape", [(8, 8), (3, 16, 16), (2, 2, 24, 24)])
    def test_bit_identical_across_workers(self, monkeypatch, shape):
        grid = SpatialGrid(size=shape[-1], pixel_size=36e-6)
        propagator = make_propagator("rayleigh_sommerfeld", grid, WAVELENGTH, DISTANCE, pad_factor=2)
        data, upstream = _field(shape), _field(shape, seed=5)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(fft_backends, "usable_cores", lambda workers=workers: workers)
            assert fft_backends.autograd_backend().workers == workers
            results.append(_forward_backward(propagator, data, upstream))
        (out_1, grad_1), (out_2, grad_2) = results
        assert np.array_equal(out_1.view("<u8"), out_2.view("<u8"))
        assert np.array_equal(grad_1.view("<u8"), grad_2.view("<u8"))

    def test_runs_on_scipy_with_a_worker_per_usable_core(self):
        backend = fft_backends.autograd_backend()
        if SCIPY:
            assert backend.name == "scipy"
            assert backend.workers == fft_backends.usable_cores()
        else:  # pragma: no cover - scipy is in the test environment
            assert backend.name == "numpy"

    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_numpy_fallback_without_scipy(self, monkeypatch, pad_factor):
        propagator = _propagator("rayleigh_sommerfeld", pad_factor)
        data, upstream = _field((2,) + GRID.shape), _field((2,) + GRID.shape, seed=6)
        monkeypatch.setattr(fft_backends, "_import_scipy_fft", lambda: None)
        assert fft_backends.autograd_backend().name == "numpy"
        fused_out, fused_grad = _forward_backward(propagator, data, upstream)
        chain_out, chain_grad = _forward_backward(lambda f: _unfused(propagator, f), data, upstream)
        np.testing.assert_allclose(fused_out, chain_out, rtol=0, atol=ATOL)
        np.testing.assert_allclose(fused_grad, chain_grad, rtol=0, atol=ATOL)


class CountingBackend:
    """Wraps the autograd backend and counts the transforms run through it."""

    def __init__(self, backend, counts):
        self._backend = backend
        self._counts = counts

    def fft2(self, field, overwrite_x=False):
        self._counts.append("fft2")
        return self._backend.fft2(field, overwrite_x=overwrite_x)

    def ifft2(self, spectrum, overwrite_x=False):
        self._counts.append("ifft2")
        return self._backend.ifft2(spectrum, overwrite_x=overwrite_x)


def test_train_step_runs_one_transform_pair_per_hop_and_direction(monkeypatch, small_config):
    """An L-layer step: 2(L+1) forward transforms, 2L backward (the input hop needs no gradient)."""
    model = DONN(small_config)
    trainer = Trainer(model, num_classes=small_config.num_classes, batch_size=4, seed=0)
    rng = np.random.default_rng(7)
    images, labels = rng.random((4,) + small_config.grid.shape), rng.integers(0, small_config.num_classes, 4)
    counts = []
    real_backend = fft_backends.autograd_backend
    monkeypatch.setattr(fft_backends, "autograd_backend", lambda: CountingBackend(real_backend(), counts))

    def unfused(*args, **kwargs):
        raise AssertionError("a propagation put an ops.fft2 / ops.ifft2 node on the tape")

    monkeypatch.setattr(ops, "fft2", unfused)
    monkeypatch.setattr(ops, "ifft2", unfused)
    trainer.train_epoch(images, labels)
    layers = small_config.num_layers
    assert len(counts) == 2 * (layers + 1) + 2 * layers
    assert counts.count("fft2") == counts.count("ifft2")
