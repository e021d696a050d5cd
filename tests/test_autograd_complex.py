"""Complex-number autodiff: Wirtinger gradients, FFTs, phase modulation.

These tests pin down the gradient convention the optical kernels rely on:
finite-difference gradients of real scalar losses w.r.t. real *and*
complex leaves must match the analytic backward passes exactly.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, functional, numerical_gradient, ops


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestComplexElementwise:
    def test_conj_values(self, rng):
        z = Tensor(_random_complex(rng, (3,)))
        np.testing.assert_allclose(z.conj().data, np.conj(z.data))

    def test_abs2_is_intensity(self, rng):
        z = Tensor(_random_complex(rng, (4,)))
        np.testing.assert_allclose(z.abs2().data, np.abs(z.data) ** 2)
        assert not z.abs2().is_complex

    def test_real_imag_angle_abs_values(self, rng):
        z = Tensor(_random_complex(rng, (5,)))
        np.testing.assert_allclose(z.real().data, z.data.real)
        np.testing.assert_allclose(z.imag().data, z.data.imag)
        np.testing.assert_allclose(z.angle().data, np.angle(z.data))
        np.testing.assert_allclose(z.abs().data, np.abs(z.data))

    def test_to_complex_promotes(self):
        t = Tensor([1.0, 2.0])
        assert t.to_complex().is_complex
        z = Tensor([1.0 + 0j])
        assert z.to_complex() is z

    def test_gradcheck_abs2(self, rng):
        z = Tensor(_random_complex(rng, (3, 3)), requires_grad=True)
        assert check_gradients(lambda z: z.abs2().sum(), [z])

    def test_gradcheck_abs(self, rng):
        z = Tensor(_random_complex(rng, (3, 3)) + 2.0, requires_grad=True)
        assert check_gradients(lambda z: z.abs().sum(), [z])

    def test_gradcheck_real_imag(self, rng):
        z = Tensor(_random_complex(rng, (2, 2)), requires_grad=True)
        weights = rng.normal(size=(2, 2))
        assert check_gradients(lambda z: (z.real() * weights).sum() + (z.imag() * weights).sum(), [z])

    def test_gradcheck_angle(self, rng):
        z = Tensor(_random_complex(rng, (3,)) + 3.0, requires_grad=True)
        weights = rng.normal(size=3)
        assert check_gradients(lambda z: (z.angle() * weights).sum(), [z])

    def test_gradcheck_conj_chain(self, rng):
        z = Tensor(_random_complex(rng, (3,)), requires_grad=True)
        assert check_gradients(lambda z: (z * z.conj()).real().sum(), [z])

    def test_gradcheck_complex_mul(self, rng):
        a = Tensor(_random_complex(rng, (3, 3)), requires_grad=True)
        b = Tensor(_random_complex(rng, (3, 3)), requires_grad=True)
        assert check_gradients(lambda a, b: (a * b).abs2().sum(), [a, b])

    def test_gradcheck_complex_matmul(self, rng):
        a = Tensor(_random_complex(rng, (2, 3)), requires_grad=True)
        b = Tensor(_random_complex(rng, (3, 2)), requires_grad=True)
        assert check_gradients(lambda a, b: (a @ b).abs2().sum(), [a, b])

    def test_gradcheck_complex_exp(self, rng):
        z = Tensor(0.3 * _random_complex(rng, (3,)), requires_grad=True)
        assert check_gradients(lambda z: z.exp().abs2().sum(), [z])

    def test_gradcheck_mixed_real_complex_product(self, rng):
        amplitude = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)), requires_grad=True)
        field = Tensor(_random_complex(rng, (3, 3)), requires_grad=True)
        assert check_gradients(lambda a, f: (a.to_complex() * f).abs2().sum(), [amplitude, field])

    def test_descent_direction_reduces_modulus(self, rng):
        z = Tensor(_random_complex(rng, (4,)), requires_grad=True)
        loss = z.abs2().sum()
        loss.backward()
        stepped = z.data - 0.1 * z.grad
        assert np.sum(np.abs(stepped) ** 2) < float(loss.data)


class TestExpI:
    def test_unit_magnitude(self, rng):
        phase = Tensor(rng.uniform(0, 2 * np.pi, size=(5, 5)))
        np.testing.assert_allclose(np.abs(ops.exp_i(phase).data), 1.0)

    def test_matches_numpy_exp(self, rng):
        """cos and sin of the phase are the complex exponential's parts to
        within one ulp, over wrapped, negative and large phases."""
        phase = np.concatenate(
            [rng.uniform(-20.0, 20.0, size=500), rng.normal(scale=1e6, size=100), [0.0, np.pi, -np.pi / 2]]
        )
        got, expected = ops.exp_i(Tensor(phase)).data, np.exp(1j * phase)
        assert got.dtype == np.complex128
        np.testing.assert_array_max_ulp(got.real, expected.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, expected.imag, maxulp=1)

    def test_gradcheck_phase_only_loss(self, rng):
        phase = Tensor(rng.uniform(-20.0, 20.0, size=(3, 3)), requires_grad=True)
        target = _random_complex(rng, (3, 3))
        assert check_gradients(lambda p: (ops.exp_i(p) - Tensor(target)).abs2().sum(), [phase])

    def test_gradcheck_amplitude_phase_field(self, rng):
        amplitude = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        phase = Tensor(rng.uniform(0, 2 * np.pi, size=(3, 3)), requires_grad=True)
        target = _random_complex(rng, (3, 3))

        def loss(amplitude, phase):
            field = ops.complex_from_amplitude_phase(amplitude, phase)
            return (field - Tensor(target)).abs2().sum()

        assert check_gradients(loss, [amplitude, phase])


class TestFFT:
    def test_fft_matches_numpy(self, rng):
        x = _random_complex(rng, (2, 8, 8))
        np.testing.assert_allclose(ops.fft2(Tensor(x)).data, np.fft.fft2(x), atol=1e-12)

    def test_ifft_matches_numpy(self, rng):
        x = _random_complex(rng, (8, 8))
        np.testing.assert_allclose(ops.ifft2(Tensor(x)).data, np.fft.ifft2(x), atol=1e-12)

    def test_roundtrip_identity(self, rng):
        x = _random_complex(rng, (6, 6))
        np.testing.assert_allclose(ops.ifft2(ops.fft2(Tensor(x))).data, x, atol=1e-12)

    def test_parseval(self, rng):
        x = _random_complex(rng, (8, 8))
        spectrum = ops.fft2(Tensor(x)).data
        assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(spectrum) ** 2) / x.size)

    def test_gradcheck_fft2(self, rng):
        x = Tensor(_random_complex(rng, (4, 4)), requires_grad=True)
        weights = rng.normal(size=(4, 4))
        assert check_gradients(lambda x: (ops.fft2(x).abs2() * weights).sum(), [x])

    def test_gradcheck_ifft2(self, rng):
        x = Tensor(_random_complex(rng, (4, 4)), requires_grad=True)
        weights = rng.normal(size=(4, 4))
        assert check_gradients(lambda x: (ops.ifft2(x).abs2() * weights).sum(), [x])

    def test_gradcheck_batched_fft(self, rng):
        x = Tensor(_random_complex(rng, (2, 3, 3)), requires_grad=True)
        assert check_gradients(lambda x: ops.fft2(x).abs2().sum(), [x])

    def test_fftshift_roundtrip_and_grad(self, rng):
        x = Tensor(_random_complex(rng, (5, 5)), requires_grad=True)
        np.testing.assert_allclose(ops.ifftshift(ops.fftshift(x)).data, x.data)
        weights = rng.normal(size=(5, 5))
        assert check_gradients(lambda x: (ops.fftshift(x).abs2() * weights).sum(), [x])

    def test_gradcheck_full_diffraction_pipeline(self, rng):
        """The exact op chain of a diffractive layer must gradcheck end-to-end."""
        transfer = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 4)))
        image = rng.uniform(0, 1, size=(4, 4))
        target = functional.one_hot(np.array([7]), 16)
        phase = Tensor(rng.uniform(0, 2 * np.pi, size=(4, 4)), requires_grad=True)

        def loss(phase):
            field = Tensor(np.sqrt(image)).to_complex()
            spectrum = ops.fft2(field)
            diffracted = ops.ifft2(spectrum * Tensor(transfer))
            modulated = diffracted * ops.exp_i(phase)
            intensity = ops.ifft2(ops.fft2(modulated) * Tensor(transfer)).abs2()
            return functional.softmax_mse_loss(intensity.reshape(1, 16) * 3.0, Tensor(target))

        assert check_gradients(loss, [phase], atol=1e-7, rtol=1e-4)


class TestNumericalGradientHelper:
    def test_requires_scalar_output(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            numerical_gradient(lambda x: x * 2, [x])

    def test_detects_wrong_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken(x):
            # A "loss" whose graph lies about its gradient: build output from
            # detached data so the analytic gradient is zero.
            return Tensor(float((x.data**2).sum()), requires_grad=True) + x.sum() * 0.0

        with pytest.raises(AssertionError):
            check_gradients(broken, [x])
