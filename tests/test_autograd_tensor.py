"""Tests for the core Tensor type: arithmetic, shapes, reductions, autograd."""

import threading

import numpy as np
import pytest

from repro.autograd import Parameter, Tensor, no_grad, is_grad_enabled, tensor, check_gradients
from repro.autograd.tensor import _adjoint


class Testconstruction:
    def test_from_list_promotes_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_from_complex_list(self):
        t = Tensor([1 + 1j, 2.0])
        assert t.is_complex

    def test_float32_promoted_to_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float64

    def test_complex64_promoted_to_complex128(self):
        t = Tensor(np.zeros(3, dtype=np.complex64))
        assert t.dtype == np.complex128

    def test_bool_promoted_to_float(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype == np.float64

    def test_tensor_helper(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t.requires_grad

    def test_repr_mentions_requires_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad=True" in repr(t)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_numpy_returns_underlying_array(self):
        data = np.arange(3.0)
        t = Tensor(data)
        assert np.shares_memory(t.numpy(), t.data)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar_right_and_left(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((t + 1).data, [2.0, 3.0])
        np.testing.assert_allclose((1 + t).data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((t - 1).data, [0.0, 1.0])
        np.testing.assert_allclose((5 - t).data, [4.0, 3.0])

    def test_mul_and_div(self):
        t = Tensor([2.0, 4.0])
        np.testing.assert_allclose((t * 3).data, [6.0, 12.0])
        np.testing.assert_allclose((t / 2).data, [1.0, 2.0])
        np.testing.assert_allclose((8 / t).data, [4.0, 2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_matmul_values(self):
        a = Tensor(np.eye(2) * 2)
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose((a @ b).data, [[2.0, 4.0], [6.0, 8.0]])

    def test_rmatmul_with_ndarray(self):
        a = np.eye(2)
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = a @ b
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, b.data)

    def test_comparisons_return_numpy(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert (t > 1.5).tolist() == [False, True, True]
        assert (t <= 2.0).tolist() == [True, True, False]
        assert (t < 2.0).tolist() == [True, False, False]
        assert (t >= 3.0).tolist() == [False, False, True]


class TestAutogradBasics:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_broadcast_backward_sums_over_broadcast_axes(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_scalar_broadcast_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad == pytest.approx(4.0)

    def test_grad_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        out = a * 2 + a * 3
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_backward_requires_scalar_without_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [2.0, 20.0])

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).sum().backward()

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        out = (a * 2).detach() * 3
        assert not out.requires_grad

    def test_no_grad_context(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_overlapping_no_grad_on_two_threads_leaves_grad_on(self):
        """Thread A enters no_grad, B enters, A leaves, B leaves: every
        thread, this one included, must end with grad mode on."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def first():
            with no_grad():
                a_in.set()
                b_in.wait(10.0)
            a_out.set()
            after["first"] = is_grad_enabled()

        def second():
            a_in.wait(10.0)
            with no_grad():
                b_in.set()
                a_out.wait(10.0)
            after["second"] = is_grad_enabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert after == {"first": True, "second": True}
        assert is_grad_enabled()
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_gradient(self):
        a = Tensor(2.0, requires_grad=True)
        b = a * 3
        c = a * 4
        (b * c).backward()  # d/da (12 a^2) = 24a = 48
        assert a.grad == pytest.approx(48.0)


class TestGradOwnership:
    """``.grad`` is a buffer the tensor owns; accumulation never writes an upstream array."""

    def test_grad_is_an_owned_contiguous_buffer_of_the_parameter(self):
        real = Parameter(np.ones((3, 4)))
        cplx = Parameter(np.ones((4, 3)) + 1j)
        # real.T gives a transposed (non-contiguous) first gradient; real.sum()
        # then adds a read-only broadcast view.
        loss = (real.T * cplx).abs2().sum() + real.sum()
        loss.backward()
        for param in (real, cplx):
            assert param.grad.shape == param.shape
            assert param.grad.dtype == param.dtype
            assert param.grad.flags.c_contiguous and param.grad.flags.writeable and param.grad.flags.owndata

    def test_two_parents_of_one_upstream_array_get_separate_buffers(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = a + b
        out.backward(np.ones(2))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 10.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(out.grad, [1.0, 1.0])

    @pytest.mark.parametrize("op, expected", [(lambda x: x + x, [2.0, 2.0]), (lambda x: x * x, [2.0, -4.0])])
    def test_repeated_parent_accumulates_without_touching_upstream(self, op, expected):
        x = Tensor([1.0, -2.0], requires_grad=True)
        out = op(x)
        out.backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, expected)
        np.testing.assert_array_equal(out.grad, [1.0, 1.0])

    def test_backward_leaves_callers_gradient_unchanged(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = np.array([1.0, -1.0])
        (x + x).backward(g)
        np.testing.assert_array_equal(g, [1.0, -1.0])
        np.testing.assert_array_equal(x.grad, [2.0, -2.0])

    def test_matmul_adjoint_copies_only_complex_operands(self):
        real = np.arange(6.0).reshape(2, 3)
        assert np.shares_memory(_adjoint(real), real)
        cplx = real + 1j
        np.testing.assert_array_equal(_adjoint(cplx), np.conj(cplx.T))


class TestShapes:
    def test_reshape_and_flatten(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.reshape((6,)).shape == (6,)
        assert t.flatten().shape == (6,)

    def test_reshape_backward(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        (t.reshape(2, 3) * 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(6, 2.0))

    def test_transpose_default_and_axes(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert t.T.shape == (4, 3, 2)
        assert t.transpose(0, 2, 1).shape == (2, 4, 3)

    def test_transpose_backward(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        weights = np.arange(6.0).reshape(3, 2)
        (t.transpose() * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(t.grad, weights.T)

    def test_getitem_forward_and_backward(self):
        t = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
        picked = t[1]
        np.testing.assert_allclose(picked.data, [3.0, 4.0, 5.0])
        picked.sum().backward()
        expected = np.zeros((3, 3))
        expected[1] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_fancy_index_backward_accumulates(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_negative_step_slice_backward(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        (t[::-1] * Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 3.0, 2.0, 1.0])


class TestReductions:
    def test_sum_axis_and_keepdims(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_sum_backward_with_axis(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        (t.sum(axis=1) * Tensor(np.array([2.0, 3.0]))).sum().backward()
        np.testing.assert_allclose(t.grad, [[2.0] * 3, [3.0] * 3])

    def test_mean(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(t.mean(axis=1).data, [1.0, 4.0])

    def test_max_forward(self):
        t = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]))
        assert t.max().item() == 7.0
        np.testing.assert_allclose(t.max(axis=0).data, [7.0, 5.0])

    def test_max_backward_routes_to_argmax(self):
        t = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_max_backward_ties_split_gradient(self):
        t = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])


class TestElementwiseMath:
    def test_exp_log_roundtrip(self):
        t = Tensor([0.5, 1.5])
        np.testing.assert_allclose(t.exp().log().data, t.data)

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_trig(self):
        t = Tensor([0.0, np.pi / 2])
        np.testing.assert_allclose(t.sin().data, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(t.cos().data, [1.0, 0.0], atol=1e-12)

    def test_tanh_range(self):
        out = Tensor(np.linspace(-5, 5, 11)).tanh().data
        assert np.all(np.abs(out) <= 1.0)

    def test_clip_values_and_gradient_masking(self):
        t = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        clipped = t.clip(0.0, 1.0)
        np.testing.assert_allclose(clipped.data, [0.0, 0.5, 1.0])
        clipped.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_gradcheck_scalar_chain(self, rng):
        x = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda x: (x.exp() * x.log() + x.sqrt()).sum(), [x])

    def test_gradcheck_trig_chain(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert check_gradients(lambda x: (x.sin() * x.cos() + x.tanh()).sum(), [x])

    def test_gradcheck_division(self, rng):
        a = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=True)
        b = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=True)
        assert check_gradients(lambda a, b: (a / b).sum(), [a, b])

    def test_gradcheck_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert check_gradients(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_gradcheck_pow_negative_exponent(self, rng):
        x = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=True)
        assert check_gradients(lambda x: (x**-1.5).sum(), [x])
