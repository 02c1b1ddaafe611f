import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    central_difference,
    max_rel_error,
    naive_dilated_conv1d,
    onehot_softmax_nll,
    per_array_adam,
    where_relu_backward,
)
import rfsearch
from rfsearch import tensorops
from rfsearch.tensorops import (
    Adam,
    ConvKernel,
    TrainingDiverged,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    init_kernel,
    relu,
    relu_backward,
    softmax_nll_loss,
)


def _views_of_one_buffer(arrays):
    """Copies of ``arrays`` as views that tile one float64 buffer, in order."""
    buffer = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    return buffer, [b.reshape(a.shape) for b, a in zip(np.split(buffer, ends[:-1]), arrays)]


def _kernel(rng, cout, cin, k):
    return ConvKernel(rng.standard_normal((cout, cin, k)), rng.standard_normal(cout))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


class TestConvForward:
    def test_all_zero_input_zero_bias_gives_zeros(self, rng):
        x = np.zeros((2, 3, 16))
        k = ConvKernel(rng.standard_normal((4, 3, 3)), np.zeros(4))
        out = dilated_conv1d_forward(x, k, dilation=4)[0]
        assert np.array_equal(out, np.zeros((2, 4, 16)))

    @pytest.mark.parametrize("dilation", [1, 3, 100])
    def test_width_one_identity_kernel(self, rng, dilation):
        x = rng.standard_normal((2, 1, 10))
        k = ConvKernel(np.array([[[1.0]]]), np.zeros(1))
        out = dilated_conv1d_forward(x, k, dilation=dilation)[0]
        assert np.array_equal(out, x)

    def test_causal_impulse_response(self):
        # impulse at t=5, width-2 kernel, dilation 3: tap1 lands at t=5,
        # tap0 at t=8 (verified against the hand-unrolled loop oracle)
        x = np.zeros((1, 1, 14))
        x[0, 0, 5] = 1.0
        w0, w1 = 2.5, -1.25
        k = ConvKernel(np.array([[[w0, w1]]]), np.zeros(1))
        out = dilated_conv1d_forward(x, k, dilation=3, padding_mode="causal")[0]
        expected = np.zeros(14)
        expected[5] = w1
        expected[8] = w0
        assert np.array_equal(out[0, 0], expected)
        oracle = naive_dilated_conv1d(x, k.weights, k.bias, 3, "causal")
        assert np.array_equal(out, oracle)

    @pytest.mark.parametrize("mode", ["causal", "centered"])
    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_same_length_output(self, rng, mode, dilation):
        x = rng.standard_normal((2, 3, 40))
        k = _kernel(rng, 4, 3, 3)
        out = dilated_conv1d_forward(x, k, dilation, mode)[0]
        assert out.shape == (2, 4, 40)

    def test_linearity(self, rng):
        x1 = rng.standard_normal((2, 3, 24))
        x2 = rng.standard_normal((2, 3, 24))
        k = ConvKernel(rng.standard_normal((4, 3, 3)), np.zeros(4))
        a, b = 1.7, -0.3
        lhs = dilated_conv1d_forward(a * x1 + b * x2, k, 2)[0]
        rhs = a * dilated_conv1d_forward(x1, k, 2)[0] + b * dilated_conv1d_forward(x2, k, 2)[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_causal_receptive_field_window(self, rng):
        # perturbation outside [t - (K-1)*d, t] leaves output at t bit-identical;
        # the tap positions themselves must matter
        K, d, t = 3, 4, 20
        x = rng.standard_normal((1, 2, 32))
        k = _kernel(rng, 2, 2, K)
        base = dilated_conv1d_forward(x, k, d)[0]
        window_lo = t - (K - 1) * d
        taps = {t - (K - 1 - j) * d for j in range(K)}
        for pos in range(32):
            x2 = x.copy()
            x2[0, :, pos] += 7.5
            out = dilated_conv1d_forward(x2, k, d)[0]
            if pos in taps:
                assert not np.array_equal(out[0, :, t], base[0, :, t])
            elif not (window_lo <= pos <= t):
                assert np.array_equal(out[0, :, t], base[0, :, t])

    def test_channel_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 2, 10))
        k = _kernel(rng, 2, 3, 3)
        with pytest.raises(ValueError):
            dilated_conv1d_forward(x, k, 1)

    def test_centered_even_kernel_rejected(self, rng):
        x = rng.standard_normal((1, 2, 10))
        k = _kernel(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            dilated_conv1d_forward(x, k, 1, "centered")

    def test_centered_window_must_fit(self, rng):
        x = rng.standard_normal((1, 1, 10))
        k = _kernel(rng, 1, 1, 3)
        with pytest.raises(ValueError):
            dilated_conv1d_forward(x, k, 5, "centered")

    def test_bad_dilation_rejected(self, rng):
        x = rng.standard_normal((1, 1, 10))
        k = _kernel(rng, 1, 1, 3)
        with pytest.raises(ValueError):
            dilated_conv1d_forward(x, k, 0)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self, rng):
        x = rng.standard_normal((2, 2, 12))
        k = _kernel(rng, 3, 2, 3)
        out, tape = dilated_conv1d_forward(x, k, 2)
        gx, gw, gb = dilated_conv1d_backward(tape, np.zeros_like(out))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_width_one_weight_grad_is_correlation(self, rng):
        x = rng.standard_normal((1, 1, 15))
        k = ConvKernel(rng.standard_normal((1, 1, 1)), np.zeros(1))
        out, tape = dilated_conv1d_forward(x, k, 1)
        go = rng.standard_normal(out.shape)
        _, gw, _ = dilated_conv1d_backward(tape, go)
        assert gw.shape == (1, 1, 1)
        np.testing.assert_allclose(gw[0, 0, 0], float((x * go).sum()), rtol=1e-12)

    @pytest.mark.parametrize("mode", ["causal", "centered"])
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(77)
        x = rng.standard_normal((2, 2, 14))
        k = _kernel(rng, 3, 2, 3)
        probe = rng.standard_normal((2, 3, 14))

        def loss():
            return float((dilated_conv1d_forward(x, k, 2, mode)[0] * probe).sum())

        out, tape = dilated_conv1d_forward(x, k, 2, mode)
        gx, gw, gb = dilated_conv1d_backward(tape, probe)
        assert max_rel_error(gx, central_difference(loss, x)) < 1e-6
        assert max_rel_error(gw, central_difference(loss, k.weights)) < 1e-6
        assert max_rel_error(gb, central_difference(loss, k.bias)) < 1e-6

    def test_grad_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 1, 10))
        k = _kernel(rng, 1, 1, 2)
        _, tape = dilated_conv1d_forward(x, k, 1)
        with pytest.raises(ValueError):
            dilated_conv1d_backward(tape, np.zeros((1, 1, 11)))


def test_relu_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 10))
    probe = rng.standard_normal(x.shape)

    def loss():
        return float((relu(x) * probe).sum())

    grad = relu_backward(x, probe)
    assert max_rel_error(grad, central_difference(loss, x)) < 1e-6


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestReluBitForBit:
    def test_backward_matches_selection_up_to_the_sign_of_zero(self, rng):
        # x holds exact zeros of both signs; the gradient is negative at some
        # inactive units, where the mask multiply gives -0.0 and np.where +0.0
        x = rng.standard_normal((4, 5, 32))
        x[:, :, ::7] = 0.0
        x[:, :, 3::11] = -0.0
        g = rng.standard_normal(x.shape)
        g[:, 0, :] = 0.0
        got = relu_backward(x, g)
        want = where_relu_backward(x, g)
        assert np.array_equal(_bits(got + 0.0), _bits(want))
        signed = _bits(got) != _bits(want)
        assert signed.any()
        assert np.all((got[signed] == 0.0) & (g[signed] < 0.0) & ~(x[signed] > 0.0))

    def test_backward_from_the_activation_equals_from_the_input(self, rng):
        z = rng.standard_normal((3, 4, 20))
        z[:, :, ::5] = 0.0
        g = rng.standard_normal(z.shape)
        a = relu(z)
        assert np.array_equal(_bits(relu_backward(a, g)), _bits(relu_backward(z, g)))

    def test_in_place_backward(self, rng):
        x = rng.standard_normal((2, 3, 16))
        g = rng.standard_normal(x.shape)
        want = relu_backward(x, g)
        got = relu_backward(x, g, out=g)
        assert got is g
        assert np.array_equal(_bits(got), _bits(want))

    def test_in_place_forward(self, rng):
        z = rng.standard_normal((2, 3, 16))
        want = np.maximum(z, 0.0)
        a = relu(z, out=z)
        assert a is z
        assert np.array_equal(_bits(a), _bits(want))

    def test_non_finite_gradient_at_an_inactive_unit_propagates(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = np.array([np.inf, np.nan, 1.0])
        with np.errstate(invalid="ignore"):
            out = relu_backward(x, g)
        assert np.isnan(out[0]) and np.isnan(out[1]) and out[2] == 1.0


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestSoftmaxNLL:
    def test_uniform_logits_is_log_num_classes(self):
        logits = np.zeros((2, 5, 7))
        targets = np.zeros((2, 7), dtype=np.int64)
        loss, _ = softmax_nll_loss(logits, targets)
        np.testing.assert_allclose(loss, np.log(5.0), rtol=1e-12)

    def test_saturated_correct_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 2, 4))
        logits[0, 1, :] = 50.0
        targets = np.ones((1, 4), dtype=np.int64)
        loss, _ = softmax_nll_loss(logits, targets)
        assert loss < 1e-20

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((2, 4, 9))
        targets = rng.integers(0, 4, size=(2, 9))
        mask = rng.random((2, 9)) < 0.7
        mask[0, 0] = True  # keep the mask non-empty

        def loss():
            return softmax_nll_loss(logits, targets, mask)[0]

        _, grad = softmax_nll_loss(logits, targets, mask)
        assert max_rel_error(grad, central_difference(loss, logits)) < 1e-6

    def test_masked_frames_contribute_nothing(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((1, 3, 8))
        targets = rng.integers(0, 3, size=(1, 8))
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, 4:] = True
        loss_a, grad_a = softmax_nll_loss(logits, targets, mask)
        perturbed = logits.copy()
        perturbed[0, :, :4] += 100.0
        loss_b, grad_b = softmax_nll_loss(perturbed, targets, mask)
        assert loss_a == loss_b
        assert np.array_equal(grad_a[:, :, 4:], grad_b[:, :, 4:])
        assert not grad_a[:, :, :4].any()

    def test_out_of_range_label_rejected(self):
        logits = np.zeros((1, 3, 4))
        targets = np.full((1, 4), 3, dtype=np.int64)
        with pytest.raises(ValueError):
            softmax_nll_loss(logits, targets)

    def test_empty_mask_rejected(self):
        logits = np.zeros((1, 3, 4))
        targets = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            softmax_nll_loss(logits, targets, np.zeros((1, 4), dtype=bool))


@pytest.mark.parametrize("B,C,T,masked", [(2, 4, 9, True), (3, 8, 64, True),
                                           (1, 2, 5, False), (4, 3, 17, True),
                                           (1, 5, 12, True), (3, 1, 10, True),
                                           (4, 6, 1, True)])
def test_softmax_nll_matches_onehot_reference_bit_for_bit(B, C, T, masked):
    rng = np.random.default_rng(B * 100 + T)
    logits = rng.standard_normal((B, C, T)) * 3.0
    targets = rng.integers(0, C, size=(B, T))
    mask = rng.random((B, T)) < 0.6 if masked else np.ones((B, T), dtype=bool)
    mask[0, 0] = True
    loss, grad = softmax_nll_loss(logits, targets, mask if masked else None)
    want_loss, want_grad = onehot_softmax_nll(logits, targets, mask)
    assert np.array_equal(_bits(loss), _bits(want_loss))
    assert np.array_equal(_bits(grad), _bits(want_grad))
    assert np.all(_bits(grad.transpose(0, 2, 1)[~mask]) == 0)  # masked frames: +0.0
    only = softmax_nll_loss(logits, targets, mask if masked else None, want_grad=False)
    assert np.array_equal(_bits(only), _bits(loss))
    assert np.array_equal(_bits(only), _bits(want_loss))


@pytest.mark.parametrize("B,C,T", [(3, 4, 9), (1, 1, 1)])
def test_softmax_nll_with_one_counted_frame_matches_onehot_reference_bit_for_bit(B, C, T):
    rng = np.random.default_rng(B * 1000 + C * 10 + T)
    logits = rng.standard_normal((B, C, T)) * 3.0
    targets = rng.integers(0, C, size=(B, T))
    mask = np.zeros((B, T), dtype=bool)
    mask[-1, -1] = True
    loss, grad = softmax_nll_loss(logits, targets, mask)
    want_loss, want_grad = onehot_softmax_nll(logits, targets, mask)
    assert np.array_equal(_bits(loss), _bits(want_loss))
    assert np.array_equal(_bits(grad), _bits(want_grad))
    only = softmax_nll_loss(logits, targets, mask, want_grad=False)
    assert np.array_equal(_bits(only), _bits(want_loss))


def test_softmax_nll_on_a_strided_view_matches_onehot_reference_bit_for_bit():
    # logits with the class axis contiguous, more than 8 classes: the class
    # sum reduces in that layout, as the oracle's does, and the gradient is
    # still written at every target
    rng = np.random.default_rng(31)
    B, C, T = 3, 12, 20
    logits = (rng.standard_normal((B, T, C)) * 3.0).transpose(0, 2, 1)
    targets = rng.integers(0, C, size=(B, T))
    mask = rng.random((B, T)) < 0.7
    mask[0, 0] = True
    loss, grad = softmax_nll_loss(logits, targets, mask)
    want_loss, want_grad = onehot_softmax_nll(logits, targets, mask)
    assert np.array_equal(_bits(loss), _bits(want_loss))
    assert np.array_equal(_bits(grad), _bits(want_grad))
    assert np.array_equal(_bits(softmax_nll_loss(logits, targets, mask, want_grad=False)),
                          _bits(want_loss))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        opt = Adam(params, learning_rate=0.1)
        opt.step(params, [np.zeros(2), np.zeros((1, 1))])
        assert np.array_equal(params[0], before[0])
        assert np.array_equal(params[1], before[1])
        assert opt.steps == 1

    def test_single_scalar_first_step(self):
        # independent single-step arithmetic: m_hat = g, v_hat = g^2,
        # update = lr * g / (|g| + eps)
        lr, eps = 0.1, 1e-8
        expected_delta = lr * 1.0 / (1.0 + eps)
        params = [np.array([0.5])]
        opt = Adam(params, learning_rate=lr)
        opt.step(params, [np.array([1.0])])
        np.testing.assert_allclose(0.5 - params[0][0], expected_delta, rtol=1e-15)
        assert abs((0.5 - params[0][0]) - 0.1) < 1e-8

    def test_repeated_gradient_moves_monotonically(self):
        params = [np.array([0.0])]
        opt = Adam(params, learning_rate=0.05)
        g = [np.array([2.5])]
        opt.step(params, g)
        p1 = params[0][0]
        opt.step(params, g)
        assert p1 < 0.0
        assert params[0][0] < p1

    def test_non_finite_gradient_raises(self):
        params = [np.array([0.0])]
        opt = Adam(params)
        with pytest.raises(TrainingDiverged):
            opt.step(params, [np.array([np.nan])])

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(3)]
        opt = Adam(params)
        with pytest.raises(ValueError):
            opt.step(params, [np.zeros(4)])

    @pytest.mark.parametrize("flat", [False, True])
    def test_matches_per_array_reference_bit_for_bit(self, rng, flat):
        shapes = [(4, 3, 2), (4,), (1,), (2, 5), (3,)]
        start = [rng.standard_normal(s) for s in shapes]
        steps = [[rng.standard_normal(s) * 10.0**k for s in shapes] for k in range(-2, 3)]
        steps[1][2][:] = 0.0
        want, want_m, want_v = per_array_adam(start, steps, lr=0.03)
        if flat:  # parameters that alias one buffer are updated the same way
            buffer, params = _views_of_one_buffer(start)
        else:
            params = [p.copy() for p in start]
        opt = Adam(params, learning_rate=0.03)
        for grads in steps:
            opt.step(params, grads)
        for p, w in zip(params, want):
            assert np.array_equal(_bits(p), _bits(w))
        assert np.array_equal(_bits(opt.m), _bits(np.concatenate(want_m, axis=None)))
        assert np.array_equal(_bits(opt.v), _bits(np.concatenate(want_v, axis=None)))
        if flat:
            assert all(p.base is buffer for p in params)

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_gradient_names_its_parameter(self, bad, at, value):
        shapes = [(2, 3), (1,), (4,), (2, 1, 2)]
        params = [np.ones(s) for s in shapes]
        grads = [np.zeros(s) for s in shapes]
        grads[bad].flat[at] = value
        grads[-1].flat[-1] = np.nan  # a later parameter's NaN is not the one named
        opt = Adam(params)
        with pytest.raises(TrainingDiverged, match=rf"non-finite gradient for parameter {bad}$"):
            opt.step(params, grads)
        assert all(np.array_equal(p, np.ones(p.shape)) for p in params)


def test_init_kernel_bounds_and_determinism():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    k1 = init_kernel(rng1, 4, 3, 5)
    k2 = init_kernel(rng2, 4, 3, 5)
    bound = 1.0 / np.sqrt(3 * 5)
    assert np.array_equal(k1.weights, k2.weights)
    assert np.array_equal(k1.bias, k2.bias)
    assert np.abs(k1.weights).max() <= bound
    assert np.abs(k1.bias).max() <= bound


class TestKeepHeap:
    def test_sets_glibc_trim_and_mmap_thresholds(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(tensorops.ctypes, "CDLL", lambda name: Libc())
        tensorops.keep_heap()
        # M_TRIM_THRESHOLD = -1 to 1 GiB, M_MMAP_THRESHOLD = -3 to 32 MiB:
        # a fixed trim threshold alone would mmap every array of 128 KiB or more
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    @pytest.mark.parametrize("libc", ["no-mallopt", "no-handle"])
    def test_does_nothing_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if libc == "no-handle":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(tensorops.ctypes, "CDLL", cdll)
        assert tensorops.keep_heap() is None

    def test_importing_the_package_leaves_the_allocator_alone(self):
        probe = """
import ctypes, importlib, pkgutil
import numpy
calls = []
class Mallopt:
    def __call__(self, *args):
        calls.append(args)
class Libc:
    mallopt = Mallopt()
ctypes.CDLL = lambda name: Libc()
import rfsearch
for m in pkgutil.iter_modules(rfsearch.__path__):
    importlib.import_module("rfsearch." + m.name)
print(len(calls))
"""
        src = str(Path(rfsearch.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["0"]
