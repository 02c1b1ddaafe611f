import numpy as np
import pytest

from oracles import central_difference, max_rel_error, naive_dilated_conv1d
from rfsearch.tensorops import (
    Adam,
    ConvKernel,
    TrainingDiverged,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    init_kernel,
    mse_loss,
    relu,
    relu_backward,
    softmax_nll_loss,
)


def _kernel(rng, cout, cin, k):
    return ConvKernel(rng.standard_normal((cout, cin, k)), rng.standard_normal(cout))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


class TestConvForward:
    def test_all_zero_input_zero_bias_gives_zeros(self, rng):
        x = np.zeros((2, 3, 16))
        k = ConvKernel(rng.standard_normal((4, 3, 3)), np.zeros(4))
        out = dilated_conv1d_forward(x, k, dilation=4)
        assert np.array_equal(out, np.zeros((2, 4, 16)))

    @pytest.mark.parametrize("dilation", [1, 3, 100])
    def test_width_one_identity_kernel(self, rng, dilation):
        x = rng.standard_normal((2, 1, 10))
        k = ConvKernel(np.array([[[1.0]]]), np.zeros(1))
        out = dilated_conv1d_forward(x, k, dilation=dilation)
        assert np.array_equal(out, x)

    def test_causal_impulse_response(self):
        # impulse at t=5, width-2 kernel, dilation 3: tap1 lands at t=5,
        # tap0 at t=8 (verified against the hand-unrolled loop oracle)
        x = np.zeros((1, 1, 14))
        x[0, 0, 5] = 1.0
        w0, w1 = 2.5, -1.25
        k = ConvKernel(np.array([[[w0, w1]]]), np.zeros(1))
        out = dilated_conv1d_forward(x, k, dilation=3, padding_mode="causal")
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
        out = dilated_conv1d_forward(x, k, dilation, mode)
        assert out.shape == (2, 4, 40)

    def test_linearity(self, rng):
        x1 = rng.standard_normal((2, 3, 24))
        x2 = rng.standard_normal((2, 3, 24))
        k = ConvKernel(rng.standard_normal((4, 3, 3)), np.zeros(4))
        a, b = 1.7, -0.3
        lhs = dilated_conv1d_forward(a * x1 + b * x2, k, 2)
        rhs = a * dilated_conv1d_forward(x1, k, 2) + b * dilated_conv1d_forward(x2, k, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_causal_receptive_field_window(self, rng):
        # perturbation outside [t - (K-1)*d, t] leaves output at t bit-identical;
        # the tap positions themselves must matter
        K, d, t = 3, 4, 20
        x = rng.standard_normal((1, 2, 32))
        k = _kernel(rng, 2, 2, K)
        base = dilated_conv1d_forward(x, k, d)
        window_lo = t - (K - 1) * d
        taps = {t - (K - 1 - j) * d for j in range(K)}
        for pos in range(32):
            x2 = x.copy()
            x2[0, :, pos] += 7.5
            out = dilated_conv1d_forward(x2, k, d)
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
        out, tape = dilated_conv1d_forward(x, k, 2, want_tape=True)
        gx, gw, gb = dilated_conv1d_backward(tape, np.zeros_like(out))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_width_one_weight_grad_is_correlation(self, rng):
        x = rng.standard_normal((1, 1, 15))
        k = ConvKernel(rng.standard_normal((1, 1, 1)), np.zeros(1))
        out, tape = dilated_conv1d_forward(x, k, 1, want_tape=True)
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
            return float((dilated_conv1d_forward(x, k, 2, mode) * probe).sum())

        out, tape = dilated_conv1d_forward(x, k, 2, mode, want_tape=True)
        gx, gw, gb = dilated_conv1d_backward(tape, probe)
        assert max_rel_error(gx, central_difference(loss, x)) < 1e-6
        assert max_rel_error(gw, central_difference(loss, k.weights)) < 1e-6
        assert max_rel_error(gb, central_difference(loss, k.bias)) < 1e-6

    def test_grad_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 1, 10))
        k = _kernel(rng, 1, 1, 2)
        _, tape = dilated_conv1d_forward(x, k, 1, want_tape=True)
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


def test_mse_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    pred = rng.standard_normal((2, 3, 6))
    target = rng.standard_normal((2, 3, 6))
    mask = rng.random((2, 6)) < 0.8
    mask[0, 0] = True

    def loss():
        return mse_loss(pred, target, mask)[0]

    _, grad = mse_loss(pred, target, mask)
    assert max_rel_error(grad, central_difference(loss, pred)) < 1e-6


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
        opt = Adam(params, learning_rate=lr, epsilon=eps)
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

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], beta1=1.0)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], beta2=-0.1)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], epsilon=0.0)


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
