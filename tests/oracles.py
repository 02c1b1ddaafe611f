"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (hand-unrolled loops, central
differences) and shares no code with the library paths it checks.
"""

import numpy as np


def naive_dilated_conv1d(x, weights, bias, dilation, padding_mode="causal"):
    """Direct per-entry convolution; zero padding via bounds checks."""
    B, Cin, T = x.shape
    Cout, _, K = weights.shape
    out = np.zeros((B, Cout, T))
    for bi in range(B):
        for o in range(Cout):
            for t in range(T):
                acc = bias[o]
                for c in range(Cin):
                    for j in range(K):
                        if padding_mode == "causal":
                            s = t - (K - 1 - j) * dilation
                        else:
                            s = t + (j - (K - 1) // 2) * dilation
                        if 0 <= s < T:
                            acc += weights[o, c, j] * x[bi, c, s]
                out[bi, o, t] = acc
    return out


def naive_offset_conv1d(x, weights, bias, offsets):
    """Direct per-entry convolution over arbitrary signed tap offsets: tap j
    reads x[..., t + offsets[j]] for output frame t, zero outside [0, T)."""
    B, Cin, T = x.shape
    Cout, _, K = weights.shape
    out = np.zeros((B, Cout, T))
    for bi in range(B):
        for o in range(Cout):
            for t in range(T):
                acc = bias[o]
                for c in range(Cin):
                    for j in range(K):
                        s = t + int(offsets[j])
                        if 0 <= s < T:
                            acc += weights[o, c, j] * x[bi, c, s]
                out[bi, o, t] = acc
    return out


def naive_offset_conv1d_grads(grad_out, x, weights, offsets):
    """Input and weight gradients of naive_offset_conv1d, one multiply-add
    per (output entry, input channel, tap) that reads in range."""
    B, Cin, T = x.shape
    Cout, _, K = weights.shape
    gx = np.zeros((B, Cin, T))
    gw = np.zeros((Cout, Cin, K))
    for bi in range(B):
        for o in range(Cout):
            for t in range(T):
                for c in range(Cin):
                    for j in range(K):
                        s = t + int(offsets[j])
                        if 0 <= s < T:
                            gx[bi, c, s] += weights[o, c, j] * grad_out[bi, o, t]
                            gw[o, c, j] += grad_out[bi, o, t] * x[bi, c, s]
    return gx, gw


def central_difference(f, array, step=1e-5):
    """Numerical gradient of scalar f() with respect to `array` (in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def where_relu_backward(x, grad_out):
    """ReLU adjoint by selection: grad_out where x > 0, else +0.0."""
    return np.where(x > 0.0, grad_out, 0.0)


def onehot_softmax_nll(logits, targets, mask):
    """Masked mean NLL and its gradient (p - onehot) * mask / count, with the
    one-hot array built by a loop over the counted frames."""
    B, C, T = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = np.take_along_axis(log_p, targets[:, None, :], axis=1)[:, 0, :]
    count = int(mask.sum())
    loss = -float(picked[mask].sum()) / count
    onehot = np.zeros_like(logits)
    for b in range(B):
        for t in range(T):
            if mask[b, t]:
                onehot[b, targets[b, t], t] = 1.0
    return loss, (np.exp(log_p) - onehot) * mask[:, None, :] / count


def per_array_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with bias correction, one array at a time, with fresh temporaries;
    returns the final params and moments (copies)."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            params[i] = params[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    return params, m, v
