"""Minimal float64 training engine for dilated 1-D convolutional networks.

Sequence batches are plain numpy arrays with layout (batch, channel, time).
Every operation is a deterministic function of its inputs; gradients are
hand-written adjoints and are checked against finite differences in the test
suite.  All math runs in 64-bit precision.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "TrainingDiverged",
    "DegenerateCoefficientsError",
    "ConvKernel",
    "ConvTape",
    "Adam",
    "WORST_FITNESS",
    "init_kernel",
    "tap_offsets",
    "dilated_conv1d_forward",
    "dilated_conv1d_backward",
    "relu",
    "relu_backward",
    "softmax_nll_loss",
    "mse_loss",
]

# Sentinel fitness for diverged candidate evaluations (finite stand-in for -inf).
WORST_FITNESS = -sys.float_info.max


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


class DegenerateCoefficientsError(ValueError):
    """Raised when branch coefficients cannot be normalized into a PMF."""


def _as_seq_batch(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{name} must have shape (batch, channel, time), got {x.shape}")
    if x.shape[2] < 1:
        raise ValueError(f"{name} must have length >= 1, got {x.shape}")
    return x


@dataclass
class ConvKernel:
    """Convolution parameters: weights (out, in, tap) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 + 1:
            raise ValueError(f"weights must be (out, in, tap), got {self.weights.shape}")
        if self.weights.shape[2] < 1:
            raise ValueError("kernel_size must be >= 1")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out channels "
                f"{self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("kernel parameters must be finite")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    def copy(self) -> "ConvKernel":
        return ConvKernel(self.weights.copy(), self.bias.copy())


def init_kernel(
    rng: np.random.Generator, out_channels: int, in_channels: int, kernel_size: int
) -> ConvKernel:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in = in*tap."""
    bound = 1.0 / np.sqrt(in_channels * kernel_size)
    w = rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel_size))
    b = rng.uniform(-bound, bound, size=out_channels)
    return ConvKernel(w, b)


def tap_offsets(kernel_size: int, dilation: int, padding_mode: str) -> np.ndarray:
    """Signed time shift per tap.

    causal:   tap j reads x[t - (K-1-j)*d]; same-length left zero padding.
    centered: tap j reads x[t + (j - (K-1)//2)*d]; requires odd K.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if padding_mode == "causal":
        shift = np.arange(kernel_size, dtype=np.int64) - (kernel_size - 1)
    elif padding_mode == "centered":
        if kernel_size % 2 == 0:
            raise ValueError("centered padding requires an odd kernel_size")
        shift = np.arange(kernel_size, dtype=np.int64) - (kernel_size - 1) // 2
    else:
        raise ValueError(f"unknown padding_mode {padding_mode!r}")
    return shift * np.int64(dilation)


@dataclass
class ConvTape:
    """Cached forward state needed for the exact backward pass."""

    x: np.ndarray
    kernel: ConvKernel
    dilation: int
    padding_mode: str
    offsets: np.ndarray


def dilated_conv1d_forward(
    x: np.ndarray,
    kernel: ConvKernel,
    dilation: int,
    padding_mode: str = "causal",
    want_tape: bool = False,
):
    """Same-length dilated convolution; returns output or (output, tape)."""
    x = _as_seq_batch(x)
    if x.shape[1] != kernel.in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}"
        )
    offsets = tap_offsets(kernel.kernel_size, dilation, padding_mode)
    if padding_mode == "centered" and (kernel.kernel_size - 1) * dilation >= x.shape[2]:
        raise ValueError(
            "centered mode requires (kernel_size-1)*dilation < sequence length"
        )
    out = _kernels.conv1d_forward(x, kernel.weights, kernel.bias, offsets)
    if want_tape:
        return out, ConvTape(x, kernel, int(dilation), padding_mode, offsets)
    return out


def dilated_conv1d_backward(tape: ConvTape, grad_out: np.ndarray):
    """Exact adjoint of the forward pass: (grad_x, grad_weights, grad_bias)."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    expected = (tape.x.shape[0], tape.kernel.out_channels, tape.x.shape[2])
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape}, expected {expected}")
    grad_x = _kernels.conv1d_grad_input(grad_out, tape.kernel.weights, tape.offsets)
    grad_w = _kernels.conv1d_grad_weights(
        grad_out, tape.x, tape.kernel.kernel_size, tape.offsets
    )
    grad_b = grad_out.sum(axis=(0, 2))
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, grad_out, 0.0)


def _normalize_mask(mask, shape):
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape}, expected {shape}")
    return mask


def softmax_nll_loss(logits: np.ndarray, targets: np.ndarray, mask=None):
    """Mean per-frame negative log softmax probability over unmasked frames.

    logits: (batch, class, time); targets: integer (batch, time);
    mask: optional boolean (batch, time), True = counted.
    Returns (loss, grad_logits) with the exact gradient.
    """
    logits = _as_seq_batch(logits, "logits")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0], logits.shape[2]):
        raise ValueError(
            f"targets shape {targets.shape}, expected {(logits.shape[0], logits.shape[2])}"
        )
    n_classes = logits.shape[1]
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError(f"targets must lie in [0, {n_classes})")
    mask = _normalize_mask(mask, targets.shape)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("mask selects no frames")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z  # (B, C, T)
    picked = np.take_along_axis(log_p, targets[:, None, :], axis=1)[:, 0, :]
    loss = -float(picked[mask].sum()) / count

    grad = np.exp(log_p)
    b_idx, t_idx = np.nonzero(mask)
    onehot = np.zeros_like(grad)
    onehot[b_idx, targets[b_idx, t_idx], t_idx] = 1.0
    grad = (grad - onehot) * mask[:, None, :] / count
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray, mask=None):
    """Mean squared error over unmasked frames (all channels of a frame count)."""
    pred = _as_seq_batch(pred, "pred")
    target = _as_seq_batch(target, "target")
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    mask = _normalize_mask(mask, (pred.shape[0], pred.shape[2]))
    count = int(mask.sum()) * pred.shape[1]
    if count == 0:
        raise ValueError("mask selects no frames")
    diff = (pred - target) * mask[:, None, :]
    loss = float((diff * diff).sum()) / count
    grad = 2.0 * diff / count
    return loss, grad


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


class Adam:
    """In-place Adam with bias correction over a list of parameter arrays."""

    def __init__(
        self,
        params: list[np.ndarray],
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.steps = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(self.m):
            raise ValueError("parameter list changed size under the optimizer")
        self.steps += 1
        bc1 = 1.0 - self.beta1**self.steps
        bc2 = 1.0 - self.beta2**self.steps
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ValueError(f"param {i}: shape {p.shape} != grad shape {g.shape}")
            if not np.isfinite(g).all():
                raise TrainingDiverged(f"non-finite gradient for parameter {i}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
