"""Minimal float64 training engine for dilated 1-D convolutional networks.

Sequence batches are plain numpy arrays with layout (batch, channel, time).
Every operation is a deterministic function of its inputs; gradients are
hand-written adjoints and are checked against finite differences in the test
suite.  All math runs in 64-bit precision.
"""

from __future__ import annotations

import ctypes
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
    "conv_tape",
    "checked_grad_out",
    "dilated_conv1d_forward",
    "dilated_conv1d_backward",
    "relu",
    "relu_backward",
    "softmax_nll_loss",
    "mse_loss",
    "keep_heap",
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
    """What the backward pass reads: the input, the kernel and its tap offsets."""

    x: np.ndarray
    kernel: ConvKernel
    offsets: np.ndarray


def conv_tape(
    x: np.ndarray, kernel: ConvKernel, dilation: int, padding_mode: str = "causal"
) -> ConvTape:
    """The tape of a same-length dilated conv: its checked float64 input and
    the kernel's tap offsets at ``dilation``."""
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
    return ConvTape(x, kernel, offsets)


def checked_grad_out(tape: ConvTape, grad_out: np.ndarray) -> np.ndarray:
    """``grad_out`` as float64, checked against the output shape of the conv
    that recorded ``tape``."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    expected = (tape.x.shape[0], tape.kernel.out_channels, tape.x.shape[2])
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape}, expected {expected}")
    return grad_out


def dilated_conv1d_forward(
    x: np.ndarray, kernel: ConvKernel, dilation: int, padding_mode: str = "causal"
):
    """Same-length dilated convolution; returns (output, tape).  The tape
    holds references only, so building it costs nothing."""
    tape = conv_tape(x, kernel, dilation, padding_mode)
    out = _kernels.conv1d_forward(tape.x, kernel.weights, kernel.bias, tape.offsets)
    return out, tape


def dilated_conv1d_backward(tape: ConvTape, grad_out: np.ndarray):
    """Exact adjoint of the forward pass: (grad_x, grad_weights, grad_bias)."""
    grad_out = checked_grad_out(tape, grad_out)
    grad_x = _kernels.conv1d_grad_input(grad_out, tape.kernel.weights, tape.offsets)
    grad_w = _kernels.conv1d_grad_weights(
        grad_out, tape.x, tape.kernel.kernel_size, tape.offsets
    )
    grad_b = grad_out.sum(axis=(0, 2))
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); ``out=x`` activates in place when the caller owns x."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out where x > 0, else zero.  x may be the input or the output of
    relu, since relu(z) > 0 exactly where z > 0.  A mask multiply: an
    inactive unit gives -0.0 for a negative gradient and NaN for an infinite
    one."""
    return grad_out * (x > 0.0)


def _normalize_mask(mask, shape):
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape}, expected {shape}")
    return mask


def softmax_nll_loss(logits: np.ndarray, targets: np.ndarray, mask=None,
                     want_grad: bool = True):
    """Mean per-frame negative log softmax probability over unmasked frames.

    logits: (batch, class, time); targets: integer (batch, time);
    mask: optional boolean (batch, time), True = counted.
    Returns (loss, grad_logits) with the exact gradient, or the loss alone
    when ``want_grad`` is False.
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

    log_p = logits - logits.max(axis=1, keepdims=True)
    log_p -= np.log(np.exp(log_p).sum(axis=1, keepdims=True))  # (B, C, T)
    picks = targets[:, None, :]
    picked = np.take_along_axis(log_p, picks, axis=1)[:, 0, :]
    loss = -float(picked[mask].sum()) / count
    if not want_grad:
        return loss

    # (softmax - onehot) * mask / count, rounded as written: subtracting the
    # mask (not 1) at the targets keeps masked frames at +0.0
    grad = np.exp(log_p, out=log_p)
    frames = mask[:, None, :]
    grad *= frames
    np.put_along_axis(grad, picks, np.take_along_axis(grad, picks, axis=1) - frames, axis=1)
    grad /= count
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray, mask=None, want_grad: bool = True):
    """Mean squared error over unmasked frames (all channels of a frame count).

    Returns (loss, grad_pred), or the loss alone when ``want_grad`` is False.
    """
    pred = _as_seq_batch(pred, "pred")
    target = _as_seq_batch(target, "target")
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    mask = _normalize_mask(mask, (pred.shape[0], pred.shape[2]))
    count = int(mask.sum()) * pred.shape[1]
    if count == 0:
        raise ValueError("mask selects no frames")
    diff = pred - target
    diff *= mask[:, None, :]
    loss = float((diff * diff).sum()) / count
    if not want_grad:
        return loss
    diff *= 2.0
    diff /= count
    return loss, diff


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


class Adam:
    """In-place Adam with bias correction over a list of parameter arrays.

    The moments and the gradient are flat float64 vectors in parameter order,
    so a step is one pass of in-place ufuncs over every parameter at once;
    then each parameter takes its slice of the update.
    """

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
        self._ends = np.cumsum([p.size for p in params], dtype=np.int64)
        size = int(self._ends[-1]) if params else 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad = np.empty(size)
        self._update = np.empty(size)
        self._scratch = np.empty(size)
        self.steps = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(self._ends):
            raise ValueError("parameter list changed size under the optimizer")
        self.steps += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ValueError(f"param {i}: shape {p.shape} != grad shape {g.shape}")
        g = np.concatenate(grads, axis=None, out=self._grad)
        finite = np.isfinite(g)
        if not finite.all():
            first = int(np.argmin(finite))
            i = int(np.searchsorted(self._ends, first, side="right"))
            raise TrainingDiverged(f"non-finite gradient for parameter {i}")
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.steps
        bc2 = 1.0 - b2**self.steps
        m, v, u, s = self.m, self.v, self._update, self._scratch
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, in place
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=u)
        v *= b2
        np.multiply(g, 1.0 - b2, out=u)
        u *= g
        v += u
        # u = lr * m_hat / (sqrt(v_hat) + eps), m_hat = m/bc1, v_hat = v/bc2
        np.divide(m, bc1, out=u)
        u *= self.learning_rate
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += self.epsilon
        u /= s
        for p, end in zip(params, self._ends):
            p -= u[end - p.size : end].reshape(p.shape)


# --------------------------------------------------------------------------
# allocator policy
# --------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap() -> None:
    """Keep freed memory in this process's heap from one training step to the next.

    A training step allocates and frees (B, C, T) temporaries of a few hundred
    KiB.  By default glibc gives the top of the heap back to the OS when they
    are freed, and the next step faults the same pages back in (hundreds of
    minor page faults per step at (32, 16, 96)).  This sets glibc's trim threshold
    to 1 GiB, so the heap top is kept, and its mmap threshold to 32 MiB, its
    largest accepted value, so such arrays come from the heap rather than
    ``mmap``.  Both are needed: a fixed trim threshold also turns off glibc's
    dynamic mmap threshold, after which every array of 128 KiB or more is
    mmapped and unmapped again.

    The policy holds for the whole process, so the package never sets it on
    import: the ``rfsearch`` command and its worker processes call this, and
    a library caller that trains in its own process may.  Without glibc's
    ``mallopt`` it does nothing.  Results do not change.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
