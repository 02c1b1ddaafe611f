"""Hot inner loops for batched dilated 1-D convolution.

Each kernel loops over the taps in Python and does the channel contraction
of one tap with one ``np.matmul`` (BLAS) on the in-range time slice, in the
native (batch, channel, time) layout.  With one channel on the contracted
side the contraction is an outer product, and a broadcast multiply gives the
same bits without the BLAS call.

Conventions: arrays are float64, layout (batch, channel, time) for sequences
and (out_channel, in_channel, tap) for weights.  ``offsets[j]`` is the signed
time shift of tap ``j``: tap ``j`` of the kernel reads ``x[..., t + offsets[j]]``
when producing output frame ``t``.  Out-of-range reads are zero padding.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "conv1d_forward",
    "conv1d_grad_input",
    "conv1d_grad_weights",
]


def conv1d_forward(x, w, b, offsets):
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    contract = np.multiply if Cin == 1 else np.matmul
    out = np.empty((B, Cout, T))
    out[:] = b[None, :, None]
    for j in range(K):
        off = int(offsets[j])
        lo = max(0, -off)
        hi = min(T, T - off)
        if lo >= hi:
            continue
        out[:, :, lo:hi] += contract(w[:, :, j], x[:, :, lo + off : hi + off])
    return out


def conv1d_grad_input(grad_out, w, offsets):
    B, Cout, T = grad_out.shape
    Cin = w.shape[1]
    K = offsets.shape[0]
    contract = np.multiply if Cout == 1 else np.matmul
    gx = np.zeros((B, Cin, T))
    for j in range(K):
        off = int(offsets[j])
        lo = max(0, -off)
        hi = min(T, T - off)
        if lo >= hi:
            continue
        gx[:, :, lo + off : hi + off] += contract(w[:, :, j].T, grad_out[:, :, lo:hi])
    return gx


def conv1d_grad_weights(grad_out, x, kernel_size, offsets):
    B, Cout, T = grad_out.shape
    Cin = x.shape[1]
    gw = np.zeros((Cout, Cin, kernel_size))
    for j in range(kernel_size):
        off = int(offsets[j])
        lo = max(0, -off)
        hi = min(T, T - off)
        if lo >= hi:
            continue
        gw[:, :, j] = (
            grad_out[:, :, lo:hi] @ x[:, :, lo + off : hi + off].transpose(0, 2, 1)
        ).sum(axis=0)
    return gw


def backend() -> str:
    """Name of the conv engine, recorded with benchmark results."""
    return "numpy"
