"""Hot inner loops for batched dilated 1-D convolution.

Each kernel loops over the taps in Python and does the channel contraction
of one tap with one ``np.matmul`` (BLAS) on the in-range time slice, in the
native (batch, channel, time) layout.  With one channel on the contracted
side the contraction is an outer product, and a broadcast multiply gives the
same bits without the BLAS call.  Forward and input gradient add each tap's
product into the output on contiguous memory only (``_ShiftedSum``), in the
same order and with the same bits as a strided ``+=`` into a bias- or
zero-filled output; their keyword-only ``out=`` adds the result into the
caller's array instead.

The strided per-tap weight ``w[:, :, j]`` makes numpy copy it for every
batch item, so forward and input gradient contract on one contiguous tap
stack per call (``_taps``).  A matrix-by-matrix product gives the same bits
on either layout; a product with one output row or one frame takes numpy's
vector path, whose bits depend on the layout, so there the strided view is
kept.

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


class _ShiftedSum:
    """A base plus tap products, each placed at its output range [lo, hi)
    and summed in tap order, on contiguous memory: no strided add.

    Into a new array, the first product is written in place and the base
    added next (base + p and p + base are the same bits).  A product over
    every frame is one flat add.  Any other is one flat add of a scratch
    array whose border is -0.0, the exact additive identity (x + -0.0 is x,
    for x = -0.0 too).  With ``out``, the base and every product are added
    into the caller's array."""

    def __init__(self, shape, contract, base, out):
        if out is not None and out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        self.shape, self.contract, self.base = shape, contract, base
        # a new array's frames outside its first product, before the base
        self.fill = 0.0 if base is None else -0.0
        self.acc = self.scratch = None
        if out is not None:
            self._start(out)

    def _start(self, acc):
        if self.base is not None:
            acc += self.base
        self.acc = acc

    def _place(self, dest, mat, src, lo, hi, fill):
        self.contract(mat, src, out=dest[:, :, lo:hi])
        dest[:, :, :lo] = fill
        dest[:, :, hi:] = fill
        return dest

    def add(self, mat, src, lo, hi):
        if self.acc is None:
            self._start(self._place(np.empty(self.shape), mat, src, lo, hi, self.fill))
        elif hi - lo == self.shape[2]:
            self.acc += self.contract(mat, src)
        else:
            if self.scratch is None:
                self.scratch = np.empty(self.shape)
            self.acc += self._place(self.scratch, mat, src, lo, hi, -0.0)

    def result(self):
        if self.acc is None:  # every tap reads outside the input
            self._start(np.full(self.shape, self.fill))
        return self.acc


def _taps(w, axes):
    """``w`` transposed to ``axes`` as one contiguous stack of per-tap
    matrices, or None when each has one row (see the module docstring)."""
    stack = w.transpose(axes)
    return stack.copy() if stack.shape[1] > 1 else None


def conv1d_forward(x, w, b, offsets, *, out=None):
    """conv(x, w) + b; with ``out``, added into ``out``, which is returned."""
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    contract = np.multiply if Cin == 1 else np.matmul
    # b as a (Cout, T) plane: its add runs over B contiguous rows of Cout·T
    plane = np.repeat(b, T).reshape(Cout, T)
    acc = _ShiftedSum((B, Cout, T), contract, plane, out)
    taps = _taps(w, (2, 0, 1))
    for j in range(K):
        off = int(offsets[j])
        lo = max(0, -off)
        hi = min(T, T - off)
        if lo < hi:
            tap = taps[j] if taps is not None and hi - lo > 1 else w[:, :, j]
            acc.add(tap, x[:, :, lo + off : hi + off], lo, hi)
    return acc.result()


def conv1d_grad_input(grad_out, w, offsets, *, out=None):
    """The input gradient of conv1d_forward; with ``out``, added into ``out``,
    which is returned."""
    B, Cout, T = grad_out.shape
    Cin = w.shape[1]
    K = offsets.shape[0]
    contract = np.multiply if Cout == 1 else np.matmul
    # A zero-filled sum starts 0.0 + p.  matmul sums from +0.0, so its p is
    # never -0.0 and needs no base; a one-channel multiply can give -0.0.
    acc = _ShiftedSum((B, Cin, T), contract, 0.0 if Cout == 1 else None, out)
    taps = _taps(w, (2, 1, 0))
    for j in range(K):
        off = int(offsets[j])
        lo = max(0, -off)
        hi = min(T, T - off)
        if lo < hi:
            tap = taps[j] if taps is not None and hi - lo > 1 else w[:, :, j].T
            acc.add(tap, grad_out[:, :, lo:hi], lo + off, hi + off)
    return acc.result()


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
