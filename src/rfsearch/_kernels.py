"""Hot inner loops for batched dilated 1-D convolution.

Each kernel loops over the taps in Python and does the channel contraction
of one tap with one ``np.matmul`` (BLAS) on the in-range time slice, in the
native (batch, channel, time) layout.  Forward and input gradient add each
tap's product into the output on contiguous memory only (``_ShiftedSum``),
in the same order and with the same bits as a strided ``+=`` into a bias- or
zero-filled output; their keyword-only ``out=`` adds the result into the
caller's array instead.

With one channel on the contracted side (forward with ``Cin = 1``, input
gradient with ``Cout = 1``) a tap's product is an outer product, too thin for
BLAS.  There the kernel stacks that channel once per tap, shifted by the
tap's offset and zero outside the tap's range, into one (B, K, T) array; the
forward appends a row of ones that carries the bias.  One ``np.matmul`` of
the (C, K[+1]) matrix ``[w_0 ... w_{K-1} (b)]`` with that stack contracts
every tap (``_stacked_taps``), and ``out=`` adds it in one flat add.  BLAS
sums the products and the bias in its own order, starting from +0.0, so a
frame that no tap reaches holds ``b + (+0.0)``: a -0.0 bias reads +0.0
there, and no one-channel result is -0.0.

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


def _check_out(out, shape):
    if out is not None and out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")


class _ShiftedSum:
    """A base plus tap products, each placed at its output range [lo, hi)
    and summed in tap order, on contiguous memory: no strided add.

    Into a new array, the first product is written in place and the base
    added next (base + p and p + base are the same bits).  A product over
    every frame is one flat add.  Any other is one flat add of a scratch
    array whose border is -0.0, the exact additive identity (x + -0.0 is x,
    for x = -0.0 too).  With ``out``, the base and every product are added
    into the caller's array."""

    def __init__(self, shape, base, out):
        _check_out(out, shape)
        self.shape, self.base = shape, base
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
        np.matmul(mat, src, out=dest[:, :, lo:hi])
        dest[:, :, :lo] = fill
        dest[:, :, hi:] = fill
        return dest

    def add(self, mat, src, lo, hi):
        if self.acc is None:
            self._start(self._place(np.empty(self.shape), mat, src, lo, hi, self.fill))
        elif hi - lo == self.shape[2]:
            self.acc += mat @ src
        else:
            if self.scratch is None:
                self.scratch = np.empty(self.shape)
            self.acc += self._place(self.scratch, mat, src, lo, hi, -0.0)

    def result(self):
        if self.acc is None:  # every tap reads outside the input
            self._start(np.full(self.shape, self.fill))
        return self.acc


def _stacked_taps(mat, v, shifts, ones, out):
    """``mat @ stack`` for the one-channel ``v`` (B, 1, T): row j of the stack
    holds ``v[..., t + shifts[j]]`` at frame t, zero out of range, and a last
    row of ones follows when ``ones``.  With ``out``, the product is added
    into ``out``, which is returned."""
    B, _, T = v.shape
    shape = (B, mat.shape[0], T)
    _check_out(out, shape)
    # the product's array is made before the stack: the other order leaves a
    # hole in the heap that raised the peak RSS of a search
    prod = np.empty(shape)
    stack = np.empty((B, len(shifts) + ones, T))
    for j, s in enumerate(shifts):
        lo, hi = max(0, -s), min(T, T - s)
        if lo < hi:
            stack[:, j, lo:hi] = v[:, 0, lo + s : hi + s]
            stack[:, j, :lo] = 0.0
            stack[:, j, hi:] = 0.0
        else:
            stack[:, j] = 0.0
    if ones:
        stack[:, -1] = 1.0
    np.matmul(mat, stack, out=prod)
    if out is None:
        return prod
    out += prod
    return out


def _taps(w, axes):
    """``w`` transposed to ``axes`` as one contiguous stack of per-tap
    matrices, or None when each has one row (see the module docstring)."""
    stack = w.transpose(axes)
    return stack.copy() if stack.shape[1] > 1 else None


def conv1d_forward(x, w, b, offsets, *, out=None):
    """conv(x, w) + b; with ``out``, added into ``out``, which is returned."""
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    if Cin == 1:
        mat = np.concatenate((w[:, 0, :], b[:, None]), axis=1)
        return _stacked_taps(mat, x, [int(o) for o in offsets], True, out)
    # b as a (Cout, T) plane: its add runs over B contiguous rows of Cout·T
    plane = np.repeat(b, T).reshape(Cout, T)
    acc = _ShiftedSum((B, Cout, T), plane, out)
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
    if Cout == 1:
        mat = np.ascontiguousarray(w[0])
        return _stacked_taps(mat, grad_out, [-int(o) for o in offsets], False, out)
    # matmul sums from +0.0, so a product is never -0.0 and needs no base
    acc = _ShiftedSum((B, Cin, T), None, out)
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
