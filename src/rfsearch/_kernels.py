"""Hot inner loops for batched dilated 1-D convolution.

Forward and input gradient are one contraction (``_contract``): output frame
``t`` is ``sum_j taps[j] @ v[..., t + offsets[j]]``, plus a bias if one is
given, with zero padding outside ``[0, T)``.  The forward runs it on ``x``
with ``w.transpose(2, 0, 1)`` and the bias.  The input gradient is the
forward of the transposed kernel with the taps mirrored: it runs it on
``grad_out`` with ``w.transpose(2, 1, 0)`` at offsets ``-offsets`` and no
bias.  Both take a keyword-only ``out=`` that adds the result into the
caller's array.

With more than one channel on the contracted side, the contraction loops
over the taps in Python and does one tap with one ``np.matmul`` (BLAS) on
the in-range time slice, in the native (batch, channel, time) layout.  It
adds each product on contiguous memory only, in the same order and with the
same bits as a strided ``+=`` into a bias- or zero-filled output: the first
product is written into a new array and the bias added next (b + p and
p + b are the same bits), a product over every frame is one flat add, and
any other is one flat add of a scratch array whose border is -0.0, the
exact additive identity (x + -0.0 is x, for x = -0.0 too).  The strided
per-tap matrix makes numpy copy it for every batch item, so the loop reads
one contiguous copy of the tap stack.  A matrix-by-matrix product gives the
same bits on either layout; a product with one output row or one frame takes
numpy's vector path, whose bits depend on the layout, so there the strided
view is kept.

With one channel on the contracted side (forward with ``Cin = 1``, input
gradient with ``Cout = 1``) a tap's product is an outer product, too thin for
BLAS.  There the contraction stacks that channel once per tap, shifted by
the tap's offset and zero outside the tap's range, into one (B, K, T) array,
with a last row of ones that carries the bias if there is one.  One
``np.matmul`` of the (R, K[+1]) matrix ``[taps_0 ... taps_{K-1} (b)]`` with
that stack contracts every tap (``_stacked_taps``), and ``out=`` adds it in
one flat add.  BLAS sums the products and the bias in its own order,
starting from +0.0, so a frame that no tap reaches holds ``b + (+0.0)``: a
-0.0 bias reads +0.0 there, and no one-channel result is -0.0.

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


def _place(dest, mat, src, lo, hi, fill):
    np.matmul(mat, src, out=dest[:, :, lo:hi])
    dest[:, :, :lo] = fill
    dest[:, :, hi:] = fill
    return dest


def _stacked_taps(mat, v, shifts, ones, out):
    """``mat @ stack`` for the one-channel ``v`` (B, 1, T): row j of the stack
    holds ``v[..., t + shifts[j]]`` at frame t, zero out of range, and a last
    row of ones follows when ``ones``.  With ``out``, the product is added
    into ``out``, which is returned."""
    B, _, T = v.shape
    shape = (B, mat.shape[0], T)
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


def _contract(v, taps, b, offsets, out):
    """``sum_j taps[j] @ v[..., t + offsets[j]]`` at frame t, zero out of
    range, plus ``b`` unless it is None; ``taps`` is a (K, R, C) view of the
    weights.  With ``out``, added into ``out``, which is returned."""
    B, C, T = v.shape
    K, R, _ = taps.shape
    shape = (B, R, T)
    _check_out(out, shape)
    if C == 1:
        cols = (taps[:, :, 0].T,) if b is None else (taps[:, :, 0].T, b[:, None])
        mat = np.concatenate(cols, axis=1)
        return _stacked_taps(mat, v, [int(o) for o in offsets], b is not None, out)
    # b as a (R, T) plane: its add runs over B contiguous rows of R·T
    base = None if b is None else np.repeat(b, T).reshape(R, T)
    # a new array's frames outside its first product, before the base
    fill = 0.0 if b is None else -0.0
    stack = taps.copy() if R > 1 else None
    acc, scratch = out, None
    if acc is not None and base is not None:
        acc += base
    for j in range(K):
        off = int(offsets[j])
        lo, hi = max(0, -off), min(T, T - off)
        if lo >= hi:
            continue
        tap = stack[j] if stack is not None and hi - lo > 1 else taps[j]
        src = v[:, :, lo + off : hi + off]
        if acc is None:
            acc = _place(np.empty(shape), tap, src, lo, hi, fill)
            if base is not None:
                acc += base
        elif hi - lo == T:
            acc += tap @ src
        else:
            if scratch is None:
                scratch = np.empty(shape)
            acc += _place(scratch, tap, src, lo, hi, -0.0)
    if acc is None:  # every tap reads outside the input
        acc = np.empty(shape)
        acc[:] = 0.0 if base is None else base
    return acc


def conv1d_forward(x, w, b, offsets, *, out=None):
    """conv(x, w) + b; with ``out``, added into ``out``, which is returned."""
    return _contract(x, w.transpose(2, 0, 1), b, offsets, out)


def conv1d_grad_input(grad_out, w, offsets, *, out=None):
    """The input gradient of conv1d_forward: the forward of the transposed
    kernel at the negated offsets, without bias.  With ``out``, added into
    ``out``, which is returned."""
    return _contract(grad_out, w.transpose(2, 1, 0), None, -offsets, out)


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
