"""Conv kernels against the naive oracle: forward values and adjoint identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_dilated_conv1d, naive_offset_conv1d, naive_offset_conv1d_grads
from rfsearch import _kernels
from rfsearch.tensorops import tap_offsets


CASES = [
    # (batch, cin, cout, T, K, dilation, mode)
    (2, 3, 4, 20, 3, 1, "causal"),
    (1, 1, 1, 16, 2, 5, "causal"),
    (3, 2, 2, 31, 4, 3, "causal"),
    (2, 3, 4, 25, 3, 4, "centered"),
    (1, 2, 3, 40, 5, 7, "centered"),
    (2, 1, 2, 9, 1, 3, "causal"),
    # (K-1)*d >= T: the first causal tap reads nothing and is skipped
    (2, 2, 3, 8, 3, 4, "causal"),
    (2, 3, 2, 6, 2, 7, "causal"),
    # Cin = 1 (the multiscale_sum input layer) and Cout = 1 (the input
    # gradient of a one-channel layer): the stacked-tap path
    (3, 1, 16, 30, 2, 5, "causal"),
    (3, 16, 1, 30, 2, 5, "causal"),
    (2, 1, 4, 21, 3, 2, "centered"),
    # B = 1 at a training-sized channel count
    (1, 16, 16, 64, 2, 8, "causal"),
]


def _random_case(rng, B, Cin, Cout, T, K):
    x = rng.standard_normal((B, Cin, T))
    w = rng.standard_normal((Cout, Cin, K))
    b = rng.standard_normal(Cout)
    return x, w, b


@pytest.mark.parametrize("B,Cin,Cout,T,K,d,mode", CASES)
def test_forward_matches_naive_oracle(rng, B, Cin, Cout, T, K, d, mode):
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    offsets = tap_offsets(K, d, mode)
    expected = naive_dilated_conv1d(x, w, b, d, mode)
    got = _kernels.conv1d_forward(x, w, b, offsets)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("B,Cin,Cout,T,K,d,mode", CASES)
def test_backends_agree_on_gradients(rng, B, Cin, Cout, T, K, d, mode):
    # The gradient kernels must be the adjoints of the naive oracle: the
    # bias-free conv is bilinear in (x, w), so for any grad_out
    # <go, conv(x, w)> = <grad_input(go), x> = <grad_weights(go, x), w>.
    x, w, _ = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    offsets = tap_offsets(K, d, mode)
    pairing = np.vdot(go, naive_dilated_conv1d(x, w, np.zeros(Cout), d, mode))
    gx = _kernels.conv1d_grad_input(go, w, offsets)
    gw = _kernels.conv1d_grad_weights(go, x, K, offsets)
    np.testing.assert_allclose(np.vdot(gx, x), pairing, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.vdot(gw, w), pairing, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("Cin,Cout", [(3, 4), (1, 4), (3, 1)])
@pytest.mark.parametrize("mode", ["causal", "centered"])
def test_kernels_take_views_and_return_fresh_arrays(rng, mode, Cin, Cout):
    # Non-contiguous views in (strided channels, reversed time or taps);
    # every result is a new float64 array that shares no memory with an
    # input, since multi_dilated_backward accumulates into it in place.
    # Cin = 1 and Cout = 1 take the one-channel (stacked-tap) path.
    B, T, K, d = 2, 15, 3, 2
    x = rng.standard_normal((B, 2 * Cin, T))[:, ::2, ::-1]
    w = rng.standard_normal((Cin, Cout, K)).transpose(1, 0, 2)[:, :, ::-1]
    b = rng.standard_normal(2 * Cout)[::2]
    go = rng.standard_normal((B, T, Cout)).transpose(0, 2, 1)[:, :, ::-1]
    offsets = tap_offsets(K, d, mode)
    assert not (x.flags.c_contiguous or w.flags.c_contiguous or go.flags.c_contiguous)
    xc, wc, bc, goc = (np.ascontiguousarray(a) for a in (x, w, b, go))
    results = [
        (_kernels.conv1d_forward(x, w, b, offsets),
         _kernels.conv1d_forward(xc, wc, bc, offsets), (B, Cout, T)),
        (_kernels.conv1d_grad_input(go, w, offsets),
         _kernels.conv1d_grad_input(goc, wc, offsets), (B, Cin, T)),
        (_kernels.conv1d_grad_weights(go, x, K, offsets),
         _kernels.conv1d_grad_weights(goc, xc, K, offsets), (Cout, Cin, K)),
    ]
    for got, contiguous, shape in results:
        assert got.dtype == np.float64
        assert got.shape == shape
        for a in (x, w, b, go, offsets):
            assert not np.shares_memory(got, a)
        np.testing.assert_allclose(got, contiguous, rtol=1e-12, atol=1e-12)


def _strided_reference(x, w, b, go, offsets):
    """Forward and input gradient as the kernels compute them with more than
    one channel on the contracted side: a sliced matmul per tap, added with
    a strided += into a bias- or zero-filled output."""
    (B, Cin, T), Cout = x.shape, w.shape[0]
    out = np.empty((B, Cout, T))
    out[:] = b[None, :, None]
    gx = np.zeros((B, Cin, T))
    for j, off in enumerate(int(o) for o in offsets):
        lo, hi = max(0, -off), min(T, T - off)
        if lo < hi:
            out[:, :, lo:hi] += w[:, :, j] @ x[:, :, lo + off : hi + off]
            gx[:, :, lo + off : hi + off] += w[:, :, j].T @ go[:, :, lo:hi]
    return out, gx


def _shifted_rows(v, shifts, ones):
    """The stack of the one-channel v (B, 1, T), from the shift definition:
    row j holds v[:, 0, t + shifts[j]] at frame t, or 0 where t + shifts[j]
    is outside [0, T); a last row of ones follows when ``ones``."""
    B, _, T = v.shape
    pad = T + max(abs(int(s)) for s in shifts)
    padded = np.zeros((B, pad + T + pad))
    padded[:, pad : pad + T] = v[:, 0]
    rows = [padded[:, pad + int(s) : pad + int(s) + T] for s in shifts]
    if ones:
        rows.append(np.ones((B, T)))
    return np.stack(rows, axis=1)


def _stacked_forward(x, w, b, offsets):
    """Forward with Cin = 1 as one matmul of the documented matrix
    [w_0 ... w_{K-1} b] with the tap stack and its ones row."""
    return np.hstack([w[:, 0, :], b[:, None]]) @ _shifted_rows(x, offsets, ones=True)


def _stacked_grad_input(go, w, offsets):
    """Input gradient with Cout = 1 as one matmul of [w_0 ... w_{K-1}] with
    the stack of grad_out, each row shifted back by its tap's offset."""
    return np.ascontiguousarray(w[0]) @ _shifted_rows(go, -offsets, ones=False)


def _reference(x, w, b, go, offsets):
    """The bits each kernel must give: a one-channel contraction as one
    matmul over the stacked taps, any other as the strided form."""
    out, gx = _strided_reference(x, w, b, go, offsets)
    if x.shape[1] == 1:
        out = _stacked_forward(x, w, b, offsets)
    if w.shape[0] == 1:
        gx = _stacked_grad_input(go, w, offsets)
    return out, gx


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("C", [1, 4])
@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("mode", ["causal", "centered"])
@pytest.mark.parametrize("K", [1, 2, 3, 5])
@pytest.mark.parametrize("B", [1, 3])
def test_one_channel_contraction_is_one_matmul_over_the_stacked_taps(rng, B, K, mode, d, C):
    # Forward with Cin = 1 and input gradient with Cout = 1 (C channels on
    # the other side): at T = 10, d = 5 gives taps with |offset| >= T, which
    # read nothing, and a last tap at offset T + 2 reads nothing either.
    # Centered offsets follow tap_offsets' rule, for even K too.
    T = 10
    shift = np.arange(K) - (K - 1 if mode == "causal" else (K - 1) // 2)
    offsets = np.append(shift * d, T + 2)
    x, w, b = _random_case(rng, B, 1, C, T, K + 1)
    go = rng.standard_normal((B, 1, T))
    wg = rng.standard_normal((1, C, K + 1))
    out = _stacked_forward(x, w, b, offsets)
    gx = _stacked_grad_input(go, wg, offsets)
    calls = [
        (_kernels.conv1d_forward, (x, w, b), out),
        (_kernels.conv1d_grad_input, (go, wg), gx),
    ]
    for kernel, (first, *rest), expected in calls:
        got = kernel(first, *rest, offsets)
        assert _same_bits(got, expected), kernel.__name__
        items = [kernel(first[i : i + 1], *rest, offsets) for i in range(B)]
        assert _same_bits(np.concatenate(items), got), kernel.__name__
        acc = rng.standard_normal(got.shape)
        assert _same_bits(kernel(first, *rest, offsets, out=acc.copy()), acc + got)
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out, naive_offset_conv1d(x, w, b, offsets), **tol)
    expected_gx, _ = naive_offset_conv1d_grads(go, rng.standard_normal((B, C, T)), wg, offsets)
    np.testing.assert_allclose(gx, expected_gx, **tol)


@pytest.mark.parametrize("C", [1, 4])
def test_one_channel_contraction_never_gives_minus_zero(rng, C):
    # BLAS sums from +0.0, so a frame that no tap reaches holds b + (+0.0)
    # and a -0.0 bias reads +0.0 there; a frame whose products are all -0.0
    # reads +0.0 too.
    B, T = 2, 10
    offsets = np.array([-3, -6, T])  # frames 0-2 unreached
    x, w, b = _random_case(rng, B, 1, C, T, 3)
    b[:] = -0.0
    out = _kernels.conv1d_forward(x, w, b, offsets)
    assert _same_bits(out[:, :, :3], np.zeros((B, C, 3)))
    out = _kernels.conv1d_forward(x, w[:, :, :2], b, np.array([-T, T + 1]))
    assert _same_bits(out, np.zeros((B, C, T)))
    go = np.full((B, 1, T), -0.0)
    gx = _kernels.conv1d_grad_input(go, np.abs(w[:, :, :1]).reshape(1, C, 1), np.array([0]))
    assert _same_bits(gx, np.zeros((B, C, T)))


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("B,Cin,Cout,T,K,d,mode", CASES)
def test_contiguous_accumulation_matches_strided_adds_bit_for_bit(
    rng, B, Cin, Cout, T, K, d, mode, zeros
):
    # The kernels add each tap's product on contiguous memory, through a
    # border of -0.0; the sum must keep the strided adds' order and bits,
    # signed zeros included (a -0.0 bias, zero weights, -0.0 gradients).
    # A one-channel contraction is one matmul over the stacked taps, and is
    # checked against that instead.
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    if zeros:
        b[0] = -0.0
        w[:, :, 0] = 0.0
        go[:, :, ::3] = -0.0
    offsets = tap_offsets(K, d, mode)
    out, gx = _reference(x, w, b, go, offsets)
    assert _same_bits(_kernels.conv1d_forward(x, w, b, offsets), out)
    assert _same_bits(_kernels.conv1d_grad_input(go, w, offsets), gx)


@pytest.mark.parametrize("B,Cin,Cout,T,K,d,mode", CASES)
def test_out_accumulates_into_the_callers_array(rng, B, Cin, Cout, T, K, d, mode):
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    offsets = tap_offsets(K, d, mode)
    calls = [
        (_kernels.conv1d_forward, (x, w, b, offsets), (B, Cout, T)),
        (_kernels.conv1d_grad_input, (go, w, offsets), (B, Cin, T)),
    ]
    for kernel, args, shape in calls:
        fresh = kernel(*args)
        acc = rng.standard_normal(shape)
        before = acc.copy()
        assert kernel(*args, out=acc) is acc
        np.testing.assert_allclose(acc, before + fresh, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            kernel(*args, out=np.zeros((B + 1, *shape[1:])))


@st.composite
def _offset_cases(draw):
    """Arbitrary tap offset sets: uneven gaps, any order, and taps that read
    partly or wholly outside [0, T), as a union of branch taps has."""
    T = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.integers(-T - 3, T + 3), min_size=1, max_size=5, unique=True))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return T, np.array(offsets, dtype=np.int64), shape, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_offset_cases())
def test_kernels_match_naive_loops_on_arbitrary_offsets(case):
    T, offsets, (B, Cin, Cout), zeros, seed = case
    K = offsets.size
    rng = np.random.default_rng(seed)
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    if zeros:
        b[0] = -0.0
        w[:, :, 0] = 0.0
        go[:, :, ::3] = -0.0
    expected = naive_offset_conv1d(x, w, b, offsets)
    expected_gx, expected_gw = naive_offset_conv1d_grads(go, x, w, offsets)
    out = _kernels.conv1d_forward(x, w, b, offsets)
    gx = _kernels.conv1d_grad_input(go, w, offsets)
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out, expected, **tol)
    np.testing.assert_allclose(gx, expected_gx, **tol)
    np.testing.assert_allclose(_kernels.conv1d_grad_weights(go, x, K, offsets), expected_gw, **tol)
    # frames no tap reaches, or reached only by a zero product, keep the
    # strided form's signed zeros (one channel: the stacked matmul's)
    ref_out, ref_gx = _reference(x, w, b, go, offsets)
    assert _same_bits(out, ref_out) and _same_bits(gx, ref_gx)
    acc = rng.standard_normal((B, Cout, T))
    expected += acc
    np.testing.assert_allclose(_kernels.conv1d_forward(x, w, b, offsets, out=acc), expected, **tol)
    acc = rng.standard_normal((B, Cin, T))
    expected_gx += acc
    np.testing.assert_allclose(_kernels.conv1d_grad_input(go, w, offsets, out=acc), expected_gx, **tol)


@pytest.mark.parametrize("frames", [1, 2, 3, 64])
@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("B", [1, 3])
def test_contiguous_taps_keep_the_strided_bits_on_every_small_shape(rng, B, K, frames):
    # The kernels contract on a contiguous tap stack only where the product
    # is matrix by matrix; with one output row (Cout = 1 forward, Cin = 1
    # input gradient) or a one-frame slice they keep the strided view, whose
    # bits numpy's vector path gives.  Cin = 1 forward and Cout = 1 input
    # gradient contract over the stacked taps instead (_reference).  Offsets ±(T - frames) make those taps
    # read a slice of exactly ``frames`` frames; at K = 3 a 0 offset adds a
    # tap over every frame.
    T = 66
    offsets = np.array([-(T - frames), T - frames, 0][:K], dtype=np.int64)
    for Cin in range(1, 5):
        for Cout in range(1, 5):
            x, w, b = _random_case(rng, B, Cin, Cout, T, K)
            go = rng.standard_normal((B, Cout, T))
            out, gx = _reference(x, w, b, go, offsets)
            assert _same_bits(_kernels.conv1d_forward(x, w, b, offsets), out), (Cin, Cout)
            assert _same_bits(_kernels.conv1d_grad_input(go, w, offsets), gx), (Cin, Cout)
