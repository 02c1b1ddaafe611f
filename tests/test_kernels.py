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
    # Cin = 1 (the multiscale_sum input layer) and Cout = 1 (the regressor
    # head), where each tap's matmul is a vector product
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


@pytest.mark.parametrize("mode", ["causal", "centered"])
def test_kernels_take_views_and_return_fresh_arrays(rng, mode):
    # Non-contiguous views in (strided channels, reversed time); every
    # result is a new float64 array that shares no memory with an input,
    # since multi_dilated_backward accumulates into it in place.
    B, Cin, Cout, T, K, d = 2, 3, 4, 15, 3, 2
    x = rng.standard_normal((B, 2 * Cin, T))[:, ::2, ::-1]
    w = rng.standard_normal((Cin, Cout, K)).transpose(1, 0, 2)
    b = rng.standard_normal(2 * Cout)[::2]
    go = rng.standard_normal((B, T, Cout)).transpose(0, 2, 1)
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


def _strided_reference(x, w, b, go, offsets, one_channel=np.matmul):
    """Forward and input gradient as the kernels once computed them: a
    sliced matmul per tap (``one_channel`` where the contracted side has one
    channel), added with a strided += into a bias- or zero-filled output."""
    (B, Cin, T), Cout = x.shape, w.shape[0]
    forward = one_channel if Cin == 1 else np.matmul
    backward = one_channel if Cout == 1 else np.matmul
    out = np.empty((B, Cout, T))
    out[:] = b[None, :, None]
    gx = np.zeros((B, Cin, T))
    for j, off in enumerate(int(o) for o in offsets):
        lo, hi = max(0, -off), min(T, T - off)
        if lo < hi:
            out[:, :, lo:hi] += forward(w[:, :, j], x[:, :, lo + off : hi + off])
            gx[:, :, lo + off : hi + off] += backward(w[:, :, j].T, go[:, :, lo:hi])
    return out, gx


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "B,Cin,Cout,T,K,d,mode", [c for c in CASES if c[1] == 1 or c[2] == 1]
)
def test_one_channel_contraction_matches_matmul_bit_for_bit(rng, B, Cin, Cout, T, K, d, mode):
    # With Cin = 1 (forward) or Cout = 1 (grad_input) the kernels multiply
    # instead of calling matmul; each tap's matmul is then an outer product.
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    offsets = tap_offsets(K, d, mode)
    out, gx = _strided_reference(x, w, b, go, offsets)
    assert _same_bits(_kernels.conv1d_forward(x, w, b, offsets), out)
    assert _same_bits(_kernels.conv1d_grad_input(go, w, offsets), gx)


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("B,Cin,Cout,T,K,d,mode", CASES)
def test_contiguous_accumulation_matches_strided_adds_bit_for_bit(
    rng, B, Cin, Cout, T, K, d, mode, zeros
):
    # The kernels add each tap's product on contiguous memory, through a
    # border of -0.0; the sum must keep the strided adds' order and bits,
    # signed zeros included (a -0.0 bias, zero weights, -0.0 gradients).
    # A one-channel multiply gives 0.0 * -1.0 = -0.0 where matmul sums to
    # +0.0, so the reference contracts as the kernels do.
    x, w, b = _random_case(rng, B, Cin, Cout, T, K)
    go = rng.standard_normal((B, Cout, T))
    if zeros:
        b[0] = -0.0
        w[:, :, 0] = 0.0
        go[:, :, ::3] = -0.0
    offsets = tap_offsets(K, d, mode)
    out, gx = _strided_reference(x, w, b, go, offsets, one_channel=np.multiply)
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
    # strided form's signed zeros
    strided_out, strided_gx = _strided_reference(x, w, b, go, offsets, one_channel=np.multiply)
    assert _same_bits(out, strided_out) and _same_bits(gx, strided_gx)
    acc = rng.standard_normal((B, Cout, T))
    expected += acc
    np.testing.assert_allclose(_kernels.conv1d_forward(x, w, b, offsets, out=acc), expected, **tol)
