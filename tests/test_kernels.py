"""Conv kernels against the naive oracle: forward values and adjoint identities."""

import numpy as np
import pytest

from oracles import naive_dilated_conv1d
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
