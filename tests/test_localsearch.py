import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_difference, max_rel_error, naive_dilated_conv1d
from rfsearch.genome import DilationGenome
from rfsearch.localsearch import (
    PMF_KINDS,
    LocalConfig,
    MultiDilatedLayerState,
    ParallelLayer,
    ParallelStructure,
    expected_dilation,
    multi_dilated_backward,
    multi_dilated_forward,
    parallel_param_count,
    pmf,
    pmf_backward,
    run_local_search,
    sample_dilation_set,
)
from rfsearch.tensorops import ConvKernel, DegenerateCoefficientsError


def _kernel(rng, cout, cin, k):
    return ConvKernel(rng.standard_normal((cout, cin, k)), rng.standard_normal(cout))


class TestSampleDilationSet:
    def test_symmetric_triplet(self):
        assert sample_dilation_set(100, 0.1, 3) == (90, 100, 110)

    def test_small_center_clamps_to_one(self):
        # delta = max(1, round(0.1)) = 1; raw {0, 1, 2} clamps to {1, 2}
        assert sample_dilation_set(1, 0.1, 3) == (1, 2)

    def test_even_count_excludes_center(self):
        assert sample_dilation_set(10, 0.1, 2) == (9, 11)

    def test_cap_clamps_upper_end(self):
        assert sample_dilation_set(100, 0.1, 3, max_dilation=105) == (90, 100, 105)

    def test_center_always_present_for_odd_count(self):
        for center in (1, 2, 7, 10, 33, 100):
            for frac in (0.05, 0.1, 0.3):
                for count in (3, 5):
                    got = sample_dilation_set(center, frac, count)
                    assert center in got

    def test_fractional_spacing_rounds_to_integers(self):
        got = sample_dilation_set(10, 0.1, 4)
        # delta=1, raw {9, 9.67, 10.33, 11} -> rounded {9, 10, 10, 11}
        assert got == (9, 10, 11)

    @pytest.mark.parametrize("center, frac, count, want", [
        # delta = round(1.5) = 2; raw {1, 2.33, 3.67, 5}
        (3, 0.5, 4, (1, 2, 4, 5)),
        # delta = 3; raw {7, 8.5, 10, 11.5, 13}: halves round to even
        (10, 0.3, 5, (7, 8, 10, 12, 13)),
        # delta = round(3.5) = 4; raw {3, 4.6, 6.2, 7.8, 9.4, 11}
        (7, 0.5, 6, (3, 5, 6, 8, 9, 11)),
    ])
    def test_raw_values_round_to_nearest(self, center, frac, count, want):
        assert sample_dilation_set(center, frac, count) == want

    def test_strictly_increasing(self):
        for center in (1, 5, 17, 64):
            got = sample_dilation_set(center, 0.2, 5)
            assert list(got) == sorted(set(got))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_dilation_set(10, 0.1, 1)
        with pytest.raises(ValueError):
            sample_dilation_set(0, 0.1, 3)
        with pytest.raises(ValueError):
            sample_dilation_set(10, 0.0, 3)


class TestPMF:
    def test_abs_uniform(self):
        np.testing.assert_allclose(pmf([1.0, 1.0, 1.0], "abs"), [1 / 3] * 3)

    def test_abs_uses_magnitudes(self):
        np.testing.assert_allclose(pmf([-2.0, 1.0, 1.0], "abs"), [0.5, 0.25, 0.25])

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(pmf([0.0, 0.0], "softmax"), [0.5, 0.5])

    def test_sigmoid_values(self):
        s = 1.0 / (1.0 + np.exp(-np.array([0.3, -0.7])))
        np.testing.assert_allclose(pmf([0.3, -0.7], "sigmoid"), s / s.sum(), rtol=1e-12)

    def test_all_zero_abs_rejected(self):
        with pytest.raises(DegenerateCoefficientsError):
            pmf([0.0, 0.0], "abs")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            pmf([1.0], "softplus")

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        kind=st.sampled_from(["abs", "softmax", "sigmoid"]),
    )
    def test_always_a_valid_pmf(self, w, kind):
        if kind == "abs" and all(v == 0.0 for v in w):
            return
        a = pmf(np.array(w), kind)
        assert (a >= 0.0).all()
        assert abs(a.sum() - 1.0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False).filter(
                lambda v: abs(v) > 1e-3
            ),
            min_size=2,
            max_size=6,
        ),
        c=st.floats(min_value=-100, max_value=100).filter(lambda v: abs(v) > 1e-3),
    )
    def test_abs_kind_is_scale_invariant(self, w, c):
        w = np.array(w)
        np.testing.assert_allclose(pmf(c * w, "abs"), pmf(w, "abs"), rtol=1e-9)
        dils = tuple(range(2, 2 + len(w)))
        assert expected_dilation(dils, pmf(c * w, "abs")) == expected_dilation(
            dils, pmf(w, "abs")
        )


class TestMultiDilatedForward:
    def test_identical_branches_equal_single_conv(self, rng):
        from rfsearch.tensorops import dilated_conv1d_forward

        x = rng.standard_normal((2, 3, 20))
        k = _kernel(rng, 4, 3, 3)
        state = MultiDilatedLayerState(k, (5, 5), np.array([1.0, 1.0]))
        out = multi_dilated_forward(x, state)[0]
        single = dilated_conv1d_forward(x, k, 5)[0]
        np.testing.assert_allclose(out, single, rtol=1e-12, atol=1e-14)

    def test_degenerate_pmf_selects_single_branch(self, rng):
        from rfsearch.tensorops import dilated_conv1d_forward

        x = rng.standard_normal((1, 2, 16))
        k = _kernel(rng, 2, 2, 2)
        state = MultiDilatedLayerState(k, (3, 7), np.array([1.0, 0.0]))
        out = multi_dilated_forward(x, state)[0]
        assert np.array_equal(out, dilated_conv1d_forward(x, k, 3)[0])

    def test_matches_independent_branch_sum_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3, 25))
        k = _kernel(rng, 4, 3, 3)
        w = np.array([0.7, -1.3, 0.4])
        dils = (2, 5, 9)
        state = MultiDilatedLayerState(k, dils, w)
        out = multi_dilated_forward(x, state)[0]
        mags = np.abs(w)
        alphas = mags / mags.sum()
        expected = sum(
            a * naive_dilated_conv1d(x, k.weights, k.bias, d, "causal")
            for a, d in zip(alphas, dils)
        )
        assert max_rel_error(out, expected) < 1e-10

    def test_centered_widest_window_must_fit(self, rng):
        # (K - 1) * d < T holds for d = 3 and 4 but not for the widest, 5
        x = rng.standard_normal((1, 2, 10))
        state = MultiDilatedLayerState(
            _kernel(rng, 2, 2, 3), (3, 4, 5), np.ones(3), padding_mode="centered"
        )
        with pytest.raises(ValueError, match="centered"):
            multi_dilated_forward(x, state)

    def test_input_channels_must_match_kernel(self, rng):
        state = MultiDilatedLayerState(_kernel(rng, 2, 3, 2), (1, 2), np.ones(2))
        with pytest.raises(ValueError, match="channels"):
            multi_dilated_forward(rng.standard_normal((1, 2, 10)), state)

    def test_branch_count_must_match_coefficients(self, rng):
        k = _kernel(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            MultiDilatedLayerState(k, (1, 2, 3), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):  # a frozen layer has one branch
            MultiDilatedLayerState(k, (1, 2), None)


class TestFrozenSingleBranch:
    """coefficients=None is a plain conv layer: one branch, alpha = 1."""

    @pytest.mark.parametrize("mode", ["causal", "centered"])
    def test_matches_plain_conv_bit_for_bit(self, rng, monkeypatch, mode):
        from rfsearch import localsearch
        from rfsearch.tensorops import dilated_conv1d_backward, dilated_conv1d_forward

        def no_mixing(*args, **kwargs):
            raise AssertionError("a frozen layer must not normalize coefficients")

        monkeypatch.setattr(localsearch, "pmf", no_mixing)
        monkeypatch.setattr(localsearch, "pmf_backward", no_mixing)
        x = rng.standard_normal((2, 3, 20))
        k = _kernel(rng, 4, 3, 3)
        grad_out = rng.standard_normal((2, 4, 20))
        state = MultiDilatedLayerState(k, (3,), None, padding_mode=mode)
        out, tape = multi_dilated_forward(x, state)
        ref_out, ref_tape = dilated_conv1d_forward(x, k, 3, mode)
        assert np.array_equal(out, ref_out)
        gx, gw, gb, gc = multi_dilated_backward(tape, grad_out)
        assert gc is None
        for got, ref in zip((gx, gw, gb), dilated_conv1d_backward(ref_tape, grad_out)):
            assert np.array_equal(got, ref)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(kernel name, offsets) of every _kernels conv call, in call order."""
    from rfsearch import _kernels

    log = []
    for name in ("conv1d_forward", "conv1d_grad_input", "conv1d_grad_weights"):

        def traced(*args, _fn=getattr(_kernels, name), _name=name, **kwargs):
            log.append((_name, [int(o) for o in args[-1]]))  # offsets come last
            return _fn(*args, **kwargs)

        monkeypatch.setattr(_kernels, name, traced)
    return log


def _calls_by_kernel(log):
    calls = {}
    for name, offsets in log:
        calls.setdefault(name, []).append(offsets)
    return calls


class TestOwnedTapContraction:
    """A mixed layer makes one call of each kernel per branch, and each call
    contracts only the tap offsets its branch is the first to read."""

    @pytest.mark.parametrize("mode, k, dils, union", [
        ("causal", 2, (25, 28, 31), [-25, 0, -28, -31]),
        ("centered", 3, (3, 4, 5), [-3, 0, 3, -4, 4, -5, 5]),
    ])
    def test_each_offset_is_contracted_once(self, rng, kernel_calls, mode, k, dils, union):
        x = rng.standard_normal((2, 3, 40))
        state = MultiDilatedLayerState(
            _kernel(rng, 4, 3, k), dils, np.array([0.5, 1.0, 1.5]), padding_mode=mode
        )
        out, tape = multi_dilated_forward(x, state)
        multi_dilated_backward(tape, rng.standard_normal(out.shape))
        calls = _calls_by_kernel(kernel_calls)
        assert sorted(calls) == ["conv1d_forward", "conv1d_grad_input", "conv1d_grad_weights"]
        for offsets in calls.values():
            assert len(offsets) == 3
            # |U| taps in all: 4 instead of 6 causal, 7 instead of 9 centered
            assert [o for branch in offsets for o in branch] == union
        if mode == "causal":  # offset 0, read over every frame, only by branch 0
            assert [0 in branch for branch in calls["conv1d_forward"]] == [True, False, False]

    def test_frozen_layer_contracts_its_k_taps_once(self, rng, kernel_calls):
        x = rng.standard_normal((2, 3, 20))
        state = MultiDilatedLayerState(_kernel(rng, 4, 3, 3), (3,), None)
        out, tape = multi_dilated_forward(x, state)
        multi_dilated_backward(tape, rng.standard_normal(out.shape))
        assert _calls_by_kernel(kernel_calls) == {
            name: [[-6, -3, 0]]
            for name in ("conv1d_forward", "conv1d_grad_input", "conv1d_grad_weights")
        }

    @pytest.mark.parametrize("k, dils, owned", [
        (2, (4, 4), [[-4, 0], []]),
        (3, (1, 4, 2), [[-2, -1, 0], [-8, -4], []]),
    ])
    def test_branch_that_owns_no_offset_still_adds_its_bias(self, kernel_calls, k, dils, owned):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 3, 20))
        kernel = _kernel(rng, 4, 3, k)
        w = rng.standard_normal(len(dils)) + 1.5
        state = MultiDilatedLayerState(kernel, dils, w)
        out, tape = multi_dilated_forward(x, state)
        grad_out = rng.standard_normal(out.shape)
        gc = multi_dilated_backward(tape, grad_out)[3]
        for offsets in _calls_by_kernel(kernel_calls).values():
            assert offsets == owned
        branches = [naive_dilated_conv1d(x, kernel.weights, kernel.bias, d) for d in dils]
        alpha = pmf(w)
        assert max_rel_error(out, sum(a * y for a, y in zip(alpha, branches))) < 1e-10
        g = np.array([np.vdot(grad_out, y) for y in branches])
        np.testing.assert_allclose(gc, pmf_backward(w, "abs", alpha, g), rtol=1e-10)


class TestMultiDilatedBackward:
    def test_zero_grad_out(self, rng):
        x = rng.standard_normal((1, 2, 12))
        k = _kernel(rng, 3, 2, 2)
        state = MultiDilatedLayerState(k, (1, 4), np.array([1.0, 2.0]))
        out, tape = multi_dilated_forward(x, state)
        gx, gw, gb, gc = multi_dilated_backward(tape, np.zeros_like(out))
        assert not gx.any() and not gw.any() and not gb.any() and not gc.any()

    def test_identical_branches_give_symmetric_coefficient_grads(self, rng):
        x = rng.standard_normal((1, 2, 12))
        k = _kernel(rng, 2, 2, 2)
        state = MultiDilatedLayerState(k, (4, 4), np.array([0.8, 0.8]))
        out, tape = multi_dilated_forward(x, state)
        _, _, _, gc = multi_dilated_backward(tape, rng.standard_normal(out.shape))
        np.testing.assert_allclose(gc[0], gc[1], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["abs", "softmax", "sigmoid"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((2, 2, 18))
        k = _kernel(rng, 3, 2, 3)
        w = rng.standard_normal(3) + np.array([1.5, -1.5, 1.0])
        state = MultiDilatedLayerState(k, (2, 4, 7), w, pmf_kind=kind)
        probe = rng.standard_normal((2, 3, 18))

        def loss():
            return float((multi_dilated_forward(x, state)[0] * probe).sum())

        out, tape = multi_dilated_forward(x, state)
        gx, gw, gb, gc = multi_dilated_backward(tape, probe)
        assert max_rel_error(gx, central_difference(loss, x)) < 1e-5
        assert max_rel_error(gw, central_difference(loss, k.weights)) < 1e-5
        assert max_rel_error(gb, central_difference(loss, k.bias)) < 1e-5
        assert max_rel_error(gc, central_difference(loss, state.coefficients)) < 1e-5

    @pytest.mark.parametrize("kind", PMF_KINDS)
    @pytest.mark.parametrize("mode, dils", [("causal", (1, 4, 7)), ("centered", (1, 3, 5))])
    def test_coefficient_gradient_is_exact(self, kind, mode, dils):
        # causal d = 7 puts tap 0 at offset -14, wholly outside T = 12
        rng = np.random.default_rng(61)
        x = rng.standard_normal((2, 3, 12))
        k = _kernel(rng, 4, 3, 3)
        w = rng.standard_normal(3) + np.array([1.5, -1.5, 1.0])
        state = MultiDilatedLayerState(k, dils, w, pmf_kind=kind, padding_mode=mode)
        grad_out = rng.standard_normal((2, 4, 12))
        _, tape = multi_dilated_forward(x, state)
        gc = multi_dilated_backward(tape, grad_out)[3]
        g = np.array([
            np.vdot(grad_out, naive_dilated_conv1d(x, k.weights, k.bias, d, mode))
            for d in dils
        ])
        np.testing.assert_allclose(gc, pmf_backward(w, kind, pmf(w, kind), g), rtol=1e-12)

    def test_tape_holds_only_input_and_kernel_data(self, rng):
        x = rng.standard_normal((2, 3, 16))
        k = _kernel(rng, 4, 3, 2)
        dils = (1, 2, 3)
        state = MultiDilatedLayerState(k, dils, np.array([0.5, 1.0, 1.5]))
        _, tape = multi_dilated_forward(x, state)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))

        held = list(arrays(tape))
        assert any(a is x for a in held)
        shared = (x, k.weights, k.bias, state.coefficients)
        for a in held:
            # besides shared arrays, only kernel-sized data: alphas, offsets,
            # the mixing matrix and the mixed kernel, over at most S * K taps;
            # any (batch, channel, time) array here would be larger
            assert any(a is s for s in shared) or a.size <= len(dils) * k.weights.size, a.shape

    @pytest.mark.parametrize("coefficients", [None, np.array([1.0, 2.0])])
    def test_wrong_grad_out_shape_rejected(self, rng, coefficients):
        x = rng.standard_normal((2, 3, 12))
        k = _kernel(rng, 4, 3, 2)
        dils = (2,) if coefficients is None else (2, 3)
        _, tape = multi_dilated_forward(x, MultiDilatedLayerState(k, dils, coefficients))
        with pytest.raises(ValueError, match="grad_out shape"):
            multi_dilated_backward(tape, np.zeros((2, 3, 12)))

    def test_abs_subgradient_zero_at_kink(self, rng):
        x = rng.standard_normal((1, 1, 10))
        k = _kernel(rng, 1, 1, 2)
        state = MultiDilatedLayerState(k, (1, 3), np.array([0.0, 2.0]))
        out, tape = multi_dilated_forward(x, state)
        _, _, _, gc = multi_dilated_backward(tape, rng.standard_normal(out.shape))
        assert gc[0] == 0.0


class TestExpectedDilation:
    def test_uniform_symmetric_returns_center(self):
        assert expected_dilation((9, 10, 11), [1 / 3, 1 / 3, 1 / 3]) == 10

    def test_floor_of_weighted_mean(self):
        assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2]) == 9

    def test_floor_near_one(self):
        assert expected_dilation((1, 2), [0.99, 0.01]) == 1

    def test_offset_rounds_up_from_frac(self):
        # E = 9.7: floor(E + u) is 9 for u < 0.3 and 10 for u >= 0.3
        for u in (0.0, 0.1, 0.29):
            assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2], u=u) == 9
        for u in (0.3, 0.31, 0.5, 0.99):
            assert expected_dilation((9, 10, 11), [0.5, 0.3, 0.2], u=u) == 10

    def test_near_symmetric_lean_below_center(self):
        # E = 11.998: the floor drops to 11, any u above the 0.002 shortfall
        # keeps the center
        lean = [0.170, 0.662, 0.168]
        assert expected_dilation((11, 12, 13), lean) == 11
        for u in (0.0021, 0.01, 0.5, 0.999):
            assert expected_dilation((11, 12, 13), lean, u=u) == 12

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_mean_over_offsets_is_expectation(self, n):
        dils, alpha = (9, 10, 11), [0.5, 0.3, 0.2]
        mean = np.mean([expected_dilation(dils, alpha, u=k / n) for k in range(n)])
        assert abs(mean - 9.7) <= 1 / n

    def test_offset_outside_unit_interval(self):
        for u in (-0.1, 1.0):
            with pytest.raises(ValueError):
                expected_dilation((9, 10, 11), [1 / 3, 1 / 3, 1 / 3], u=u)

    def test_clamped_to_one(self):
        assert expected_dilation((1,), [1.0]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_dilation((1, 2), [1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        dils=st.lists(st.integers(1, 500), min_size=2, max_size=6, unique=True),
        idx=st.integers(0, 5),
        shift=st.floats(0.0, 0.3),
    )
    def test_shifting_mass_upward_never_decreases(self, dils, idx, shift):
        dils = tuple(sorted(dils))
        n = len(dils)
        alpha = np.full(n, 1.0 / n)
        lo, hi = idx % n, (idx % n + 1) % n
        if dils[lo] > dils[hi]:
            lo, hi = hi, lo
        moved = alpha.copy()
        take = min(shift, moved[lo])
        moved[lo] -= take
        moved[hi] += take
        assert expected_dilation(dils, moved) >= expected_dilation(dils, alpha)


class _FrozenSession:
    """Local-search session stub whose training never changes anything."""

    def __init__(self, branch_record):
        self.pmfs = {}
        self._record = branch_record

    def set_branches(self, branch_sets):
        self._record.append(branch_sets)
        self.pmfs = {
            li: np.full(len(dils), 1.0 / len(dils)) for li, dils in branch_sets.items()
        }
        self._branch_sets = branch_sets

    def train(self, epochs):
        pass

    def branch_pmfs(self):
        return self.pmfs

    def set_dilations(self, dilations):
        pass


class _FrozenTrainer:
    def __init__(self):
        self.branch_sets = []

    def local_session(self, initial, cfg):
        return _FrozenSession(self.branch_sets)


class _LandscapeSession(_FrozenSession):
    """Pseudo-training: concentrate PMF mass by softmin of a loss landscape."""

    def __init__(self, loss_fn, sharpness):
        super().__init__([])
        self._loss = loss_fn
        self._beta = sharpness

    def train(self, epochs):
        for li, dils in self._branch_sets.items():
            losses = np.array([self._loss(d) for d in dils])
            w = np.exp(-self._beta * (losses - losses.min()))
            self.pmfs[li] = w / w.sum()


class _LandscapeTrainer:
    def __init__(self, loss_fn, sharpness=4.0):
        self.loss_fn = loss_fn
        self.sharpness = sharpness

    def local_session(self, initial, cfg):
        return _LandscapeSession(self.loss_fn, self.sharpness)


class _LeaningSession(_FrozenSession):
    """Every branch set gets the PMF (0.25, 0.25, 0.5): E = center + 0.25."""

    def train(self, epochs):
        self.pmfs = {li: np.array([0.25, 0.25, 0.5]) for li in self._branch_sets}


class _LeaningTrainer:
    def local_session(self, initial, cfg):
        return _LeaningSession([])


class TestRunLocalSearch:
    def test_frozen_coefficients_keep_genome(self):
        cfg = LocalConfig(iterations=1, epochs_per_iteration=1)
        trainer = _FrozenTrainer()
        result, history = run_local_search(DilationGenome((10, 40)), cfg, trainer)
        assert result == DilationGenome((10, 40))
        assert len(trainer.branch_sets) == 1
        assert {row.layer_index for row in history} == {0, 1}

    def test_one_step_moves_toward_unimodal_minimum_or_keeps(self):
        # direct loss evaluation replaces training; the expectation step must
        # never move away from the minimizer of a strictly unimodal landscape
        for d_star in (5, 40, 90):
            loss = lambda d: (d - d_star) ** 2
            for start in (10, 50, 80):
                cfg = LocalConfig(iterations=1, epochs_per_iteration=1)
                trainer = _LandscapeTrainer(loss, sharpness=2.0)
                result, _ = run_local_search(DilationGenome((start,)), cfg, trainer)
                new_d = result.dilations[0]
                assert abs(new_d - d_star) <= abs(start - d_star)
                lo, hi = min(start, d_star), max(start, d_star)
                assert lo <= new_d <= hi

    def test_step_is_expectation_on_average(self):
        # E = 10.25 on {9, 10, 11}: the step reaches 11 with probability 0.25;
        # 0.06 is about 2.8 binomial stds of the 400-seed mean
        cfg = LocalConfig(iterations=1, epochs_per_iteration=1)
        finals = [
            run_local_search(DilationGenome((10,)), cfg, _LeaningTrainer(), seed=s)[0]
            .dilations[0]
            for s in range(400)
        ]
        assert set(finals) == {10, 11}
        assert abs(np.mean(finals) - 10.25) < 0.06

    def test_offsets_are_a_function_of_the_seed(self):
        cfg = LocalConfig(iterations=8, epochs_per_iteration=1)

        def path(seed):
            _, history = run_local_search(
                DilationGenome((10, 20)), cfg, _LeaningTrainer(), seed=seed
            )
            return [row.new_dilation for row in history]

        assert path(3) == path(3)
        assert len({tuple(path(s)) for s in range(5)}) > 1

    def test_iterates_downhill_to_optimum_from_above(self):
        d_star = 50
        cfg = LocalConfig(iterations=12, epochs_per_iteration=1)
        trainer = _LandscapeTrainer(lambda d: (d - d_star) ** 2, sharpness=8.0)
        result, history = run_local_search(DilationGenome((80,)), cfg, trainer)
        assert abs(result.dilations[0] - d_star) <= 2
        dil_path = [row.new_dilation for row in history]
        assert dil_path[0] < 80

    def test_finalize_parallel_keeps_last_branches(self):
        cfg = LocalConfig(iterations=2, epochs_per_iteration=1, finalize_parallel=True)
        structure, history = run_local_search(
            DilationGenome((20, 60)), cfg, _LandscapeTrainer(lambda d: abs(d - 22))
        )
        assert isinstance(structure, ParallelStructure)
        assert len(structure.layers) == 2
        last_iter = max(row.iteration for row in history)
        for row in history:
            if row.iteration == last_iter:
                layer = structure.layers[row.layer_index]
                assert layer.dilations == row.dilations
                assert layer.alphas == row.alphas

    def test_genes_remain_within_cap(self):
        cfg = LocalConfig(iterations=5, epochs_per_iteration=1, max_dilation=64)
        trainer = _LandscapeTrainer(lambda d: -d)  # push upward
        result, _ = run_local_search(DilationGenome((60,)), cfg, trainer)
        assert 1 <= result.dilations[0] <= 64

    def test_all_layers_degenerate_returns_initial(self):
        # cap 1 collapses every branch set to a singleton: boundary fixpoint
        cfg = LocalConfig(iterations=3, epochs_per_iteration=1, max_dilation=1)
        result, history = run_local_search(
            DilationGenome((1, 1)), cfg, _FrozenTrainer()
        )
        assert result == DilationGenome((1, 1))
        assert history == []

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LocalConfig(delta_fraction=0.0)
        with pytest.raises(ValueError):
            LocalConfig(branches=1)
        with pytest.raises(ValueError):
            LocalConfig(pmf_kind="mystery")


class TestParallelParamCount:
    def test_plain_genome_has_no_extra(self):
        assert parallel_param_count(DilationGenome((1, 2, 4))) == 0

    def test_three_branches_everywhere(self):
        layers = tuple(
            ParallelLayer((1 + i, 2 + i, 3 + i), (0.2, 0.3, 0.5)) for i in range(8)
        )
        assert parallel_param_count(ParallelStructure(layers)) == 24

    def test_mixed_branch_sizes(self):
        structure = ParallelStructure(
            (
                ParallelLayer((4,), (1.0,)),
                ParallelLayer((8, 10), (0.5, 0.5)),
                ParallelLayer((1, 2, 3), (0.2, 0.3, 0.5)),
            )
        )
        assert parallel_param_count(structure) == 6


class TestParallelLayer:
    @pytest.mark.parametrize(
        "dilations, alphas",
        [
            ((1, 2), (1.0,)),
            ((), ()),
            ((0, 2), (0.5, 0.5)),
            ((1, 2), (0.5, float("nan"))),
            ((1, 2), (float("inf"), 0.5)),
            ((2.5, 3), (0.5, 0.5)),
            ((2.0, 3), (0.5, 0.5)),
            ((True, 3), (0.5, 0.5)),
        ],
        ids=["length-mismatch", "empty", "dilation-0", "nan-alpha", "inf-alpha",
             "fractional-dilation", "float-dilation", "bool-dilation"],
    )
    def test_invalid_layer_rejected(self, dilations, alphas):
        with pytest.raises(ValueError):
            ParallelLayer(dilations, alphas)

    def test_numpy_integer_dilations_become_python_ints(self):
        layer = ParallelLayer((np.int64(4), np.uint8(6)), (0.5, 0.5))
        assert layer.dilations == (4, 6)
        assert all(type(d) is int for d in layer.dilations)


def test_pmf_backward_matches_finite_differences_standalone():
    rng = np.random.default_rng(8)
    for kind in ("abs", "softmax", "sigmoid"):
        w = rng.standard_normal(4) + 0.5
        probe = rng.standard_normal(4)

        def scalar():
            return float(np.dot(pmf(w, kind), probe))

        alpha = pmf(w, kind)
        grad = pmf_backward(w, kind, alpha, probe)
        assert max_rel_error(grad, central_difference(scalar, w)) < 1e-6
