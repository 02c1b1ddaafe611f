import dataclasses

import numpy as np
import pytest

from rfsearch.genome import DilationGenome
from rfsearch.network import DilatedNet, LayerSpec, NetworkSpec, Trainer, TrainSettings
from rfsearch.tasks import (
    TASK_KEYS,
    TaskSpec,
    framewise_accuracy,
    generate,
)
from rfsearch.tensorops import softmax_nll_loss


def _lagged_spec(**kw):
    base = dict(
        kind="lagged_copy", sequence_length=48, train_size=32, val_size=16,
        num_symbols=4, lag=5, seed=3,
    )
    base.update(kw)
    return TaskSpec(**base)


def _copy_readout_net(num_symbols: int, dilation: int, scale: float = 25.0) -> DilatedNet:
    """Hand-built solver for lagged_copy: tap0 of a width-2 conv copies the
    one-hot symbol from ``dilation`` frames back, the head passes it through."""
    spec = NetworkSpec(
        in_channels=num_symbols,
        layers=(LayerSpec(kernel_size=2, channels=num_symbols),),
        num_classes=num_symbols,
    )
    net = DilatedNet(spec, DilationGenome((dilation,)), np.random.default_rng(0))
    net.layers[0].kernel.weights[:] = 0.0
    net.layers[0].kernel.bias[:] = 0.0
    net.layers[0].kernel.weights[:, :, 0] = scale * np.eye(num_symbols)
    net.head_kernel.weights[:] = np.eye(num_symbols)[:, :, None]
    net.head_kernel.bias[:] = 0.0
    return net


class TestLaggedCopy:
    def test_determinism(self):
        a = generate(_lagged_spec())
        b = generate(_lagged_spec())
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.val_y, b.val_y)

    def test_target_is_shifted_input(self):
        data = generate(_lagged_spec(lag=5))
        sym = data.train_x.argmax(axis=1)
        assert np.array_equal(data.train_y[:, 5:], sym[:, :-5])
        assert data.train_mask[:, :5].sum() == 0
        assert data.train_mask[:, 5:].all()

    def test_lag_zero_identity_solved_by_width_one_network(self):
        spec = _lagged_spec(lag=0)
        data = generate(spec)
        net_spec = NetworkSpec(
            in_channels=4,
            layers=(LayerSpec(kernel_size=1, channels=4),),
            num_classes=4,
        )
        net = DilatedNet(net_spec, None, np.random.default_rng(0))
        # pass-through: identity conv + identity head
        net.layers[0].kernel.weights[:] = np.eye(4)[:, :, None] * 10.0
        net.layers[0].kernel.bias[:] = 0.0
        net.head_kernel.weights[:] = np.eye(4)[:, :, None]
        net.head_kernel.bias[:] = 0.0
        acc = framewise_accuracy(net.forward(data.val_x), data.val_y, data.val_mask)
        assert acc == 1.0

    def test_solvability_certificate_at_exact_lag(self):
        spec = _lagged_spec(lag=7)
        data = generate(spec)
        net = _copy_readout_net(4, dilation=7)
        acc = framewise_accuracy(net.forward(data.val_x), data.val_y, data.val_mask)
        assert acc > 0.99

    def test_wrong_dilation_is_chance_level(self):
        spec = _lagged_spec(lag=7, val_size=64)
        data = generate(spec)
        net = _copy_readout_net(4, dilation=4)
        acc = framewise_accuracy(net.forward(data.val_x), data.val_y, data.val_mask)
        assert abs(acc - 0.25) < 0.05

    def test_masked_prefix_contributes_zero_loss(self):
        data = generate(_lagged_spec(lag=6))
        logits = np.random.default_rng(0).standard_normal(
            (data.val_x.shape[0], 4, data.val_x.shape[2])
        )
        loss_a, _ = softmax_nll_loss(logits, data.val_y, data.val_mask)
        perturbed = logits.copy()
        perturbed[:, :, :6] += 1000.0
        loss_b, _ = softmax_nll_loss(perturbed, data.val_y, data.val_mask)
        assert loss_a == loss_b

    def test_lag_must_fit(self):
        with pytest.raises(ValueError):
            _lagged_spec(lag=48)

    def test_min_receptive_field(self):
        assert _lagged_spec(lag=5).min_receptive_field == 6


class TestReceptiveFieldNecessity:
    def test_short_field_networks_stay_near_chance(self):
        # any causal network with receptive field < lag+1 cannot beat chance
        spec = _lagged_spec(
            lag=10, sequence_length=64, train_size=192, val_size=96, num_symbols=4
        )
        data = generate(spec)
        accs = []
        for seed in range(3):
            net_spec = NetworkSpec(
                in_channels=4,
                layers=(LayerSpec(kernel_size=2, channels=8),),
                num_classes=4,
            )
            trainer = Trainer(data, net_spec, TrainSettings(learning_rate=0.02), seed=0)
            fitness, _ = trainer(DilationGenome((6,)), epochs=4, seed=seed)  # RF = 7 < 11
            accs.append(fitness)
        assert np.mean(accs) <= 0.25 + 0.05


class TestMultiscaleSum:
    def test_single_window_is_pointwise(self):
        spec = TaskSpec(
            kind="multiscale_sum", sequence_length=32, train_size=8, val_size=4,
            windows=(1,), seed=1,
        )
        data = generate(spec)
        assert data.num_classes == 2
        assert np.array_equal(data.train_y, (data.train_x[:, 0, :] > 0).astype(int))
        assert data.train_mask.all()

    def test_labels_match_bruteforce_window_sums(self):
        spec = TaskSpec(
            kind="multiscale_sum", sequence_length=40, train_size=6, val_size=3,
            windows=(3, 8), seed=2,
        )
        data = generate(spec)
        x = data.train_x[:, 0, :]
        n, T = x.shape
        for i in range(n):
            for t in range(7, T):
                bit0 = x[i, t - 2 : t + 1].sum() > 0
                bit1 = x[i, t - 7 : t + 1].sum() > 0
                assert data.train_y[i, t] == int(bit0) + 2 * int(bit1)
        assert not data.train_mask[:, :7].any()
        assert data.train_mask[:, 7:].all()

    def test_determinism(self):
        spec = TaskSpec(kind="multiscale_sum", sequence_length=32, train_size=8,
                        val_size=4, windows=(2, 4), seed=9)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="multiscale_sum", windows=(4, 4))
        with pytest.raises(ValueError):
            TaskSpec(kind="multiscale_sum", windows=(8, 2))
        with pytest.raises(ValueError):
            TaskSpec(kind="multiscale_sum", sequence_length=16, windows=(4, 32))
        # the rule of the dilation genes: no bool, no float, numpy ints convert
        for windows in [(3.7, 32), (4.0, 32), (True, 32), (np.True_, 32)]:
            with pytest.raises(ValueError, match="windows must be integers"):
                TaskSpec(kind="multiscale_sum", windows=windows)
        spec = TaskSpec(kind="multiscale_sum", windows=(np.int64(3), np.int32(32)))
        assert spec.windows == (3, 32)
        assert all(type(w) is int for w in spec.windows)


_SMALL = {
    "lagged_copy": dict(sequence_length=24, train_size=64, val_size=8, num_symbols=3, lag=4),
    "multiscale_sum": dict(sequence_length=24, train_size=64, val_size=8, windows=(2, 5)),
}


class TestEveryKind:
    """What each kind's spec promises about its data."""

    @pytest.mark.parametrize("kind", ["bogus", "", "Lagged_Copy"])
    def test_unknown_kind_rejected(self, kind):
        # generate dispatches on the kinds TaskSpec admits, so a spec of any
        # other kind must not exist
        with pytest.raises(ValueError, match=f"unknown task kind '{kind}'"):
            TaskSpec(kind=kind)

    @pytest.mark.parametrize("kind", sorted(TASK_KEYS))
    def test_data_has_the_spec_shapes_and_class_count(self, kind):
        spec = TaskSpec(kind=kind, **_SMALL[kind])
        data = generate(spec)
        assert data.num_classes == spec.num_classes
        assert data.in_channels == spec.in_channels
        for x, y, mask, n in [(data.train_x, data.train_y, data.train_mask, spec.train_size),
                              (data.val_x, data.val_y, data.val_mask, spec.val_size)]:
            assert x.shape == (n, spec.in_channels, spec.sequence_length)
            assert y.shape == mask.shape == (n, spec.sequence_length)
            assert y.min() >= 0 and y.max() < spec.num_classes
        # every class turns up among the counted training frames
        assert set(np.unique(data.train_y[data.train_mask])) == set(range(spec.num_classes))

    @pytest.mark.parametrize("kind", sorted(TASK_KEYS))
    def test_mask_counts_the_frames_the_minimal_field_can_solve(self, kind):
        # a causal field of min_receptive_field frames first sees a whole
        # input window at frame min_receptive_field - 1
        spec = TaskSpec(kind=kind, **_SMALL[kind])
        data = generate(spec)
        first = spec.min_receptive_field - 1
        for mask in (data.train_mask, data.val_mask):
            assert not mask[:, :first].any()
            assert mask[:, first:].all()


class TestFramewiseAccuracy:
    def test_perfect_one_hot(self):
        target = np.array([[0, 1, 2]])
        pred = np.eye(3)[target[0]].T[None]
        assert framewise_accuracy(pred, target) == 1.0

    def test_constant_prediction_balanced_binary(self):
        rng = np.random.default_rng(0)
        target = rng.integers(0, 2, size=(4, 500))
        pred = np.zeros((4, 2, 500))
        pred[:, 0, :] = 1.0
        acc = framewise_accuracy(pred, target)
        assert abs(acc - 0.5) < 0.05

    def test_hand_counted_case(self):
        target = np.array([[1, 1, 1, 1, 1, 1, 1, 0, 0, 0]])
        pred = np.zeros((1, 2, 10))
        pred[0, 1, :] = 1.0  # predicts class 1 everywhere: 7 of 10 correct
        assert framewise_accuracy(pred, target) == 0.7

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            framewise_accuracy(
                np.zeros((1, 2, 3)), np.zeros((1, 3), dtype=int),
                np.zeros((1, 3), dtype=bool),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            framewise_accuracy(np.zeros((1, 2, 3)), np.zeros((1, 4), dtype=int))


def _same_data(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


@pytest.mark.parametrize("kind", sorted(TASK_KEYS))
def test_task_keys_are_the_fields_the_generator_reads(kind):
    """Changing one of the kind's keys changes its data; setting any other
    field off its default is a ``ValueError``."""
    values = dict(sequence_length=12, train_size=4, val_size=3, seed=1,
                  num_symbols=3, lag=2, windows=(2, 4))
    base = {"kind": kind, **{key: values[key] for key in TASK_KEYS[kind]}}
    altered = dict(sequence_length=13, train_size=5, val_size=4, seed=2, num_symbols=4,
                   lag=3, windows=(3, 5))
    assert set(altered) == {f.name for f in dataclasses.fields(TaskSpec)} - {"kind"}
    data = generate(TaskSpec(**base))
    for key, value in altered.items():
        if key not in TASK_KEYS[kind]:
            with pytest.raises(ValueError, match=f"a {kind} task does not read {key}"):
                TaskSpec(**{**base, key: value})
            continue
        assert not _same_data(generate(TaskSpec(**{**base, key: value})), data), key
