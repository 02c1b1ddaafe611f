import struct

import numpy as np
import pytest

from rfsearch.genome import DilationGenome
from rfsearch.network import DilatedNet, LayerSpec, NetworkSpec, Trainer, TrainSettings
from rfsearch.tasks import (
    TaskSpec,
    framewise_accuracy,
    generate,
    load_idx,
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


class TestNoisyEventSpan:
    def test_labels_match_bruteforce(self):
        spec = TaskSpec(
            kind="noisy_event_span", sequence_length=30, train_size=5, val_size=3,
            span=4, event_rate=0.2, noise_level=0.0, seed=4,
        )
        data = generate(spec)
        events = data.train_x[:, 0, :] == 1.0  # noise-free: impulses are exact
        for i in range(5):
            for t in range(30):
                lo = max(0, t - 3)
                assert data.train_y[i, t] == int(events[i, lo : t + 1].any())

    def test_min_receptive_field(self):
        spec = TaskSpec(kind="noisy_event_span", span=9)
        assert spec.min_receptive_field == 9


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


def _write_idx(path, array):
    codes = {np.dtype("uint8"): 0x08, np.dtype(">i4"): 0x0C}
    arr = np.asarray(array)
    code = codes[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, code, arr.ndim]))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


class TestIdxAndPermutedPixels:
    def test_idx_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(6, 4, 5)).astype(np.uint8)
        path = tmp_path / "imgs.idx"
        _write_idx(path, images)
        back = load_idx(path)
        assert np.array_equal(back, images)

    def test_idx_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x02\x03\x04")
        with pytest.raises(ValueError):
            load_idx(path)

    def test_permuted_pixels_pipeline(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(10, 3, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, size=10).astype(">i4")
        _write_idx(tmp_path / "imgs.idx", images)
        _write_idx(tmp_path / "labels.idx", labels)
        spec = TaskSpec(
            kind="permuted_pixels", train_size=6, val_size=4,
            images_path=str(tmp_path / "imgs.idx"),
            labels_path=str(tmp_path / "labels.idx"),
            permutation_seed=7,
        )
        data = generate(spec)
        assert data.train_x.shape == (6, 1, 12)
        assert data.val_x.shape == (4, 1, 12)
        # only the last frame is labeled
        assert data.train_mask[:, :-1].sum() == 0
        assert data.train_mask[:, -1].all()
        assert np.array_equal(data.train_y[:, -1], labels.astype(int)[:6])
        # same permutation every time
        again = generate(spec)
        assert np.array_equal(again.train_x, data.train_x)

