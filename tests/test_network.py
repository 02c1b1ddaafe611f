import weakref

import numpy as np
import pytest

from oracles import central_difference, max_rel_error
from rfsearch import network
from rfsearch.genome import DilationGenome, receptive_field
from rfsearch.localsearch import (
    LocalConfig,
    ParallelLayer,
    ParallelStructure,
    multi_dilated_backward,
)
from rfsearch.network import (
    DilatedNet,
    LayerSpec,
    NetworkSpec,
    Trainer,
    TrainSettings,
    count_parameters,
)
from rfsearch.tasks import TaskData, TaskSpec, generate
from rfsearch.tensorops import dilated_conv1d_backward, relu_backward, softmax_nll_loss


SPEC = NetworkSpec(
    in_channels=3,
    layers=(
        LayerSpec(kernel_size=3, channels=5),
        LayerSpec(kernel_size=1, channels=5),
        LayerSpec(kernel_size=3, channels=5, residual=True),
    ),
    num_classes=4,
)


def _tiny_data(rng, n=24, channels=3, T=16, classes=4):
    def block(m):
        x = rng.standard_normal((m, channels, T))
        y = rng.integers(0, classes, size=(m, T))
        mask = np.ones((m, T), dtype=bool)
        return x, y, mask

    xt, yt, mt = block(n)
    xv, yv, mv = block(max(4, n // 4))
    return TaskData(xt, yt, mt, xv, yv, mv, classes, channels)


class TestNetworkSpec:
    def test_searched_layers_skip_width_one(self):
        assert SPEC.searched_layer_indices() == (0, 2)
        assert SPEC.searched_kernel_sizes() == (3, 3)
        assert SPEC.baseline_genome() == DilationGenome((1, 1))

    def test_residual_requires_matching_channels(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                in_channels=3,
                layers=(LayerSpec(kernel_size=3, channels=8, residual=True),),
                num_classes=2,
            )

    def test_genome_length_checked(self, rng):
        with pytest.raises(ValueError):
            DilatedNet(SPEC, DilationGenome((1, 2, 4)), rng)
        with pytest.raises(ValueError):
            DilatedNet(SPEC, ParallelStructure((ParallelLayer((1, 2), (0.5, 0.5)),)), rng)


class TestNetworkGradients:
    def _loss_through_net(self, net, x, y, mask):
        out = net.forward(x, train=True)
        loss, grad = softmax_nll_loss(out, y, mask)
        return loss, grad

    @pytest.mark.parametrize("branch_kind", [None, "abs", "softmax", "sigmoid"])
    def test_full_network_gradients_match_finite_differences(self, branch_kind):
        rng = np.random.default_rng(17)
        kind = branch_kind or "abs"
        net = DilatedNet(SPEC, DilationGenome((2, 3)), rng, pmf_kind=kind)
        if branch_kind is not None:
            net.set_branches({1: (2, 3, 5)})
            coeffs = net.layers[2].coefficients  # searched layer 1 is layer 2
            coeffs += rng.standard_normal(3) * 0.3  # avoid symmetric stationary points
        x = rng.standard_normal((2, 3, 14))
        y = rng.integers(0, 4, size=(2, 14))
        mask = np.ones((2, 14), dtype=bool)

        def loss():
            return softmax_nll_loss(net.forward(x), y, mask)[0]

        _, grad_out = self._loss_through_net(net, x, y, mask)
        # rebuild tapes (backward consumed them) before taking analytic grads
        net.forward(x, train=True)
        grads = net.backward(grad_out)
        params = net.parameters()
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            assert max_rel_error(g, central_difference(loss, p)) < 1e-4

    def test_residual_path_gradient_flows(self):
        rng = np.random.default_rng(23)
        spec = NetworkSpec(
            in_channels=2,
            layers=(LayerSpec(3, 2, residual=True), LayerSpec(3, 2, residual=True)),
            num_classes=3,
        )
        net = DilatedNet(spec, DilationGenome((1, 2)), rng)
        x = rng.standard_normal((1, 2, 10))
        y = rng.integers(0, 3, size=(1, 10))
        mask = np.ones((1, 10), dtype=bool)

        def loss():
            return softmax_nll_loss(net.forward(x), y, mask)[0]

        out = net.forward(x, train=True)
        _, grad_out = softmax_nll_loss(out, y, mask)
        grads = net.backward(grad_out)
        for p, g in zip(net.parameters(), grads):
            assert max_rel_error(g, central_difference(loss, p)) < 1e-5


def _out_of_place_backward(net, grad_logits):
    """DilatedNet.backward as a loop whose ReLU masks are all new arrays, in
    the order of ``parameters()``."""
    tapes, head_tape = net._tapes
    g, gw_head, gb_head = dilated_conv1d_backward(head_tape, grad_logits)
    grads = [gw_head, gb_head]
    for (tape, a), lspec in zip(reversed(tapes), reversed(net.spec.layers)):
        gx, gw, gb, gc = multi_dilated_backward(tape, relu_backward(a, g))
        grads[:0] = [gw, gb] if gc is None else [gw, gb, gc]
        g = gx + g if lspec.residual else gx
    return grads


@pytest.mark.parametrize("branched", [False, True])
def test_backward_masks_in_place_with_the_out_of_place_bits(branched):
    # residual layers between plain ones: a plain layer masks its incoming
    # gradient in place, a residual one still reads it for the skip
    rng = np.random.default_rng(29)
    spec = NetworkSpec(
        in_channels=3,
        layers=(
            LayerSpec(3, 5),
            LayerSpec(3, 5, residual=True),
            LayerSpec(1, 5),
            LayerSpec(2, 5, residual=True),
            LayerSpec(2, 5),
        ),
        num_classes=4,
    )
    net = DilatedNet(spec, DilationGenome((1, 2, 3, 2)), rng)
    if branched:
        net.set_branches({1: (1, 2, 4), 3: (2, 3)})
    x = rng.standard_normal((3, 3, 20))
    y = rng.integers(0, 4, size=(3, 20))
    _, grad_logits = softmax_nll_loss(net.forward(x, train=True), y)
    want = _out_of_place_backward(net, grad_logits)
    got = net.backward(grad_logits)
    assert len(got) == len(want) == len(net.parameters())
    for g, w in zip(got, want):
        assert np.array_equal(np.asarray(g).view(np.int64), np.asarray(w).view(np.int64))
    a = rng.standard_normal((2, 5, 7))
    g = rng.standard_normal(a.shape)
    assert relu_backward(a, g, out=g) is g


def test_evaluation_frees_each_layer_input_before_the_next_layer(rng, monkeypatch):
    forward = network.multi_dilated_forward
    inputs = []
    alive = []

    def spy(h, state):
        alive.append(sum(ref() is not None for ref in inputs))
        inputs.append(weakref.ref(h))
        return forward(h, state)

    monkeypatch.setattr(network, "multi_dilated_forward", spy)
    net = DilatedNet(SPEC, DilationGenome((2, 3)), rng)
    x = rng.standard_normal((2, 3, 14))
    net.forward(x)
    # only x, which the caller holds, outlives its layer
    assert alive == [0, 1, 1]
    assert net._tapes is None


class TestReceptiveFieldAccounting:
    def test_perturbation_confirms_stacked_window(self):
        # zero-bias stacked convs: output at t must depend exactly on the
        # window receptive_field() predicts
        rng = np.random.default_rng(29)
        kernel_sizes = [3, 3, 3]
        dilations = (1, 2, 4)
        genome = DilationGenome(dilations)
        rf = receptive_field(genome, kernel_sizes)
        assert rf == 15
        spec = NetworkSpec(
            in_channels=1,
            layers=tuple(LayerSpec(k, 1) for k in kernel_sizes),
            num_classes=1,
        )
        net = DilatedNet(spec, genome, rng)
        for kern in [state.kernel for state in net.layers] + [net.head_kernel]:
            kern.bias[:] = 0.0
            kern.weights[:] = np.abs(kern.weights) + 0.1  # keep ReLU active
        T, t = 40, 30
        x = np.abs(rng.standard_normal((1, 1, T))) + 0.1
        base = net.forward(x)[0, 0, t]
        for pos in range(T):
            x2 = x.copy()
            x2[0, 0, pos] += 3.0
            changed = net.forward(x2)[0, 0, t] != base
            inside = t - (rf - 1) <= pos <= t
            assert changed == inside


class TestTrainer:
    def test_candidate_evaluation_is_deterministic(self):
        rng = np.random.default_rng(3)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(batch_size=8), seed=0)
        g = DilationGenome((2, 4))
        f1, m1 = trainer(g, epochs=2, seed=123)
        f2, m2 = trainer(g, epochs=2, seed=123)
        assert f1 == f2
        assert m1 == m2

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(4)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(batch_size=8), seed=0)
        g = DilationGenome((2, 4))
        _, m1 = trainer(g, epochs=2, seed=1)
        _, m2 = trainer(g, epochs=2, seed=2)
        # identical losses would mean the seed is ignored
        assert m1["train_loss"] != m2["train_loss"]
        assert m1["val_loss"] != m2["val_loss"]

    def test_training_reduces_loss_on_learnable_task(self):
        spec = TaskSpec(
            kind="lagged_copy", sequence_length=32, train_size=128, val_size=64,
            lag=0, num_symbols=4, seed=5,
        )
        data = generate(spec)
        net_spec = NetworkSpec(
            in_channels=4,
            layers=(LayerSpec(kernel_size=2, channels=8),),
            num_classes=4,
        )
        trainer = Trainer(data, net_spec, TrainSettings(learning_rate=0.02), seed=0)
        f_short, m_short = trainer(DilationGenome((1,)), epochs=1, seed=7)
        f_long, m_long = trainer(DilationGenome((1,)), epochs=8, seed=7)
        assert m_long["val_loss"] < m_short["val_loss"]
        assert f_long > 0.9

    @pytest.mark.parametrize("num_classes", [3, 9])
    def test_class_count_must_match_task_data(self, num_classes):
        # lagged_copy with 4 symbols has 4 classes; without the check a 9-class
        # head trains and scores, and a 3-class one fails inside the loss
        data = generate(TaskSpec(kind="lagged_copy", sequence_length=16, train_size=8,
                                 val_size=4, lag=2, num_symbols=4))
        spec = NetworkSpec(4, (LayerSpec(2, 4),), num_classes)
        with pytest.raises(ValueError,
                           match=f"network has {num_classes} classes, task data has 4"):
            Trainer(data, spec, TrainSettings())
        Trainer(data, NetworkSpec(4, (LayerSpec(2, 4),), 4), TrainSettings())

    def test_local_session_protocol(self):
        rng = np.random.default_rng(7)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(batch_size=8), seed=0)
        cfg = LocalConfig(iterations=1, epochs_per_iteration=1)
        session = trainer.local_session(DilationGenome((2, 4)), cfg)
        session.set_branches({0: (1, 2, 3)})
        before = session.branch_pmfs()
        np.testing.assert_allclose(before[0], [1 / 3] * 3)
        session.train(1)
        after = session.branch_pmfs()
        assert after[0].shape == (3,)
        assert abs(after[0].sum() - 1.0) < 1e-12
        session.set_dilations((2, 4))
        fitness, metrics = session.evaluate()
        assert np.isfinite(fitness)

    def test_kernel_weights_persist_across_branch_switches(self):
        rng = np.random.default_rng(8)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(batch_size=8), seed=0)
        session = trainer.local_session(DilationGenome((2, 4)), LocalConfig())
        w_before = session.net.layers[0].kernel.weights.copy()
        session.set_branches({0: (1, 2, 3)})
        assert np.array_equal(session.net.layers[0].kernel.weights, w_before)
        session.train(1)
        w_trained = session.net.layers[0].kernel.weights.copy()
        assert not np.array_equal(w_trained, w_before)
        session.set_branches({0: (2, 3, 4)})
        assert np.array_equal(session.net.layers[0].kernel.weights, w_trained)
        # the trained coefficients do not carry over: every branch restarts at 1
        assert np.array_equal(session.net.layers[0].coefficients, np.ones(3))


class TestParallelParameterAccounting:
    def test_enumerated_extra_parameters_match_branch_sizes(self):
        rng = np.random.default_rng(9)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(), seed=0)
        structure = ParallelStructure(
            (
                ParallelLayer((1, 2, 3), (0.2, 0.5, 0.3)),
                ParallelLayer((4, 6), (0.5, 0.5)),
            )
        )
        genome = structure.genome()
        net_single = trainer.build_structure_net(genome, np.random.default_rng(1))
        net_parallel = trainer.build_structure_net(structure, np.random.default_rng(1))
        extra = count_parameters(net_parallel) - count_parameters(net_single)
        from rfsearch.localsearch import parallel_param_count

        assert extra == parallel_param_count(structure) == 5

    def test_frozen_layers_add_no_parameters(self, rng):
        net = DilatedNet(SPEC, DilationGenome((2, 4)), rng)
        plain = 2 * len(SPEC.layers) + 2  # weights and bias per layer and head
        assert all(state.coefficients is None for state in net.layers)
        assert len(net.parameters()) == plain and net.branch_pmfs() == {}
        net.set_branches({1: (3, 4, 5)})
        assert len(net.parameters()) == plain + 1
        assert list(net.branch_pmfs()) == [1]
        net.set_dilations((2, 4))
        assert len(net.parameters()) == plain and net.branch_pmfs() == {}
        assert [state.dilations for state in net.layers] == [(2,), (1,), (4,)]

    def test_structure_net_initializes_coefficients_from_alphas(self):
        rng = np.random.default_rng(10)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(), seed=0)
        structure = ParallelStructure(
            (
                ParallelLayer((1, 2), (0.25, 0.75)),
                ParallelLayer((4,), (1.0,)),
            )
        )
        net = trainer.build_structure_net(structure, rng)
        pmfs = net.branch_pmfs()
        np.testing.assert_allclose(pmfs[0], [0.25, 0.75])
        np.testing.assert_allclose(pmfs[1], [1.0])

    def test_train_structure_runs_for_parallel_and_single(self):
        rng = np.random.default_rng(11)
        data = _tiny_data(rng)
        trainer = Trainer(data, SPEC, TrainSettings(batch_size=8), seed=0)
        structure = ParallelStructure(
            (ParallelLayer((1, 2), (0.5, 0.5)), ParallelLayer((2, 4), (0.5, 0.5)))
        )
        f_par, _, net_par = trainer.train_structure(structure, epochs=1, seed=0)
        f_single, _, net_single = trainer.train_structure(
            structure.genome(), epochs=1, seed=0
        )
        assert np.isfinite(f_par) and np.isfinite(f_single)
        assert count_parameters(net_par) - count_parameters(net_single) == 4
