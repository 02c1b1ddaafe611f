"""Desk-scale dilated convolutional sequence networks and their trainer.

A network is a stack of same-length dilated conv blocks (conv -> ReLU ->
optional residual add) followed by a width-1 head.  Genomes bind to the
layers with kernel_size > 1, in order.  Every conv layer is a multi-dilated
layer; a plain layer is its frozen one-branch case.  Any searched layer can
temporarily or permanently run in branch mode (one shared kernel applied at
several dilations, mixed by the coefficient PMF).

The Trainer owns task data plus hyperparameters and provides the two
callback surfaces the search algorithms consume: the candidate-evaluation
callback used by the genetic search, and local-search sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .genome import DilationGenome
from .localsearch import (
    LocalConfig,
    MultiDilatedLayerState,
    ParallelStructure,
    multi_dilated_backward,
    multi_dilated_forward,
)
from .tasks import TaskData, framewise_accuracy
from .tensorops import (
    Adam,
    TrainingDiverged,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    init_kernel,
    mse_loss,
    relu,
    relu_backward,
    softmax_nll_loss,
)

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "DilatedNet",
    "TrainSettings",
    "Trainer",
    "LocalSession",
    "count_parameters",
]


@dataclass(frozen=True)
class LayerSpec:
    kernel_size: int = 3
    channels: int = 16
    residual: bool = False

    def __post_init__(self):
        if self.kernel_size < 1 or self.channels < 1:
            raise ValueError("kernel_size and channels must be >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer topology plus head type for the desk-scale network."""

    in_channels: int
    layers: tuple[LayerSpec, ...]
    num_classes: int
    head: str = "classifier"
    padding_mode: str = "causal"

    def __post_init__(self):
        if self.in_channels < 1 or self.num_classes < 1:
            raise ValueError("in_channels and num_classes must be >= 1")
        if len(self.layers) < 1:
            raise ValueError("network needs at least one layer")
        if self.head not in ("classifier", "regressor"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.padding_mode not in ("causal", "centered"):
            raise ValueError(f"unknown padding_mode {self.padding_mode!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.padding_mode == "centered" and any(l.kernel_size % 2 == 0 for l in self.layers):
            raise ValueError("centered padding requires odd kernel sizes")
        prev = self.in_channels
        for i, spec in enumerate(self.layers):
            if spec.residual and spec.channels != prev:
                raise ValueError(
                    f"layer {i} is residual but maps {prev} -> {spec.channels} channels"
                )
            prev = spec.channels

    def searched_layer_indices(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if l.kernel_size > 1)

    def searched_kernel_sizes(self) -> tuple[int, ...]:
        return tuple(self.layers[i].kernel_size for i in self.searched_layer_indices())

    def baseline_genome(self) -> DilationGenome:
        n = len(self.searched_layer_indices())
        if n == 0:
            raise ValueError("network has no searched layers (all kernel_size == 1)")
        return DilationGenome((1,) * n)


class DilatedNet:
    """Stack of dilated conv blocks with hand-written adjoints.

    Every layer is a ``MultiDilatedLayerState``.  A plain layer is a frozen
    single branch (no coefficients); a searched layer in branch mode applies
    its kernel at several dilations, mixed with one learnable coefficient per
    branch.  ``structure`` sets the searched layers: a genome freezes each at
    one dilation, a ParallelStructure puts each in branch mode with its
    alphas as coefficients, and None leaves every layer at dilation 1.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        structure: DilationGenome | ParallelStructure | None,
        rng: np.random.Generator,
        pmf_kind: str = "abs",
    ):
        self.spec = spec
        self.pmf_kind = pmf_kind
        self._searched = spec.searched_layer_indices()
        self.layers: list[MultiDilatedLayerState] = []
        prev = spec.in_channels
        for lspec in spec.layers:
            kernel = init_kernel(rng, lspec.channels, prev, lspec.kernel_size)
            self.layers.append(self._state(kernel, (1,), None))
            prev = lspec.channels
        self.head_kernel = init_kernel(rng, spec.num_classes, prev, 1)
        self._tapes = None
        if isinstance(structure, ParallelStructure):
            self._check_length(len(structure.layers))
            for gi, layer in enumerate(structure.layers):
                self._set_layer(gi, layer.dilations, layer.alphas)
        elif structure is not None:
            self.set_dilations(structure.dilations)

    # -- structure manipulation ------------------------------------------

    def _state(self, kernel, dilations, coefficients) -> MultiDilatedLayerState:
        return MultiDilatedLayerState(
            kernel, dilations, coefficients, self.pmf_kind, self.spec.padding_mode
        )

    def _check_length(self, n: int) -> None:
        if n != len(self._searched):
            raise ValueError(
                f"structure has {n} layers, network has {len(self._searched)} searched layers"
            )

    def _set_layer(self, gi: int, dilations, coefficients) -> None:
        if gi < 0 or gi >= len(self._searched):
            raise ValueError(f"no searched layer {gi}")
        li = self._searched[gi]
        self.layers[li] = self._state(self.layers[li].kernel, dilations, coefficients)

    def set_dilations(self, dilations) -> None:
        """Freeze every searched layer to one branch at its given dilation."""
        self._check_length(len(dilations))
        for gi, d in enumerate(dilations):
            self._set_layer(gi, (d,), None)

    def set_branches(self, branch_sets: dict, w_init: float = 1.0) -> None:
        """Switch the given searched layers into branch mode.

        Coefficients start at ``w_init``; kernels are left untouched so
        weights persist across calls.
        """
        for gi, dils in branch_sets.items():
            self._set_layer(gi, dils, np.full(len(dils), float(w_init)))

    def branch_pmfs(self) -> dict[int, np.ndarray]:
        """Mixing PMF of each searched layer in branch mode, by genome index."""
        return {
            gi: self.layers[li].alpha()
            for gi, li in enumerate(self._searched)
            if self.layers[li].coefficients is not None
        }

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Kernel weights and bias per layer, then the head's, then the
        coefficients of each layer in branch mode."""
        params = []
        for state in self.layers:
            params += [state.kernel.weights, state.kernel.bias]
        params += [self.head_kernel.weights, self.head_kernel.bias]
        params += [s.coefficients for s in self.layers if s.coefficients is not None]
        return params

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        tapes = []
        h = np.asarray(x, dtype=np.float64)
        for state, lspec in zip(self.layers, self.spec.layers):
            if train:
                z, tape = multi_dilated_forward(h, state, want_tape=True)
                tapes.append((tape, z))
            else:
                z = multi_dilated_forward(h, state)
            a = relu(z)
            h = a + h if lspec.residual else a
        if train:
            logits, head_tape = dilated_conv1d_forward(
                h, self.head_kernel, 1, self.spec.padding_mode, want_tape=True
            )
            self._tapes = (tapes, head_tape)
        else:
            logits = dilated_conv1d_forward(
                h, self.head_kernel, 1, self.spec.padding_mode
            )
            self._tapes = None
        return logits

    def backward(self, grad_logits: np.ndarray) -> list[np.ndarray]:
        """Gradients aligned with ``parameters()``; requires forward(train=True)."""
        if self._tapes is None:
            raise RuntimeError("backward requires a preceding forward(train=True)")
        tapes, head_tape = self._tapes
        g, gw_head, gb_head = dilated_conv1d_backward(head_tape, grad_logits)
        layer_grads = []
        for (tape, z), lspec in zip(reversed(tapes), reversed(self.spec.layers)):
            gx, gw, gb, gc = multi_dilated_backward(tape, relu_backward(z, g))
            layer_grads.append((gw, gb, gc))
            g = gx + g if lspec.residual else gx
        layer_grads.reverse()
        grads = []
        for gw, gb, _ in layer_grads:
            grads += [gw, gb]
        grads += [gw_head, gb_head]
        grads += [gc for _, _, gc in layer_grads if gc is not None]
        self._tapes = None
        return grads


def count_parameters(net: DilatedNet) -> int:
    return sum(p.size for p in net.parameters())


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float = 0.01
    batch_size: int = 32
    final_epochs: int = 30

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.final_epochs < 1:
            raise ValueError("invalid training settings")


class Trainer:
    """Binds task data, network spec, and hyperparameters.

    Calling the trainer evaluates one candidate genome: build the network
    with the genome's dilations from a fresh seeded init, train for the given
    number of epochs, and return the validation fitness (framewise accuracy
    for classifier heads, negative MSE for regressor heads).
    """

    def __init__(self, data: TaskData, net_spec: NetworkSpec, settings: TrainSettings,
                 seed: int = 0):
        if net_spec.in_channels != data.in_channels:
            raise ValueError("network in_channels does not match task data")
        self.data = data
        self.net_spec = net_spec
        self.settings = settings
        self.seed = seed

    @property
    def genome_length(self) -> int:
        return len(self.net_spec.searched_layer_indices())

    # -- candidate evaluation (genetic search callback) ---------------------

    def __call__(self, genome: DilationGenome, epochs: int, seed: int):
        return self.train_structure(genome, epochs, seed)[:2]

    # -- local search sessions ----------------------------------------------

    def local_session(self, initial: DilationGenome, cfg: LocalConfig) -> "LocalSession":
        return LocalSession(self, initial, cfg)

    # -- finalized structures -------------------------------------------------

    def build_structure_net(self, structure, rng, pmf_kind: str = "abs") -> DilatedNet:
        """Fresh network for a finalized structure (genome or parallel)."""
        if not isinstance(structure, (DilationGenome, ParallelStructure)):
            raise TypeError(f"cannot build a net from {type(structure).__name__}")
        return DilatedNet(self.net_spec, structure, rng, pmf_kind)

    def train_structure(self, structure, epochs: int, seed: int):
        """Retrain a finalized structure from scratch; branch sets stay frozen,
        coefficients (when present) remain learnable."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        net = self.build_structure_net(structure, rng)
        train_loss = self._train_net(net, epochs, rng)
        fitness, metrics = self._evaluate_net(net)
        metrics["train_loss"] = train_loss
        return fitness, metrics, net

    # -- internals ------------------------------------------------------------

    def _loss(self, output, targets, mask):
        if self.net_spec.head == "classifier":
            return softmax_nll_loss(output, targets, mask)
        return mse_loss(output, targets, mask)

    def _train_net(self, net: DilatedNet, epochs: int, rng: np.random.Generator) -> float:
        data = self.data
        params = net.parameters()
        opt = Adam(params, learning_rate=self.settings.learning_rate)
        n = data.train_x.shape[0]
        bs = min(self.settings.batch_size, n)
        last_epoch_loss = 0.0
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            batches = 0
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                out = net.forward(data.train_x[idx], train=True)
                loss, grad = self._loss(out, data.train_y[idx], data.train_mask[idx])
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"non-finite training loss {loss}")
                grads = net.backward(grad)
                opt.step(params, grads)
                total += loss
                batches += 1
            last_epoch_loss = total / batches
        return last_epoch_loss

    def _evaluate_net(self, net: DilatedNet):
        data = self.data
        out = net.forward(data.val_x)
        loss, _ = self._loss(out, data.val_y, data.val_mask)
        if self.net_spec.head == "classifier":
            acc = framewise_accuracy(out, data.val_y, data.val_mask)
            return acc, {"val_accuracy": acc, "val_loss": loss}
        return -loss, {"val_loss": loss}


class LocalSession:
    """One local-search run: owns a single network whose kernels persist
    across iterations while branch coefficients are re-initialized."""

    def __init__(self, trainer: Trainer, initial: DilationGenome, cfg: LocalConfig):
        self._trainer = trainer
        self._cfg = cfg
        self._rng = seeding.derive_rng(trainer.seed, "local-session")
        self._net = DilatedNet(
            trainer.net_spec, initial, self._rng, pmf_kind=cfg.pmf_kind
        )

    @property
    def net(self) -> DilatedNet:
        return self._net

    def set_branches(self, branch_sets: dict, w_init: float) -> None:
        self._net.set_branches(branch_sets, w_init)

    def train(self, epochs: int) -> float:
        return self._trainer._train_net(self._net, epochs, self._rng)

    def branch_pmfs(self) -> dict[int, np.ndarray]:
        return self._net.branch_pmfs()

    def set_dilations(self, dilations) -> None:
        self._net.set_dilations(dilations)

    def evaluate(self):
        return self._trainer._evaluate_net(self._net)
