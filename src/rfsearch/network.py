"""Desk-scale dilated convolutional sequence networks and their trainer.

A network is a stack of same-length dilated conv blocks (conv -> ReLU ->
optional residual add) followed by a width-1 head.  Genomes bind to the
layers with kernel_size > 1, in order.  Any searched layer can temporarily
or permanently run in branch mode (one shared kernel applied at several
dilations, mixed by the coefficient PMF).

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
    pmf,
)
from .tasks import TaskData, framewise_accuracy
from .tensorops import (
    Adam,
    ConvKernel,
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

    ``branch_sets`` maps searched-layer position (genome index) to a tuple of
    branch dilations; those layers run in multi-dilated mode with one
    coefficient per branch.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        genome: DilationGenome | None,
        rng: np.random.Generator,
        pmf_kind: str = "abs",
    ):
        self.spec = spec
        self.pmf_kind = pmf_kind
        self._searched = spec.searched_layer_indices()
        self.dilations = [1] * len(spec.layers)
        if genome is not None:
            if len(genome) != len(self._searched):
                raise ValueError(
                    f"genome has {len(genome)} genes, network has "
                    f"{len(self._searched)} searched layers"
                )
            for gi, li in enumerate(self._searched):
                self.dilations[li] = genome.dilations[gi]
        self.kernels: list[ConvKernel] = []
        prev = spec.in_channels
        for lspec in spec.layers:
            self.kernels.append(init_kernel(rng, lspec.channels, prev, lspec.kernel_size))
            prev = lspec.channels
        self.head_kernel = init_kernel(rng, spec.num_classes, prev, 1)
        # genome index -> (branch dilations, raw coefficients)
        self._branches: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
        self._tapes = None

    # -- structure manipulation ------------------------------------------

    def genome(self) -> DilationGenome:
        return DilationGenome(tuple(self.dilations[li] for li in self._searched))

    def set_genome_dilations(self, dilations) -> None:
        dilations = tuple(int(d) for d in dilations)
        if len(dilations) != len(self._searched):
            raise ValueError("dilation list does not match searched layers")
        for gi, li in enumerate(self._searched):
            self.dilations[li] = dilations[gi]

    def set_branches(self, branch_sets: dict, w_init: float = 1.0, coefficients=None) -> None:
        """Switch the given searched layers into branch mode.

        Coefficients reset to ``w_init`` (or the provided per-layer arrays);
        kernels are left untouched so weights persist across calls.
        """
        self._branches = {}
        for gi, dils in branch_sets.items():
            if gi < 0 or gi >= len(self._searched):
                raise ValueError(f"no searched layer {gi}")
            dils = tuple(int(d) for d in dils)
            if coefficients is not None and gi in coefficients:
                w = np.asarray(coefficients[gi], dtype=np.float64).copy()
                if w.size != len(dils):
                    raise ValueError("coefficient array does not match branch count")
            else:
                w = np.full(len(dils), float(w_init))
            self._branches[gi] = (dils, w)

    def clear_branches(self) -> None:
        self._branches = {}

    def branch_pmfs(self) -> dict[int, np.ndarray]:
        return {
            gi: pmf(w, self.pmf_kind) for gi, (dils, w) in self._branches.items()
        }

    def branch_state(self, gi: int) -> MultiDilatedLayerState:
        dils, w = self._branches[gi]
        return MultiDilatedLayerState(
            kernel=self.kernels[self._searched[gi]],
            dilations=dils,
            coefficients=w,
            pmf_kind=self.pmf_kind,
            padding_mode=self.spec.padding_mode,
        )

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        params = []
        for k in self.kernels:
            params.append(k.weights)
            params.append(k.bias)
        params.append(self.head_kernel.weights)
        params.append(self.head_kernel.bias)
        for gi in sorted(self._branches):
            params.append(self._branches[gi][1])
        return params

    def coefficient_flags(self) -> list[bool]:
        """True for parameter slots holding branch coefficients."""
        flags = [False] * (2 * len(self.kernels) + 2)
        flags.extend(True for _ in sorted(self._branches))
        return flags

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        genome_index = {li: gi for gi, li in enumerate(self._searched)}
        tapes = [] if train else None
        h = np.asarray(x, dtype=np.float64)
        for li, lspec in enumerate(self.spec.layers):
            gi = genome_index.get(li)
            if gi is not None and gi in self._branches:
                state = self.branch_state(gi)
                if train:
                    z, tape = multi_dilated_forward(h, state, want_tape=True)
                else:
                    z = multi_dilated_forward(h, state)
                    tape = None
            else:
                if train:
                    z, tape = dilated_conv1d_forward(
                        h, self.kernels[li], self.dilations[li],
                        self.spec.padding_mode, want_tape=True,
                    )
                else:
                    z = dilated_conv1d_forward(
                        h, self.kernels[li], self.dilations[li], self.spec.padding_mode
                    )
                    tape = None
            a = relu(z)
            out = a + h if lspec.residual else a
            if train:
                tapes.append((tape, z, lspec.residual, gi))
            h = out
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
        n_layers = len(self.spec.layers)
        grad_w = [None] * n_layers
        grad_b = [None] * n_layers
        grad_coeff: dict[int, np.ndarray] = {}
        g, gw_head, gb_head = dilated_conv1d_backward(head_tape, grad_logits)
        for li in range(n_layers - 1, -1, -1):
            tape, z, residual, gi = tapes[li]
            gz = relu_backward(z, g)
            if gi is not None and gi in self._branches:
                gx, gw, gb, gc = multi_dilated_backward(tape, gz)
                grad_coeff[gi] = gc
            else:
                gx, gw, gb = dilated_conv1d_backward(tape, gz)
            grad_w[li] = gw
            grad_b[li] = gb
            g = gx + g if residual else gx
        grads = []
        for li in range(n_layers):
            grads.append(grad_w[li])
            grads.append(grad_b[li])
        grads.append(gw_head)
        grads.append(gb_head)
        for gi in sorted(self._branches):
            grads.append(grad_coeff[gi])
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
    coeff_learning_rate: float | None = None
    final_epochs: int = 30

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.final_epochs < 1:
            raise ValueError("invalid training settings")
        if self.coeff_learning_rate is not None and self.coeff_learning_rate <= 0:
            raise ValueError("coeff_learning_rate must be > 0")


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
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        net = DilatedNet(self.net_spec, genome, rng)
        train_loss = self._train_net(net, epochs, rng)
        fitness, metrics = self._evaluate_net(net)
        metrics["train_loss"] = train_loss
        return fitness, metrics

    # -- local search sessions ----------------------------------------------

    def local_session(self, initial: DilationGenome, cfg: LocalConfig) -> "LocalSession":
        return LocalSession(self, initial, cfg)

    # -- finalized structures -------------------------------------------------

    def build_structure_net(self, structure, rng, pmf_kind: str = "abs") -> DilatedNet:
        """Fresh network for a finalized structure (genome or parallel)."""
        if isinstance(structure, DilationGenome):
            return DilatedNet(self.net_spec, structure, rng, pmf_kind)
        if not isinstance(structure, ParallelStructure):
            raise TypeError(f"cannot build a net from {type(structure).__name__}")
        net = DilatedNet(self.net_spec, structure.genome(), rng, pmf_kind)
        branch_sets = {gi: layer.dilations for gi, layer in enumerate(structure.layers)}
        coeffs = {
            gi: np.asarray(layer.alphas, dtype=np.float64)
            for gi, layer in enumerate(structure.layers)
        }
        net.set_branches(branch_sets, coefficients=coeffs)
        return net

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
        overrides = None
        if self.settings.coeff_learning_rate is not None:
            overrides = [
                self.settings.coeff_learning_rate if is_coeff else None
                for is_coeff in net.coefficient_flags()
            ]
        opt = Adam(params, learning_rate=self.settings.learning_rate, lr_overrides=overrides)
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
        self._net.clear_branches()
        self._net.set_genome_dilations(dilations)

    def evaluate(self):
        return self._trainer._evaluate_net(self._net)
