"""Iterative local refinement of dilation rates.

Each searched layer is temporarily replaced by a multi-dilated layer: one
shared convolution kernel applied in parallel at a small set of dilations,
with per-branch coefficients normalized into a probability mass function
(PMF) that mixes the branch outputs.  Training the coefficients jointly with
the kernel makes the PMF reflect how useful each dilation is; the layer's
dilation is then moved to the PMF expectation E, stochastically rounded to
an integer (``floor(E + u)`` with ``u ~ U[0, 1)``, so the step equals E on
average), and the process repeats with a re-centered dilation set.  Layers
can finally either collapse to their single expected dilation or keep all
branches ("parallel" finalization), which costs exactly one extra scalar per
retained branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, seeding
from .genome import DilationGenome, dilation_genes
from .tensorops import (
    ConvKernel,
    DegenerateCoefficientsError,
    checked_grad_out,
    conv_tape,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
)

__all__ = [
    "PMF_KINDS",
    "pmf",
    "pmf_backward",
    "MultiDilatedLayerState",
    "MultiDilatedTape",
    "multi_dilated_forward",
    "multi_dilated_backward",
    "sample_dilation_set",
    "expected_dilation",
    "LocalConfig",
    "ParallelLayer",
    "ParallelStructure",
    "LocalIterationRow",
    "run_local_search",
    "parallel_param_count",
]

PMF_KINDS = ("abs", "softmax", "sigmoid")

# Guard against float rounding in the expectation before flooring, so that an
# exactly-symmetric PMF maps back to the central dilation for every rounding
# offset u in [0, 1 - _FLOOR_EPS).
_FLOOR_EPS = 1e-9


def pmf(coefficients, kind: str = "abs") -> np.ndarray:
    """Normalize raw branch coefficients into a PMF.

    abs:     a_i = |w_i| / sum|w_j|
    softmax: a_i = exp(w_i) / sum exp(w_j)
    sigmoid: a_i = s(w_i) / sum s(w_j)
    """
    w = np.asarray(coefficients, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D array")
    if kind == "abs":
        mags = np.abs(w)
        total = mags.sum()
        if total <= 0.0:
            raise DegenerateCoefficientsError(
                "all-zero coefficients cannot be abs-normalized"
            )
        return mags / total
    if kind == "softmax":
        e = np.exp(w - w.max())
        return e / e.sum()
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-w))
        return s / s.sum()
    raise ValueError(f"unknown pmf kind {kind!r}; expected one of {PMF_KINDS}")


def pmf_backward(coefficients, kind: str, alpha: np.ndarray, grad_alpha: np.ndarray) -> np.ndarray:
    """Chain rule through the normalization (|.| uses subgradient 0 at zero)."""
    w = np.asarray(coefficients, dtype=np.float64)
    grad_alpha = np.asarray(grad_alpha, dtype=np.float64)
    dot = float(np.dot(grad_alpha, alpha))
    centered = grad_alpha - dot
    if kind == "abs":
        total = np.abs(w).sum()
        return np.sign(w) * centered / total
    if kind == "softmax":
        return alpha * centered
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-w))
        return s * (1.0 - s) * centered / s.sum()
    raise ValueError(f"unknown pmf kind {kind!r}; expected one of {PMF_KINDS}")


@dataclass
class MultiDilatedLayerState:
    """Shared kernel applied at several dilations, mixed by the coefficient PMF.

    ``coefficients=None`` is a frozen single branch with alpha = 1: a plain
    conv layer, which does no mixing arithmetic.
    """

    kernel: ConvKernel
    dilations: tuple[int, ...]
    coefficients: np.ndarray | None
    pmf_kind: str = "abs"
    padding_mode: str = "causal"

    def __post_init__(self):
        self.dilations = dilation_genes(self.dilations)
        if self.coefficients is None:
            if len(self.dilations) != 1:
                raise ValueError("a layer without coefficients has exactly one branch")
        else:
            self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
            if len(self.dilations) != self.coefficients.size:
                raise ValueError("one coefficient per dilation branch is required")
        if self.pmf_kind not in PMF_KINDS:
            raise ValueError(f"unknown pmf kind {self.pmf_kind!r}")

    def alpha(self) -> np.ndarray:
        return pmf(self.coefficients, self.pmf_kind)


@dataclass
class MultiDilatedTape:
    state: MultiDilatedLayerState
    branch_tapes: list
    alpha: np.ndarray | None


def multi_dilated_forward(x: np.ndarray, state: MultiDilatedLayerState):
    """Weighted branch sum, sum_i alpha_i * conv(x, kernel, d_i); returns
    (output, tape).  Branch i is the conv of the scaled kernel
    (alpha_i W, alpha_i b), added into the one output array."""
    if state.coefficients is None:  # frozen: the one branch, unscaled
        out, tape = dilated_conv1d_forward(
            x, state.kernel, state.dilations[0], state.padding_mode
        )
        return out, MultiDilatedTape(state, [tape], None)
    alpha = state.alpha()
    kernel = state.kernel
    out = None
    tapes = []
    for a, d in zip(alpha, state.dilations):
        tape = conv_tape(x, kernel, d, state.padding_mode)
        out = _kernels.conv1d_forward(
            tape.x, a * kernel.weights, a * kernel.bias, tape.offsets, out=out
        )
        tapes.append(tape)
    return out, MultiDilatedTape(state, tapes, alpha)


def multi_dilated_backward(tape: MultiDilatedTape, grad_out: np.ndarray):
    """Exact adjoints: (grad_x, grad_weights, grad_bias, grad_coefficients);
    grad_coefficients is None for a frozen single branch.

    Branch i's output is conv(x, W, d_i) + b, linear in (W, b), so
    <grad_out, y_i> = <W, gw_i> + <b, gb> from the branch's own weight
    gradient and the bias gradient gb = sum(grad_out), which every branch
    shares: no branch output is kept for the coefficient gradient.

    alpha folds into the shared kernel.  Each branch adds the input gradient
    of the scaled kernel alpha_i W into one grad_x; the weight gradient is
    sum_i alpha_i gw_i, one conv1d_grad_weights call per branch; gb is taken
    once, and grad_bias is (sum_i alpha_i) gb.
    """
    if tape.alpha is None:
        return (*dilated_conv1d_backward(tape.branch_tapes[0], grad_out), None)
    grad_out = checked_grad_out(tape.branch_tapes[0], grad_out)
    kernel = tape.state.kernel
    gb = grad_out.sum(axis=(0, 2))
    bias_pairing = float(np.dot(kernel.bias, gb))
    grad_x = None
    grad_w = None
    grad_alpha = np.empty(len(tape.branch_tapes))
    for i, (a, btape) in enumerate(zip(tape.alpha, tape.branch_tapes)):
        grad_x = _kernels.conv1d_grad_input(
            grad_out, a * kernel.weights, btape.offsets, out=grad_x
        )
        gw = _kernels.conv1d_grad_weights(
            grad_out, btape.x, kernel.kernel_size, btape.offsets
        )
        grad_alpha[i] = float(np.vdot(kernel.weights, gw)) + bias_pairing
        gw *= a
        if grad_w is None:
            grad_w = gw
        else:
            grad_w += gw
    grad_b = float(tape.alpha.sum()) * gb
    grad_coeff = pmf_backward(
        tape.state.coefficients, tape.state.pmf_kind, tape.alpha, grad_alpha
    )
    return grad_x, grad_w, grad_b, grad_coeff


def sample_dilation_set(
    center: int,
    delta_fraction: float,
    count: int,
    max_dilation: int | None = None,
) -> tuple[int, ...]:
    """Evenly sample ``count`` dilations in [center - delta, center + delta].

    delta = max(1, round(delta_fraction * center)).  Raw values are rounded to
    the nearest integer, clamped to [1, max_dilation], and deduplicated in
    order.  For an odd ``count`` the center is guaranteed present (re-inserted
    in place of the farthest endpoint if clamping removed it); for an even
    ``count`` the formula excludes the center and that is preserved.
    """
    if center < 1:
        raise ValueError(f"center dilation must be >= 1, got {center}")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if delta_fraction <= 0.0:
        raise ValueError(f"delta_fraction must be > 0, got {delta_fraction}")
    delta = max(1, round(delta_fraction * center))
    raw = [center - delta + i * (2.0 * delta) / (count - 1) for i in range(count)]
    values = []
    for r in raw:
        v = int(round(r))
        v = max(1, v)
        if max_dilation is not None:
            v = min(v, int(max_dilation))
        if v not in values:
            values.append(v)
    if count % 2 == 1 and center not in values:
        capped_center = center if max_dilation is None else min(center, int(max_dilation))
        if capped_center not in values:
            farthest = max(values, key=lambda v: (abs(v - capped_center), v))
            values.remove(farthest)
            values.append(capped_center)
            values.sort()
    return tuple(values)


def expected_dilation(dilations, alpha, u: float = 0.0) -> int:
    """``floor(E + u)`` for the PMF expectation E over the dilation set,
    clamped to >= 1.

    u in [0, 1) is the rounding offset.  u = 0 gives the floor of E; u drawn
    from U[0, 1) gives stochastic rounding, which returns ceil(E) with
    probability frac(E) and so equals E on average.
    """
    dil = np.asarray(dilations, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if dil.shape != a.shape:
        raise ValueError("dilations and alpha must have matching lengths")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"rounding offset u must lie in [0, 1), got {u}")
    value = float(np.dot(a, dil))
    return max(1, int(np.floor(value + u + _FLOOR_EPS)))


@dataclass(frozen=True)
class LocalConfig:
    """Settings for the iterative local refinement."""

    delta_fraction: float = 0.1
    branches: int = 3
    iterations: int = 10
    epochs_per_iteration: int = 3
    w_init: float = 1.0
    finalize_parallel: bool = False
    pmf_kind: str = "abs"
    max_dilation: int | None = None

    def __post_init__(self):
        if not (0.0 < self.delta_fraction <= 1.0):
            raise ValueError("delta_fraction must lie in (0, 1]")
        if self.branches < 2:
            raise ValueError("branches must be >= 2")
        if self.iterations < 1 or self.epochs_per_iteration < 1:
            raise ValueError("iterations and epochs_per_iteration must be >= 1")
        if self.pmf_kind not in PMF_KINDS:
            raise ValueError(f"unknown pmf kind {self.pmf_kind!r}")
        if self.max_dilation is not None and self.max_dilation < 1:
            raise ValueError("max_dilation must be >= 1")


@dataclass(frozen=True)
class ParallelLayer:
    dilations: tuple[int, ...]
    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dilations", dilation_genes(self.dilations))
        if len(self.dilations) != len(self.alphas):
            raise ValueError("one alpha per dilation is required")
        if not self.dilations:
            raise ValueError("a parallel layer needs at least one branch")
        if any(d < 1 for d in self.dilations):
            raise ValueError(f"dilations must be >= 1, got {self.dilations}")
        if not np.isfinite(self.alphas).all():
            raise ValueError(f"alphas must be finite, got {self.alphas}")


@dataclass(frozen=True)
class ParallelStructure:
    """Finalized structure keeping every branch of each searched layer."""

    layers: tuple[ParallelLayer, ...]

    def genome(self) -> DilationGenome:
        """Collapse to the per-layer floor of the expected dilation (rounding
        offset u = 0, so the collapse is deterministic; for comparisons)."""
        return DilationGenome(
            tuple(expected_dilation(l.dilations, l.alphas) for l in self.layers)
        )


@dataclass(frozen=True)
class LocalIterationRow:
    iteration: int
    layer_index: int
    dilations: tuple[int, ...]
    alphas: tuple[float, ...]
    new_dilation: int
    offset: float  # rounding offset u: new_dilation = floor(E + u)


def run_local_search(initial: DilationGenome, cfg: LocalConfig, trainer, seed: int = 0):
    """Refine ``initial`` by iterating: sample branch dilations per layer,
    reset coefficients to ``w_init``, train kernel and coefficients jointly,
    then move each layer's dilation to the PMF expectation E, stochastically
    rounded: ``floor(E + u)``, with one u ~ U[0, 1) per layer and iteration
    drawn from the ``"local-update"`` sub-stream of ``seed``.

    ``trainer`` must provide ``local_session(initial, cfg)`` returning a
    session with ``set_branches(branch_sets, w_init)``, ``train(epochs)``,
    ``branch_pmfs() -> {layer_index: alpha}`` and ``set_dilations(dilations)``.
    Shared kernels persist across iterations; only coefficients are reset.

    Returns ``(result, history)`` where result is the refined genome, or a
    ParallelStructure when ``cfg.finalize_parallel`` is set, and history is a
    list of LocalIterationRow.
    """
    genome = initial
    session = trainer.local_session(initial, cfg)
    history: list[LocalIterationRow] = []
    rng = seeding.derive_rng(seed, "local-update")
    last_branches: dict[int, tuple[int, ...]] = {}
    last_alphas: dict[int, np.ndarray] = {}
    for iteration in range(1, cfg.iterations + 1):
        branch_sets: dict[int, tuple[int, ...]] = {}
        for li, d in enumerate(genome.dilations):
            candidates = sample_dilation_set(
                d, cfg.delta_fraction, cfg.branches, cfg.max_dilation
            )
            if len(candidates) >= 2:
                branch_sets[li] = candidates
        if not branch_sets:
            break  # every layer is pinned at a boundary fixpoint
        session.set_branches(branch_sets, cfg.w_init)
        session.train(cfg.epochs_per_iteration)
        alphas = session.branch_pmfs()
        offsets = rng.random(len(genome.dilations))
        new_dilations = list(genome.dilations)
        for li, candidates in branch_sets.items():
            u = float(offsets[li])
            new_d = expected_dilation(candidates, alphas[li], u)
            new_dilations[li] = new_d
            history.append(
                LocalIterationRow(
                    iteration=iteration,
                    layer_index=li,
                    dilations=candidates,
                    alphas=tuple(float(a) for a in alphas[li]),
                    new_dilation=new_d,
                    offset=u,
                )
            )
        genome = DilationGenome(new_dilations)
        last_branches = branch_sets
        last_alphas = alphas
        session.set_dilations(genome.dilations)
    if cfg.finalize_parallel:
        layers = []
        for li, d in enumerate(genome.dilations):
            if li in last_branches:
                layers.append(
                    ParallelLayer(
                        dilations=last_branches[li],
                        alphas=tuple(float(a) for a in last_alphas[li]),
                    )
                )
            else:
                layers.append(ParallelLayer(dilations=(d,), alphas=(1.0,)))
        return ParallelStructure(tuple(layers)), history
    return genome, history


def parallel_param_count(structure) -> int:
    """Extra parameters of a finalized structure versus its single-branch twin.

    Every retained branch carries one mixing coefficient, so the count is the
    sum of branch-set sizes over layers finalized in parallel form; a plain
    genome has no extra parameters.
    """
    if isinstance(structure, DilationGenome):
        return 0
    return sum(len(layer.dilations) for layer in structure.layers)
