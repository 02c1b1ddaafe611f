"""Dilation genomes, candidate spaces, and receptive-field accounting.

A genome is the ordered list of per-layer dilation rates under search.  The
coarse candidate set keeps powers of a base ``k`` up to ``k**T`` so that small
dilations are sampled densely and large ones sparsely; every candidate is
clamped to a maximum dilation cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SearchSpace",
    "DilationGenome",
    "dilation_genes",
    "EvalRecord",
    "build_space",
    "random_genome",
    "receptive_field",
    "genome_to_json",
    "parse_genome_string",
    "format_genome_string",
]


@dataclass(frozen=True)
class SearchSpace:
    """Coarse candidate dilations: powers of ``k`` up to ``k**T``, capped."""

    k: int
    T: int
    candidates: tuple[int, ...]
    max_dilation_cap: int

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("candidate set is empty")
        dilation_genes(self.candidates, "candidates")  # numpy integers are kept
        if self.candidates[0] != 1:
            raise ValueError("candidate set must start at 1")
        if any(b <= a for a, b in zip(self.candidates, self.candidates[1:])):
            raise ValueError("candidates must be strictly increasing")
        if any(c > self.max_dilation_cap for c in self.candidates):
            raise ValueError("candidate exceeds max_dilation_cap")


def build_space(k: int, T: int, cap: int) -> SearchSpace:
    """Candidate set {k**i : 0 <= i <= T}, clamped to ``cap`` and deduplicated.

    Clamped values are retained after dedup, so a cap that is not itself a
    power of k still appears as the largest candidate.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    seen = []
    for i in range(T + 1):
        c = min(k**i, cap)
        if c not in seen:
            seen.append(c)
    return SearchSpace(k=k, T=T, candidates=tuple(seen), max_dilation_cap=cap)


def dilation_genes(values, name: str = "dilations") -> tuple[int, ...]:
    """``values`` as a tuple of Python ints.  Numpy integers convert; a bool
    or any non-integer (a float, even 2.0) raises ValueError, naming the
    values ``name``, rather than truncating to a different value.  Range
    checks are the caller's."""
    genes = tuple(values)
    if set(map(type, genes)) - {int}:  # only Python ints need no check
        if any(isinstance(g, (bool, np.bool_)) or not isinstance(g, (int, np.integer))
               for g in genes):
            raise ValueError(f"{name} must be integers, got {genes!r}")
        genes = tuple(map(int, genes))
    return genes


@dataclass(frozen=True)
class DilationGenome:
    """Per-layer dilation rates: gene i binds the i-th searched layer."""

    dilations: tuple[int, ...]

    def __post_init__(self):
        dilations = dilation_genes(self.dilations)
        object.__setattr__(self, "dilations", dilations)
        if not dilations:
            raise ValueError("genome must have at least one gene")
        if min(dilations) < 1:
            raise ValueError(f"dilations must be >= 1, got {dilations}")

    @classmethod
    def _checked(cls, genes: tuple[int, ...]) -> DilationGenome:
        """A genome of genes known to pass ``__post_init__`` already: a
        non-empty tuple of Python ints >= 1, such as slices of checked
        genomes or ``int()`` of a ``SearchSpace``'s candidates."""
        genome = object.__new__(cls)
        object.__setattr__(genome, "dilations", genes)
        return genome

    def __len__(self) -> int:
        return len(self.dilations)


@dataclass
class EvalRecord:
    """One evaluated candidate: genome, fitness (higher is better), provenance."""

    genome: DilationGenome
    fitness: float
    epochs_trained: int
    seed: int
    metrics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def __post_init__(self):
        self.fitness = float(self.fitness)
        if not math.isfinite(self.fitness):
            raise ValueError("fitness must be finite (use the worst-fitness sentinel)")


def random_genome(space: SearchSpace, length: int, rng: np.random.Generator) -> DilationGenome:
    """Each gene drawn independently and uniformly from the candidate set."""
    if length < 1:
        raise ValueError(f"genome length must be >= 1, got {length}")
    cands = space.candidates
    idx = rng.integers(0, len(cands), size=length).tolist()
    return DilationGenome._checked(tuple([int(cands[i]) for i in idx]))


def receptive_field(genome: DilationGenome, kernel_sizes) -> int:
    """Stacked causal receptive field in frames: 1 + sum((k_l - 1) * d_l)."""
    kernel_sizes = list(kernel_sizes)
    if len(kernel_sizes) != len(genome):
        raise ValueError(
            f"kernel_sizes has {len(kernel_sizes)} entries for {len(genome)} genes"
        )
    return 1 + sum((k - 1) * d for k, d in zip(kernel_sizes, genome.dilations))


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


def genome_to_json(
    genome: DilationGenome,
    kernel_sizes=None,
    fitness: float | None = None,
    seed: int | None = None,
) -> str:
    doc = {
        "dilations": list(genome.dilations),
        "kernel_sizes": None if kernel_sizes is None else [int(k) for k in kernel_sizes],
        "fitness": None if fitness is None else float(fitness),
        "seed": None if seed is None else int(seed),
    }
    return json.dumps(doc, sort_keys=True)


def parse_genome_string(text: str) -> DilationGenome:
    """Parse the plain-text form ``d1,d2,...,dL``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"cannot parse genome string {text!r}")
    try:
        dil = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse genome string {text!r}") from exc
    return DilationGenome(dil)


def format_genome_string(genome: DilationGenome) -> str:
    return ",".join(map(str, genome.dilations))
