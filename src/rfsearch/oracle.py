"""Ground-truth machinery for testing the search algorithms without training.

The surrogate fitness is a closed-form stand-in for an early-stopped
validation metric: it peaks at a hidden target genome and falls off with the
squared log2 distance per layer, which makes the power-of-k candidate grid
metrically uniform.  Exhaustive enumeration and a random-search baseline
provide the reference optimum and comparison trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .genome import DilationGenome, EvalRecord, SearchSpace, dilation_genes, random_genome

__all__ = ["SurrogateFitness", "exhaustive_rank", "random_search", "rank_key"]


@dataclass(frozen=True)
class SurrogateFitness:
    """Deterministic fitness with a unique maximum at ``target``.

    fitness(g) = -sum_l (log2 g_l - log2 t_l)^2, maximized (at 0) exactly at
    the target.
    """

    target: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "target", dilation_genes(self.target))
        if not self.target or min(self.target) < 1:
            raise ValueError(f"target must be a non-empty genome of dilations >= 1, "
                             f"got {self.target}")
        # log2 of the peak, taken once; not a field, so not a config key
        object.__setattr__(self, "_log_target", tuple(map(math.log2, self.target)))

    def __call__(self, genome) -> float:
        dil = genome.dilations if isinstance(genome, DilationGenome) else tuple(genome)
        if len(dil) != len(self.target):
            raise ValueError(
                f"genome length {len(dil)} does not match target length {len(self.target)}"
            )
        return -sum((math.log2(d) - lt) ** 2 for d, lt in zip(dil, self._log_target))

    def as_trainer(self) -> "SurrogateTrainer":
        """Adapt to the candidate-evaluation callback signature (picklable)."""
        return SurrogateTrainer(self)


@dataclass(frozen=True)
class SurrogateTrainer:
    fitness: SurrogateFitness

    def __call__(self, genome, epochs, seed):
        return self.fitness(genome), {}


def rank_key(genome: DilationGenome, fitness: float):
    """Global tie-break: fitness descending, then genome lexicographic ascending."""
    return (-fitness, genome.dilations)


def exhaustive_rank(space: SearchSpace, length: int, fitness) -> list[tuple[DilationGenome, float]]:
    """Enumerate and rank every genome of the space (refuses > 1e6 genomes)."""
    if length < 1:
        raise ValueError(f"genome length must be >= 1, got {length}")
    total = len(space.candidates) ** length
    if total > 10**6:
        raise ValueError(
            f"space has {len(space.candidates)}^{length} = {total} genomes; "
            "exhaustive ranking is capped at 1e6"
        )
    ranked = []
    for dil in itertools.product(map(int, space.candidates), repeat=length):
        g = DilationGenome._checked(dil)
        ranked.append((g, float(fitness(g))))
    ranked.sort(key=lambda pair: rank_key(pair[0], pair[1]))
    return ranked


def random_search(
    space: SearchSpace,
    length: int,
    budget: int,
    fitness,
    seed: int,
) -> tuple[EvalRecord, list[tuple[int, float]]]:
    """Evaluate ``budget`` i.i.d. uniform genomes; return the best record and
    the running-best trajectory [(evaluations_so_far, best_fitness), ...]."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    best: EvalRecord | None = None
    trajectory: list[tuple[int, float]] = []
    for i in range(1, budget + 1):
        g = random_genome(space, length, rng)
        f = float(fitness(g))
        if best is None or rank_key(g, f) < rank_key(best.genome, best.fitness):
            best = EvalRecord(g, f, epochs_trained=0, seed=seed)
        trajectory.append((i, best.fitness))
    return best, trajectory
