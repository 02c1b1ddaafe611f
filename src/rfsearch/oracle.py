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

from .genome import DilationGenome, EvalRecord, SearchSpace, random_genome

__all__ = ["SurrogateFitness", "exhaustive_rank", "random_search", "rank_key"]


@dataclass(frozen=True)
class SurrogateFitness:
    """Deterministic fitness with a unique maximum at ``target``.

    fitness(g) = -sum_l (log2 g_l - log2 t_l)^2, maximized (at 0) exactly at
    the target.  A given ``decoy`` adds a second, lower peak with a wider
    basin there, to create a local optimum.
    """

    target: tuple[int, ...]
    decoy: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.target or min(self.target) < 1:
            raise ValueError(f"target must be a non-empty genome of dilations >= 1, "
                             f"got {self.target}")
        if self.decoy is not None and (
            len(self.decoy) != len(self.target) or min(self.decoy) < 1
        ):
            raise ValueError("decoy must be as long as the target, with dilations >= 1")
        # log2 of the peaks, taken once; not fields, so not config keys
        object.__setattr__(self, "_log_target", tuple(map(math.log2, self.target)))
        if self.decoy is not None:
            object.__setattr__(self, "_log_decoy", tuple(map(math.log2, self.decoy)))

    @staticmethod
    def _log_dist(dilations, log_reference) -> float:
        return sum((math.log2(d) - lt) ** 2 for d, lt in zip(dilations, log_reference))

    def __call__(self, genome) -> float:
        dil = genome.dilations if isinstance(genome, DilationGenome) else tuple(genome)
        if len(dil) != len(self.target):
            raise ValueError(
                f"genome length {len(dil)} does not match target length {len(self.target)}"
            )
        value = -self._log_dist(dil, self._log_target)
        if self.decoy is not None:
            value = max(value, -0.25 - 0.25 * self._log_dist(dil, self._log_decoy))
        return value

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
    total = len(space.candidates) ** length
    if total > 10**6:
        raise ValueError(
            f"space has {len(space.candidates)}^{length} = {total} genomes; "
            "exhaustive ranking is capped at 1e6"
        )
    ranked = []
    for dil in itertools.product(space.candidates, repeat=length):
        g = DilationGenome(dil)
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
            best = EvalRecord(g, f, epochs_trained=0, seed=seed, candidate_id=i - 1)
        trajectory.append((i, best.fitness))
    return best, trajectory
