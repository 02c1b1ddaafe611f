"""Genetic search over coarse dilation combinations.

One generation: draw parents with fitness-proportional probabilities, cross
over random segments of consecutive parent pairs, mutate, evaluate the new
individuals with early-stopped training, then keep the best M of old and new
members (elitist truncation, so the best fitness never decreases).

Candidate evaluations are cached by genome content: the evaluation seed is
itself derived from (seed, genome), so a duplicate genome costs nothing and
the whole search is a pure function of config and seed regardless of worker
count.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np

from . import seeding
from .genome import (
    DilationGenome,
    EvalRecord,
    SearchSpace,
    format_genome_string,
    genome_to_json,
    random_genome,
)
from .oracle import rank_key
from .tensorops import WORST_FITNESS, TrainingDiverged, keep_heap

__all__ = [
    "GlobalConfig",
    "selection_probabilities",
    "crossover_segments",
    "mutate",
    "evaluate",
    "derive_eval_seed",
    "run_global_search",
]

_SHIFT_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class GlobalConfig:
    space: SearchSpace
    genome_length: int
    iterations: int = 20
    population: int = 12
    p_m: float = 0.2
    p_s: float = 0.2
    epochs: int = 3

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        for name, p in (("p_m", self.p_m), ("p_s", self.p_s)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


def selection_probabilities(fitnesses) -> np.ndarray:
    """Fitness-proportional selection probabilities.

    Fitness values are used directly when all are positive; otherwise they
    are shifted by the minimum plus a small epsilon so the proportional rule
    stays defined for zero or negative metrics.  Equal fitnesses (before or
    after the shift) yield the uniform distribution.
    """
    values = np.asarray(fitnesses, dtype=np.float64)
    if values.size == 0:
        raise ValueError("population is empty")
    if not np.isfinite(values).all():
        raise ValueError("fitness values must be finite")
    if (values <= 0.0).any():
        values = values - values.min() + _SHIFT_EPS
    # scale by the max before normalizing so enormous sentinel shifts cannot
    # overflow the sum
    values = values / values.max()
    return values / values.sum()


def crossover_segments(
    a: DilationGenome,
    b: DilationGenome,
    rng: np.random.Generator,
    anchors: tuple[int, int] | None = None,
) -> tuple[DilationGenome, DilationGenome]:
    """Swap the gene segment [u, v) between two equal-length genomes.

    Anchors are two positions drawn uniformly (with order fixed u <= v) from
    {0, ..., L}; u == v yields clones.  Pass ``anchors`` to force them.
    """
    da, db = a.dilations, b.dilations
    L = len(da)
    if len(db) != L:
        raise ValueError("parents must have equal length")
    if anchors is None:
        u = int(rng.integers(0, L + 1))
        v = int(rng.integers(0, L + 1))
        if u > v:
            u, v = v, u
    else:
        u, v = anchors
        if not (0 <= u <= v <= L):
            raise ValueError(f"anchors must satisfy 0 <= u <= v <= {L}")
    # slices of two checked genomes need no second check
    child1 = da[:u] + db[u:v] + da[v:]
    child2 = db[:u] + da[u:v] + db[v:]
    return DilationGenome._checked(child1), DilationGenome._checked(child2)


def mutate(g: DilationGenome, space: SearchSpace, p_m: float, p_s: float,
           rng: np.random.Generator) -> DilationGenome:
    """With probability p_m, resample each gene with probability p_s,
    uniformly from the candidate set (possibly redrawing the current value)."""
    for name, p in (("p_m", p_m), ("p_s", p_s)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    if rng.random() >= p_m:
        return g
    cands = space.candidates
    genes = list(g.dilations)
    # all the gene draws come first, then one replacement draw per hit
    hits = [i for i, u in enumerate(rng.random(len(genes)).tolist()) if u < p_s]
    for i in hits:
        genes[i] = int(cands[int(rng.integers(0, len(cands)))])
    return DilationGenome._checked(tuple(genes))


def derive_eval_seed(master_seed: int, genome: DilationGenome) -> int:
    """Evaluation seed from genome content, so duplicates share one record."""
    return seeding.derive_seed(master_seed, "eval", *genome.dilations)


def evaluate(genome: DilationGenome, trainer, epochs: int, seed: int) -> EvalRecord:
    """Train-and-score one candidate; divergence yields a worst-fitness record."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    t0 = time.perf_counter()
    try:
        fitness, metrics = trainer(genome, epochs, seed)
        fitness = float(fitness)
        metrics = dict(metrics)
        if not math.isfinite(fitness):
            raise TrainingDiverged(f"non-finite fitness {fitness}")
    except TrainingDiverged:
        fitness = WORST_FITNESS
        metrics = {"diverged": 1.0}
    return EvalRecord(
        genome=genome,
        fitness=fitness,
        epochs_trained=epochs,
        seed=seed,
        metrics=metrics,
        wall_time_s=time.perf_counter() - t0,
    )


class _Logs:
    def __init__(self, log_dir, seed, kernel_sizes):
        self.dir = Path(log_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.kernel_sizes = kernel_sizes
        self._pop_file = open(self.dir / "population_log.csv", "w", newline="")
        self._pop_file.write("generation,candidate_id,genome,fitness,epochs,seed,wall_time_s\r\n")
        self._traj_file = open(self.dir / "trajectory.csv", "w", newline="")
        self._traj = csv.writer(self._traj_file)
        self._traj.writerow(["budget", "running_best_fitness", "seed", "method"])
        self.seed = seed
        self._best_key = None
        self._rows = 0

    def log_records(self, generation, records):
        """Append one row per record, in order; ``candidate_id`` is the row's
        index in the whole log.  Each row is the line ``csv.writer`` writes:
        no field but the genome can hold a comma, the quote or a line break,
        and the genome is quoted when it holds a comma (more than one gene)."""
        rows = []
        for candidate_id, r in enumerate(records, start=self._rows):
            genome = format_genome_string(r.genome)
            if "," in genome:
                genome = f'"{genome}"'
            rows.append(f"{generation},{candidate_id},{genome},{r.fitness!r},"
                        f"{r.epochs_trained},{r.seed},{r.wall_time_s:.6f}\r\n")
        self._pop_file.write("".join(rows))
        self._pop_file.flush()
        self._rows += len(records)

    def log_checkpoint(self, budget, best_fitness):
        self._traj.writerow([budget, repr(best_fitness), self.seed, "ga"])
        self._traj_file.flush()

    def log_best(self, record):
        """Replace ``best.json`` when the best genome, fitness or seed changes.

        The new text goes to a temporary file first, so a run stopped at any
        point leaves the last best record whole.
        """
        key = (record.genome.dilations, record.fitness, record.seed)
        if key == self._best_key:
            return
        text = genome_to_json(
            record.genome,
            kernel_sizes=self.kernel_sizes,
            fitness=record.fitness,
            seed=record.seed,
        )
        tmp = self.dir / "best.json.tmp"
        tmp.write_text(text + "\n")
        os.replace(tmp, self.dir / "best.json")
        self._best_key = key

    def close(self):
        self._pop_file.close()
        self._traj_file.close()


def run_global_search(
    cfg: GlobalConfig,
    trainer,
    seed: int,
    jobs: int = 1,
    log_dir=None,
    kernel_sizes=None,
) -> tuple[list[EvalRecord], list[tuple[int, float]]]:
    """Run the full genetic search from ``seed``; return ``(members,
    trajectory)``.

    ``members`` is the final population sorted by fitness descending (ties:
    genome lexicographic order), so ``members[0]`` is the best.  Candidates
    with one genome share one record, which ``members`` may hold more than
    once.  ``trajectory`` holds one (created_candidates, best_fitness)
    checkpoint per generation, generation 0 included: the rows of
    ``trajectory.csv`` when ``log_dir`` is given.

    ``trainer(genome, epochs, seed) -> (fitness, metrics)`` must be
    deterministic given its arguments (and picklable when ``jobs > 1``).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    M = cfg.population
    rng_init = seeding.derive_rng(seed, "ga-init")
    rng_evolve = seeding.derive_rng(seed, "ga-evolve")
    cache: dict[tuple[int, ...], EvalRecord] = {}
    trajectory: list[tuple[int, float]] = []
    logs = _Logs(log_dir, seed, kernel_sizes) if log_dir is not None else None
    pool_executor = None
    if jobs > 1:
        # imported here: it loads multiprocessing, which --jobs 1 never uses
        from concurrent.futures import ProcessPoolExecutor

        # workers keep their heap whatever the start method (see keep_heap)
        pool_executor = ProcessPoolExecutor(max_workers=jobs, initializer=keep_heap)

    def eval_batch(genomes):
        missing = {g.dilations: g for g in genomes if g.dilations not in cache}
        seeds = [derive_eval_seed(seed, g) for g in missing.values()]
        args = (missing.values(), itertools.repeat(trainer), itertools.repeat(cfg.epochs), seeds)
        # ``evaluate`` is looked up at call time: a set-up probe replaces it
        if pool_executor is not None and len(missing) > 1:
            fresh = pool_executor.map(evaluate, *args)
        else:
            fresh = map(evaluate, *args)
        for rec in fresh:
            cache[rec.genome.dilations] = rec
        return [cache[g.dilations] for g in genomes]

    def survivors(members, records):
        """The best M of ``members`` then ``records``; the sort is stable, so
        tied candidates keep the order they were made in."""
        return sorted(members + records, key=lambda r: rank_key(r.genome, r.fitness))[:M]

    def checkpoint(generation, records, members):
        trajectory.append((M * (generation + 1), members[0].fitness))
        if logs:
            logs.log_records(generation, records)
            logs.log_checkpoint(*trajectory[-1])
            logs.log_best(members[0])

    try:
        records = eval_batch(
            [random_genome(cfg.space, cfg.genome_length, rng_init) for _ in range(M)]
        )
        members = survivors([], records)
        checkpoint(0, records, members)

        for generation in range(1, cfg.iterations + 1):
            probs = selection_probabilities([r.fitness for r in members])
            parent_idx = rng_evolve.choice(len(members), size=M, replace=True, p=probs)
            offspring: list[DilationGenome] = []
            for i in range(0, M - 1, 2):
                c1, c2 = crossover_segments(
                    members[parent_idx[i]].genome,
                    members[parent_idx[i + 1]].genome,
                    rng_evolve,
                )
                offspring.extend((c1, c2))
            if M % 2 == 1:
                offspring.append(members[parent_idx[M - 1]].genome)
            offspring = [mutate(g, cfg.space, cfg.p_m, cfg.p_s, rng_evolve) for g in offspring]
            records = eval_batch(offspring)
            members = survivors(members, records)
            checkpoint(generation, records, members)
    finally:
        if pool_executor is not None:
            pool_executor.shutdown()
        if logs:
            logs.close()

    return members, trajectory
