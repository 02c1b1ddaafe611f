"""The benchmark's workloads: configs made from a seed, the CLI stages each
runs, the checks on their outputs, and the counts read from a run directory.

A workload seed picks the task data, the search's master seed and the small
structural choices (lag, surrogate target); the amount of work per stage is
fixed by the constants below, so different seeds cost about the same.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

DIVERGED = -sys.float_info.max
KERNEL_SPANS = ("kernels.conv1d_forward", "kernels.conv1d_grad_input",
                "kernels.conv1d_grad_weights")

# ga_lagged_copy: 3 plain K=2 layers over dilations {1, 2, ..., 32}.  Each lag
# below needs a specific pair or triple of dilations, reached by roughly one
# random genome in six.  With p_m = p_s = 1 every offspring is a fresh uniform
# genome, so the genomes the search evaluates depend on the master seed alone,
# not on fitness; the master seed is fixed, so every workload seed evaluates
# the same 39 distinct genomes (the search cost does not vary with the seed),
# and they include a genome reaching each listed lag.  The workload seed picks
# the lag and the task data, which decide the fitness values and the winner.
GA_LAGS = (5, 6, 9, 10, 12, 17, 18, 20, 24)
GA_LAYERS = 3
GA_MASTER_SEED = 0
GA_TRAIN = dict(train_size=128, val_size=128, sequence_length=64, num_symbols=8)
GA_SEARCH = dict(iterations=3, population=10, epochs=3, k=2, T=5, p_m=1.0, p_s=1.0)
GA_RETRAIN_EPOCHS = 8
GA_MIN_ACCURACY = 0.9

# local_parallel_multiscale: 2 K=2 layers, S=3 branches, parallel finalization.
LOCAL_INIT = (4, 28)
LOCAL_TASK = dict(sequence_length=96, train_size=256, val_size=128, windows=[4, 32])
LOCAL_SEARCH = dict(iterations=3, epochs_per_iteration=2, branches=3, delta_fraction=0.1)
LOCAL_RETRAIN_EPOCHS = 8

# surrogate_ga: 11^8 space, no training.
SURR_LENGTH = 8
SURR_SEARCH = dict(iterations=200, population=128, epochs=1, k=2, T=10, p_m=0.8, p_s=0.3)


@dataclass(frozen=True)
class Stage:
    name: str  # "search" or "retrain"
    argv: tuple[str, ...]  # rfsearch CLI arguments


def _seed_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def make_config(workload: str, seed: int, out_dir: Path) -> dict:
    rng = _seed_rng(seed, workload)
    if workload == "ga_lagged_copy":
        return {
            "master_seed": GA_MASTER_SEED,
            "output_dir": str(out_dir),
            "task": dict(kind="lagged_copy", lag=rng.choice(GA_LAGS),
                         seed=rng.randrange(2**31), **GA_TRAIN),
            "network": {"layers": [{"kernel_size": 2, "channels": 16}] * GA_LAYERS},
            "training": {"learning_rate": 0.02, "batch_size": 32,
                         "final_epochs": GA_RETRAIN_EPOCHS},
            "global": dict(max_dilation=32, **GA_SEARCH),
        }
    if workload == "local_parallel_multiscale":
        return {
            "master_seed": rng.randrange(2**31),
            "output_dir": str(out_dir),
            "task": dict(kind="multiscale_sum", seed=rng.randrange(2**31), **LOCAL_TASK),
            "network": {"layers": [{"kernel_size": 2, "channels": 16}] * len(LOCAL_INIT)},
            "training": {"learning_rate": 0.02, "batch_size": 32,
                         "final_epochs": LOCAL_RETRAIN_EPOCHS},
            "local": dict(pmf_kind="abs", **LOCAL_SEARCH),
        }
    if workload == "surrogate_ga":
        candidates = [2**i for i in range(SURR_SEARCH["T"] + 1)]
        return {
            "master_seed": rng.randrange(2**31),
            "output_dir": str(out_dir),
            "global": dict(SURR_SEARCH),
            "surrogate": {"target": [rng.choice(candidates) for _ in range(SURR_LENGTH)]},
        }
    raise KeyError(workload)


def stages(workload: str, config_path: Path, out_dir: Path) -> list[Stage]:
    common = ("--config", str(config_path), "--jobs", "1")
    if workload == "ga_lagged_copy":
        return [
            Stage("search", ("global",) + common),
            Stage("retrain", ("train",) + common + ("--init", str(out_dir / "best.json"))),
        ]
    if workload == "local_parallel_multiscale":
        init = ",".join(str(d) for d in LOCAL_INIT)
        return [
            Stage("search", ("local",) + common + ("--parallel", "--init", init)),
            Stage("retrain", ("train",) + common
                  + ("--init", str(out_dir / "final_structure.json"))),
        ]
    if workload == "surrogate_ga":
        return [Stage("search", ("global",) + common)]
    raise KeyError(workload)


# --------------------------------------------------------------------------
# reading a run directory
# --------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def first_evaluations(out_dir: Path) -> list[dict]:
    """population_log.csv rows of each genome's first (uncached) evaluation."""
    seen = set()
    rows = []
    for row in _read_csv(out_dir / "population_log.csv"):
        if row["genome"] not in seen:
            seen.add(row["genome"])
            rows.append(row)
    return rows


def _batches(cfg: dict) -> int:
    n = cfg["task"]["train_size"]
    return math.ceil(n / min(cfg["training"]["batch_size"], n))


def tap_sums(dilations, kernel_sizes) -> set[int]:
    """Every causal input offset a stack of dilated layers reads."""
    sums = {0}
    for d, k in zip(dilations, kernel_sizes):
        sums = {s + j * d for s in sums for j in range(k)}
    return sums


def summarize(workload: str, cfg: dict, out_dir: Path) -> dict:
    """Counts the run directory yields: candidates, unique evaluations, the
    retrained fitness, training sequences pushed through forward+backward,
    and the closed-form number of calls each conv kernel must have had."""
    s: dict = {}
    n_train = cfg.get("task", {}).get("train_size", 0)
    if workload in ("ga_lagged_copy", "surrogate_ga"):
        firsts = first_evaluations(out_dir)
        trajectory = _read_csv(out_dir / "trajectory.csv")
        s["created"] = int(trajectory[-1]["budget"])
        s["running_best"] = [float(r["running_best_fitness"]) for r in trajectory]
        s["unique"] = len(firsts)
        s["candidate_times"] = [float(r["wall_time_s"]) for r in firsts]
        s["diverged"] = sum(float(r["fitness"]) == DIVERGED for r in firsts)
        best = json.loads((out_dir / "best.json").read_text())
        s["best_genome"] = tuple(best["dilations"])
        s["best_fitness"] = float(best["fitness"])
    if workload == "surrogate_ga":
        s["final_fitness"] = s["best_fitness"]
        s["train_samples"] = 0
        s["expected_kernel_calls"] = dict.fromkeys(KERNEL_SPANS, 0)
        return s

    train = json.loads((out_dir / "train_metrics.json").read_text())
    s["final_fitness"] = float(train["fitness"])
    s["val_accuracy"] = float(train["metrics"].get("val_accuracy", float("nan")))
    batches = _batches(cfg)
    n_layers = len(cfg["network"]["layers"])
    # conv calls of one training step (and of one eval forward): one per plain
    # layer, one for the head, and one per branch of each multi-dilated layer
    plain_step = n_layers + 1
    if workload == "ga_lagged_copy":
        epochs = cfg["global"]["epochs"]
        retrain_step = plain_step
        search_train = s["unique"] * epochs * batches * plain_step
        search_eval = s["unique"] * plain_step
        search_samples = s["unique"] * epochs * n_train
    else:
        local = cfg["local"]
        iterations = {}
        for row in _read_csv(out_dir / "local_trajectory.csv"):
            branches = len(json.loads(row["dilations"]))
            iterations.setdefault(int(row["iteration"]), {})[int(row["layer_index"])] = branches
        search_train = 0
        for mixed in iterations.values():
            step = n_layers - len(mixed) + sum(mixed.values()) + 1
            search_train += local["epochs_per_iteration"] * batches * step
        search_eval = 0
        search_samples = len(iterations) * local["epochs_per_iteration"] * n_train
        structure = json.loads((out_dir / "final_structure.json").read_text())
        s["structure"] = structure
        branches = sum(len(l["dilations"]) for l in structure["layers"])
        retrain_step = n_layers - len(structure["layers"]) + branches + 1
    retrain_epochs = int(train["epochs"])
    retrain_train = retrain_epochs * batches * retrain_step
    s["train_samples"] = search_samples + retrain_epochs * n_train
    backward = search_train + retrain_train
    forward = backward + search_eval + retrain_step
    s["expected_kernel_calls"] = dict(zip(KERNEL_SPANS, (forward, backward, backward)))
    return s


def check(workload: str, cfg: dict, summary: dict) -> dict[str, list[str]]:
    """Output checks, as {stage name: [problems]}.  They hold within
    tolerances, so they stay valid when a change alters float rounding."""
    problems: dict[str, list[str]] = {"search": [], "retrain": []}
    search, retrain = problems["search"], problems["retrain"]
    if summary.get("diverged"):
        search.append(f"{summary['diverged']} diverged candidate(s)")
    if workload == "ga_lagged_copy":
        lag = cfg["task"]["lag"]
        kernel_sizes = [l["kernel_size"] for l in cfg["network"]["layers"]]
        if lag not in tap_sums(summary["best_genome"], kernel_sizes):
            search.append(f"best genome {summary['best_genome']} has no tap at lag {lag}")
        if not summary["val_accuracy"] >= GA_MIN_ACCURACY:
            retrain.append(
                f"retrained accuracy {summary['val_accuracy']:.4f} < {GA_MIN_ACCURACY}"
            )
    elif workload == "surrogate_ga":
        target = tuple(cfg["surrogate"]["target"])
        if summary["best_genome"] != target:
            search.append(f"best genome {summary['best_genome']} != target {target}")
        best = summary["running_best"]
        if any(b < a for a, b in zip(best, best[1:])):
            search.append("trajectory.csv running best fitness decreases")
    elif workload == "local_parallel_multiscale":
        structure = summary["structure"]
        branch_total = sum(len(l["dilations"]) for l in structure["layers"])
        if structure.get("type") != "parallel":
            search.append("final structure is not parallel-finalized")
        if structure.get("extra_parameters") != branch_total:
            search.append(
                f"extra_parameters {structure.get('extra_parameters')} != "
                f"summed branch-set sizes {branch_total}"
            )
        if not math.isfinite(summary["final_fitness"]):
            retrain.append(f"fitness {summary['final_fitness']} is not finite")
    return problems


# --------------------------------------------------------------------------
# output digests
# --------------------------------------------------------------------------

# Files each stage writes, hashed to compare runs of one commit and seed.
# population_log.csv is hashed without its wall-time column, and
# resolved_config.json is left out because it names the output directory.
_STAGE_FILES = {
    ("ga_lagged_copy", "search"): ("best.json", "trajectory.csv", "population_log.csv"),
    ("ga_lagged_copy", "retrain"): ("train_metrics.json",),
    ("local_parallel_multiscale", "search"): ("final_structure.json", "local_trajectory.csv"),
    ("local_parallel_multiscale", "retrain"): ("train_metrics.json",),
    ("surrogate_ga", "search"): ("best.json", "trajectory.csv", "population_log.csv"),
}


def stage_digest(workload: str, stage: str, out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in _STAGE_FILES[(workload, stage)]:
        h.update(name.encode() + b"\0")
        path = out_dir / name
        if name == "population_log.csv":
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    h.update(",".join(row[:-1]).encode() + b"\n")
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())

