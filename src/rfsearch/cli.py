"""Experiment harness: JSON configs, subcommands, logging, reports.

All randomness flows from ``master_seed`` through named sub-streams (see
``seeding``); every run directory receives ``resolved_config.json`` with all
defaults applied, and re-running from that file reproduces results
byte-identically (including with ``--jobs`` > 1).

Exit codes: 0 success, 2 usage/config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import seeding
from .genome import (
    DilationGenome,
    build_space,
    format_genome_string,
    genome_from_json,
    parse_genome_string,
    random_genome,
)
from .globalsearch import GlobalConfig, run_global_search
from .localsearch import (
    PMF_KINDS,
    LocalConfig,
    ParallelLayer,
    ParallelStructure,
    parallel_param_count,
    run_local_search,
)
from .network import LayerSpec, NetworkSpec, Trainer, TrainSettings
from .oracle import SurrogateFitness, random_search
from .tasks import TaskSpec, generate

__all__ = ["main", "ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


def _take(section: dict, key: str, default, caster):
    if key in section:
        value = section.pop(key)
        if value is None:
            return None if default is None or key in _NULLABLE else default
        try:
            return caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field {key!r}: {exc}") from exc
    return default


_NULLABLE = {
    "max_dilation",
    "coeff_learning_rate",
    "target",
    "decoy",
    "images_path",
    "labels_path",
}


def _no_leftovers(section: dict, where: str):
    if section:
        raise ConfigError(f"unknown config keys in {where}: {sorted(section)}")


def _parse_task(section: dict) -> TaskSpec:
    sec = dict(section)
    kind = _take(sec, "kind", None, str)
    if kind is None:
        raise ConfigError("task.kind is required")
    kwargs = dict(
        kind=kind,
        sequence_length=_take(sec, "sequence_length", 256, int),
        train_size=_take(sec, "train_size", 2000, int),
        val_size=_take(sec, "val_size", 500, int),
        seed=_take(sec, "seed", 0, int),
        num_symbols=_take(sec, "num_symbols", 8, int),
        lag=_take(sec, "lag", 12, int),
        windows=tuple(_take(sec, "windows", (4, 32), lambda v: [int(x) for x in v])),
        event_rate=_take(sec, "event_rate", 0.05, float),
        span=_take(sec, "span", 16, int),
        noise_level=_take(sec, "noise_level", 0.5, float),
        images_path=_take(sec, "images_path", None, str),
        labels_path=_take(sec, "labels_path", None, str),
        permutation_seed=_take(sec, "permutation_seed", 0, int),
    )
    _no_leftovers(sec, "task")
    try:
        return TaskSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc


def _parse_network(section: dict) -> dict:
    sec = dict(section)
    layers_raw = _take(sec, "layers", None, list)
    if not layers_raw:
        raise ConfigError("network.layers is required and must be non-empty")
    layers = []
    for i, ls in enumerate(layers_raw):
        ls = dict(ls)
        layers.append(
            dict(
                kernel_size=_take(ls, "kernel_size", 3, int),
                channels=_take(ls, "channels", 16, int),
                residual=_take(ls, "residual", False, bool),
            )
        )
        _no_leftovers(ls, f"network.layers[{i}]")
    head = _take(sec, "head", "classifier", str)
    padding = _take(sec, "padding_mode", "causal", str)
    _no_leftovers(sec, "network")
    return {"layers": layers, "head": head, "padding_mode": padding}


def _parse_training(section: dict) -> TrainSettings:
    sec = dict(section)
    kwargs = dict(
        learning_rate=_take(sec, "learning_rate", 0.01, float),
        batch_size=_take(sec, "batch_size", 32, int),
        coeff_learning_rate=_take(sec, "coeff_learning_rate", None, float),
        final_epochs=_take(sec, "final_epochs", 30, int),
    )
    _no_leftovers(sec, "training")
    try:
        return TrainSettings(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from exc


def _parse_global(section: dict) -> dict:
    sec = dict(section)
    out = dict(
        iterations=_take(sec, "iterations", 20, int),
        population=_take(sec, "population", 12, int),
        p_m=_take(sec, "p_m", 0.2, float),
        p_s=_take(sec, "p_s", 0.2, float),
        epochs=_take(sec, "epochs", 3, int),
        k=_take(sec, "k", 2, int),
        T=_take(sec, "T", 10, int),
        max_dilation=_take(sec, "max_dilation", None, int),
        mutation_mode=_take(sec, "mutation_mode", "uniform", str),
    )
    _no_leftovers(sec, "global")
    return out


def _parse_local(section: dict) -> LocalConfig:
    sec = dict(section)
    kwargs = dict(
        delta_fraction=_take(sec, "delta_fraction", 0.1, float),
        branches=_take(sec, "branches", 3, int),
        iterations=_take(sec, "iterations", 10, int),
        epochs_per_iteration=_take(sec, "epochs_per_iteration", 3, int),
        w_init=_take(sec, "w_init", 1.0, float),
        finalize_parallel=_take(sec, "finalize_parallel", False, bool),
        pmf_kind=_take(sec, "pmf_kind", "abs", str),
        max_dilation=_take(sec, "max_dilation", None, int),
    )
    _no_leftovers(sec, "local")
    try:
        return LocalConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"local: {exc}") from exc


def _parse_surrogate(section: dict) -> dict:
    sec = dict(section)
    out = dict(
        target=_take(sec, "target", None, lambda v: [int(x) for x in v]),
        deceptive=_take(sec, "deceptive", False, bool),
        decoy=_take(sec, "decoy", None, lambda v: [int(x) for x in v]),
    )
    _no_leftovers(sec, "surrogate")
    return out


def _parse_oracle(section: dict) -> dict:
    sec = dict(section)
    ga_sec = dict(_take(sec, "ga", {}, dict) or {})
    ga = dict(
        population=_take(ga_sec, "population", 12, int),
        iterations=_take(ga_sec, "iterations", 20, int),
        p_m=_take(ga_sec, "p_m", 0.2, float),
        p_s=_take(ga_sec, "p_s", 0.2, float),
        mutation_mode=_take(ga_sec, "mutation_mode", "uniform", str),
    )
    _no_leftovers(ga_sec, "oracle.ga")
    out = dict(
        k=_take(sec, "k", 2, int),
        T=_take(sec, "T", 10, int),
        max_dilation=_take(sec, "max_dilation", None, int),
        length=_take(sec, "length", 8, int),
        target=_take(sec, "target", None, lambda v: [int(x) for x in v]),
        deceptive=_take(sec, "deceptive", False, bool),
        decoy=_take(sec, "decoy", None, lambda v: [int(x) for x in v]),
        seeds=_take(sec, "seeds", 20, int),
        methods=_take(sec, "methods", ["ga", "random"], lambda v: [str(x) for x in v]),
        ga=ga,
    )
    _no_leftovers(sec, "oracle")
    return out


@dataclasses.dataclass
class ExperimentConfig:
    master_seed: int
    output_dir: str
    task: TaskSpec | None
    network: dict | None
    training: TrainSettings
    global_cfg: dict | None
    local_cfg: LocalConfig | None
    surrogate: dict | None
    oracle_cfg: dict | None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    doc = dict(doc)
    cfg = ExperimentConfig(
        master_seed=_take(doc, "master_seed", 0, int),
        output_dir=_take(doc, "output_dir", "runs/out", str),
        task=_parse_task(doc.pop("task")) if "task" in doc else None,
        network=_parse_network(doc.pop("network")) if "network" in doc else None,
        training=_parse_training(doc.pop("training")) if "training" in doc else _parse_training({}),
        global_cfg=_parse_global(doc.pop("global")) if "global" in doc else None,
        local_cfg=_parse_local(doc.pop("local")) if "local" in doc else None,
        surrogate=_parse_surrogate(doc.pop("surrogate")) if "surrogate" in doc else None,
        oracle_cfg=_parse_oracle(doc.pop("oracle")) if "oracle" in doc else None,
    )
    _no_leftovers(doc, "top level")
    if cfg.global_cfg is None and cfg.local_cfg is None and cfg.oracle_cfg is None:
        raise ConfigError("config needs at least one of: global, local, oracle")
    return cfg


def _resolved_config_doc(cfg: ExperimentConfig) -> dict:
    doc = {"master_seed": cfg.master_seed, "output_dir": cfg.output_dir}
    if cfg.task is not None:
        task = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(cfg.task).items()}
        doc["task"] = task
    if cfg.network is not None:
        doc["network"] = cfg.network
    doc["training"] = dataclasses.asdict(cfg.training)
    if cfg.global_cfg is not None:
        doc["global"] = cfg.global_cfg
    if cfg.local_cfg is not None:
        doc["local"] = dataclasses.asdict(cfg.local_cfg)
    if cfg.surrogate is not None:
        doc["surrogate"] = cfg.surrogate
    if cfg.oracle_cfg is not None:
        doc["oracle"] = cfg.oracle_cfg
    return doc


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _build_net_spec(cfg: ExperimentConfig) -> NetworkSpec:
    if cfg.task is None or cfg.network is None:
        raise ConfigError("this command needs both a task and a network section")
    layers = tuple(LayerSpec(**ls) for ls in cfg.network["layers"])
    try:
        return NetworkSpec(
            in_channels=cfg.task.in_channels,
            layers=layers,
            num_classes=cfg.task.num_classes,
            head=cfg.network["head"],
            padding_mode=cfg.network["padding_mode"],
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _build_trainer(cfg: ExperimentConfig) -> Trainer:
    net_spec = _build_net_spec(cfg)
    data = generate(cfg.task)
    return Trainer(data, net_spec, cfg.training, seed=cfg.master_seed)


def _load_initial_genome(init: str, length: int) -> DilationGenome:
    if init == "baseline":
        return DilationGenome((1,) * length)
    path = Path(init)
    if path.exists():
        genome, _ = genome_from_json(path.read_text())
    else:
        try:
            genome = parse_genome_string(init)
        except ValueError as exc:
            raise ConfigError(
                f"--init must be 'baseline', a genome JSON path, or 'd1,d2,...': {exc}"
            ) from exc
    if len(genome) != length:
        raise ConfigError(
            f"initial genome has {len(genome)} genes, network expects {length}"
        )
    return genome


def _load_structure(init: str, length: int):
    """Like _load_initial_genome but also accepts a parallel-structure JSON."""
    path = Path(init)
    if path.exists():
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and doc.get("type") == "parallel":
            layers = tuple(
                ParallelLayer(tuple(int(d) for d in l["dilations"]),
                              tuple(float(a) for a in l["alphas"]))
                for l in doc["layers"]
            )
            structure = ParallelStructure(layers)
            if len(structure.layers) != length:
                raise ConfigError(
                    f"structure has {len(structure.layers)} layers, network expects {length}"
                )
            return structure
    return _load_initial_genome(init, length)


def _structure_doc(result, kernel_sizes) -> dict:
    if isinstance(result, ParallelStructure):
        return {
            "type": "parallel",
            "layers": [
                {"dilations": list(l.dilations), "alphas": list(l.alphas)}
                for l in result.layers
            ],
            "kernel_sizes": list(kernel_sizes),
            "extra_parameters": parallel_param_count(result),
        }
    return {
        "type": "genome",
        "dilations": list(result.dilations),
        "kernel_sizes": list(kernel_sizes),
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_global(cfg: ExperimentConfig, jobs: int) -> int:
    if cfg.global_cfg is None:
        raise ConfigError("config has no 'global' section")
    g = cfg.global_cfg
    out = Path(cfg.output_dir)
    if cfg.surrogate is not None:
        if cfg.surrogate["target"] is None:
            raise ConfigError("surrogate.target is required for global search")
        target = tuple(cfg.surrogate["target"])
        fitness = SurrogateFitness(
            target,
            deceptive=cfg.surrogate["deceptive"],
            decoy=tuple(cfg.surrogate["decoy"]) if cfg.surrogate["decoy"] else None,
        )
        trainer = fitness.as_trainer()
        length = len(target)
        cap = g["max_dilation"] if g["max_dilation"] else g["k"] ** g["T"]
        kernel_sizes = None
    else:
        trainer = _build_trainer(cfg)
        length = trainer.genome_length
        cap = g["max_dilation"] if g["max_dilation"] else cfg.task.sequence_length - 1
        kernel_sizes = trainer.net_spec.searched_kernel_sizes()
    space = build_space(g["k"], g["T"], cap)
    gcfg = GlobalConfig(
        space=space,
        genome_length=length,
        iterations=g["iterations"],
        population=g["population"],
        p_m=g["p_m"],
        p_s=g["p_s"],
        epochs=g["epochs"],
        master_seed=cfg.master_seed,
        mutation_mode=g["mutation_mode"],
    )
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    population = run_global_search(
        gcfg, trainer, jobs=jobs, log_dir=out, kernel_sizes=kernel_sizes
    )
    best = population.best()
    print(
        f"global search done: best genome {format_genome_string(best.genome)} "
        f"fitness {best.fitness:.6g} ({out / 'best.json'})"
    )
    return 0


def cmd_local(cfg: ExperimentConfig, init: str, parallel: bool, pmf_kind: str | None) -> int:
    if cfg.local_cfg is None:
        raise ConfigError("config has no 'local' section")
    lcfg = cfg.local_cfg
    if parallel:
        lcfg = dataclasses.replace(lcfg, finalize_parallel=True)
    if pmf_kind is not None:
        lcfg = dataclasses.replace(lcfg, pmf_kind=pmf_kind)
    if lcfg.max_dilation is None and cfg.task is not None:
        lcfg = dataclasses.replace(lcfg, max_dilation=cfg.task.sequence_length - 1)
    trainer = _build_trainer(cfg)
    initial = _load_initial_genome(init, trainer.genome_length)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = dataclasses.replace(cfg, local_cfg=lcfg)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    result, history = run_local_search(initial, lcfg, trainer, seed=cfg.master_seed)
    with open(out / "local_trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "layer_index", "dilations", "alphas", "new_dilation"])
        for row in history:
            writer.writerow(
                [
                    row.iteration,
                    row.layer_index,
                    json.dumps(list(row.dilations)),
                    json.dumps(list(row.alphas)),
                    row.new_dilation,
                ]
            )
    kernel_sizes = trainer.net_spec.searched_kernel_sizes()
    _write_json(out / "final_structure.json", _structure_doc(result, kernel_sizes))
    if isinstance(result, ParallelStructure):
        print(f"local search done: parallel structure with "
              f"{parallel_param_count(result)} extra parameters ({out / 'final_structure.json'})")
    else:
        print(f"local search done: genome {format_genome_string(result)} "
              f"({out / 'final_structure.json'})")
    return 0


def cmd_train(cfg: ExperimentConfig, init: str, epochs: int | None) -> int:
    trainer = _build_trainer(cfg)
    structure = _load_structure(init, trainer.genome_length)
    n_epochs = epochs if epochs is not None else cfg.training.final_epochs
    seed = seeding.derive_seed(cfg.master_seed, "train-final")
    fitness, metrics, _net = trainer.train_structure(structure, n_epochs, seed)
    out = Path(cfg.output_dir)
    doc = {
        "structure": _structure_doc(structure, trainer.net_spec.searched_kernel_sizes()),
        "epochs": n_epochs,
        "seed": seed,
        "fitness": fitness,
        "metrics": metrics,
    }
    _write_json(out / "train_metrics.json", doc)
    print(f"trained {n_epochs} epochs: fitness {fitness:.6g} ({out / 'train_metrics.json'})")
    return 0


def cmd_oracle(cfg: ExperimentConfig, jobs: int) -> int:
    if cfg.oracle_cfg is None:
        raise ConfigError("config has no 'oracle' section")
    o = cfg.oracle_cfg
    cap = o["max_dilation"] if o["max_dilation"] else o["k"] ** o["T"]
    space = build_space(o["k"], o["T"], cap)
    length = o["length"]
    if o["target"] is not None:
        target = tuple(o["target"])
    else:
        target = random_genome(
            space, length, seeding.derive_rng(cfg.master_seed, "oracle-target")
        ).dilations
    fitness = SurrogateFitness(
        target,
        deceptive=o["deceptive"],
        decoy=tuple(o["decoy"]) if o["decoy"] else None,
    )
    ga = o["ga"]
    budget = (1 + ga["iterations"]) * ga["population"]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    rows = []
    finals: dict[str, list[float]] = {m: [] for m in o["methods"]}
    for s in range(o["seeds"]):
        seed = seeding.derive_seed(cfg.master_seed, "oracle-seed", s)
        for method in o["methods"]:
            if method == "ga":
                gcfg = GlobalConfig(
                    space=space,
                    genome_length=length,
                    iterations=ga["iterations"],
                    population=ga["population"],
                    p_m=ga["p_m"],
                    p_s=ga["p_s"],
                    epochs=1,
                    master_seed=seed,
                    mutation_mode=ga["mutation_mode"],
                )
                trajectory: list = []
                run_global_search(
                    gcfg, fitness.as_trainer(), jobs=jobs, trajectory_out=trajectory
                )
            elif method == "random":
                _, trajectory = random_search(space, length, budget, fitness, seed)
            else:
                raise ConfigError(f"unknown oracle method {method!r}")
            for b, f in trajectory:
                rows.append((b, f, s, method))
            finals[method].append(trajectory[-1][1])
    with open(out / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "running_best_fitness", "seed", "method"])
        for b, f, s, method in rows:
            writer.writerow([b, repr(f), s, method])
    summary = {
        "target": list(target),
        "budget": budget,
        "methods": {
            m: {
                "final_mean": float(np.mean(v)),
                "final_std": float(np.std(v)),
            }
            for m, v in finals.items()
        },
    }
    _write_json(out / "summary.json", summary)
    for m, stats in summary["methods"].items():
        print(
            f"oracle {m}: final best {stats['final_mean']:.6g} "
            f"+/- {stats['final_std']:.3g} over {o['seeds']} seeds"
        )
    return 0


def cmd_report(run_dir) -> int:
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    groups: dict[tuple[str, int], list[float]] = {}
    n_rows = 0
    for csv_path in sorted(run_dir.glob("*.csv")):
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["budget", "running_best_fitness", "seed", "method"]:
                continue
            for lineno, row in enumerate(reader, start=2):
                try:
                    budget = int(row[0])
                    value = float(row[1])
                    method = row[3]
                except (ValueError, IndexError):
                    print(
                        f"warning: skipping malformed row {csv_path}:{lineno}: {row}",
                        file=sys.stderr,
                    )
                    continue
                groups.setdefault((method, budget), []).append(value)
                n_rows += 1
    if n_rows == 0:
        raise ConfigError(f"no trajectory rows found under {run_dir}")
    report_path = run_dir / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "budget", "mean", "std", "n"])
        for (method, budget) in sorted(groups):
            vals = np.asarray(groups[(method, budget)])
            writer.writerow(
                [method, budget, repr(float(vals.mean())), repr(float(vals.std())), vals.size]
            )
    methods = sorted({m for m, _ in groups})
    print(f"{'method':<10} {'final budget':>12} {'mean':>14} {'std':>12} {'n':>4}")
    for method in methods:
        budget = max(b for m, b in groups if m == method)
        vals = np.asarray(groups[(method, budget)])
        print(
            f"{method:<10} {budget:>12} {vals.mean():>14.6g} {vals.std():>12.4g} {vals.size:>4}"
        )
    print(f"wrote {report_path}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfsearch",
        description="Receptive-field search for dilated convolutional sequence networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--jobs", type=int, default=1, help="evaluation worker count")

    p_global = sub.add_parser("global", help="genetic global search")
    add_common(p_global)

    p_local = sub.add_parser("local", help="iterative local refinement")
    add_common(p_local)
    p_local.add_argument(
        "--init",
        default="baseline",
        help="initial genome: 'baseline', a genome JSON path, or 'd1,d2,...'",
    )
    p_local.add_argument(
        "--parallel", action="store_true", help="keep all branches of the final layers"
    )
    p_local.add_argument("--pmf", default=None, choices=PMF_KINDS, help="branch PMF kind")

    p_train = sub.add_parser("train", help="train a fixed genome/structure and report metrics")
    add_common(p_train)
    p_train.add_argument("--init", default="baseline")
    p_train.add_argument("--epochs", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="surrogate-fitness search comparisons")
    add_common(p_oracle)

    p_report = sub.add_parser("report", help="aggregate trajectory CSVs of a run directory")
    p_report.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
        if args.command == "global":
            return cmd_global(cfg, jobs=args.jobs)
        if args.command == "local":
            return cmd_local(cfg, init=args.init, parallel=args.parallel, pmf_kind=args.pmf)
        if args.command == "train":
            return cmd_train(cfg, init=args.init, epochs=args.epochs)
        if args.command == "oracle":
            return cmd_oracle(cfg, jobs=args.jobs)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
