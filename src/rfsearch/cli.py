"""Experiment harness: JSON configs, subcommands, logging, reports.

Each config section is read into the dataclass that owns its fields,
defaults and checks (``task`` -> ``TaskSpec``, with only the keys that
``TASK_KEYS`` names for its kind, ``network`` -> ``NetworkSpec``
and ``LayerSpec``, ``training`` -> ``TrainSettings``, ``local`` ->
``LocalConfig``, ``surrogate`` -> ``SurrogateFitness``, the search keys of
``global`` -> ``GlobalConfig``, ``oracle`` -> ``OracleConfig``).  Each
setting has one home: ``oracle`` runs the search of the ``global`` section on
the ``surrogate`` section's fitness, and no command-line flag overrides a
key.  JSON types are strict: a bool must be ``true``/``false``, an int must
be neither a float nor a bool, and ``null`` is accepted only where the
default is null.  Any invalid value is a config error, raised before a run
directory or task data exists.  The ``--init`` structure files
(``best.json``, ``final_structure.json``) are read by the same rules into
``DilationGenome`` or ``ParallelStructure``.

All randomness flows from ``master_seed`` through named sub-streams (see
``seeding``).  Every run directory receives ``resolved_config.json``, the same
mapping run in reverse with all defaults applied (``train`` writes
``train_resolved_config.json`` instead, so it leaves the record of the search
it follows in place); running again from it reproduces every output
byte-for-byte (tested for each subcommand).

Exit codes: 0 success, 2 usage/config error, 3 runtime failure (with its
traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import traceback
import types
import typing
from pathlib import Path

import numpy as np

from . import seeding
from .genome import DilationGenome, build_space, format_genome_string, parse_genome_string
from .globalsearch import GlobalConfig, run_global_search
from .localsearch import LocalConfig, ParallelStructure, parallel_param_count, run_local_search
from .network import NetworkSpec, Trainer, TrainSettings
from .oracle import SurrogateFitness, random_search
from .tasks import TASK_KEYS, TaskSpec, generate
from .tensorops import keep_heap

__all__ = ["main", "ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


# --------------------------------------------------------------------------
# config schema: each section is read into the dataclass that owns it
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _SpaceKeys:
    """Search-space keys of the ``global`` section; a null ``max_dilation``
    takes the command's default cap."""

    k: int = 2
    T: int = 10
    max_dilation: int | None = None


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """The ``oracle`` section.  Each of ``seeds`` seeds runs the ``global``
    search on the ``surrogate`` fitness, then random search with its budget."""

    seeds: int = 20

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")


@dataclasses.dataclass
class ExperimentConfig:
    """Top-level keys plus one owning object per section (None if absent)."""

    master_seed: int = 0
    output_dir: str = "runs/out"
    task: TaskSpec | None = None
    network: NetworkSpec | None = None
    training: TrainSettings = dataclasses.field(default_factory=TrainSettings)
    global_cfg: GlobalConfig | None = None
    local_cfg: LocalConfig | None = None
    surrogate: SurrogateFitness | None = None
    oracle_cfg: OracleConfig | None = None

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


# config key -> ExperimentConfig field
_SECTIONS = {"task": "task", "network": "network", "training": "training",
             "global": "global_cfg", "local": "local_cfg", "surrogate": "surrogate",
             "oracle": "oracle_cfg"}
# fields set from other sections or by the command, not read from keys
_GA_FIXED = ("space", "genome_length")
# keys a structure file records beside the structure itself
_RECORDED = ("type", "kernel_sizes", "extra_parameters", "fitness", "seed")


def _value(value, hint, default, where: str):
    """``value`` checked against the type ``hint``; JSON lists become tuples
    and JSON objects the dataclass ``hint`` names."""
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"{where} must not be null")
    if isinstance(hint, types.UnionType):  # X | None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {json.dumps(value)}")
        item = typing.get_args(hint)[0]
        return tuple(
            _value(v, item, dataclasses.MISSING, f"{where}[{i}]") for i, v in enumerate(value)
        )
    if dataclasses.is_dataclass(hint):
        return _read(_object(value, where), hint, where)
    if hint is float and type(value) in (int, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value}")
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{where} must be {hint.__name__}, got {json.dumps(value)}")
    return value


def _fields(section: dict, owner, where: str, skip=()) -> dict:
    """Pop the fields of dataclass ``owner`` (except ``skip``) from ``section``
    as constructor keywords; absent keys are left to the owner's defaults."""
    # cli's own names resolve the annotations of the classes defined here
    # even when this module runs as a script under a runner that keeps its
    # own ``__main__`` (``python -m cProfile -m rfsearch.cli``)
    hints = typing.get_type_hints(owner, localns=globals())
    kwargs = {}
    for f in dataclasses.fields(owner):
        if f.name in skip:
            continue
        key = f"{where}.{f.name}".lstrip(".")
        if f.name in section:
            kwargs[f.name] = _value(section.pop(f.name), hints[f.name], f.default, key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{key} is required")
    return kwargs


def _no_leftovers(section: dict, where: str):
    if section:
        raise ConfigError(f"unknown config keys in {where}: {sorted(section)}")


def _build(make, where: str, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(section: dict, owner, where: str, skip=(), **fixed):
    """Build ``owner`` from every key of ``section`` plus the ``fixed`` arguments."""
    kwargs = _fields(section, owner, where, skip=(*skip, *fixed))
    _no_leftovers(section, where)
    return _build(owner, where, **fixed, **kwargs)


def _object(value, where: str) -> dict:
    if type(value) is not dict:
        raise ConfigError(f"{where} must be a JSON object")
    return dict(value)


def _read_task(section: dict) -> TaskSpec:
    """A task takes ``kind`` and the keys ``TASK_KEYS`` names for that kind."""
    kind = section.get("kind")
    if type(kind) is str and kind in TASK_KEYS:
        _no_leftovers(section.keys() - {"kind", *TASK_KEYS[kind]}, f"task of kind {kind}")
    return _read(section, TaskSpec, "task")


def _read_network(section: dict, task: TaskSpec | None) -> NetworkSpec:
    if task is None:
        raise ConfigError("a network section needs a task section")
    return _read(section, NetworkSpec, "network", in_channels=task.in_channels,
                 num_classes=task.num_classes)


def _read_global(section: dict, task, network, surrogate) -> GlobalConfig:
    keys = _SpaceKeys(**_fields(section, _SpaceKeys, "global"))
    search = _fields(section, GlobalConfig, "global", skip=_GA_FIXED)
    _no_leftovers(section, "global")
    if surrogate is not None:
        length, cap = len(surrogate.target), None
    elif network is not None:
        length, cap = len(network.searched_layer_indices()), task.sequence_length - 1
    else:
        raise ConfigError("global search needs a surrogate section, or task and network sections")
    if keys.max_dilation is not None:
        cap = keys.max_dilation
    elif cap is None:
        cap = keys.k**keys.T
    space = _build(build_space, "global", keys.k, keys.T, cap)
    return _build(GlobalConfig, "global", space=space, genome_length=length, **search)


def _json_file(path: Path, what: str) -> dict:
    """The JSON object in the file at ``path``; anything else is a config error."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {path} is not a readable JSON file: {exc}") from exc
    return _object(doc, f"{what} {path}")


def load_config(path) -> ExperimentConfig:
    doc = _json_file(Path(path), "config file")
    sec = {key: _object(doc.pop(key), key) for key in _SECTIONS if key in doc}
    top = _fields(doc, ExperimentConfig, "", skip=_SECTIONS.values())
    _no_leftovers(doc, "top level")
    if not sec.keys() & {"global", "local", "oracle"}:
        raise ConfigError("config needs at least one of: global, local, oracle")
    if "oracle" in sec and not sec.keys() >= {"global", "surrogate"}:
        raise ConfigError("an oracle section needs global and surrogate sections")
    task = _read_task(sec["task"]) if "task" in sec else None
    network = _read_network(sec["network"], task) if "network" in sec else None
    surrogate = (
        _read(sec["surrogate"], SurrogateFitness, "surrogate") if "surrogate" in sec else None
    )
    local = _read(sec["local"], LocalConfig, "local") if "local" in sec else None
    if local is not None and local.max_dilation is None and task is not None:
        local = dataclasses.replace(local, max_dilation=task.sequence_length - 1)
    return _build(
        ExperimentConfig,
        "config",
        **top,
        task=task,
        network=network,
        training=_read(sec.get("training", {}), TrainSettings, "training"),
        global_cfg=(
            _read_global(sec["global"], task, network, surrogate) if "global" in sec else None
        ),
        local_cfg=local,
        surrogate=surrogate,
        oracle_cfg=_read(sec["oracle"], OracleConfig, "oracle") if "oracle" in sec else None,
    )


def _doc(obj, skip=()) -> dict:
    """The inverse of ``_fields``: ``obj``'s fields (except ``skip``) as JSON values."""
    doc = {}
    for f in dataclasses.fields(obj):
        if f.name not in skip:
            doc[f.name] = _json_value(getattr(obj, f.name))
    return doc


def _json_value(value):
    """The inverse of ``_value``: tuples become lists and dataclasses objects."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _doc(value)
    return value


def _resolved_config_doc(cfg: ExperimentConfig) -> dict:
    """``load_config`` run in reverse, with every default applied."""
    doc = _doc(cfg, skip=_SECTIONS.values())
    doc["training"] = _doc(cfg.training)
    if cfg.task is not None:
        kept = {"kind", *TASK_KEYS[cfg.task.kind]}
        doc["task"] = {k: v for k, v in _doc(cfg.task).items() if k in kept}
    if cfg.network is not None:
        doc["network"] = _doc(cfg.network, skip=("in_channels", "num_classes"))
    if cfg.surrogate is not None:
        doc["surrogate"] = _doc(cfg.surrogate)
    if cfg.local_cfg is not None:
        doc["local"] = _doc(cfg.local_cfg)
    if cfg.global_cfg is not None:
        g, space = cfg.global_cfg, cfg.global_cfg.space
        keys = _SpaceKeys(space.k, space.T, space.max_dilation_cap)
        doc["global"] = {**_doc(g, skip=_GA_FIXED), **_doc(keys)}
    if cfg.oracle_cfg is not None:
        doc["oracle"] = _doc(cfg.oracle_cfg)
    return doc


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _build_trainer(cfg: ExperimentConfig) -> Trainer:
    if cfg.network is None:
        raise ConfigError("this command needs both a task and a network section")
    return Trainer(generate(cfg.task), cfg.network, cfg.training, seed=cfg.master_seed)


def _load_init(init: str, spec: NetworkSpec) -> DilationGenome | ParallelStructure:
    """``--init``: 'baseline', 'd1,d2,...', or the path of a structure file,
    read by the config's rules; its ``type`` (default 'genome', as ``best.json``
    has none) picks the structure, and its other recorded keys are ignored."""
    if init == "baseline":
        return _build(spec.baseline_genome, "--init baseline")
    path = Path(init)
    if not path.exists():
        where = "--init must be 'baseline', a structure file, or 'd1,d2,...'"
        loaded = _build(parse_genome_string, where, init)
    else:
        doc = _json_file(path, "--init")
        kind = doc.get("type", "genome")
        for key in _RECORDED:
            doc.pop(key, None)
        try:
            if kind == "parallel":
                loaded = _read(doc, ParallelStructure, kind)
            elif kind == "genome":
                loaded = _read(doc, DilationGenome, kind)
            else:
                raise ConfigError(f"type must be 'genome' or 'parallel', got {json.dumps(kind)}")
        except ConfigError as exc:
            raise ConfigError(f"--init {init} is not a valid structure: {exc}") from exc
    searched = len(loaded.layers) if isinstance(loaded, ParallelStructure) else len(loaded)
    length = len(spec.searched_layer_indices())
    if searched != length:
        raise ConfigError(f"--init {init} sets {searched} layers, the network searches {length}")
    return loaded


def _structure_doc(result, kernel_sizes) -> dict:
    """``result`` as a structure file: the structure plus its recorded keys."""
    doc = {**_doc(result), "type": "genome", "kernel_sizes": list(kernel_sizes)}
    if isinstance(result, ParallelStructure):
        doc.update(type="parallel", extra_parameters=parallel_param_count(result))
    return doc


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_global(cfg: ExperimentConfig, jobs: int) -> int:
    if cfg.global_cfg is None:
        raise ConfigError("config has no 'global' section")
    out = Path(cfg.output_dir)
    if cfg.surrogate is not None:
        trainer, kernel_sizes = cfg.surrogate.as_trainer(), None
    else:
        trainer, kernel_sizes = _build_trainer(cfg), cfg.network.searched_kernel_sizes()
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    members, _ = run_global_search(
        cfg.global_cfg, trainer, cfg.master_seed, jobs=jobs, log_dir=out,
        kernel_sizes=kernel_sizes,
    )
    best = members[0]
    print(
        f"global search done: best genome {format_genome_string(best.genome)} "
        f"fitness {best.fitness:.6g} ({out / 'best.json'})"
    )
    return 0


def cmd_local(cfg: ExperimentConfig, init: str, parallel: bool) -> int:
    if cfg.local_cfg is None:
        raise ConfigError("config has no 'local' section")
    lcfg = cfg.local_cfg
    if parallel:
        lcfg = dataclasses.replace(lcfg, finalize_parallel=True)
        cfg = dataclasses.replace(cfg, local_cfg=lcfg)
    trainer = _build_trainer(cfg)
    initial = _load_init(init, trainer.net_spec)
    if isinstance(initial, ParallelStructure):
        raise ConfigError(f"--init {init} is a parallel structure; local search needs a genome")
    out = Path(cfg.output_dir)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    result, history = run_local_search(initial, lcfg, trainer, seed=cfg.master_seed)
    _write_csv(
        out / "local_trajectory.csv",
        ["iteration", "layer_index", "dilations", "alphas", "new_dilation", "rounding_offset"],
        ([row.iteration, row.layer_index, json.dumps(list(row.dilations)),
          json.dumps(list(row.alphas)), row.new_dilation, repr(row.offset)] for row in history),
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


def cmd_train(cfg: ExperimentConfig, init: str) -> int:
    trainer = _build_trainer(cfg)
    structure = _load_init(init, trainer.net_spec)
    n_epochs = cfg.training.final_epochs
    seed = seeding.derive_seed(cfg.master_seed, "train-final")
    out = Path(cfg.output_dir)
    # train usually shares its directory with the search it follows, whose
    # resolved_config.json must stay the record of that search
    _write_json(out / "train_resolved_config.json", _resolved_config_doc(cfg))
    fitness, metrics, _net = trainer.train_structure(structure, n_epochs, seed)
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
    ga, fitness, n_seeds = cfg.global_cfg, cfg.surrogate, cfg.oracle_cfg.seeds
    budget = (1 + ga.iterations) * ga.population
    out = Path(cfg.output_dir)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    rows = []
    for s in range(n_seeds):
        seed = seeding.derive_seed(cfg.master_seed, "oracle-seed", s)
        runs = {"ga": run_global_search(ga, fitness.as_trainer(), seed, jobs=jobs),
                "random": random_search(ga.space, ga.genome_length, budget, fitness, seed)}
        for method, (_, trajectory) in runs.items():
            rows += [(b, f, s, method) for b, f in trajectory]
    # running-best values per (method, budget), in seed order
    groups: dict[tuple[str, int], list[float]] = {}
    for b, f, _, method in rows:
        groups.setdefault((method, b), []).append(f)
    _write_csv(out / "trajectory.csv", ["budget", "running_best_fitness", "seed", "method"],
               ([b, repr(f), s, method] for b, f, s, method in rows))
    _write_csv(out / "report.csv", ["method", "budget", "mean", "std", "n"],
               ([method, b, repr(float(np.mean(v))), repr(float(np.std(v))), len(v)]
                for (method, b), v in sorted(groups.items())))
    finals = {m: groups[(m, budget)] for m in ("ga", "random")}
    summary = {
        "target": list(fitness.target),
        "budget": budget,
        "methods": {
            m: {"final_mean": float(np.mean(v)), "final_std": float(np.std(v))}
            for m, v in finals.items()
        },
    }
    _write_json(out / "summary.json", summary)
    for m, stats in summary["methods"].items():
        print(
            f"oracle {m}: final best {stats['final_mean']:.6g} "
            f"+/- {stats['final_std']:.3g} over {n_seeds} seeds ({out / 'report.csv'})"
        )
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
        p.add_argument(
            "--jobs", type=int, default=1,
            help="evaluation worker count (global and oracle; local and train take only 1)",
        )

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

    p_train = sub.add_parser("train", help="train a fixed genome/structure and report metrics")
    add_common(p_train)
    p_train.add_argument("--init", default="baseline")

    p_oracle = sub.add_parser("oracle", help="surrogate-fitness search comparisons")
    add_common(p_oracle)
    return parser


def main(argv=None) -> int:
    keep_heap()  # the commands train; a step's temporaries stay in the heap
    args = _build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.jobs != 1 and args.command in ("local", "train"):
            raise ConfigError(f"--jobs applies to global and oracle only; {args.command} runs "
                              f"serially, got --jobs {args.jobs}")
        cfg = load_config(args.config)
        if args.command == "global":
            return cmd_global(cfg, jobs=args.jobs)
        if args.command == "local":
            return cmd_local(cfg, init=args.init, parallel=args.parallel)
        if args.command == "train":
            return cmd_train(cfg, init=args.init)
        if args.command == "oracle":
            return cmd_oracle(cfg, jobs=args.jobs)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
