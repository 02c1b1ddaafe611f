"""Experiment harness: JSON configs, subcommands, logging, reports.

Each config section is read into the dataclass that owns its fields,
defaults and checks (``task`` -> ``TaskSpec``, with only the keys that
``TASK_KEYS`` names for its kind, ``network`` -> ``NetworkSpec``
and ``LayerSpec``, ``training`` -> ``TrainSettings``, ``local`` ->
``LocalConfig``, ``surrogate`` -> ``SurrogateFitness``, the search keys of
``global`` and ``oracle.ga`` -> ``GlobalConfig``).  JSON types are strict: a
bool must be ``true``/``false``, an int must be neither a float nor a bool,
and ``null`` is accepted only where the default is null.  Any invalid value
is a config error, raised before a run directory or task data exists.  The
``--init`` structure files (``best.json``, ``final_structure.json``) are read
by the same rules into ``DilationGenome`` or ``ParallelStructure``.

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
from .genome import (
    DilationGenome,
    SearchSpace,
    build_space,
    format_genome_string,
    parse_genome_string,
    random_genome,
)
from .globalsearch import GlobalConfig, run_global_search
from .localsearch import (
    PMF_KINDS,
    LocalConfig,
    ParallelStructure,
    parallel_param_count,
    run_local_search,
)
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
    """Search-space keys of the ``global`` and ``oracle`` sections; a null
    ``max_dilation`` takes the command's default cap."""

    k: int = 2
    T: int = 10
    max_dilation: int | None = None


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """The ``oracle`` section's own keys, plus the GA and surrogate they set.
    Each seed runs the GA, then random search with the GA's budget.

    A null ``target`` is drawn from the master seed at run time; until then
    ``surrogate`` holds the all-ones genome as its target."""

    length: int = 8
    target: tuple[int, ...] | None = None
    seeds: int = 20
    ga: GlobalConfig | None = None
    surrogate: SurrogateFitness | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.target is not None and len(self.target) != self.length:
            raise ValueError(f"target has {len(self.target)} genes, length is {self.length}")
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


def _space(keys: _SpaceKeys, where: str, cap: int | None) -> SearchSpace:
    if keys.max_dilation is not None:
        cap = keys.max_dilation
    elif cap is None:
        cap = keys.k**keys.T
    return _build(build_space, where, keys.k, keys.T, cap)


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
    return _build(GlobalConfig, "global", space=_space(keys, "global", cap),
                  genome_length=length, **search)


def _read_oracle(section: dict) -> OracleConfig:
    ga_section = _object(section.pop("ga", {}), "oracle.ga")
    keys = _SpaceKeys(**_fields(section, _SpaceKeys, "oracle"))
    fitness = _fields(section, SurrogateFitness, "oracle", skip=("target",))
    oracle = _read(section, OracleConfig, "oracle", ga=None, surrogate=None)
    ga = _read(ga_section, GlobalConfig, "oracle.ga", space=_space(keys, "oracle", None),
               genome_length=oracle.length, epochs=1)
    target = oracle.target if oracle.target is not None else (1,) * oracle.length
    surrogate = _build(SurrogateFitness, "oracle", target, **fitness)
    return dataclasses.replace(oracle, ga=ga, surrogate=surrogate)


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
        oracle_cfg=_read_oracle(sec["oracle"]) if "oracle" in sec else None,
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


def _space_doc(space: SearchSpace) -> dict:
    return _doc(_SpaceKeys(space.k, space.T, space.max_dilation_cap))


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
        g = cfg.global_cfg
        doc["global"] = {**_doc(g, skip=_GA_FIXED), **_space_doc(g.space)}
    if cfg.oracle_cfg is not None:
        o = cfg.oracle_cfg
        doc["oracle"] = {
            **_doc(o, skip=("ga", "surrogate")),
            **_space_doc(o.ga.space),
            **_doc(o.surrogate, skip=("target",)),
            "ga": _doc(o.ga, skip=(*_GA_FIXED, "epochs")),
        }
    return doc


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def cmd_local(cfg: ExperimentConfig, init: str, parallel: bool, pmf_kind: str | None) -> int:
    if cfg.local_cfg is None:
        raise ConfigError("config has no 'local' section")
    lcfg = cfg.local_cfg
    if parallel:
        lcfg = dataclasses.replace(lcfg, finalize_parallel=True)
    if pmf_kind is not None:
        lcfg = dataclasses.replace(lcfg, pmf_kind=pmf_kind)
    cfg = dataclasses.replace(cfg, local_cfg=lcfg)
    trainer = _build_trainer(cfg)
    initial = _load_init(init, trainer.net_spec)
    if isinstance(initial, ParallelStructure):
        raise ConfigError(f"--init {init} is a parallel structure; local search needs a genome")
    out = Path(cfg.output_dir)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    result, history = run_local_search(initial, lcfg, trainer, seed=cfg.master_seed)
    with open(out / "local_trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "layer_index", "dilations", "alphas", "new_dilation",
                         "rounding_offset"])
        for row in history:
            writer.writerow(
                [
                    row.iteration,
                    row.layer_index,
                    json.dumps(list(row.dilations)),
                    json.dumps(list(row.alphas)),
                    row.new_dilation,
                    repr(row.offset),
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
    if epochs is not None:
        training = _build(dataclasses.replace, "--epochs", cfg.training, final_epochs=epochs)
        cfg = dataclasses.replace(cfg, training=training)
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
    o = cfg.oracle_cfg
    target = o.target
    if target is None:
        target = random_genome(
            o.ga.space, o.length, seeding.derive_rng(cfg.master_seed, "oracle-target")
        ).dilations
    fitness = dataclasses.replace(o.surrogate, target=target)
    budget = (1 + o.ga.iterations) * o.ga.population
    out = Path(cfg.output_dir)
    _write_json(out / "resolved_config.json", _resolved_config_doc(cfg))
    rows = []
    finals: dict[str, list[float]] = {"ga": [], "random": []}
    for s in range(o.seeds):
        seed = seeding.derive_seed(cfg.master_seed, "oracle-seed", s)
        runs = {"ga": run_global_search(o.ga, fitness.as_trainer(), seed, jobs=jobs),
                "random": random_search(o.ga.space, o.length, budget, fitness, seed)}
        for method, (_, trajectory) in runs.items():
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
            f"+/- {stats['final_std']:.3g} over {o.seeds} seeds"
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
    keep_heap()  # the commands train; a step's temporaries stay in the heap
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.jobs != 1 and args.command in ("local", "train"):
            raise ConfigError(f"--jobs applies to global and oracle only; {args.command} runs "
                              f"serially, got --jobs {args.jobs}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = _build(dataclasses.replace, "--seed", cfg, master_seed=args.seed)
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
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
