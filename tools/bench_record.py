"""Fold paired perfbench runs of a parent commit and a change into one record.

    python3 tools/bench_record.py --parent PARENT/.perfbench/results \\
        --change CHANGE/.perfbench/results --out BENCH_<n>.json

Each path is a result record that ``perfbench/run.py`` wrote, or a directory
of them.  A parent record and a change record of the same workload and seed
form a pair; run the two sides of a pair back to back, and flip which goes
first from pair to pair.

For each workload and side the output holds the median and quartiles of
every metric ``BENCHMARK.json`` declares for the records' trace mode, and,
with tracing off, of the raw ``search_s``, ``wall_s`` and ``reference_s``:
the gated ``*_ref`` metrics divide by ``reference_s``, so the raw seconds show
which side moved.  It also counts, per metric, the pairs each side won, and
keeps the provenance: each side's git commit, source digest and kernel
backend, and the numpy and BLAS build, Python version, CPU count and thread
variables that both sides share.

The tool refuses (exit 2) records it cannot compare: a record without a pair,
two records of one workload and seed on one side, two code versions on one
side, and mixed trace modes, thread settings, numpy/BLAS builds, Python
versions or CPU counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_SECONDS = ("search_s", "wall_s", "reference_s")
# provenance that every record must share, or the two sides are not comparable
SHARED = ("trace", "threads", "numpy", "blas", "python", "nproc")
SIDES = ("parent", "change")


def load_records(paths) -> list[tuple[str, dict]]:
    """(name, record) for every result file named or inside a named directory."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [(str(f), json.loads(f.read_text())) for f in files]


def quartiles(values) -> dict:
    """Median and linear-interpolated quartiles."""
    v = sorted(values)

    def at(q):
        pos = (len(v) - 1) * q
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return {"q1": at(0.25), "median": statistics.median(v), "q3": at(0.75)}


def _check_shared(named_records) -> dict:
    first_name, first = named_records[0]
    for name, rec in named_records[1:]:
        for key in SHARED:
            if rec["provenance"].get(key) != first["provenance"].get(key):
                raise ValueError(f"{name} and {first_name} differ in {key}: "
                                 f"{rec['provenance'].get(key)!r} vs "
                                 f"{first['provenance'].get(key)!r}")
    return {key: first["provenance"].get(key) for key in SHARED}


def _side_provenance(side: str, named_records) -> dict:
    keys = ("git_commit", "source_id", "kernel_backend")
    codes = {tuple(r["provenance"].get(k) for k in keys) for _, r in named_records}
    if len(codes) != 1:
        raise ValueError(f"{side} records come from {len(codes)} code versions: "
                         f"{sorted(codes, key=str)}")
    return dict(zip(keys, codes.pop()))


def _by_pair(side: str, named_records) -> dict:
    pairs = {}
    for name, rec in named_records:
        key = (rec["provenance"]["workload"], rec["provenance"]["seed"])
        if key in pairs:
            raise ValueError(f"two {side} records of {key[0]} seed {key[1]}: "
                             f"{pairs[key][0]} and {name}")
        pairs[key] = (name, rec)
    return pairs


def _metric_value(name: str, rec: dict, metric: str) -> float:
    try:
        return rec["values"][metric]["value"]
    except KeyError:
        raise ValueError(f"{name} has no value of {metric}") from None


def fold(parent, change, benchmark: dict) -> dict:
    """The record of paired runs: ``parent`` and ``change`` are lists of
    (name, record); ``benchmark`` is the parsed ``BENCHMARK.json``."""
    if not parent or not change:
        raise ValueError("both sides need at least one record")
    shared = _check_shared(parent + change)
    sides = {"parent": _by_pair("parent", parent), "change": _by_pair("change", change)}
    for side, other in (("parent", "change"), ("change", "parent")):
        for workload, seed in sorted(sides[side].keys() - sides[other].keys()):
            raise ValueError(f"{side} record of {workload} seed {seed} has no {other} record")
    declared = benchmark["per_layer" if shared["trace"] else "end_to_end"]
    metrics = [(d["name"], d["unit"], d["better"], True) for d in declared]
    if not shared["trace"]:
        metrics += [(name, "s", "lower", False) for name in RAW_SECONDS]

    workloads = {}
    for workload in sorted({w for w, _ in sides["parent"]}):
        seeds = sorted(s for w, s in sides["parent"] if w == workload)
        runs = {side: [sides[side][(workload, s)] for s in seeds] for side in SIDES}
        entry = {
            "seeds": seeds,
            "attempted": {side: sum(r["attempted"] for _, r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for _, r in runs[side]) for side in SIDES},
            "metrics": {},
        }
        for name, unit, better, gated in metrics:
            values = {side: [_metric_value(n, r, name) for n, r in runs[side]]
                      for side in SIDES}
            sign = 1.0 if better == "lower" else -1.0
            wins = {"change": 0, "parent": 0, "tie": 0}
            for p, c in zip(values["parent"], values["change"]):
                diff = sign * (c - p)
                wins["change" if diff < 0 else "parent" if diff > 0 else "tie"] += 1
            entry["metrics"][name] = {
                "unit": unit,
                "better": better,
                "gated": gated,
                **{side: {**quartiles(values[side]), "runs": values[side]} for side in SIDES},
                "pair_wins": wins,
            }
        workloads[workload] = entry

    return {
        "provenance": {
            **shared,
            **{side: _side_provenance(side, runs) for side, runs in
               (("parent", parent), ("change", change))},
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result records (or directories of them) of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result records (or directories of them) of the change")
    parser.add_argument("--out", required=True, help="the record to write")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="the benchmark declaration (default: the repository's)")
    args = parser.parse_args(argv)
    try:
        doc = fold(load_records(args.parent), load_records(args.change),
                   json.loads(Path(args.benchmark).read_text()))
    except ValueError as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
