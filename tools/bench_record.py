"""Fold paired perfbench runs of a parent commit and a change into one record.

    python3 tools/bench_record.py --parent PARENT/.perfbench/results \\
        --change CHANGE/.perfbench/results --out BENCH_<n>.json \\
        [--parent-tier1 PARENT_PYTEST.log --change-tier1 CHANGE_PYTEST.log] \\
        [--claim WORKLOAD/METRIC]

Each path is a result record that ``perfbench/run.py`` wrote, or a directory
of them.  A parent record and a change record of the same workload, seed and
trace mode form a pair; run the two sides of a pair back to back, and flip
which goes first from pair to pair.

Records with tracing off (``--trace 0``) are summarized under ``workloads``,
traced ones (``--trace 1``) under ``traced``.  For each workload and side a
section holds the median and quartiles of every metric ``BENCHMARK.json``
declares for its trace mode (``end_to_end`` or ``per_layer``), and, with
tracing off, of the raw ``search_s``, ``wall_s`` and ``reference_s``: the
gated ``*_ref`` metrics divide by ``reference_s``, so the raw seconds show
which side moved.  Per metric it also counts the pairs each side won and
gives the median, min and max of the per-pair change/parent ratio
(``pair_ratio``; a pair whose parent value is 0 has no ratio, and a metric
with no ratio at all gets ``null``).  A metric that ``BENCHMARK.json``
gives a relative ``bound`` also records it and a ``verdict``: ``worse`` when
the change's median is worse than the parent's by more than the bound,
``unresolved`` when either side's interquartile range exceeds the bound
times its median and not every change run beats every parent run, and
``within`` otherwise.  It keeps the provenance: each side's
git commit, source digest and kernel backend, and the numpy and BLAS build,
Python version, CPU count and thread variables that both sides share.

``--claim WORKLOAD/METRIC`` checks a claimed gain on one metric of the
runs with tracing off and adds a ``claim`` block: the pairs each side won
(ties count for neither), both medians, the parent's interquartile range,
and ``met``, true when the change won at least nine tenths of all pairs and
its median is better than the parent's by more than that range.

``--parent-tier1`` and ``--change-tier1`` name the saved output of one
pytest run of the test suite on each side; its summary line gives the
``tier1`` section: the pass, failure, skip and error counts and the wall
time pytest reports.

The tool refuses (exit 2) records it cannot compare: a failed run (``failed``
above 0 or ``correct`` not true; the message gives its name and
``problems``), a record without a pair,
two records of one workload, seed and trace mode on one side, two code
versions on one side, an unknown trace mode, and mixed thread settings,
numpy/BLAS builds, Python versions or CPU counts; and a pytest log without a
summary line, or one side's log without the other's.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_SECONDS = ("search_s", "wall_s", "reference_s")
# provenance that every record must share, or the two sides are not comparable
SHARED = ("threads", "numpy", "blas", "python", "nproc")
SIDES = ("parent", "change")
# trace mode -> (output section, BENCHMARK.json metric list)
SECTIONS = {0: ("workloads", "end_to_end"), 1: ("traced", "per_layer")}
TIER1_COUNTS = ("passed", "failed", "skipped", "errors")


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


def _check_clean(named_records) -> None:
    for name, rec in named_records:
        if rec.get("failed") or rec.get("correct") is not True:
            raise ValueError(f"{name} is a failed run (correct: {rec.get('correct')}, "
                             f"failed: {rec.get('failed')}); problems: "
                             f"{rec.get('problems', [])}")


def _side_provenance(side: str, named_records) -> dict:
    keys = ("git_commit", "source_id", "kernel_backend")
    codes = {tuple(r["provenance"].get(k) for k in keys) for _, r in named_records}
    if len(codes) != 1:
        raise ValueError(f"{side} records come from {len(codes)} code versions: "
                         f"{sorted(codes, key=str)}")
    return dict(zip(keys, codes.pop()))


def _by_pair(side: str, named_records) -> dict:
    """(trace, workload, seed) -> (name, record)."""
    pairs = {}
    for name, rec in named_records:
        prov = rec["provenance"]
        if prov.get("trace") not in SECTIONS:
            raise ValueError(f"{name} has unknown trace mode {prov.get('trace')!r}")
        key = (prov["trace"], prov["workload"], prov["seed"])
        if key in pairs:
            raise ValueError(f"two {side} records of {key[1]} seed {key[2]} "
                             f"at trace {key[0]}: {pairs[key][0]} and {name}")
        pairs[key] = (name, rec)
    return pairs


def _metric_value(name: str, rec: dict, metric: str) -> float:
    try:
        return rec["values"][metric]["value"]
    except KeyError:
        raise ValueError(f"{name} has no value of {metric}") from None


def pair_ratio(parent, change) -> dict | None:
    """Median, min and max of change/parent over the pairs whose parent
    value is not 0; None if there is no such pair."""
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    if not ratios:
        return None
    return {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}


def pair_wins(parent, change, better: str) -> dict:
    """Pairs won by each side in the ``better`` direction, and ties."""
    sign = 1.0 if better == "lower" else -1.0
    wins = {"change": 0, "parent": 0, "tie": 0}
    for p, c in zip(parent, change):
        diff = sign * (c - p)
        wins["change" if diff < 0 else "parent" if diff > 0 else "tie"] += 1
    return wins


def claim_check(parent, change, better: str) -> dict:
    """Whether the change's runs show a gain over the parent's: it wins at
    least nine tenths of all pairs (ties count for neither), and the medians
    differ in the ``better`` direction by more than the parent's
    interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = pair_wins(parent, change, better)
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    met = 10 * wins["change"] >= 9 * len(parent) and sign * (p["median"] - c["median"]) > iqr
    return {"better": better, "pairs": len(parent), "pair_wins": wins,
            "parent_median": p["median"], "change_median": c["median"],
            "parent_iqr": iqr, "met": met}


def verdict(parent, change, better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``: the change's runs against the
    parent's under a relative ``bound`` (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    wide = any(q["q3"] - q["q1"] > bound * abs(q["median"]) for q in (p, c))
    if wide and max(sign * v for v in change) >= min(sign * v for v in parent):
        return "unresolved"
    return "within"


def _summarize(sides: dict, trace: int, metrics) -> dict:
    """Per workload: seeds, attempted/failed counts and each metric's
    quartiles, runs, pair wins and pair ratios, over the pairs at one trace
    mode."""
    workloads = {}
    for workload in sorted({w for t, w, _ in sides["parent"] if t == trace}):
        seeds = sorted(s for t, w, s in sides["parent"] if (t, w) == (trace, workload))
        runs = {side: [sides[side][(trace, workload, s)] for s in seeds] for side in SIDES}
        entry = {
            "seeds": seeds,
            "attempted": {side: sum(r["attempted"] for _, r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for _, r in runs[side]) for side in SIDES},
            "metrics": {},
        }
        for name, unit, better, gated, bound in metrics:
            values = {side: [_metric_value(n, r, name) for n, r in runs[side]]
                      for side in SIDES}
            entry["metrics"][name] = {
                "unit": unit,
                "better": better,
                "gated": gated,
                **{side: {**quartiles(values[side]), "runs": values[side]} for side in SIDES},
                "pair_wins": pair_wins(values["parent"], values["change"], better),
                "pair_ratio": pair_ratio(values["parent"], values["change"]),
            }
            if bound is not None:
                entry["metrics"][name].update(
                    bound=bound,
                    verdict=verdict(values["parent"], values["change"], better, bound))
        workloads[workload] = entry
    return workloads


def fold(parent, change, benchmark: dict, tier1: dict | None = None,
         claim: str | None = None) -> dict:
    """The record of paired runs: ``parent`` and ``change`` are lists of
    (name, record); ``benchmark`` is the parsed ``BENCHMARK.json``;
    ``tier1``, if given, maps each side to its ``read_tier1`` summary;
    ``claim``, if given, is the ``WORKLOAD/METRIC`` whose gain to check."""
    if not parent or not change:
        raise ValueError("both sides need at least one record")
    _check_clean(parent + change)
    shared = _check_shared(parent + change)
    sides = {"parent": _by_pair("parent", parent), "change": _by_pair("change", change)}
    for side, other in (("parent", "change"), ("change", "parent")):
        for trace, workload, seed in sorted(sides[side].keys() - sides[other].keys()):
            raise ValueError(f"{side} record of {workload} seed {seed} at trace {trace} "
                             f"has no {other} record")
    doc = {
        "provenance": {
            **shared,
            **{side: _side_provenance(side, runs) for side, runs in
               (("parent", parent), ("change", change))},
        },
    }
    for trace in sorted({t for t, _, _ in sides["parent"]}):
        section, declared = SECTIONS[trace]
        metrics = [(d["name"], d["unit"], d["better"], True, d.get("bound"))
                   for d in benchmark[declared]]
        if not trace:
            metrics += [(name, "s", "lower", False, None) for name in RAW_SECONDS]
        doc[section] = _summarize(sides, trace, metrics)
    if tier1 is not None:
        doc["tier1"] = {side: tier1[side] for side in SIDES}
    if claim is not None:
        workload, _, metric = claim.partition("/")
        entry = doc.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
        if entry is None:
            raise ValueError(f"claim {claim!r} names no workload/metric of the runs "
                             "with tracing off")
        doc["claim"] = {"workload": workload, "metric": metric,
                        **claim_check(entry["parent"]["runs"], entry["change"]["runs"],
                                      entry["better"])}
    return doc


def read_tier1(text: str) -> dict:
    """The counts and wall time of pytest's last summary line in ``text``,
    such as ``528 passed, 5 warnings in 86.12s (0:01:26)``."""
    for line in reversed(text.splitlines()):
        took = re.search(r" in (\d+(?:\.\d+)?)s\b", line)
        counts = dict((word, int(n)) for n, word in
                      re.findall(r"(\d+) (passed|failed|skipped|errors?)\b", line))
        if took and counts:
            summary = {key: counts.get(key, 0) for key in TIER1_COUNTS}
            summary["errors"] += counts.get("error", 0)
            return {**summary, "wall_s": float(took.group(1))}
    raise ValueError("no pytest summary line (such as '528 passed in 86.12s')")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result records (or directories of them) of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result records (or directories of them) of the change")
    parser.add_argument("--out", required=True, help="the record to write")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="the benchmark declaration (default: the repository's)")
    for side in SIDES:
        parser.add_argument(f"--{side}-tier1",
                            help=f"saved output of one pytest run of the {side}'s test suite")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="check a claimed gain on this metric (see the module docstring)")
    args = parser.parse_args(argv)
    try:
        logs = {side: getattr(args, f"{side}_tier1") for side in SIDES}
        tier1 = None
        if any(logs.values()):
            if not all(logs.values()):
                raise ValueError("give --parent-tier1 and --change-tier1 together")
            tier1 = {}
            for side, log in logs.items():
                try:
                    tier1[side] = read_tier1(Path(log).read_text())
                except ValueError as err:
                    raise ValueError(f"{log}: {err}") from None
        doc = fold(load_records(args.parent), load_records(args.change),
                   json.loads(Path(args.benchmark).read_text()), tier1, args.claim)
    except ValueError as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
