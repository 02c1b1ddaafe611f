#!/usr/bin/env python3
"""Search-pipeline benchmark for rfsearch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``BENCHMARK.json``).  Every CLI stage runs in a fresh interpreter through
``rfsearch.cli.main`` with ``--jobs 1`` and one BLAS/OpenMP thread.

``--trace 0``: time set-up several times (each a fresh interpreter stopped at
its first candidate or training call), then repeat the whole workload until
``--seconds`` have passed and report medians of the end-to-end metrics.
Runs of reference.py come before, between and after the repetitions; the
gated times divide each repetition's time by the mean of the reference runs
around it, which cancels the machine's drifting speed.
``--trace 1``: one untraced and one traced repetition; report the per-layer
metrics of the traced one.

Every repetition's outputs are checked (see workloads.py) and hashed: the
hashes must agree between repetitions, and with earlier runs of the same
source tree and seed (kept in ``.perfbench/digests.json``).  Each run also
writes a result record with its provenance under ``.perfbench/results/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("ga_lagged_copy", "local_parallel_multiscale", "surrogate_ga")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every child is stopped before a run reaches this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"

KERNELS = wl.KERNEL_SPANS
# spans reported as calls + self_s
SELF_SPANS = (
    "tensorops.dilated_conv1d_forward", "tensorops.dilated_conv1d_backward",
    "tensorops.softmax_nll_loss", "tensorops.relu", "tensorops.relu_backward",
    "tensorops.Adam.step",
    "localsearch.multi_dilated_forward", "localsearch.multi_dilated_backward",
    "localsearch.pmf",
    "network.DilatedNet.forward_train", "network.DilatedNet.forward_eval",
    "network.DilatedNet.backward",
    "globalsearch.evaluate", "globalsearch.selection_probabilities",
    "globalsearch.crossover_segments", "globalsearch.mutate",
    "globalsearch._Logs.log_records", "globalsearch._Logs.log_checkpoint",
    "globalsearch._Logs.log_best",
    "genome.DilationGenome.__init__", "genome.format_genome_string",
    "seeding.derive_seed", "oracle.SurrogateTrainer.__call__",
    "tasks.framewise_accuracy", "cli.load_config",
)
# spans reported as calls + total_s
TOTAL_SPANS = (
    "localsearch.run_local_search", "network.Trainer.__call__",
    "network.Trainer.train_structure", "network.LocalSession.train",
    "network.LocalSession.evaluate", "tasks.generate",
)


class Clock:
    """Wall-clock budget of one run; child processes get what is left."""

    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def run_stage(clock: Clock, report: Path, mode: str, argv) -> tuple[float, dict, float]:
    """Start stage.py in a fresh interpreter; returns (wall_s, report, t_spawn).
    A stage that crashes or overruns the run's budget reports exit code -1."""
    cmd = [sys.executable, str(HERE / "stage.py"), "--report", str(report),
           "--mode", mode, "--", *argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, clock.left()))
    except subprocess.TimeoutExpired:
        return time.monotonic() - t0, {"exit_code": -1, "error": "timed out"}, t0
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not report.exists():
        return wall, {"exit_code": -1, "error": proc.stderr[-2000:]}, t0
    doc = json.loads(report.read_text())
    if doc.get("exit_code") != 0:
        doc["error"] = proc.stderr[-2000:]
    return wall, doc, t0


def run_reference(clock: Clock) -> float | None:
    """Wall time of reference.py in a fresh interpreter; None if it failed."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "reference.py")], env=child_env(),
                              cwd=ROOT, capture_output=True, timeout=max(1.0, clock.left()))
    except subprocess.TimeoutExpired:
        return None
    return time.monotonic() - t0 if proc.returncode == 0 else None


def source_id() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree (the
    source digest then identifies the code)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# --------------------------------------------------------------------------
# one repetition of a workload
# --------------------------------------------------------------------------


def run_rep(clock: Clock, workload: str, seed: int, rep_dir: Path, mode: str) -> dict:
    out = rep_dir / "out"
    out.mkdir(parents=True)
    cfg = wl.make_config(workload, seed, out)
    cfg_path = rep_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    rep = {"mode": mode, "stages": {}, "problems": {}, "digests": {}, "traces": [],
           "rss_kb": [], "config": cfg}
    for stage in wl.stages(workload, cfg_path, out):
        wall, doc, _ = run_stage(clock, rep_dir / f"{stage.name}.report.json", mode,
                                 stage.argv)
        rep["stages"][stage.name] = wall
        if doc["exit_code"] != 0:
            rep["problems"][stage.name] = [f"exit code {doc['exit_code']}: {doc.get('error')}"]
            return rep
        rep["rss_kb"].append(doc["maxrss_kb"])
        if "trace" in doc:
            rep["traces"].append(doc["trace"])
        rep["digests"][stage.name] = wl.stage_digest(workload, stage.name, out)
    summary = wl.summarize(workload, cfg, out)
    rep["problems"] = {k: v for k, v in wl.check(workload, cfg, summary).items() if v}
    rep["summary"] = summary
    rep["output_bytes"] = wl.output_bytes(out)
    return rep


def rep_metrics(rep: dict) -> dict:
    """End-to-end numbers of one repetition (None where a workload has no
    such stage)."""
    s = rep["summary"]
    search = rep["stages"]["search"]
    retrain = rep["stages"].get("retrain")
    train_time = search + (retrain or 0.0)
    return {
        "wall_s": sum(rep["stages"].values()),
        "search_s": search,
        "retrain_s": retrain,
        "candidates_per_s": s["created"] / search if "created" in s else None,
        "train_samples_per_s": s["train_samples"] / train_time if s["train_samples"] else None,
        "final_fitness": s["final_fitness"],
        "peak_rss_mb": max(rep["rss_kb"]) / 1024.0,
    }


# --------------------------------------------------------------------------
# per-layer metrics from traced repetitions
# --------------------------------------------------------------------------


def closed_form_problems(rep: dict) -> list[str]:
    """Traced kernel call counts that differ from the closed form."""
    expected = rep["summary"]["expected_kernel_calls"]
    problems = []
    for name in KERNELS:
        got = sum(tr["spans"].get(name, {}).get("calls", 0) for tr in rep["traces"])
        if got != expected[name]:
            problems.append(f"{name}: {got} calls traced, closed form gives {expected[name]}")
    return problems


def layer_metrics(traced_reps: list[dict], plain_reps: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the median traced repetition (by wall time), plus
    the tracer-integrity problems found in any traced repetition."""
    problems = []
    for rep in traced_reps:
        problems += closed_form_problems(rep)
    walls = {id(r): sum(r["stages"].values()) for r in traced_reps + plain_reps}
    traced = sorted(traced_reps, key=lambda r: walls[id(r)])[(len(traced_reps) - 1) // 2]
    spans: dict[str, dict] = {}
    work: dict[str, dict] = {}
    under_mixed = 0
    for tr in traced["traces"]:
        for name, st in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, w in tr["work"].items():
            acc = work.setdefault(name, {"flop": 0.0, "bytes": 0.0})
            acc["flop"] += w["flop"]
            acc["bytes"] += w["bytes"]
        under_mixed += tr["kernels_under_mixed"]

    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m: dict[str, tuple[float, str]] = {}
    s = traced["summary"]
    for name in KERNELS:
        st, w = span(name), work.get(name, {"flop": 0.0, "bytes": 0.0})
        m[f"{name}.calls"] = (st["calls"], "count")
        m[f"{name}.calls_closed_form"] = (s["expected_kernel_calls"][name], "count")
        m[f"{name}.self_s"] = (st["self_s"], "s")
        m[f"{name}.gflop"] = (w["flop"] / 1e9, "GFLOP")
        m[f"{name}.gbytes"] = (w["bytes"] / 1e9, "GB")
    for name in SELF_SPANS:
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.self_s"] = (span(name)["self_s"], "s")
    for name in TOTAL_SPANS:
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.total_s"] = (span(name)["total_s"], "s")
    m["globalsearch.run_global_search.self_s"] = (span("globalsearch.run_global_search")["self_s"], "s")
    m["globalsearch.run_global_search.total_s"] = (span("globalsearch.run_global_search")["total_s"], "s")
    mixed_calls = span("localsearch.multi_dilated_forward")["calls"]
    m["localsearch.kernel_calls_per_mixed_layer"] = (
        under_mixed / mixed_calls if mixed_calls else 0.0, "ratio")
    created, unique = s.get("created", 0), s.get("unique", 0)
    m["globalsearch.created_candidates"] = (created, "count")
    m["globalsearch.unique_evaluations"] = (unique, "count")
    m["globalsearch.cache_hit_ratio"] = ((created - unique) / created if created else 0.0, "ratio")
    m["cli.output_dir.bytes"] = (traced["output_bytes"], "bytes")
    traced_wall = statistics.median(walls[id(r)] for r in traced_reps)
    untraced_wall = statistics.median(walls[id(r)] for r in plain_reps)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m, problems


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def update_ledger(key_prefix: str, digests: dict) -> dict[str, str]:
    """Compare stage digests with earlier runs of this source tree and config;
    returns {stage: problem} for the stages that differ."""
    path = STATE / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    problems = {}
    for stage, digest in digests.items():
        if ledger.setdefault(f"{key_prefix}:{stage}", digest) != digest:
            problems[stage] = "outputs differ from an earlier run of this source and seed"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def declared_metrics(trace: bool) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rfsearch" / "cli.py").is_file():
        print(f"perfbench: no rfsearch sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    clock = Clock()
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, clock, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, clock: Clock, work: Path) -> int:
    workload, seed = args.workload, args.seed
    src_id = source_id()
    _, prov_doc, _ = run_stage(clock, work / "provenance.json", "provenance", [])
    provenance = {
        **prov_doc.get("provenance", {}),
        "threads": {v: child_env()[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_id": src_id,
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
    }

    setup = []
    refs = []
    reps = []
    probe_cfg = wl.make_config(workload, seed, work / "probe-out")
    probe_path = work / "probe-config.json"
    probe_path.write_text(json.dumps(probe_cfg))
    first = wl.stages(workload, probe_path, work / "probe-out")[0]
    probes = 0

    def probe_until(due: int) -> None:
        # probes are spread over the run, since the machine's speed drifts
        nonlocal probes
        while not args.trace and probes < due:
            _, doc, t_spawn = run_stage(clock, work / f"probe{probes}.json", "probe",
                                        first.argv)
            probes += 1
            if "t_first_work" in doc:
                setup.append(doc["t_first_work"] - t_spawn)

    # untraced: repetitions until the time is up; traced: untraced and traced
    # repetitions in turn, at least one of each
    t_measure = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_measure
        probe_until(min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds)))
        if not args.trace:
            refs.append(run_reference(clock))
        mode = "trace" if args.trace and len(reps) % 2 else "plain"
        reps.append(run_rep(clock, workload, seed, work / f"rep{len(reps)}", mode))
        if "summary" not in reps[-1]:
            break  # a stage failed; more repetitions would only repeat it
        per_rep = (time.monotonic() - t_measure) / len(reps)
        if len(reps) < (2 if args.trace else 1):
            continue
        if time.monotonic() + per_rep > t_measure + args.seconds or clock.left() < 2 * per_rep:
            break
    probe_until(SETUP_PROBES)
    if not args.trace:
        refs.append(run_reference(clock))

    # failures: a stage op fails on a nonzero exit, a failed output check, or
    # outputs that differ from another repetition or run of this source+seed
    attempted = failed = 0
    problems: list[str] = []
    first_digests = next((r["digests"] for r in reps if r["digests"]), {})
    config = dict(reps[0]["config"], output_dir=None)
    config_id = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    ledger_problems = update_ledger(f"{src_id}:{config_id}:{workload}:{seed}", first_digests)
    for i, rep in enumerate(reps):
        for stage in rep["stages"]:
            attempted += 1
            stage_problems = list(rep["problems"].get(stage, []))
            if stage in rep["digests"] and rep["digests"][stage] != first_digests.get(stage):
                stage_problems.append("outputs differ between repetitions of one seed")
            if i == 0 and stage in ledger_problems:
                stage_problems.append(ledger_problems[stage])
            if stage_problems:
                failed += 1
                problems += [f"rep {i} {stage}: {p}" for p in stage_problems]
    if len(setup) < SETUP_PROBES and not args.trace:
        attempted += 1
        failed += 1
        problems.append(f"only {len(setup)} of {SETUP_PROBES} set-up probes reached work")
    if None in refs:
        attempted += 1
        failed += 1
        problems.append("reference.py failed")

    good = [r for r in reps if "summary" in r and not r["problems"]]
    values: dict[str, tuple[float, str]] = {}
    lines = []
    if args.trace:
        traced = [r for r in good if r["mode"] == "trace"]
        plain = [r for r in good if r["mode"] == "plain"]
        if traced and plain:
            layer, integrity = layer_metrics(traced, plain)
            values.update(layer)
            attempted += 1
            if integrity:
                failed += 1
                problems += [f"tracer integrity: {p}" for p in integrity]
            lines += predictions(workload, layer)
            lines.append(f"repetitions: {len(plain)} untraced, {len(traced)} traced")
    elif good:
        per_rep = [rep_metrics(r) for r in good]
        units = {"wall_s": "s", "search_s": "s", "retrain_s": "s",
                 "candidates_per_s": "1/s", "train_samples_per_s": "1/s",
                 "final_fitness": "fitness", "peak_rss_mb": "MB"}
        if setup:
            values["setup_s"] = (statistics.median(setup), "s")
        for name, unit in units.items():
            got = [m[name] for m in per_rep if m[name] is not None]
            if got:
                values[name] = (statistics.median(got), unit)
        if None not in refs:
            # each repetition's times in units of the reference work's time,
            # averaged over the runs just before and after it, cancel the
            # machine's drifting speed
            values["reference_s"] = (statistics.median(refs), "s")
            scaled = [(rep_metrics(r), (refs[i] + refs[i + 1]) / 2)
                      for i, r in enumerate(reps) if r in good]
            for name in ("wall", "search"):
                values[f"{name}_ref"] = (
                    statistics.median(m[f"{name}_s"] / ref for m, ref in scaled), "ref")
        times = [t for r in good for t in r["summary"].get("candidate_times", [])]
        if workload == "ga_lagged_copy" and times:
            values["candidate_s_p50"] = (percentile(times, 50), "s")
            values["candidate_s_p90"] = (percentile(times, 90), "s")
            lines.append(f"candidate times: {len(times)} unique evaluations over "
                         f"{len(good)} repetitions")
        lines.append(f"repetitions: {len(reps)} in {time.monotonic() - clock.start:.1f} s; "
                     f"set-up probes: {len(setup)}")

    correct = failed == 0
    declared = declared_metrics(bool(args.trace))
    metrics = {}
    if correct:
        for d in declared:
            if d["name"] not in values:
                problems.append(f"declared metric {d['name']} was not measured")
                correct = False
                continue
            value, unit = values[d["name"]]
            if unit != d["unit"]:
                problems.append(f"{d['name']}: measured in {unit}, declared {d['unit']}")
                correct = False
            metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    if not correct and failed == 0:
        attempted += 1
        failed += 1

    print(f"perfbench {workload} seed={seed} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for line in lines:
        print(line)
    gated = {d["name"] for d in declared}
    for name, (value, unit) in sorted(values.items()):
        print(f"  {name:<52} {value:>14.6g} {unit}{'' if name in gated or args.trace else '  (not gated)'}")
    if not args.trace:
        for name in ("retrain_s", "candidates_per_s", "candidate_s_p50", "candidate_s_p90",
                     "train_samples_per_s"):
            if name not in values:
                print(f"  {name:<52} {'n/a':>14} (no such stage in {workload})")
    print(f"  {'ops_failed_ratio':<52} {failed / max(attempted, 1):>14.6g} ratio "
          f"(ops_total {attempted})")
    for p in problems:
        print(f"FAILED: {p}")

    record = {
        "provenance": provenance,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_s_samples": setup,
        "reference_s_samples": refs,
        "values": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "repetitions": [
            {"stages": r["stages"], "digests": r["digests"], "problems": r["problems"],
             "rss_kb": r["rss_kb"]}
            for r in reps
        ],
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def predictions(workload: str, layer: dict) -> list[str]:
    """Lines stating whether the predicted zero-call layers stayed at zero."""
    zero = {
        "ga_lagged_copy": ("localsearch.multi_dilated_forward.calls",
                           "localsearch.multi_dilated_backward.calls"),
        "surrogate_ga": tuple(f"{k}.calls" for k in KERNELS),
    }.get(workload, ())
    return [f"prediction {name} == 0: {'holds' if layer[name][0] == 0 else 'VIOLATED'}"
            for name in zero]


if __name__ == "__main__":
    raise SystemExit(main())
