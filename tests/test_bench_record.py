"""tools/bench_record.py on synthetic perfbench result records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {
    "end_to_end": [
        {"name": "search_ref", "unit": "ref", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "kernels.conv1d_forward.calls", "unit": "count", "better": "lower"}],
}


def _record(workload, seed, search_ref, rss=41.0, commit="aaa", trace=0, threads="1"):
    values = {"search_ref": search_ref, "peak_rss_mb": rss, "search_s": 2 * search_ref,
              "wall_s": 3 * search_ref, "reference_s": 1.0 + seed / 1000}
    if trace:  # a traced run reports the per-layer metrics instead
        values = {"kernels.conv1d_forward.calls": 100 * seed}
    return {
        "provenance": {
            "workload": workload, "seed": seed, "trace": trace, "git_commit": commit,
            "source_id": commit[::-1], "kernel_backend": "numpy",
            "threads": {"OPENBLAS_NUM_THREADS": threads}, "numpy": "2.4.6",
            "blas": {"name": "openblas"}, "python": "3.11.7", "nproc": 2,
        },
        "correct": True, "attempted": 3, "failed": 0,
        "values": {k: {"value": v, "unit": "?"} for k, v in values.items()},
    }


def _sides(parent_refs, change_refs, workload="ga_lagged_copy", trace=0):
    parent = [(f"p{s}", _record(workload, s, v, trace=trace)) for s, v in parent_refs.items()]
    change = [(f"c{s}", _record(workload, s, v, commit="bbb", trace=trace))
              for s, v in change_refs.items()]
    return parent, change


def test_quartiles_median_and_pair_wins():
    parent, change = _sides({1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0},
                            {1: 0.5, 2: 2.5, 3: 2.0, 4: 4.0, 5: 1.0})
    doc = bench_record.fold(parent, change, BENCHMARK)
    entry = doc["workloads"]["ga_lagged_copy"]
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["attempted"] == {"parent": 15, "change": 15}
    assert entry["failed"] == {"parent": 0, "change": 0}
    ref = entry["metrics"]["search_ref"]
    assert ref["parent"]["median"] == 3.0
    assert (ref["parent"]["q1"], ref["parent"]["q3"]) == (2.0, 4.0)
    assert ref["change"]["median"] == 2.0
    assert ref["change"]["runs"] == [0.5, 2.5, 2.0, 4.0, 1.0]
    assert ref["pair_wins"] == {"change": 3, "parent": 1, "tie": 1}
    # per-pair change/parent: 0.5, 1.25, 2/3, 1.0, 0.2
    assert ref["pair_ratio"] == {"median": 2.0 / 3.0, "min": 0.2, "max": 1.25}
    assert ref["gated"] and not entry["metrics"]["wall_s"]["gated"]
    # every gated metric and the raw seconds are kept
    assert set(entry["metrics"]) == {"search_ref", "peak_rss_mb", "search_s", "wall_s",
                                     "reference_s"}
    assert entry["metrics"]["reference_s"]["pair_wins"]["tie"] == 5
    prov = doc["provenance"]
    assert prov["parent"]["git_commit"] == "aaa" and prov["change"]["git_commit"] == "bbb"
    assert prov["threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert "traced" not in doc and "tier1" not in doc


def test_higher_is_better_metrics_count_wins_the_other_way():
    bench = {"end_to_end": [{"name": "search_ref", "unit": "ref", "better": "higher"}]}
    parent, change = _sides({1: 1.0, 2: 1.0}, {1: 2.0, 2: 0.5})
    wins = bench_record.fold(parent, change, bench)["workloads"]["ga_lagged_copy"]
    assert wins["metrics"]["search_ref"]["pair_wins"] == {"change": 1, "parent": 1, "tie": 0}


def test_pair_ratio_leaves_out_pairs_whose_parent_is_zero():
    assert bench_record.pair_ratio([2.0, 0.0, 4.0, 1.0], [1.0, 3.0, 6.0, 1.0]) == {
        "median": 1.0, "min": 0.5, "max": 1.5}
    assert bench_record.pair_ratio([0, 0], [0, 5]) is None
    # a traced count that is 0 on both sides (no kernel call) has no ratio
    t_parent, t_change = _sides({1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}, trace=1)
    for _, rec in t_parent + t_change:
        rec["values"]["kernels.conv1d_forward.calls"]["value"] = 0
    doc = bench_record.fold(t_parent, t_change, BENCHMARK)
    calls = doc["traced"]["ga_lagged_copy"]["metrics"]["kernels.conv1d_forward.calls"]
    assert calls["pair_ratio"] is None
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_workloads_are_summarized_apart():
    p1, c1 = _sides({1: 1.0}, {1: 0.9})
    p2, c2 = _sides({1: 5.0}, {1: 6.0}, workload="surrogate_ga")
    doc = bench_record.fold(p1 + p2, c1 + c2, BENCHMARK)
    assert sorted(doc["workloads"]) == ["ga_lagged_copy", "surrogate_ga"]
    assert doc["workloads"]["surrogate_ga"]["metrics"]["search_ref"]["change"]["median"] == 6.0


def test_traced_records_fold_into_their_own_section():
    parent, change = _sides({1: 1.0, 2: 2.0}, {1: 0.5, 2: 1.5})
    t_parent, t_change = _sides({1: 0.0}, {1: 0.0}, trace=1)
    t_change[0][1]["values"]["kernels.conv1d_forward.calls"]["value"] = 90
    doc = bench_record.fold(parent + t_parent, t_change + change, BENCHMARK)
    assert set(doc["workloads"]["ga_lagged_copy"]["metrics"]) == {
        "search_ref", "peak_rss_mb", "search_s", "wall_s", "reference_s"}
    traced = doc["traced"]["ga_lagged_copy"]
    assert traced["seeds"] == [1]
    calls = traced["metrics"]["kernels.conv1d_forward.calls"]
    assert (calls["parent"]["median"], calls["change"]["median"]) == (100, 90)
    assert calls["pair_wins"] == {"change": 1, "parent": 0, "tie": 0}
    # traced records alone make a record with no untraced section
    only = bench_record.fold(t_parent, t_change, BENCHMARK)
    assert "workloads" not in only and only["traced"] == doc["traced"]


@pytest.mark.parametrize("parent, change, better, want", [
    # the median 30 % worse under a 25 % bound
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "lower", "worse"),
    ([1.0, 1.0, 1.0, 1.0], [0.7, 0.7, 0.7, 0.7], "higher", "worse"),
    # worse by 10 %, but both sides are narrow: inside the bound
    ([1.0, 1.02, 0.98, 1.0], [1.1, 1.1, 1.1, 1.1], "lower", "within"),
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "higher", "within"),
    # the parent's IQR (1.0) exceeds 25 % of its median (1.5), and one
    # parent run (1.0) beats every change run
    ([1.0, 1.0, 2.0, 2.0], [1.1, 1.1, 1.1, 1.1], "lower", "unresolved"),
    # the change's IQR is wide, and it loses one pair
    ([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 1.2, 1.2], "lower", "unresolved"),
    # wide, but every change run beats every parent run
    ([2.0, 2.0, 3.0, 3.0], [1.0, 1.5, 1.0, 1.5], "lower", "within"),
    ([2.0, 2.0, 3.0, 3.0], [4.0, 5.0, 4.0, 5.0], "higher", "within"),
])
def test_verdict(parent, change, better, want):
    assert bench_record.verdict(parent, change, better, 0.25) == want


def test_each_bounded_metric_records_its_bound_and_verdict():
    parent, change = _sides({1: 1.0, 2: 1.0, 3: 1.0}, {1: 1.3, 2: 1.3, 3: 1.3})
    t_parent, t_change = _sides({1: 0.0}, {1: 0.0}, trace=1)
    doc = bench_record.fold(parent + t_parent, change + t_change, BENCHMARK)
    metrics = doc["workloads"]["ga_lagged_copy"]["metrics"]
    assert (metrics["search_ref"]["bound"], metrics["search_ref"]["verdict"]) == (0.25, "worse")
    assert (metrics["peak_rss_mb"]["bound"], metrics["peak_rss_mb"]["verdict"]) == (0.1, "within")
    # raw seconds and traced metrics declare no bound, so they get no verdict
    assert "verdict" not in metrics["search_s"]
    calls = doc["traced"]["ga_lagged_copy"]["metrics"]["kernels.conv1d_forward.calls"]
    assert "bound" not in calls and "verdict" not in calls


_TEN = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.225, 1.675


@pytest.mark.parametrize("change, better, wins, met", [
    # 10/10 pairs 0.5 lower; medians 1.45 and 0.95 differ by more than the IQR 0.45
    ([v - 0.5 for v in _TEN], "lower", 10, True),
    # 9/10 pairs won, one tie: still nine tenths of all pairs
    ([v - 0.5 for v in _TEN[:9]] + [1.9], "lower", 9, True),
    # 8/10 pairs won, although the medians differ by more than the IQR
    ([v - 0.8 for v in _TEN[:8]] + [2.8, 2.9], "lower", 8, False),
    # 10/10 pairs won, but the medians differ by 0.4, inside the IQR 0.45
    ([v - 0.4 for v in _TEN], "lower", 10, False),
    # the same runs read the other way round: every pair lost
    ([v - 0.5 for v in _TEN], "higher", 0, False),
    ([v + 0.5 for v in _TEN], "higher", 10, True),
    ([v + 0.4 for v in _TEN], "higher", 10, False),
])
def test_claim_check(change, better, wins, met):
    got = bench_record.claim_check(_TEN, change, better)
    assert got["pair_wins"]["change"] == wins and got["met"] is met
    assert got["pairs"] == 10 and got["better"] == better
    assert got["parent_iqr"] == pytest.approx(0.45)
    assert got["parent_median"] == pytest.approx(1.45)


def test_claim_block_names_its_metric_and_refuses_unknown_names():
    parent, change = _sides(dict(enumerate(_TEN)), {s: v - 0.5 for s, v in enumerate(_TEN)})
    doc = bench_record.fold(parent, change, BENCHMARK, claim="ga_lagged_copy/search_ref")
    claim = doc["claim"]
    assert (claim["workload"], claim["metric"], claim["met"]) == ("ga_lagged_copy",
                                                                 "search_ref", True)
    assert claim["pair_wins"] == {"change": 10, "parent": 0, "tie": 0}
    assert claim["change_median"] == pytest.approx(0.95)
    assert "claim" not in bench_record.fold(parent, change, BENCHMARK)
    for bad in ("surrogate_ga/search_ref", "ga_lagged_copy/nope", "search_ref",
                "ga_lagged_copy/kernels.conv1d_forward.calls"):
        with pytest.raises(ValueError, match="names no workload/metric"):
            bench_record.fold(parent, change, BENCHMARK, claim=bad)


def test_reads_pytest_summary_lines():
    log = "tests/test_a.py ....\n===== 528 passed, 5 warnings in 86.12s (0:01:26) =====\n"
    assert bench_record.read_tier1(log) == {
        "passed": 528, "failed": 0, "skipped": 0, "errors": 0, "wall_s": 86.12}
    quiet = "....F\n2 failed, 526 passed, 1 skipped, 1 error in 90.5s\n"
    assert bench_record.read_tier1(quiet) == {
        "passed": 526, "failed": 2, "skipped": 1, "errors": 1, "wall_s": 90.5}
    with pytest.raises(ValueError, match="no pytest summary"):
        bench_record.read_tier1("collected 528 items\n")


@pytest.mark.parametrize("spoil, message", [
    (lambda r: r.update(failed=1, problems=["rep 0 train: exit code 1"]),
     r"c2 is a failed run .*failed: 1.*exit code 1"),
    (lambda r: r.update(correct=False, problems=["declared metric x was not measured"]),
     r"c2 is a failed run \(correct: False.*declared metric x"),
    (lambda r: r["provenance"].update(trace=1), "has no (parent|change) record"),
    (lambda r: r["provenance"].update(trace=2), "unknown trace mode"),
    (lambda r: r["provenance"].update(threads={"OPENBLAS_NUM_THREADS": "2"}),
     "differ in threads"),
    (lambda r: r["provenance"].update(numpy="1.26.0"), "differ in numpy"),
    (lambda r: r["provenance"].update(workload="surrogate_ga"), "has no (parent|change) record"),
    (lambda r: r["provenance"].update(seed=1), "two change records"),
    (lambda r: r["provenance"].update(git_commit="ccc"), "2 code versions"),
    (lambda r: r["values"].pop("peak_rss_mb"), "no value of peak_rss_mb"),
])
def test_refuses_records_it_cannot_compare(spoil, message):
    parent, change = _sides({1: 1.0, 2: 2.0}, {1: 1.0, 2: 2.0})
    spoil(change[1][1])
    with pytest.raises(ValueError, match=message):
        bench_record.fold(parent, change, BENCHMARK)


def test_command_line_reads_directories_and_exits_2_on_refusal(tmp_path, capsys):
    parent, change = _sides({1: 1.0, 2: 2.0}, {1: 0.5, 2: 1.5})
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    for side, records in (("parent", parent), ("change", change)):
        (tmp_path / side).mkdir()
        for name, rec in records:
            (tmp_path / side / f"{name}.json").write_text(json.dumps(rec))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(out), "--benchmark", str(bench)]
    assert bench_record.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"]["ga_lagged_copy"]["metrics"]["search_ref"]["pair_wins"]["change"] == 2
    # one change record named twice: a duplicate pair
    extra = tmp_path / "change" / "c1.json"
    assert bench_record.main(argv + ["--change", str(tmp_path / "change"), str(extra)]) == 2
    assert "two change records" in capsys.readouterr().err
    # pytest logs of both sides give the tier-1 section
    for side, passed in (("parent", 528), ("change", 530)):
        (tmp_path / f"{side}.log").write_text(f"{passed} passed in 80.0s\n")
    tier1 = ["--parent-tier1", str(tmp_path / "parent.log"),
             "--change-tier1", str(tmp_path / "change.log")]
    assert bench_record.main(argv + tier1) == 0
    doc = json.loads(out.read_text())
    assert doc["tier1"]["change"]["passed"] == 530 and doc["tier1"]["parent"]["wall_s"] == 80.0
    assert bench_record.main(argv + tier1[:2]) == 2
    assert "together" in capsys.readouterr().err
    (tmp_path / "change.log").write_text("interrupted\n")
    assert bench_record.main(argv + tier1) == 2
    assert "no pytest summary" in capsys.readouterr().err
    # a claim adds its block; an unknown one is refused
    assert bench_record.main(argv + ["--claim", "ga_lagged_copy/search_ref"]) == 0
    claim = json.loads(out.read_text())["claim"]
    # both pairs won, but the medians differ by 0.5, not more than the IQR 0.5
    assert claim["pair_wins"]["change"] == 2 and claim["met"] is False
    assert bench_record.main(argv + ["--claim", "ga_lagged_copy/wall"]) == 2
    assert "names no workload/metric" in capsys.readouterr().err
    # a failed run is refused by name, with its problems
    failed = {**change[0][1], "failed": 1, "problems": ["rep 0 local: exit code 3"]}
    (tmp_path / "change" / "c1.json").write_text(json.dumps(failed))
    assert bench_record.main(argv) == 2
    err = capsys.readouterr().err
    assert "c1.json is a failed run" in err and "exit code 3" in err
