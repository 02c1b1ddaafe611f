import concurrent.futures
import csv
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rfsearch
from rfsearch import cli, tensorops
from rfsearch.cli import ConfigError, load_config, main
from rfsearch.localsearch import expected_dilation
from rfsearch.tasks import TASK_KEYS


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _surrogate_global_config(tmp_path, out_name="run", **overrides):
    doc = {
        "master_seed": 7,
        "output_dir": str(tmp_path / out_name),
        "surrogate": {"target": [1, 4, 2, 8]},
        "global": {
            "iterations": 6,
            "population": 6,
            "p_m": 0.5,
            "p_s": 0.3,
            "epochs": 1,
            "k": 2,
            "T": 4,
        },
    }
    doc.update(overrides)
    return _write(tmp_path / "cfg.json", doc)


_TRAINING = {"learning_rate": 0.02, "batch_size": 16, "final_epochs": 4}
_TASK = {
    "kind": "lagged_copy",
    "sequence_length": 24,
    "train_size": 48,
    "val_size": 24,
    "lag": 3,
    "num_symbols": 4,
    "seed": 1,
}


def _task_config(tmp_path, out_name="run", **extra):
    doc = {
        "master_seed": 3,
        "output_dir": str(tmp_path / out_name),
        "task": _TASK,
        "network": {
            "layers": [{"kernel_size": 2, "channels": 6}],
        },
        "training": _TRAINING,
    }
    doc.update(extra)
    return _write(tmp_path / "task_cfg.json", doc)


class TestConfigLoading:
    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["global", "--config", str(missing)])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.json", {"master_seed": 1, "bogus": 2,
                                              "global": {}})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_nested_keys_rejected(self, tmp_path):
        path = _write(
            tmp_path / "bad.json",
            {"global": {"iterations": 2, "wat": 1}},
        )
        with pytest.raises(ConfigError, match="wat"):
            load_config(path)

    def test_needs_some_command_section(self, tmp_path):
        path = _write(tmp_path / "bad.json", {"master_seed": 1})
        with pytest.raises(ConfigError, match="at least one"):
            load_config(path)

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_directory_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not a readable JSON file"):
            load_config(tmp_path)


class TestGlobalCommand:
    def test_surrogate_smoke_run_writes_outputs(self, tmp_path, capsys):
        cfg = _surrogate_global_config(tmp_path)
        rc = main(["global", "--config", cfg])
        assert rc == 0
        out = tmp_path / "run"
        assert (out / "best.json").exists()
        assert (out / "trajectory.csv").exists()
        assert (out / "population_log.csv").exists()
        assert (out / "resolved_config.json").exists()
        best = json.loads((out / "best.json").read_text())
        assert len(best["dilations"]) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _surrogate_global_config(tmp_path)
        assert main(["global", "--config", cfg]) == 0
        best1 = (tmp_path / "run" / "best.json").read_bytes()
        traj1 = (tmp_path / "run" / "trajectory.csv").read_bytes()
        assert main(["global", "--config", cfg]) == 0
        assert (tmp_path / "run" / "best.json").read_bytes() == best1
        assert (tmp_path / "run" / "trajectory.csv").read_bytes() == traj1

    def test_runs_under_cprofile(self, tmp_path):
        """``python -m cProfile -m rfsearch.cli`` keeps cProfile's module as
        ``__main__``; the config schema must still resolve its annotations."""
        cfg = _surrogate_global_config(tmp_path, "profiled")
        src = str(Path(rfsearch.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "p.out"),
             "-m", "rfsearch.cli", "global", "--config", cfg],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        # cProfile exits 0 whatever the command returns
        assert proc.returncode == 0 and "failure" not in proc.stderr, proc.stderr
        assert (tmp_path / "p.out").stat().st_size > 0
        profiled = (tmp_path / "profiled" / "best.json").read_bytes()
        assert main(["global", "--config", _surrogate_global_config(tmp_path)]) == 0
        assert profiled == (tmp_path / "run" / "best.json").read_bytes()

    def test_config_without_global_section(self, tmp_path, capsys):
        path = _write(
            tmp_path / "c.json",
            {"surrogate": {"target": [1]}, "local": {}, "output_dir": str(tmp_path / "x"),
             "task": {"kind": "lagged_copy", "sequence_length": 8, "train_size": 4,
                      "val_size": 4, "lag": 1},
             "network": {"layers": [{"kernel_size": 2, "channels": 4}]}},
        )
        rc = main(["global", "--config", path])
        assert rc == 2
        assert "global" in capsys.readouterr().err


class TestLocalCommand:
    def test_baseline_init_writes_structure_and_trajectory(self, tmp_path):
        cfg = _task_config(
            tmp_path,
            local={"iterations": 2, "epochs_per_iteration": 1, "branches": 3},
        )
        rc = main(["local", "--config", cfg, "--init", "baseline"])
        assert rc == 0
        out = tmp_path / "run"
        structure = json.loads((out / "final_structure.json").read_text())
        assert structure["type"] == "genome"
        assert len(structure["dilations"]) == 1
        lines = (out / "local_trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "iteration,layer_index,dilations,alphas,new_dilation,rounding_offset"
        )
        assert len(lines) > 1

    def test_genome_string_init_and_parallel_flag(self, tmp_path):
        cfg = _task_config(
            tmp_path,
            local={"iterations": 1, "epochs_per_iteration": 1, "branches": 3},
        )
        rc = main(["local", "--config", cfg, "--init", "4", "--parallel"])
        assert rc == 0
        structure = json.loads((tmp_path / "run" / "final_structure.json").read_text())
        assert structure["type"] == "parallel"
        assert structure["extra_parameters"] == sum(
            len(l["dilations"]) for l in structure["layers"]
        )

    def test_pmf_kind_is_echoed_in_resolved_config(self, tmp_path):
        cfg = _task_config(
            tmp_path,
            local={"iterations": 1, "epochs_per_iteration": 1, "pmf_kind": "softmax"},
        )
        rc = main(["local", "--config", cfg])
        assert rc == 0
        resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
        assert resolved["local"]["pmf_kind"] == "softmax"

    def test_genome_length_mismatch_exits_2(self, tmp_path, capsys):
        cfg = _task_config(
            tmp_path,
            local={"iterations": 1, "epochs_per_iteration": 1},
        )
        rc = main(["local", "--config", cfg, "--init", "2,4"])
        assert rc == 2

    def test_parallel_structure_init_exits_2(self, tmp_path, capsys):
        spath = tmp_path / "structure.json"
        spath.write_text(json.dumps({
            "type": "parallel", "layers": [{"dilations": [2, 3], "alphas": [0.5, 0.5]}],
        }))
        cfg = _task_config(tmp_path, local={"iterations": 1, "epochs_per_iteration": 1})
        assert main(["local", "--config", cfg, "--init", str(spath)]) == 2
        assert "is a parallel structure" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_trajectory_rows_recompute_from_the_file(self, tmp_path):
        cfg = _task_config(
            tmp_path,
            network={"layers": [{"kernel_size": 2, "channels": 6}] * 2},
            local={"iterations": 6, "epochs_per_iteration": 1, "branches": 3},
        )
        assert main(["local", "--config", cfg, "--init", "4,6"]) == 0
        with open(tmp_path / "run" / "local_trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        floors_differ = 0
        for row in rows:
            dilations, alphas = json.loads(row["dilations"]), json.loads(row["alphas"])
            u = float(row["rounding_offset"])
            assert 0.0 <= u < 1.0
            assert int(row["new_dilation"]) == expected_dilation(dilations, alphas, u)
            floors_differ += int(row["new_dilation"]) != expected_dilation(dilations, alphas)
        # some steps rounded up, so the recorded offset is what decides them
        assert floors_differ > 0

    @pytest.mark.parametrize("flags", [[], ["--parallel"]])
    def test_rerun_is_byte_identical(self, tmp_path, flags):
        outputs = []
        for out_name in ("a", "b"):
            cfg = _task_config(
                tmp_path,
                out_name=out_name,
                network={"layers": [{"kernel_size": 2, "channels": 6}] * 2},
                local={"iterations": 6, "epochs_per_iteration": 1, "branches": 3},
            )
            assert main(["local", "--config", cfg, "--init", "4,6", *flags]) == 0
            out = tmp_path / out_name
            outputs.append(
                (
                    (out / "local_trajectory.csv").read_bytes(),
                    (out / "final_structure.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_global_then_local_pipeline(self, tmp_path):
        # two-stage pipeline: coarse genetic pass, then local refinement of its best
        cfg = _task_config(
            tmp_path,
            out_name="g",
            **{
                "global": {"iterations": 2, "population": 4, "epochs": 1, "k": 2, "T": 3},
                "local": {"iterations": 1, "epochs_per_iteration": 1},
            },
        )
        assert main(["global", "--config", cfg]) == 0
        best_path = tmp_path / "g" / "best.json"
        assert best_path.exists()
        cfg2 = _task_config(
            tmp_path,
            out_name="l",
            **{"local": {"iterations": 1, "epochs_per_iteration": 1}},
        )
        assert main(["local", "--config", cfg2, "--init", str(best_path)]) == 0
        assert (tmp_path / "l" / "final_structure.json").exists()


class TestTrainCommand:
    def test_train_reports_metrics(self, tmp_path):
        cfg = _task_config(tmp_path, local=_LOCAL, training={**_TRAINING, "final_epochs": 3})
        rc = main(["train", "--config", cfg, "--init", "3"])
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "train_metrics.json").read_text())
        assert doc["epochs"] == 3
        assert "val_accuracy" in doc["metrics"]

    def test_train_parallel_structure_file(self, tmp_path):
        structure = {
            "type": "parallel",
            "layers": [{"dilations": [2, 3, 4], "alphas": [0.2, 0.5, 0.3]}],
        }
        spath = tmp_path / "structure.json"
        spath.write_text(json.dumps(structure))
        cfg = _task_config(tmp_path, local=_LOCAL, training={**_TRAINING, "final_epochs": 2})
        rc = main(["train", "--config", cfg, "--init", str(spath)])
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "train_metrics.json").read_text())
        assert doc["structure"]["type"] == "parallel"

    @pytest.mark.parametrize(
        "layer",
        [{"dilations": [1, 2], "alphas": [1.0]}, {"dilations": [1, 2]}],
        ids=["alphas-too-short", "alphas-missing"],
    )
    def test_invalid_structure_file_exits_2(self, tmp_path, capsys, layer):
        spath = tmp_path / "structure.json"
        spath.write_text(json.dumps({"type": "parallel", "layers": [layer]}))
        cfg = _task_config(tmp_path, local={"iterations": 1, "epochs_per_iteration": 1})
        assert main(["train", "--config", cfg, "--init", str(spath)]) == 2
        assert "not a valid structure" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _oracle_config(tmp_path, seeds, target=(1, 4, 2), out_name="orun"):
    return _write(tmp_path / "o.json", {
        "master_seed": 5,
        "output_dir": str(tmp_path / out_name),
        "global": {"k": 2, "T": 3, "population": 4, "iterations": 3, "p_m": 0.5, "p_s": 0.3},
        "surrogate": {"target": list(target)},
        "oracle": {"seeds": seeds},
    })


def _report_from_trajectory(path: Path) -> dict:
    """(method, budget) -> (mean, population std, n) of trajectory.csv's
    running-best values, read and averaged in plain Python."""
    groups: dict[tuple[str, int], list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["method"], int(row["budget"])), []).append(
                float(row["running_best_fitness"]))
    report = {}
    for key, values in groups.items():
        mean = sum(values) / len(values)
        report[key] = (mean, (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5,
                       len(values))
    return report


def _read_report(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "budget", "mean", "std", "n"]
    keys = [(method, int(budget)) for method, budget, *_ in rows[1:]]
    assert keys == sorted(keys)
    return {(m, int(b)): (float(mean), float(std), int(n)) for m, b, mean, std, n in rows[1:]}


class TestOracleCommand:
    def test_oracle_writes_trajectories_report_and_summary(self, tmp_path):
        assert main(["oracle", "--config", _oracle_config(tmp_path, seeds=3)]) == 0
        out = tmp_path / "orun"
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0] == "budget,running_best_fitness,seed,method"
        methods = {line.split(",")[-1] for line in rows[1:]}
        assert methods == {"ga", "random"}
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"ga", "random"}
        assert summary["target"] == [1, 4, 2]
        assert summary["budget"] == (1 + 3) * 4

    @pytest.mark.parametrize("seeds", [1, 3])
    def test_report_rows_recompute_from_the_trajectory(self, tmp_path, seeds):
        assert main(["oracle", "--config", _oracle_config(tmp_path, seeds=seeds)]) == 0
        out = tmp_path / "orun"
        report = _read_report(out / "report.csv")
        expected = _report_from_trajectory(out / "trajectory.csv")
        assert report.keys() == expected.keys()
        assert {m for m, _ in report} == {"ga", "random"}
        for key, (mean, std, n) in report.items():
            assert n == expected[key][2] == seeds
            assert mean == pytest.approx(expected[key][0], rel=1e-12, abs=1e-12)
            assert std == pytest.approx(expected[key][1], rel=1e-9, abs=1e-12)
            if seeds == 1:
                assert std == 0.0
        # summary.json's final statistics are the report's rows at the budget
        summary = json.loads((out / "summary.json").read_text())
        for method, stats in summary["methods"].items():
            mean, std, _ = report[(method, summary["budget"])]
            assert (stats["final_mean"], stats["final_std"]) == (mean, std)

    def test_one_config_runs_global_and_oracle(self, tmp_path):
        # the oracle searches with the global section on the surrogate section
        cfg = _oracle_config(tmp_path, seeds=2, target=(8, 1, 4))
        assert main(["global", "--config", cfg]) == 0
        out = tmp_path / "orun"
        best = json.loads((out / "best.json").read_text())
        with open(out / "trajectory.csv", newline="") as fh:
            global_budgets = [int(row["budget"]) for row in csv.DictReader(fh)]
        global_record = (out / "resolved_config.json").read_bytes()
        assert len(best["dilations"]) == 3
        assert main(["oracle", "--config", cfg]) == 0
        assert (out / "resolved_config.json").read_bytes() == global_record
        summary = json.loads((out / "summary.json").read_text())
        assert summary["target"] == [8, 1, 4]
        assert summary["budget"] == global_budgets[-1]
        with open(out / "trajectory.csv", newline="") as fh:
            ga_budgets = {int(row["budget"]) for row in csv.DictReader(fh)
                          if row["method"] == "ga"}
        assert ga_budgets == set(global_budgets)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["global", "--seed", "11"], id="seed"),
        pytest.param(["train", "--init", "3", "--epochs", "2"], id="epochs"),
        pytest.param(["local", "--pmf", "softmax"], id="pmf"),
    ],
)
def test_deleted_flags_are_refused(tmp_path, capsys, argv):
    # master_seed, training.final_epochs and local.pmf_kind are set in the
    # config only
    cfg = _task_config(tmp_path, **{"global": _GA, "local": _LOCAL})
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags[-2:])}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_report_command_is_gone(tmp_path, capsys):
    # the oracle writes report.csv itself
    assert main(["oracle", "--config", _oracle_config(tmp_path, seeds=1)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path / "orun")])
    assert exc.value.code == 2
    assert "invalid choice: 'report'" in capsys.readouterr().err


class TestRuntimeFailureExitCode:
    def test_runtime_failure_exits_3(self, tmp_path, capsys):
        # config is well-formed but its output directory is a regular file,
        # which only creating the directory at run time finds out
        (tmp_path / "run").write_text("not a directory")
        rc = main(["global", "--config", _task_config(tmp_path, **{"global": _GA})])
        assert rc == 3
        err = capsys.readouterr().err
        assert "runtime failure" in err
        assert "FileExistsError" in err
        assert "Traceback" in err


class TestJobsDeterminism:
    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = _task_config(
            tmp_path,
            out_name="j1",
            **{"global": {"iterations": 2, "population": 4, "epochs": 1, "k": 2, "T": 3}},
        )
        assert main(["global", "--config", cfg, "--jobs", "1"]) == 0
        best1 = (tmp_path / "j1" / "best.json").read_bytes()
        traj1 = (tmp_path / "j1" / "trajectory.csv").read_bytes()
        cfg2 = _task_config(
            tmp_path,
            out_name="j2",
            **{"global": {"iterations": 2, "population": 4, "epochs": 1, "k": 2, "T": 3}},
        )
        assert main(["global", "--config", cfg2, "--jobs", "3"]) == 0
        assert (tmp_path / "j2" / "best.json").read_bytes() == best1
        assert (tmp_path / "j2" / "trajectory.csv").read_bytes() == traj1


def _run_outputs(out: Path) -> dict:
    """Every file of a run directory; population_log.csv without wall time."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "population_log.csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            wall = rows[0].index("wall_time_s")
            files[path.name] = [row[:wall] + row[wall + 1:] for row in rows]
        else:
            files[path.name] = path.read_bytes()
    return files


_GA = {"iterations": 2, "population": 4, "epochs": 1, "k": 2, "T": 3}
_LOCAL = {"iterations": 2, "epochs_per_iteration": 1}
# the sections an oracle run reads
_ORACLE = {"global": {**_GA, "p_m": 0.5}, "surrogate": {"target": [1, 4, 2]},
           "oracle": {"seeds": 2}}
_MULTISCALE = {"kind": "multiscale_sum", "sequence_length": 24, "train_size": 48,
               "val_size": 24, "windows": [2, 6], "seed": 1}


class TestResolvedConfigRoundTrip:
    """A run started again from its own resolved_config.json, with no flag
    that the config records, writes the same resolved config and outputs."""

    @pytest.mark.parametrize(
        "command, sections, flags, kept_flags",
        [
            pytest.param("global", {"global": _GA}, [], [], id="global-task"),
            pytest.param(
                "global", {"surrogate": {"target": [1, 4, 2, 8]}, "global": _GA}, [], [],
                id="global-surrogate",
            ),
            pytest.param(
                "local", {"local": {**_LOCAL, "pmf_kind": "softmax"}, "master_seed": 11},
                ["--parallel"], [], id="local-parallel-softmax-seed",
            ),
            pytest.param(
                "train", {"local": _LOCAL, "training": {**_TRAINING, "final_epochs": 2}},
                ["--init", "3"],
                ["--init", "3"], id="train-genome",
            ),
            pytest.param(
                "train", {"local": _LOCAL}, ["--init", "structure.json"],
                ["--init", "structure.json"], id="train-parallel-structure",
            ),
            pytest.param("oracle", _ORACLE, [], [], id="oracle"),
            pytest.param("global", {"global": _GA, "task": _MULTISCALE}, [], [],
                         id="global-multiscale"),
            pytest.param("local", {"local": _LOCAL, "task": _MULTISCALE}, [], [],
                         id="local-multiscale"),
        ],
    )
    def test_rerun_from_resolved_config(
        self, tmp_path, monkeypatch, command, sections, flags, kept_flags
    ):
        # --init names an input file, not a setting, so the rerun passes it again
        monkeypatch.chdir(tmp_path)
        (tmp_path / "structure.json").write_text(json.dumps({
            "type": "parallel",
            "layers": [{"dilations": [2, 3, 4], "alphas": [0.2, 0.5, 0.3]}],
        }))
        out = tmp_path / "run"
        record = "train_resolved_config.json" if command == "train" else "resolved_config.json"
        assert main([command, "--config", _task_config(tmp_path, **sections), *flags]) == 0
        first = _run_outputs(out)
        assert record in first
        # the task's own kind's keys, each with its value or its default
        task = sections.get("task", _TASK)
        assert set(json.loads(first[record])["task"]) == {"kind", *TASK_KEYS[task["kind"]]}
        resolved = tmp_path / "resolved.json"
        shutil.copy(out / record, resolved)
        shutil.rmtree(out)
        assert main([command, "--config", str(resolved), *kept_flags]) == 0
        assert _run_outputs(out) == first

    def test_train_after_local_keeps_the_search_record(self, tmp_path):
        # local --parallel, then train into the same directory: each stage's
        # record reruns its own stage byte for byte
        out = tmp_path / "run"
        cfg = _task_config(tmp_path, local=_LOCAL, training={**_TRAINING, "final_epochs": 2})
        assert main(["local", "--config", cfg, "--parallel", "--init", "3"]) == 0
        assert main(["train", "--config", cfg, "--init", str(out / "final_structure.json")]) == 0
        structure = (out / "final_structure.json").read_bytes()
        metrics = (out / "train_metrics.json").read_bytes()
        assert json.loads(structure)["type"] == "parallel"
        assert json.loads((out / "resolved_config.json").read_text())["local"][
            "finalize_parallel"] is True
        local_record = tmp_path / "local.json"
        train_record = tmp_path / "train.json"
        shutil.copy(out / "resolved_config.json", local_record)
        shutil.copy(out / "train_resolved_config.json", train_record)
        shutil.copy(out / "final_structure.json", tmp_path / "structure.json")
        shutil.rmtree(out)
        assert main(["local", "--config", str(local_record), "--init", "3"]) == 0
        assert (out / "final_structure.json").read_bytes() == structure
        assert main(["train", "--config", str(train_record),
                     "--init", str(tmp_path / "structure.json")]) == 0
        assert (out / "train_metrics.json").read_bytes() == metrics


def _oracle_with(section: str, **keys) -> dict:
    return {**_ORACLE, section: {**_ORACLE[section], **keys}}


# oracle configs, each with the reason it is refused.  The search and
# surrogate keys live in the global and surrogate sections only, so the
# oracle section's former keys are unknown there.
_INVALID_ORACLE = {
    "oracle-seeds-0": (_oracle_with("oracle", seeds=0), "oracle: seeds must be >= 1"),
    "oracle-methods-bogus": (_oracle_with("oracle", methods=["ga", "bogus"]),
                             "unknown config keys in oracle: ['methods']"),
    "oracle-methods-key-unknown": (_oracle_with("oracle", methods=["ga", "random"]),
                                   "unknown config keys in oracle: ['methods']"),
    "oracle-global-population-1": (_oracle_with("global", population=1),
                                   "global: population must be >= 2"),
    "oracle-surrogate-decoy-length": (_oracle_with("surrogate", decoy=[1, 2]),
                                      "unknown config keys in surrogate: ['decoy']"),
    "oracle-k-key-unknown": (_oracle_with("oracle", k=2), "unknown config keys in oracle: ['k']"),
    "oracle-target-key-unknown": (_oracle_with("oracle", target=[1, 4, 2]),
                                  "unknown config keys in oracle: ['target']"),
    "oracle-ga-key-unknown": (_oracle_with("oracle", ga={"population": 4}),
                              "unknown config keys in oracle: ['ga']"),
    "oracle-decoy-key-unknown": (_oracle_with("oracle", decoy=[8, 8, 1]),
                                 "unknown config keys in oracle: ['decoy']"),
    "oracle-without-surrogate": ({"global": _GA, "oracle": {"seeds": 2}},
                                 "an oracle section needs global and surrogate sections"),
    "oracle-without-global": ({"surrogate": {"target": [1, 4, 2]}, "oracle": {"seeds": 2}},
                              "an oracle section needs global and surrogate sections"),
}


_INVALID_CONFIGS = [
    pytest.param("global", {"global": {**_GA, "population": 1}}, id="population-1"),
    pytest.param("global", {"global": {**_GA, "k": 1}}, id="k-1"),
    pytest.param("global", {"global": {**_GA, "mutation_mode": "bogus"}}, id="mutation-mode"),
    pytest.param(
        "global",
        {"global": _GA,
         "network": {"layers": [{"kernel_size": 2, "channels": 4, "residual": "false"}]}},
        id="residual-string",
    ),
    pytest.param("local", {"local": {**_LOCAL, "finalize_parallel": "no"}},
                 id="finalize-parallel-string"),
    pytest.param("global", {"global": {**_GA, "iterations": 2.9}}, id="iterations-float"),
    pytest.param("global", {"global": {**_GA, "iterations": None}}, id="iterations-null"),
    pytest.param("global", {"global": {**_GA, "epochs": True}}, id="int-given-bool"),
    pytest.param("global", {"global": _GA, "training": {"learning_rate": float("nan")}},
                 id="learning-rate-nan"),
    pytest.param("global", {"surrogate": {"target": [0, 2]}, "global": _GA},
                 id="surrogate-target-0"),
    pytest.param("global", {"surrogate": {"target": [1, 2], "deceptive": True}, "global": _GA},
                 id="surrogate-deceptive-key"),
    # the surrogate is a single peak, so its former second peak is an unknown key
    pytest.param("global", {"surrogate": {"target": [1, 2], "decoy": [4, 4]}, "global": _GA},
                 id="surrogate-decoy-key-unknown"),
    pytest.param(
        "global",
        {"global": _GA, "network": {"layers": [{"kernel_size": 2}], "padding_mode": "bogus"}},
        id="padding-mode",
    ),
    pytest.param("global", {"global": _GA, "network": {"layers": []}}, id="layers-empty"),
    pytest.param("global", {"global": _GA, "network": {"layers": [2]}}, id="layer-not-object"),
    # every task has class labels and every network a softmax head, so there
    # is no head key and no fourth task kind
    pytest.param(
        "global",
        {"global": _GA, "network": {"layers": [{"kernel_size": 2}], "head": "regressor"}},
        id="head-regressor",
    ),
    pytest.param(
        "global",
        {"global": _GA, "network": {"layers": [{"kernel_size": 2}], "head": "classifier"}},
        id="head-key-unknown",
    ),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "kind": "noisy_event_span"}},
                 id="task-kind-noisy-event-span"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "event_rate": 0.1}},
                 id="task-event-rate-key-unknown"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "span": 4}},
                 id="task-span-key-unknown"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "noise_level": 0.5}},
                 id="task-noise-level-key-unknown"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "kind": "permuted_pixels"}},
                 id="task-kind-permuted-pixels"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "images_path": "images.idx"}},
                 id="task-images-path-key-unknown"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "labels_path": "labels.idx"}},
                 id="task-labels-path-key-unknown"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "permutation_seed": 2}},
                 id="task-permutation-seed-key-unknown"),
    pytest.param("global", {"global": _GA, "master_seed": -1}, id="master-seed-negative"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "seed": -1}}, id="task-seed-negative"),
    # settings with one value in use are constants, so even that value is an
    # unknown key
    pytest.param("global", {"global": {**_GA, "mutation_mode": "uniform"}},
                 id="global-mutation-mode-key-unknown"),
    pytest.param("local", {"local": {**_LOCAL, "w_init": 1.0}}, id="local-w-init-key-unknown"),
    # a task takes only its own kind's keys
    pytest.param("global", {"global": _GA, "task": {**_MULTISCALE, "lag": 12}},
                 id="multiscale-sum-lag-key"),
    pytest.param("global", {"global": _GA, "task": {**_TASK, "windows": [4, 32]}},
                 id="lagged-copy-windows-key"),
    *(pytest.param("oracle", sections, id=name)
      for name, (sections, _) in _INVALID_ORACLE.items()),
]


@pytest.mark.parametrize("name", sorted(_INVALID_ORACLE))
def test_invalid_oracle_config_names_its_own_reason(tmp_path, name):
    sections, reason = _INVALID_ORACLE[name]
    with pytest.raises(ConfigError, match=re.escape(reason)):
        load_config(_task_config(tmp_path, **sections))


@pytest.mark.parametrize("command, sections", _INVALID_CONFIGS)
def test_invalid_config_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, command, sections
):
    def no_task_data(spec):
        raise AssertionError("task data generated for an invalid config")

    monkeypatch.setattr(cli, "generate", no_task_data)
    cfg = _task_config(tmp_path, **sections)
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


# --init files that are not a structure of the config's JSON types
_INVALID_INITS = [
    pytest.param({"dilations": "12"}, id="dilations-string"),
    pytest.param({"dilations": [True, 2.9]}, id="dilations-bool-float"),
    pytest.param({"fitness": 0.5, "seed": 3}, id="dilations-missing"),
    pytest.param({"dilations": []}, id="dilations-empty"),
    pytest.param({"dilations": [2], "bogus": 1}, id="unknown-key"),
    pytest.param({"type": "bogus", "dilations": [2]}, id="type-bogus"),
    pytest.param({"type": "parallel", "layers": [{"dilations": [1, 2], "alphas": [True, 0.5]}]},
                 id="alpha-true"),
    pytest.param({"type": "parallel", "layers": [[1, 2]]}, id="layer-not-object"),
    pytest.param({"type": "parallel", "layers": [{"dilations": [3, 4], "alphas": [0.0, 0.0]}]},
                 id="alphas-all-zero"),
    pytest.param([2], id="not-an-object"),
    pytest.param(None, id="directory"),
]


@pytest.mark.parametrize("command", ["local", "train"])
@pytest.mark.parametrize("structure", _INVALID_INITS)
def test_invalid_init_exits_2_before_any_output(tmp_path, capsys, command, structure):
    spath = tmp_path / "structure.json"
    if structure is None:
        spath.mkdir()
    else:
        spath.write_text(json.dumps(structure))
    cfg = _task_config(tmp_path, local=_LOCAL)
    assert main([command, "--config", cfg, "--init", str(spath)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --init {spath} ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, sections, flags, written",
    [
        pytest.param("global", {"global": _GA}, [], "best.json", id="best-network"),
        pytest.param("global", {"surrogate": {"target": [4, 2]}, "global": _GA}, [],
                     "best.json", id="best-surrogate"),
        pytest.param("local", {}, ["--init", "3,5"], "final_structure.json",
                     id="final-genome"),
        pytest.param("local", {}, ["--init", "3,5", "--parallel"], "final_structure.json",
                     id="final-parallel"),
    ],
)
def test_written_structures_read_back_through_init(tmp_path, command, sections, flags, written):
    """``train --init`` of a structure file the CLI wrote trains that very
    structure: train_metrics.json records it as the file does."""
    network = {"layers": [{"kernel_size": 2, "channels": 4}] * 2}
    cfg = _task_config(tmp_path, network=network, local=_LOCAL,
                       training={**_TRAINING, "final_epochs": 1}, **sections)
    assert main([command, "--config", cfg, *flags]) == 0
    path = tmp_path / "run" / written
    assert main(["train", "--config", cfg, "--init", str(path)]) == 0
    recorded = json.loads(path.read_text())
    trained = json.loads((tmp_path / "run" / "train_metrics.json").read_text())["structure"]
    if written == "best.json":
        assert trained == {"type": "genome", "dilations": recorded["dilations"],
                           "kernel_sizes": [2, 2]}
    else:
        assert trained == recorded


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize(
    "command, sections",
    [("global", {"global": _GA}), ("oracle", _ORACLE)],
    ids=["global", "oracle"],
)
def test_invalid_jobs_exits_2_before_any_output(tmp_path, capsys, command, sections, jobs):
    cfg = _task_config(tmp_path, **sections)
    assert main([command, "--config", cfg, "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["local", "train"])
def test_jobs_above_1_exits_2_for_serial_commands(tmp_path, capsys, command):
    cfg = _task_config(tmp_path, local={"iterations": 1, "epochs_per_iteration": 1},
                       training={**_TRAINING, "final_epochs": 1})
    assert main([command, "--config", cfg, "--jobs", "2"]) == 2
    assert "--jobs applies to global and oracle only" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert main([command, "--config", cfg, "--jobs", "1"]) == 0
    assert (tmp_path / "run").exists()


# One `train` run in a fresh interpreter; prints its minor page faults.
_FAULT_PROBE = """
import resource, sys
from rfsearch import cli
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_training_steps_do_not_fault_the_heap_back_in(tmp_path):
    """Steps after the first reuse the heap: at the local_parallel_multiscale
    shape, 4 more epochs (32 steps) add almost no page faults.  Without
    keep_heap glibc trims the heap after each step, about 430 faults a step."""
    src = str(Path(rfsearch.__file__).resolve().parent.parent)

    def faults(epochs: int) -> int:
        cfg = _write(tmp_path / f"cfg{epochs}.json", {
            "master_seed": 5,
            "output_dir": str(tmp_path / "run"),
            "task": {"kind": "multiscale_sum", "sequence_length": 96, "train_size": 256,
                     "val_size": 128, "windows": [4, 32], "seed": 1},
            "network": {"layers": [{"kernel_size": 2, "channels": 16}] * 2},
            "training": {"learning_rate": 0.02, "batch_size": 32, "final_epochs": epochs},
            "local": _LOCAL,
        })
        argv = ["train", "--config", cfg, "--init", "4,28"]
        out = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        return int(out.split()[-1])

    assert faults(6) - faults(2) < 200


def test_pool_workers_keep_their_heap(tmp_path, monkeypatch):
    seen = {}

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            seen["initializer"] = initializer

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _surrogate_global_config(tmp_path)
    assert main(["global", "--config", cfg, "--jobs", "2"]) == 0
    assert seen["initializer"] is tensorops.keep_heap
