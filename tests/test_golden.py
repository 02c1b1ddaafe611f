"""Golden output digests: the exact bytes of a small pipeline, on two seeds,
pinned in golden_digests.json.  Per seed: global search, train of its best
genome, local --parallel search from that genome, train of the parallel
structure.

The pipeline's global stage writes accuracies only, which a small numeric
change rarely moves, so a second record pins the repr of every loss and
fitness of direct Trainer and LocalSession runs on fixed structures: a
classifier on lagged_copy, and one on multiscale_sum whose input and searched
K = 2 middle layer have one channel, so both one-channel kernel cases run (a
forward with Cin = 1, an input gradient with Cout = 1 over two taps).

Criterion 9 checks that reruns agree within one tree; these tests check that a
refactor leaves every pinned output byte-identical to the tree the digests
were recorded from.  float64 results can move in the last digits with the
numpy/BLAS build, so the record carries the build it was made with and a
mismatch says whether the running build differs.

A change that is meant to move outputs re-records the digests with
    PYTHONPATH=src python tests/test_golden.py --write
which prints the keys whose digests moved against the record it replaces;
the change names them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rfsearch.cli import main
from rfsearch.genome import DilationGenome
from rfsearch.localsearch import LocalConfig, ParallelLayer, ParallelStructure
from rfsearch.network import LayerSpec, NetworkSpec, Trainer, TrainSettings
from rfsearch.tasks import TaskSpec, generate

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (1, 2)


def build_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration", ""),
    }


def _config(seed: int, out: Path) -> dict:
    # two searched layers around an unsearched residual 1x1, so the pipeline
    # runs plain, searched, residual and branched layers
    return {
        "master_seed": seed,
        "output_dir": str(out),
        "task": {
            "kind": "lagged_copy", "sequence_length": 24, "train_size": 48,
            "val_size": 24, "lag": 3, "num_symbols": 4, "seed": seed,
        },
        "network": {"layers": [
            {"kernel_size": 2, "channels": 6},
            {"kernel_size": 1, "channels": 6, "residual": True},
            {"kernel_size": 2, "channels": 6, "residual": True},
        ]},
        "training": {"learning_rate": 0.02, "batch_size": 16, "final_epochs": 3},
        "global": {"iterations": 3, "population": 6, "epochs": 1, "k": 2, "T": 3,
                   "p_m": 0.5, "p_s": 0.3},
        "local": {"iterations": 3, "epochs_per_iteration": 2, "branches": 3},
    }


def _without_wall_time(csv_bytes: bytes) -> bytes:
    """population_log.csv minus its last column, wall_time_s."""
    lines = csv_bytes.decode().splitlines()
    assert lines[0].endswith(",wall_time_s"), lines[0]
    return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the pipeline per seed; SHA-256 per pinned output."""
    digests = {}
    for seed in SEEDS:
        base = root / f"seed{seed}"
        g_dir, l_dir = base / "global", base / "local"
        g_cfg, l_cfg = base / "global.json", base / "local.json"
        base.mkdir(parents=True)
        g_cfg.write_text(json.dumps(_config(seed, g_dir)))
        l_cfg.write_text(json.dumps(_config(seed, l_dir)))
        assert main(["global", "--config", str(g_cfg)]) == 0
        assert main(["train", "--config", str(g_cfg),
                     "--init", str(g_dir / "best.json")]) == 0
        assert main(["local", "--config", str(l_cfg), "--parallel",
                     "--init", str(g_dir / "best.json")]) == 0
        assert main(["train", "--config", str(l_cfg),
                     "--init", str(l_dir / "final_structure.json")]) == 0
        files = {
            "global/best.json": (g_dir / "best.json").read_bytes(),
            "global/trajectory.csv": (g_dir / "trajectory.csv").read_bytes(),
            "global/population_log.csv":
                _without_wall_time((g_dir / "population_log.csv").read_bytes()),
            "global/train_metrics.json": (g_dir / "train_metrics.json").read_bytes(),
            "local/local_trajectory.csv": (l_dir / "local_trajectory.csv").read_bytes(),
            "local/final_structure.json": (l_dir / "final_structure.json").read_bytes(),
            "local/train_metrics.json": (l_dir / "train_metrics.json").read_bytes(),
        }
        for name, data in files.items():
            digests[f"seed{seed}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests


def _records() -> dict[str, tuple[Trainer, dict]]:
    """Per task, the trainer and the structures its record trains."""
    layers = (LayerSpec(2, 6), LayerSpec(1, 6, residual=True), LayerSpec(2, 6, residual=True))
    settings = TrainSettings(learning_rate=0.02, batch_size=16)
    copy = TaskSpec("lagged_copy", sequence_length=24, train_size=48, val_size=24,
                    lag=3, num_symbols=4, seed=5)
    classifier = Trainer(generate(copy), NetworkSpec(4, layers, 4), settings, seed=5)
    classifier_structures = {
        "1-1": DilationGenome((1, 1)), "2-4": DilationGenome((2, 4)),
        "3-1": DilationGenome((3, 1)),
        "parallel": ParallelStructure((ParallelLayer((1, 2, 3), (0.5, 0.3, 0.2)),
                                       ParallelLayer((2,), (1.0,)))),
    }
    # one input channel, and a searched K = 2 middle layer with one channel:
    # layer 0's and layer 2's forwards have Cin = 1, and layer 1's input
    # gradient has Cout = 1 over two taps, plain and mixed
    ms = generate(TaskSpec("multiscale_sum", sequence_length=24, train_size=48,
                           val_size=24, windows=(2, 6), seed=6))
    narrow = (LayerSpec(2, 6), LayerSpec(2, 1), LayerSpec(2, 6))
    one_channel = Trainer(ms, NetworkSpec(1, narrow, 4), settings, seed=6)
    one_channel_structures = {
        "1-1-1": DilationGenome((1, 1, 1)), "2-2-4": DilationGenome((2, 2, 4)),
        "3-2-1": DilationGenome((3, 2, 1)),
        "parallel": ParallelStructure((ParallelLayer((1, 2, 3), (0.5, 0.3, 0.2)),
                                       ParallelLayer((1, 2), (0.6, 0.4)),
                                       ParallelLayer((2,), (1.0,)))),
    }
    return {"lagged_copy": (classifier, classifier_structures),
            "multiscale_sum": (one_channel, one_channel_structures)}


def trainer_losses() -> dict[str, str]:
    """SHA-256 of the repr of each run's fitness, train_loss and val_loss (and
    branch PMFs), per task and structure."""
    digests = {}
    for task, (trainer, structures) in _records().items():
        runs = {}
        for name, structure in structures.items():
            fitness, metrics, _ = trainer.train_structure(structure, 2, 11)
            runs[name] = (fitness, metrics["train_loss"], metrics["val_loss"])
        # kernels persist across trainings while the branch set changes
        searched = len(trainer.net_spec.searched_layer_indices())
        session = trainer.local_session(DilationGenome((2,) * searched), LocalConfig())
        steps = []
        for branches in ({0: (1, 2, 3)}, {0: (2, 3), 1: (1, 2, 3)}):
            session.set_branches(branches)
            loss = session.train(2)
            steps.append((loss, session.evaluate(),
                          {k: p.tolist() for k, p in session.branch_pmfs().items()}))
        runs["local_session"] = steps
        for name, run in runs.items():
            digests[f"{task}/{name}"] = hashlib.sha256(repr(run).encode()).hexdigest()
    return digests


def _moved(recorded: dict, digests: dict) -> list[str]:
    return sorted(
        name for name in recorded | digests if recorded.get(name) != digests.get(name)
    )


def _why(golden: dict) -> str:
    build = build_info()
    if build == golden["build"]:
        return "the numpy/BLAS build is the recorded one, so the program changed them"
    return (f"the numpy/BLAS build differs (recorded {golden['build']}, "
            f"running {build}), which alone can move float64 bytes")


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    moved = _moved(golden["digests"], run_pipeline(tmp_path))
    assert not moved, f"output bytes moved in {', '.join(moved)}; {_why(golden)}"


def test_trainer_losses_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    moved = _moved(golden["loss_digests"], trainer_losses())
    assert not moved, f"losses moved in {', '.join(moved)}; {_why(golden)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(Path(tmp))
    losses = trainer_losses()
    previous = json.loads(GOLDEN.read_text())
    moved = (_moved(previous["digests"], digests)
             + _moved(previous["loss_digests"], losses))
    GOLDEN.write_text(json.dumps({"build": build_info(), "digests": digests,
                                  "loss_digests": losses},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} + {len(losses)} digests to {GOLDEN}")
    print("moved: " + (", ".join(moved) or "none"))
