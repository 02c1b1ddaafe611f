"""Golden output digests: the exact bytes of a small pipeline, on two seeds,
pinned in golden_digests.json.  Per seed: global search, train of its best
genome, local --parallel search from that genome, train of the parallel
structure.

Criterion 9 checks that reruns agree within one tree; this test checks that a
refactor leaves every pinned output byte-identical to the tree the digests
were recorded from.  float64 results can move in the last digits with the
numpy/BLAS build, so the record carries the build it was made with and a
mismatch says whether the running build differs.

A change that is meant to move outputs re-records the digests with
    PYTHONPATH=src python tests/test_golden.py --write
and names the files whose bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rfsearch.cli import main

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


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digests = run_pipeline(tmp_path)
    moved = sorted(
        name for name in golden["digests"] | digests
        if golden["digests"].get(name) != digests.get(name)
    )
    build = build_info()
    if build == golden["build"]:
        why = "the numpy/BLAS build is the recorded one, so the program changed them"
    else:
        why = (f"the numpy/BLAS build differs (recorded {golden['build']}, "
               f"running {build}), which alone can move float64 bytes")
    assert not moved, f"output bytes moved in {', '.join(moved)}; {why}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(Path(tmp))
    GOLDEN.write_text(json.dumps({"build": build_info(), "digests": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
