"""Fixed reference work, timed between repetitions to track the machine's speed.

    python3 perfbench/reference.py

On a shared virtual machine the CPU's speed drifts by tens of percent over
minutes, and a whole benchmark run can land in a slow or a fast stretch.
This script does a fixed amount of work shaped like the benchmark's own: a
fresh interpreter importing numpy, small float64 dilated-conv forward and
backward passes through einsum, and Python object churn (frozen dataclasses,
small-array RNG calls, sorting, CSV rows).  It imports nothing from rfsearch,
so a change to the package does not change its time, and a workload's time
divided by this script's time (measured in the same run) is steady across
the machine's fast and slow stretches.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Item:
    genes: tuple
    score: float

    def __post_init__(self):
        object.__setattr__(self, "genes", tuple(int(g) for g in self.genes))


def conv_steps(steps: int = 150) -> float:
    rng = np.random.default_rng(0)
    B, C, T = 32, 16, 64
    x = rng.standard_normal((B, C, T))
    w = rng.standard_normal((C, C, 2)) * 0.1
    total = 0.0
    for _ in range(steps):
        out = np.zeros((B, C, T))
        for j, off in enumerate((-4, 0)):
            lo, hi = max(0, -off), min(T, T - off)
            out[:, :, lo:hi] += np.einsum("oc,bct->bot", w[:, :, j], x[:, :, lo + off:hi + off])
        g = np.where(out > 0.0, out, 0.0)
        gx = np.zeros_like(x)
        for j, off in enumerate((-4, 0)):
            lo, hi = max(0, -off), min(T, T - off)
            gx[:, :, lo + off:hi + off] += np.einsum("oc,bot->bct", w[:, :, j], g[:, :, lo:hi])
            w[:, :, j] -= 1e-6 * np.einsum("bot,bct->oc", g[:, :, lo:hi], x[:, :, lo + off:hi + off])
        e = np.exp(out - out.max(axis=1, keepdims=True))
        total += float((e / e.sum(axis=1, keepdims=True)).sum() + gx[0, 0, 0])
    return total


def object_churn(rounds: int = 120, size: int = 128) -> int:
    rng = np.random.default_rng(1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    items = [_Item(tuple(rng.integers(0, 11, size=8)), 0.0) for _ in range(size)]
    for r in range(rounds):
        fresh = []
        for it in items:
            genes = list(it.genes)
            if rng.random() < 0.8:
                for k in np.nonzero(rng.random(len(genes)) < 0.3)[0]:
                    genes[k] = int(rng.integers(0, 11))
            fresh.append(_Item(genes, -sum((g - 5) ** 2 for g in genes)))
        items = sorted(items + fresh, key=lambda i: (-i.score, i.genes))[:size]
        for it in fresh:
            writer.writerow([r, ",".join(str(g) for g in it.genes), repr(it.score)])
    return len(buf.getvalue())


if __name__ == "__main__":
    conv_steps()
    object_churn()
