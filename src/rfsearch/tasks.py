"""Synthetic sequence tasks with known receptive-field requirements.

Each task generates framewise-labeled sequences where the minimal causal
receptive field needed to solve it is known in closed form, so search
results can be checked against ground truth.  Every task is framewise
classification: an integer class label per frame, plus a mask of the frames
that count.  The tasks:

* lagged_copy: predict the input symbol from exactly ``lag`` frames back
  (i.i.d. symbols, so nothing short of the exact lag helps); minimal
  receptive field lag + 1.
* multiscale_sum: classify the joint signs of running means over several
  window sizes at once; needs coverage of the largest window and rewards
  multi-scale taps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import seeding
from .genome import dilation_genes

__all__ = [
    "TASK_KINDS",
    "TASK_KEYS",
    "TaskSpec",
    "TaskData",
    "generate",
    "framewise_accuracy",
]

_SIZES = ("sequence_length", "train_size", "val_size")
# the TaskSpec fields each kind's generator reads: its config keys besides ``kind``
TASK_KEYS = {
    "lagged_copy": (*_SIZES, "seed", "num_symbols", "lag"),
    "multiscale_sum": (*_SIZES, "seed", "windows"),
}
TASK_KINDS = tuple(TASK_KEYS)


@dataclass(frozen=True)
class TaskSpec:
    """One task.  Its kind's generator reads ``kind`` and the fields that
    ``TASK_KEYS`` names; any other field must keep its default."""

    kind: str
    sequence_length: int = 256
    train_size: int = 2000
    val_size: int = 500
    seed: int = 0
    num_symbols: int = 8
    lag: int = 12
    windows: tuple[int, ...] = (4, 32)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        object.__setattr__(self, "windows", dilation_genes(self.windows, "windows"))
        read = ("kind", *TASK_KEYS[self.kind])
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValueError(f"a {self.kind} task does not read {f.name}")
        if self.sequence_length < 1 or self.train_size < 1 or self.val_size < 1:
            raise ValueError("sizes must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind == "lagged_copy":
            if self.lag < 0:
                raise ValueError("lag must be >= 0")
            if self.lag >= self.sequence_length:
                raise ValueError("lag must be smaller than sequence_length")
            if self.num_symbols < 2:
                raise ValueError("need at least 2 symbols")
        elif self.kind == "multiscale_sum":
            if len(self.windows) < 1:
                raise ValueError("need at least one window")
            if any(w < 1 for w in self.windows):
                raise ValueError("windows must be >= 1")
            if list(self.windows) != sorted(set(self.windows)):
                raise ValueError("windows must be strictly increasing")
            if max(self.windows) > self.sequence_length:
                raise ValueError("largest window exceeds sequence_length")

    @property
    def in_channels(self) -> int:
        return self.num_symbols if self.kind == "lagged_copy" else 1

    @property
    def num_classes(self) -> int:
        if self.kind == "lagged_copy":
            return self.num_symbols
        return 2 ** len(self.windows)

    @property
    def min_receptive_field(self) -> int:
        """Smallest causal receptive field that can solve the task exactly."""
        if self.kind == "lagged_copy":
            return self.lag + 1
        return max(self.windows)


@dataclass
class TaskData:
    train_x: np.ndarray
    train_y: np.ndarray
    train_mask: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    val_mask: np.ndarray
    num_classes: int
    in_channels: int


def generate(spec: TaskSpec) -> TaskData:
    """Generate the task's train/val splits; bit-identical for equal specs."""
    if spec.kind == "lagged_copy":
        return _gen_lagged_copy(spec)
    return _gen_multiscale_sum(spec)


def _splits(spec: TaskSpec, make) -> TaskData:
    """Train and val splits, each ``make(rng, n) -> (x, y, mask)`` on its own stream."""
    train = make(seeding.derive_rng(spec.seed, "task", spec.kind, "train"), spec.train_size)
    val = make(seeding.derive_rng(spec.seed, "task", spec.kind, "val"), spec.val_size)
    return TaskData(*train, *val, spec.num_classes, spec.in_channels)


def _gen_lagged_copy(spec: TaskSpec) -> TaskData:
    """Inputs are one-hot i.i.d. symbols; target frame t is the symbol at
    t - lag.  The first ``lag`` frames are masked out of the loss."""
    def make(rng, n):
        T, A = spec.sequence_length, spec.num_symbols
        sym = rng.integers(0, A, size=(n, T))
        x = np.zeros((n, A, T))
        rows = np.arange(n)[:, None]
        cols = np.arange(T)[None, :]
        x[rows, sym, cols] = 1.0
        y = np.zeros((n, T), dtype=np.int64)
        if spec.lag == 0:
            y[:] = sym
        else:
            y[:, spec.lag :] = sym[:, : T - spec.lag]
        mask = np.zeros((n, T), dtype=bool)
        mask[:, spec.lag :] = True
        return x, y, mask

    return _splits(spec, make)


def _gen_multiscale_sum(spec: TaskSpec) -> TaskData:
    """Gaussian inputs; the label at frame t encodes, as a bit per window,
    whether the running mean over that window is positive.  All windows must
    be read simultaneously, so distinct temporal scales all matter."""
    def make(rng, n):
        T = spec.sequence_length
        u = rng.standard_normal((n, 1, T))
        cs = np.concatenate([np.zeros((n, 1)), np.cumsum(u[:, 0, :], axis=1)], axis=1)
        y = np.zeros((n, T), dtype=np.int64)
        for j, w in enumerate(spec.windows):
            sums = cs[:, w:] - cs[:, :-w]  # window sum ending at t, t >= w-1
            bit = (sums > 0.0).astype(np.int64)
            y[:, w - 1 :] += bit << j
        mask = np.zeros((n, T), dtype=bool)
        mask[:, max(spec.windows) - 1 :] = True
        return u, y, mask

    return _splits(spec, make)


def framewise_accuracy(pred: np.ndarray, target: np.ndarray, mask=None) -> float:
    """Fraction of unmasked frames where argmax over channels hits the target."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.ndim != 3:
        raise ValueError("pred must be (batch, class, time)")
    if target.shape != (pred.shape[0], pred.shape[2]):
        raise ValueError(
            f"target shape {target.shape}, expected {(pred.shape[0], pred.shape[2])}"
        )
    if mask is None:
        mask = np.ones(target.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != target.shape:
            raise ValueError("mask shape does not match target")
    if not mask.any():
        raise ValueError("mask selects no frames")
    labels = pred.argmax(axis=1)
    return float((labels == target)[mask].mean())
