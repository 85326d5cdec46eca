"""SMOTE minority oversampling for imbalanced training folds, and the cell
planner that draws it.

Synthetic minority points are drawn on the segments between a minority
sample and one of its k nearest minority neighbors. Seeds cycle round-robin
over a seeded shuffle of the minority rows; generation stops when the
minority count reaches floor(target_ratio * majority count). Original rows
are preserved, in order, ahead of the synthetic block.

Every draw goes through one planner. ``plan_cell`` makes the training cell
of some rows of a feature matrix, for any model kind, with SMOTE's rows as
(seed, neighbour, gamma) triples of rows of the matrix; ``smote_neighbours``
finds their neighbours, the k nearest minority rows (Euclidean; ties toward
the lower position), by restricting one sorted neighbour order per class
(``kernels.neighbour_order``) to every training split at once
(``kernels.knn_in_splits``). `eval` plans each facet x fold cell of a
matrix so, ``facetrec train`` one cell of all rows, and ``smote`` one cell
of all rows that it then materializes; ``models.train`` plans a cell
without SMOTE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ValidationError, is_int, is_number
from .seeding import check_seed


@dataclass(frozen=True)
class ResampleConfig:
    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not is_int(self.k_neighbors):
            raise ConfigError(f"k_neighbors must be an integer, got {self.k_neighbors!r}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be at least 1, got {self.k_neighbors}")
        if not is_number(self.target_ratio):
            raise ConfigError(f"target_ratio must be a number, got {self.target_ratio!r}")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ConfigError(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        check_seed(self.seed)


def _as_labels(y) -> np.ndarray:
    # The one check of outside labels: a non-empty 1-d sequence of 0s and
    # 1s, returned as int64.
    y = np.asarray(y)
    if y.ndim != 1 or len(y) == 0:
        raise ValidationError("labels must be a non-empty 1-d sequence")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError(f"labels must be binary 0/1, got values {sorted(set(y.tolist()))}")
    return y.astype(np.int64)


def _as_rows(X, y):
    # Outside rows and their labels, one per row: X as 2-d float64, y checked.
    X, y = np.asarray(X, dtype=np.float64), _as_labels(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValidationError("labels must be one per feature row")
    return X, y


def smote_neighbours(X, y, held=None):
    """SMOTE's neighbour search over the rows of X, labelled y, in each of
    their training splits: row s of the (splits, rows) bool array ``held``
    marks the rows split s leaves out (by default one split of every row).
    Returns a function from the ascending indices ``docs`` of one class's
    rows in split s, k and s to each one's k nearest others among them
    (``kernels.minority_knn`` of their rows), as positions in ``docs``; k
    is the same in every call. Each class has one
    ``kernels.neighbour_order`` of all its rows, sorted when the class is
    first asked for, which ``kernels.knn_in_splits`` restricts to every
    split at once."""
    if held is None:
        held = np.zeros((1, len(y)), dtype=bool)
    by_class = {}

    def neighbours(docs, k, split=0):
        cls = int(y[docs[0]])
        if cls not in by_class:
            members = np.flatnonzero(y == cls)
            by_class[cls] = kernels.knn_in_splits(kernels.neighbour_order(X[members]), held[:, members], k)
        return by_class[cls][split]

    return neighbours


def plan_cell(y, rows, resample_cfg=None, neighbours=None) -> kernels.LRCell:
    """The training cell of ``rows`` of a feature matrix X, for any model kind.

    y holds the int64 0/1 labels of all rows of X, which the caller checks
    once, and ``rows`` is an int64 array of positions. A cell whose labels
    are empty or hold a single class raises ValidationError. With
    ``resample_cfg``, the cell also carries SMOTE's rows as triples, drawn
    from the config's seed (the cell's own), with ``neighbours(positions,
    k)`` giving, per ascending position in X, its k nearest others among
    them (``smote_neighbours``); it is called only when rows are drawn. An
    imbalanced cell with fewer than 2 minority rows raises ValidationError.
    """
    labels = y[rows]
    n_pos = int(labels.sum())
    if not 0 < n_pos < len(labels):
        raise ValidationError("training labels contain a single class" if len(labels) else "training split is empty")
    if resample_cfg is None or 2 * n_pos == len(labels):
        return kernels.LRCell(rows, labels)
    minority = int(2 * n_pos < len(labels))
    min_idx = np.flatnonzero(labels == minority)
    n_min = len(min_idx)
    if n_min < 2:
        raise ValidationError("minority class needs at least 2 samples to interpolate between")
    n_synth = math.floor(float(resample_cfg.target_ratio) * (len(labels) - n_min)) - n_min
    if n_synth <= 0:
        return kernels.LRCell(rows, labels)

    # Fixed draw order so runs are reproducible: shuffle, neighbor picks,
    # interpolation coefficients.
    rng = np.random.default_rng(resample_cfg.seed)
    perm = rng.permutation(n_min)
    picks = rng.integers(0, min(resample_cfg.k_neighbors, n_min - 1), size=n_synth)
    gammas = rng.random(n_synth)

    at = rows[min_idx]
    knn = neighbours(at, resample_cfg.k_neighbors)
    seed_pos = perm[np.arange(n_synth) % n_min]
    return kernels.LRCell(rows, labels, at[seed_pos], at[knn[seed_pos, picks]], gammas, minority)


def smote(X, y, cfg: ResampleConfig):
    """Oversample the minority class of (X, y) with synthetic points.

    X is a 2-d array-like of numbers; it is never modified. Returns
    (X_aug, y_aug) as a new array of float64 rows and int64 labels, the
    original rows first and bit-for-bit untouched, then the rows of the
    cell ``plan_cell`` makes of all rows (with ``smote_neighbours`` and
    the config's seed), each labelled with the minority class. Labels of a
    single class raise ValidationError ("degenerate").
    """
    X, y = _as_rows(X, y)
    if not 0 < y.sum() < len(y):
        raise ValidationError("cannot resample degenerate fold")
    cell = plan_cell(y, np.arange(len(y)), cfg, smote_neighbours(X, y))
    synthetic = kernels.interpolate_rows(X, cell.seeds, cell.nbrs, cell.gammas)
    return np.vstack([X, synthetic]), np.concatenate([y, np.full(len(synthetic), cell.minority, dtype=np.int64)])
