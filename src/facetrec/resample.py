"""SMOTE minority oversampling for imbalanced training folds.

Synthetic minority points are drawn on the segments between a minority
sample and one of its k nearest minority neighbors. Seeds cycle round-robin
over a seeded shuffle of the minority rows; generation stops when the
minority count reaches floor(target_ratio * majority count). Original rows
are preserved, in order, ahead of the synthetic block.

Neighbours come from the squared distances among the minority rows
(``kernels.knn_from_distances``). ``smote_triples`` draws the synthetic
rows as (seed, neighbour, gamma) triples; by default it computes those
distances from the rows it is given, and `eval`, which oversamples the
overlapping training folds of one facet, passes ``distances`` to slice them
out of one matrix per facet and class. Either way the neighbour lists are
the same, bit for bit. `eval` trains every model from the triples; only
``smote`` (used by ``facetrec train --smote``) materializes the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ValidationError
from .seeding import check_seed


@dataclass(frozen=True)
class ResampleConfig:
    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k_neighbors, int) or isinstance(self.k_neighbors, bool):
            raise ConfigError(f"k_neighbors must be an integer, got {self.k_neighbors!r}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be at least 1, got {self.k_neighbors}")
        ratio = self.target_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, (int, float)):
            raise ConfigError(f"target_ratio must be a number, got {ratio!r}")
        if not 0.0 < float(ratio) <= 1.0:
            raise ConfigError(f"target_ratio must be in (0, 1], got {ratio}")
        check_seed(self.seed)


def resampled_labels(y, cfg: ResampleConfig) -> np.ndarray:
    """The labels smote returns for training labels y, without the rows.

    y as int64, then one minority label per synthetic row. Raises the errors
    smote raises for these labels: a degenerate fold, or an imbalanced one
    with fewer than 2 minority rows.
    """
    y = np.asarray(y, dtype=np.int64)
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError(f"labels must be binary 0/1, got values {sorted(set(y.ravel().tolist()))}")
    if y.ndim != 1:
        raise ValidationError("labels must be one per feature row")
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("cannot resample degenerate fold")
    if n_pos == n_neg:
        return y.copy()

    minority = 1 if n_pos < n_neg else 0
    n_min = min(n_pos, n_neg)
    n_maj = len(y) - n_min
    if n_min < 2:
        raise ValidationError(
            "minority class needs at least 2 samples to interpolate between"
        )
    n_synth = math.floor(float(cfg.target_ratio) * n_maj) - n_min
    if n_synth <= 0:
        return y.copy()
    return np.concatenate([y, np.full(n_synth, minority, dtype=np.int64)])


def smote_triples(X, y, cfg: ResampleConfig, distances=None):
    """SMOTE's synthetic rows for (X, y), as interpolation triples.

    Returns (seeds, nbrs, gammas, y_aug): synthetic row i is
    X[seeds[i]] + gammas[i] * (X[nbrs[i]] - X[seeds[i]]), seeds and nbrs
    are int64 positions of minority rows of X, and y_aug is
    resampled_labels(y, cfg), whose errors it raises. Deterministic.

    ``distances``, if given, maps the minority rows' ascending positions in
    X to their (n_min, n_min) block of squared distances, which must equal
    ``kernels.sq_distances`` of those rows. It is called only when
    synthetic rows are drawn. Without it the block is computed from X.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.shape[:1] != X.shape[:1]:
        raise ValidationError("labels must be one per feature row")
    y_aug = resampled_labels(y, cfg)
    n_synth = len(y_aug) - len(y)
    if n_synth == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, np.empty(0), y_aug

    min_idx = np.flatnonzero(y == y_aug[-1])
    n_min = len(min_idx)

    # Fixed draw order so runs are reproducible: shuffle, neighbor picks,
    # interpolation coefficients.
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n_min)
    k_eff = min(cfg.k_neighbors, n_min - 1)
    picks = rng.integers(0, k_eff, size=n_synth)
    gammas = rng.random(n_synth)

    if distances is None:
        knn = kernels.minority_knn(X[min_idx], cfg.k_neighbors)
    else:
        knn = kernels.knn_from_distances(distances(min_idx), cfg.k_neighbors)
    seed_pos = perm[np.arange(n_synth) % n_min]
    return min_idx[seed_pos], min_idx[knn[seed_pos, picks]], gammas, y_aug


def smote(X, y, cfg: ResampleConfig):
    """Oversample the minority class of (X, y) with synthetic points.

    X is a 2-d array-like of numbers; it is never modified. Returns
    (X_aug, y_aug) as a new array of float64 rows and int64 labels, the
    original rows first and bit-for-bit untouched, then the rows of
    smote_triples(X, y, cfg); y_aug is resampled_labels(y, cfg).
    """
    X = np.asarray(X, dtype=np.float64)
    seeds, nbrs, gammas, y_aug = smote_triples(X, y, cfg)
    return np.vstack([X, kernels.interpolate_rows(X, seeds, nbrs, gammas)]), y_aug
