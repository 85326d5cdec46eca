"""Hot numeric kernels: logistic-regression descent and SMOTE's geometry.

Each kernel has one vectorized numpy implementation. The public functions
coerce their inputs to contiguous float64 (int64 for row positions) once
and then run the numpy code, so lists and other array-likes are accepted.

Logistic regression has one loss/gradient and one descent loop, both over
many cells that share one feature matrix, each cell a set of its rows plus
SMOTE rows given as interpolation triples; ``logreg_loss_grad`` and
``logreg_descent`` run them on one cell of all rows. The tests keep a
per-cell numpy descent and plain-Python loop versions of the kernels as
reference implementations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _f64(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# logistic regression: full-batch gradient descent
# ---------------------------------------------------------------------------
#
# Loss: mean_i [ softplus(z_i) - y_i * z_i ] + (l2/2) * ||w||^2,  z = Xw + b,
# with y in {0, 1}. The bias is not regularized. softplus is evaluated in the
# overflow-safe form max(z, 0) + log1p(exp(-|z|)).


class LRCell(NamedTuple):
    """One cell's training set: rows of the shared matrix X with labels y,
    plus a row X[s] + g * (X[n] - X[s]) labelled ``minority`` for each
    SMOTE triple (s, n, g) of seeds, nbrs and gammas."""

    rows: np.ndarray
    y: np.ndarray
    seeds: np.ndarray = np.empty(0, dtype=np.int64)
    nbrs: np.ndarray = np.empty(0, dtype=np.int64)
    gammas: np.ndarray = np.empty(0)
    minority: int = 1


def logreg_loss_grad(X, y, w, b, l2):
    """Loss, weight gradient and bias gradient at (w, b)."""
    X = _f64(X)
    loss_grad = _operator(X, [LRCell(np.arange(len(X)), y)])
    loss, gw, gb = loss_grad(_f64(w)[None], np.array([float(b)]), float(l2))
    return float(loss[0]), gw[0], float(gb[0])


def logreg_descent(X, y, learning_rate, l2, max_epochs, tol):
    """Gradient descent from zero init. Returns (w, b, losses, diverged).

    ``losses`` holds the objective at every visited parameter state (initial
    state included), so it has one more entry than the number of updates.
    Stops early when the gradient max-norm over (w, b) drops below ``tol``
    or the loss becomes non-finite (``diverged=True``).
    """
    X = _f64(X)
    cell = LRCell(np.arange(len(X)), y)
    W, B, losses, diverged = logreg_descent_cells(X, [cell], learning_rate, l2, max_epochs, tol)
    return W[0], float(B[0]), losses[0], bool(diverged[0])


def _cat(arrays, dtype):
    return np.concatenate([np.empty(0, dtype), *arrays]).astype(dtype)


def _operator(X, cells):
    """loss_grad(W, B, l2) of every cell over one shared matrix X, with W
    (cells x dim) and B (cells,): losses, weight and bias gradients.

    With Z = W @ X.T + B, a cell's own rows have their logits in its row
    of Z, and a SMOTE row's logit is z_s + g * (z_n - z_s). Residuals
    scatter back onto the same rows, a SMOTE row's onto s and n with
    weights 1 - g and g, so the weight gradient is R @ X. Rows outside a
    cell never enter its loss or residuals, not even times zero.
    """
    width, n_docs = len(cells), len(X)
    own = np.repeat(np.arange(width), [len(c.rows) for c in cells])
    syn = np.repeat(np.arange(width), [len(c.seeds) for c in cells])
    m, cell = len(own), np.concatenate([own, syn])
    # Positions in Z.ravel(): own rows, then each triple's s, then its n.
    at = np.concatenate([
        own * n_docs + _cat([c.rows for c in cells], np.int64),
        syn * n_docs + _cat([c.seeds for c in cells], np.int64),
        syn * n_docs + _cat([c.nbrs for c in cells], np.int64),
    ])
    g = _cat([c.gammas for c in cells], np.float64)
    y = _cat([c.y for c in cells] + [np.full(len(c.seeds), c.minority) for c in cells], np.float64)
    n = np.bincount(cell, minlength=width).astype(np.float64)

    def loss_grad(W, B, l2):
        z_all = np.take(W @ X.T + B[:, None], at)
        z, z_n = z_all[: len(cell)], z_all[len(cell):]
        z[m:] += g * (z_n - z[m:])  # each SMOTE row's z_s becomes z_s + g (z_n - z_s)
        e = np.exp(-np.abs(z))
        loss = np.bincount(cell, np.maximum(z, 0.0) + np.log1p(e) - y * z, minlength=width) / n
        loss += 0.5 * l2 * np.einsum("ij,ij->i", W, W)
        r = (np.where(z >= 0.0, 1.0, e) / (1.0 + e) - y) / n[cell]
        gr = g * r[m:]
        R = np.bincount(at, np.concatenate([r[:m], r[m:] - gr, gr]), minlength=width * n_docs)
        gw = R.reshape(width, n_docs) @ X + l2 * W
        return loss, gw, np.bincount(cell, r, minlength=width)

    return loss_grad


def logreg_descent_cells(X, cells, learning_rate, l2, max_epochs, tol):
    """Gradient descent from zero init on every cell over one matrix X.

    ``cells`` is a sequence of ``LRCell``; no cell's rows are copied out of
    X. Returns (W, B, losses, diverged): (cells, dim) weights, (cells,)
    biases, a list with each cell's loss history, and a (cells,) bool
    array. Each cell stops by the rules of ``logreg_descent``, at the epoch
    it would stop at alone, and then leaves the descent.
    """
    X = _f64(X)
    learning_rate, l2, max_epochs, tol = float(learning_rate), float(l2), int(max_epochs), float(tol)
    loss_grad = _operator(X, cells)
    n_cells, d = len(cells), X.shape[1]
    W = np.zeros((n_cells, d))
    B = np.zeros(n_cells)
    losses = np.empty((n_cells, max_epochs + 1))
    lengths = np.empty(n_cells, dtype=np.int64)
    diverged = np.zeros(n_cells, dtype=bool)
    live = np.arange(n_cells)
    w, b = W.copy(), B.copy()
    # A diverging cell overflows on its way to a non-finite loss; that is
    # reported through ``diverged``, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(max_epochs + 1):
            if not live.size:
                break
            loss, gw, gb = loss_grad(w, b, l2)
            losses[live, epoch] = loss
            bad = ~np.isfinite(loss)
            gnorm = np.maximum(np.abs(gw).max(axis=1, initial=0.0), np.abs(gb))
            stop = bad | (gnorm < tol) | (epoch == max_epochs)
            if stop.any():
                done = live[stop]
                W[done], B[done] = w[stop], b[stop]
                lengths[done] = epoch + 1
                diverged[done] = bad[stop]
                live, w, b, gw, gb = (v[~stop] for v in (live, w, b, gw, gb))
                loss_grad = _operator(X, [cells[i] for i in live])
            w -= learning_rate * gw
            b -= learning_rate * gb
    return W, B, [losses[i, : lengths[i]] for i in range(n_cells)], diverged


# ---------------------------------------------------------------------------
# SMOTE: nearest minority neighbors and segment interpolation
# ---------------------------------------------------------------------------


def minority_knn(M, k):
    """Per row of M: positions of its k nearest other rows (Euclidean).

    Distance ties break toward the lower row position (stable sort).
    k is clipped to n-1. Returns an (n, k_eff) int64 array.
    """
    M = _f64(M)
    n = M.shape[0]
    k_eff = min(int(k), n - 1)
    out = np.empty((n, k_eff), dtype=np.int64)
    for i in range(n):
        diff = M - M[i]
        d2 = (diff * diff).sum(axis=1)
        d2[i] = np.inf
        order = np.argsort(d2, kind="stable")
        out[i] = order[:k_eff]
    return out


def interpolate_rows(M, seed_pos, nbr_pos, gammas):
    """Rows M[s] + gamma * (M[n] - M[s]) for each (s, n, gamma) triple."""
    M = _f64(M)
    S = M[np.asarray(seed_pos, dtype=np.int64)]
    N = M[np.asarray(nbr_pos, dtype=np.int64)]
    return S + _f64(gammas)[:, None] * (N - S)
