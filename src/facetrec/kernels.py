"""Hot numeric kernels: logistic-regression descent and SMOTE's geometry.

Each kernel has one vectorized numpy implementation. The public functions
coerce their inputs to contiguous float64 (int64 for row positions) once
and then run the numpy code, so lists and other array-likes are accepted.

Logistic regression has one loss/gradient and one descent loop, both over
a stack of same-shape cells; ``logreg_loss_grad`` and ``logreg_descent``
run them on a stack of one. The tests keep a per-cell numpy descent and
plain-Python loop versions of the kernels as reference implementations.
"""

from __future__ import annotations

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


def logreg_loss_grad(X, y, w, b, l2):
    """Loss, weight gradient and bias gradient at (w, b)."""
    loss, gw, gb = _logreg_loss_grad_batched(
        _f64(X)[None], _f64(y)[None], _f64(w)[None], np.array([float(b)]), float(l2)
    )
    return float(loss[0]), gw[0], float(gb[0])


def logreg_descent(X, y, learning_rate, l2, max_epochs, tol):
    """Gradient descent from zero init. Returns (w, b, losses, diverged).

    ``losses`` holds the objective at every visited parameter state (initial
    state included), so it has one more entry than the number of updates.
    Stops early when the gradient max-norm over (w, b) drops below ``tol``
    or the loss becomes non-finite (``diverged=True``).
    """
    W, B, losses, diverged = logreg_descent_batched(
        _f64(X)[None], _f64(y)[None], learning_rate, l2, max_epochs, tol
    )
    return W[0], float(B[0]), losses[0], bool(diverged[0])


def _logreg_loss_grad_batched(X, y, w, b, l2):
    # Loss, weight and bias gradients of every cell of a (cells, rows, dim)
    # stack, at that cell's (w, b).
    n = X.shape[1]
    z = (X @ w[:, :, None])[:, :, 0] + b[:, None]
    e = np.exp(-np.abs(z))
    loss = (np.maximum(z, 0.0) + np.log1p(e) - y * z).sum(axis=1) / n
    loss += 0.5 * l2 * (w[:, None, :] @ w[:, :, None])[:, 0, 0]
    p = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    r = (p - y) / n
    gw = (X.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0] + l2 * w
    gb = r.sum(axis=1)
    return loss, gw, gb


def logreg_descent_batched(X, y, learning_rate, l2, max_epochs, tol):
    """Gradient descent from zero init on every cell of a stack, in one loop.

    ``X`` is (cells, rows, dim) and ``y`` is (cells, rows). Returns
    (W, B, losses, diverged): (cells, dim) weights, (cells,) biases, a list
    with each cell's loss history, and a (cells,) bool array. Each cell
    stops by the rules of ``logreg_descent``, at the epoch it would stop at
    alone. A stopped cell leaves the stack, so the rest carry on without it.
    """
    X, y = _f64(X), _f64(y)
    learning_rate, l2, max_epochs, tol = float(learning_rate), float(l2), int(max_epochs), float(tol)
    cells, _, d = X.shape
    W = np.zeros((cells, d))
    B = np.zeros(cells)
    losses = np.empty((cells, max_epochs + 1))
    lengths = np.empty(cells, dtype=np.int64)
    diverged = np.zeros(cells, dtype=bool)
    live = np.arange(cells)
    w, b = W.copy(), B.copy()
    # A diverging cell overflows on its way to a non-finite loss; that is
    # reported through ``diverged``, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(max_epochs + 1):
            loss, gw, gb = _logreg_loss_grad_batched(X, y, w, b, l2)
            losses[live, epoch] = loss
            bad = ~np.isfinite(loss)
            if epoch == max_epochs:
                stop = np.ones(len(live), dtype=bool)
            else:
                gnorm = np.maximum(np.abs(gw).max(axis=1, initial=0.0), np.abs(gb))
                stop = bad | (gnorm < tol)
            if stop.any():
                done = live[stop]
                W[done], B[done] = w[stop], b[stop]
                lengths[done] = epoch + 1
                diverged[done] = bad[stop]
                keep = ~stop
                if not keep.any():
                    break
                live, X, y, w, b, gw, gb = (a[keep] for a in (live, X, y, w, b, gw, gb))
            w = w - learning_rate * gw
            b = b - learning_rate * gb
    return W, B, [losses[i, : lengths[i]] for i in range(cells)], diverged


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
