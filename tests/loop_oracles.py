"""Reference versions of the numeric kernels and of fold dealing.

The ``_loops`` functions run every sum element by element in a fixed order,
so they are slow but easy to check by eye. ``test_kernels.py`` holds the
vectorized kernels to them: exactly for neighbour search and interpolation,
within stated tolerances for the logistic-regression arithmetic, whose
summation order differs.

``fold_assignment_loops`` deals shuffled documents to folds one at a time,
positives first, as ``eval.make_folds`` does in one vectorized step.

``logreg_descent_numpy`` is gradient descent on one cell with numpy
vectors, with no stacking. The tests hold every cell of a batched descent
to it within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np


def logreg_loss_grad_loops(X, y, w, b, l2):
    n, d = X.shape
    loss = 0.0
    gw = np.zeros(d)
    gb = 0.0
    for i in range(n):
        z = b
        for j in range(d):
            z += X[i, j] * w[j]
        a = abs(z)
        e = math.exp(-a)
        loss += max(z, 0.0) + math.log1p(e) - y[i] * z
        if z >= 0.0:
            p = 1.0 / (1.0 + e)
        else:
            p = e / (1.0 + e)
        r = p - y[i]
        gb += r
        for j in range(d):
            gw[j] += r * X[i, j]
    loss /= n
    gb /= n
    ww = 0.0
    for j in range(d):
        gw[j] = gw[j] / n + l2 * w[j]
        ww += w[j] * w[j]
    loss += 0.5 * l2 * ww
    return loss, gw, gb


def logreg_descent_loops(X, y, learning_rate, l2, max_epochs, tol):
    """Returns (w, b, losses, count, diverged); losses[:count] is the history."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    losses = np.empty(max_epochs + 1)
    count = 0
    diverged = False
    for epoch in range(max_epochs):
        loss, gw, gb = logreg_loss_grad_loops(X, y, w, b, l2)
        losses[epoch] = loss
        count = epoch + 1
        if not math.isfinite(loss):
            diverged = True
            return w, b, losses, count, diverged
        gnorm = abs(gb)
        for j in range(d):
            a = abs(gw[j])
            if a > gnorm:
                gnorm = a
        if gnorm < tol:
            return w, b, losses, count, diverged
        for j in range(d):
            w[j] -= learning_rate * gw[j]
        b -= learning_rate * gb
    loss, gw, gb = logreg_loss_grad_loops(X, y, w, b, l2)
    losses[max_epochs] = loss
    count = max_epochs + 1
    diverged = not math.isfinite(loss)
    return w, b, losses, count, diverged


def logreg_loss_grad_numpy(X, y, w, b, l2):
    n = X.shape[0]
    z = X @ w + b
    e = np.exp(-np.abs(z))
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z))
    loss += 0.5 * l2 * float(w @ w)
    p = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    r = (p - y) / n
    gw = X.T @ r + l2 * w
    gb = float(r.sum())
    return loss, gw, gb


def logreg_descent_numpy(X, y, learning_rate, l2, max_epochs, tol):
    """Returns (w, b, losses, diverged) as kernels.logreg_descent does."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    losses = np.empty(max_epochs + 1)
    for epoch in range(max_epochs):
        loss, gw, gb = logreg_loss_grad_numpy(X, y, w, b, l2)
        losses[epoch] = loss
        if not math.isfinite(loss):
            return w, b, losses[: epoch + 1], True
        gnorm = max(float(np.max(np.abs(gw))) if d else 0.0, abs(gb))
        if gnorm < tol:
            return w, b, losses[: epoch + 1], False
        w = w - learning_rate * gw
        b = b - learning_rate * gb
    loss, _, _ = logreg_loss_grad_numpy(X, y, w, b, l2)
    losses[max_epochs] = loss
    return w, b, losses, not math.isfinite(loss)


def minority_knn_loops(M, k):
    n, d = M.shape
    k_eff = min(k, n - 1)
    out = np.empty((n, k_eff), dtype=np.int64)
    d2 = np.empty(n)
    for i in range(n):
        for j in range(n):
            s = 0.0
            for c in range(d):
                t = M[j, c] - M[i, c]
                s += t * t
            d2[j] = s
        d2[i] = np.inf
        order = np.argsort(d2, kind="mergesort")
        for m in range(k_eff):
            out[i, m] = order[m]
    return out


def interpolate_rows_loops(M, seed_pos, nbr_pos, gammas):
    m = seed_pos.shape[0]
    d = M.shape[1]
    out = np.empty((m, d))
    for i in range(m):
        s = seed_pos[i]
        nb = nbr_pos[i]
        g = gammas[i]
        for c in range(d):
            sv = M[s, c]
            out[i, c] = sv + g * (M[nb, c] - sv)
    return out


def fold_assignment_loops(y, perm, n_folds):
    fold = np.empty(len(y), dtype=np.int64)
    counter = 0
    for cls in (1, 0):
        for idx in perm:
            if y[idx] == cls:
                fold[idx] = counter % n_folds
                counter += 1
    return fold
