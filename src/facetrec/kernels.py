"""Hot numeric kernels with a numba backend and a pure-numpy fallback.

Two code paths exist for each kernel:

* ``*_numpy``  -- vectorized numpy, always available.
* ``*_numba``  -- loop-style implementations compiled with ``numba.njit``
  (``None`` when numba is unavailable or disabled).

The active backend is chosen once at import time from the environment
variable ``FACETREC_BACKEND``:

* ``auto`` (default): numba when it imports, numpy otherwise.
* ``numba``: force numba; raise if it cannot be imported.
* ``numpy``: force the pure-numpy path.

Both paths implement identical update rules; results agree to floating-point
roundoff (summation order differs). ``benchmarks/bench_kernels.py`` compares
their throughput.

``logreg_descent_batched`` has no numba twin: it trains a stack of
same-shape cells in one numpy loop, with the update rules of
``logreg_descent_numpy``; the tests hold each cell to that kernel's result
within 1e-12.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_VAR = "FACETREC_BACKEND"


def _resolve_backend():
    choice = os.environ.get(ENV_VAR, "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise RuntimeError(f"{ENV_VAR} must be 'auto', 'numba' or 'numpy', got {choice!r}")
    if choice == "numpy":
        return "numpy", None
    try:
        import numba
    except ImportError:
        if choice == "numba":
            raise RuntimeError(f"{ENV_VAR}=numba but numba is not importable")
        return "numpy", None
    return "numba", numba


BACKEND, _numba = _resolve_backend()


# ---------------------------------------------------------------------------
# logistic regression: full-batch gradient descent
# ---------------------------------------------------------------------------
#
# Loss: mean_i [ softplus(z_i) - y_i * z_i ] + (l2/2) * ||w||^2,  z = Xw + b,
# with y in {0, 1}. The bias is not regularized. softplus is evaluated in the
# overflow-safe form max(z, 0) + log1p(exp(-|z|)).


def logreg_loss_grad_numpy(X, y, w, b, l2):
    """Loss, weight gradient and bias gradient at (w, b)."""
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
    """Gradient descent from zero init. Returns (w, b, losses, diverged).

    ``losses`` holds the objective at every visited parameter state (initial
    state included), so it has one more entry than the number of updates.
    Stops early when the gradient max-norm over (w, b) drops below ``tol``
    or the loss becomes non-finite (``diverged=True``).
    """
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


def _logreg_loss_grad_batched(X, y, w, b, l2):
    # logreg_loss_grad_numpy for every cell of a (cells, rows, dim) stack.
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
    """logreg_descent_numpy on every cell of a stack, in one loop.

    ``X`` is (cells, rows, dim) and ``y`` is (cells, rows). Returns
    (W, B, losses, diverged): (cells, dim) weights, (cells,) biases, a list
    with each cell's loss history, and a (cells,) bool array. Every cell
    stops by the per-cell rules, at the same epoch and with the same
    history length as logreg_descent_numpy on that cell alone. A stopped
    cell leaves the stack, so the rest carry on without it.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    cells, _, d = X.shape
    W = np.zeros((cells, d))
    B = np.zeros(cells)
    losses = np.empty((cells, max_epochs + 1))
    lengths = np.empty(cells, dtype=np.int64)
    diverged = np.zeros(cells, dtype=bool)
    live = np.arange(cells)
    w, b = W.copy(), B.copy()
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


def _logreg_loss_grad_loops(X, y, w, b, l2):
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


def _logreg_descent_loops(X, y, learning_rate, l2, max_epochs, tol):
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    losses = np.empty(max_epochs + 1)
    count = 0
    diverged = False
    for epoch in range(max_epochs):
        loss, gw, gb = _logreg_loss_grad_loops(X, y, w, b, l2)
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
    loss, gw, gb = _logreg_loss_grad_loops(X, y, w, b, l2)
    losses[max_epochs] = loss
    count = max_epochs + 1
    diverged = not math.isfinite(loss)
    return w, b, losses, count, diverged


# ---------------------------------------------------------------------------
# SMOTE: nearest minority neighbors and segment interpolation
# ---------------------------------------------------------------------------


def minority_knn_numpy(M, k):
    """Per row of M: positions of its k nearest other rows (Euclidean).

    Distance ties break toward the lower row position (stable sort).
    k is clipped to n-1. Returns an (n, k_eff) int64 array.
    """
    n = M.shape[0]
    k_eff = min(k, n - 1)
    out = np.empty((n, k_eff), dtype=np.int64)
    for i in range(n):
        diff = M - M[i]
        d2 = (diff * diff).sum(axis=1)
        d2[i] = np.inf
        order = np.argsort(d2, kind="stable")
        out[i] = order[:k_eff]
    return out


def _minority_knn_loops(M, k):
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


def interpolate_rows_numpy(M, seed_pos, nbr_pos, gammas):
    """Rows M[s] + gamma * (M[n] - M[s]) for each (s, n, gamma) triple."""
    S = M[seed_pos]
    N = M[nbr_pos]
    return S + gammas[:, None] * (N - S)


def _interpolate_rows_loops(M, seed_pos, nbr_pos, gammas):
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


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

if BACKEND == "numba":
    _njit = _numba.njit
    # Rebind the loop twins themselves so the compiled descent resolves the
    # compiled loss/grad helper, not the plain-Python original.
    _logreg_loss_grad_loops = _njit(cache=True)(_logreg_loss_grad_loops)
    _logreg_descent_loops = _njit(cache=True)(_logreg_descent_loops)
    _minority_knn_loops = _njit(cache=True)(_minority_knn_loops)
    _interpolate_rows_loops = _njit(cache=True)(_interpolate_rows_loops)
    logreg_loss_grad_numba = _logreg_loss_grad_loops
    _logreg_descent_numba_core = _logreg_descent_loops
    minority_knn_numba = _minority_knn_loops
    interpolate_rows_numba = _interpolate_rows_loops
else:
    logreg_loss_grad_numba = None
    _logreg_descent_numba_core = None
    minority_knn_numba = None
    interpolate_rows_numba = None


def logreg_descent_numba(X, y, learning_rate, l2, max_epochs, tol):
    w, b, losses, count, diverged = _logreg_descent_numba_core(
        X, y, learning_rate, l2, max_epochs, tol
    )
    return w, b, losses[:count], diverged


def _as_dense64(X):
    return np.ascontiguousarray(np.asarray(X, dtype=np.float64))


def logreg_descent(X, y, learning_rate, l2, max_epochs, tol):
    X = _as_dense64(X)
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    if BACKEND == "numba":
        return logreg_descent_numba(X, y, float(learning_rate), float(l2), int(max_epochs), float(tol))
    return logreg_descent_numpy(X, y, float(learning_rate), float(l2), int(max_epochs), float(tol))


def logreg_loss_grad(X, y, w, b, l2):
    X = _as_dense64(X)
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    if BACKEND == "numba":
        return logreg_loss_grad_numba(X, y, w, float(b), float(l2))
    return logreg_loss_grad_numpy(X, y, w, float(b), float(l2))


def minority_knn(M, k):
    M = _as_dense64(M)
    if BACKEND == "numba":
        return minority_knn_numba(M, int(k))
    return minority_knn_numpy(M, int(k))


def interpolate_rows(M, seed_pos, nbr_pos, gammas):
    M = _as_dense64(M)
    seed_pos = np.ascontiguousarray(np.asarray(seed_pos, dtype=np.int64))
    nbr_pos = np.ascontiguousarray(np.asarray(nbr_pos, dtype=np.int64))
    gammas = np.ascontiguousarray(np.asarray(gammas, dtype=np.float64))
    if BACKEND == "numba":
        return interpolate_rows_numba(M, seed_pos, nbr_pos, gammas)
    return interpolate_rows_numpy(M, seed_pos, nbr_pos, gammas)
