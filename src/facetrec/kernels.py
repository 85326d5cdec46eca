"""Hot numeric kernels: logistic-regression fits and SMOTE's geometry.

Each kernel has one vectorized numpy implementation. The public functions
coerce their inputs to contiguous float64 (int64 for row positions) once
and then run the numpy code, so lists and other array-likes are accepted.

Logistic regression has one objective, gradient and Hessian-vector
product and one truncated-Newton loop, all over many cells that share one
feature matrix, each cell a set of its rows plus SMOTE rows given as
interpolation triples; ``logreg_loss_grad`` and ``logreg_descent`` run them
on one cell of all rows. The tests keep a per-cell dense Newton solver and
plain-Python loop versions of the kernels as reference implementations.

SMOTE's neighbour search rests on ``sq_distances``, the exact
squared-distance matrix of some rows: a Gram product on finite integer rows
of bounded norm (bag-of-words counts), where it is exact, and the diff form
one row at a time on any other rows. ``minority_knn`` takes the k nearest
per row by a stable sort of that matrix. A caller that searches many
overlapping sets of rows, as the folds of one facet are, sorts the matrix
of all of them once (``neighbour_order``) and restricts that order to every
set in one pass (``knn_in_splits``), which gives the same lists, ties
included.
``minority_knn``, ``knn_from_distances`` and ``interpolate_rows`` (SMOTE's
rows from their triples) serve ``resample.smote`` and the tests alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _f64(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# logistic regression: truncated Newton over the interpolation operator
# ---------------------------------------------------------------------------
#
# Loss: mean_i [ softplus(z_i) - y_i * z_i ] + (l2/2) * ||w||^2,  z = Xw + b,
# with y in {0, 1}. The bias is not regularized. softplus is evaluated in the
# overflow-safe form max(z, 0) + log1p(exp(-|z|)).
#
# Each Newton iteration solves H d = -g by conjugate gradients, stopped by
# the forcing term ||H d + g|| <= min(0.5, sqrt(||g||)) ||g|| (Eisenstat &
# Walker 1996) or after _CG_MAX Hessian products, then backtracks from the
# full step, halving it until f(x + t d) <= f(x) + _ARMIJO_C t g.d. This is
# the Newton-CG family of liblinear's logistic regression (Lin, Weng &
# Keerthi 2008), with a line search in place of its trust region.

_CG_MAX = 50  # Hessian products per Newton iteration
_ARMIJO_C = 1e-4  # sufficient decrease of the line search
_MAX_HALVINGS = 30  # a cell whose step 2**-30 still fails Armijo stops there


class LRCell(NamedTuple):
    """One cell's training set, for every model kind: rows of the shared
    matrix X with labels y (0 or 1), plus a row X[s] + g * (X[n] - X[s])
    labelled ``minority`` per SMOTE triple (s, n, g) of seeds, nbrs, gammas."""

    rows: np.ndarray
    y: np.ndarray
    seeds: np.ndarray = np.empty(0, dtype=np.int64)
    nbrs: np.ndarray = np.empty(0, dtype=np.int64)
    gammas: np.ndarray = np.empty(0)
    minority: int = 1


def logreg_loss_grad(X, y, w, b, l2):
    """Loss, weight gradient and bias gradient at (w, b)."""
    X = _f64(X)
    op = _Operator(X, [LRCell(np.arange(len(X)), y)])
    W = _f64(w)[None]
    z = op.forward(W, np.array([float(b)]))
    gw, gb, _ = op.gradient(z, W, float(l2))
    return float(op.objective(z, W, float(l2))[0]), gw[0], float(gb[0])


def logreg_descent(X, y, l2, max_iter, tol):
    """Truncated-Newton fit of one cell of all rows of X, from zero init.

    Returns (w, b, losses, converged, diverged) by the rules of
    ``logreg_descent_cells``.
    """
    X = _f64(X)
    W, B, losses, converged, diverged = logreg_descent_cells(X, [LRCell(np.arange(len(X)), y)], l2, max_iter, tol)
    return W[0], float(B[0]), losses[0], bool(converged[0]), bool(diverged[0])


def _cat(arrays, dtype):
    return np.concatenate([np.empty(0, dtype), *arrays]).astype(dtype)


class _Operator:
    """The logits of many cells over one shared matrix X, and their adjoint.

    ``forward(W, B)`` maps (cells x dim) weights and (cells,) biases to one
    logit per entry: each cell's own rows, then each cell's SMOTE rows. With
    Z = W @ X.T + B, an own row's logit is in its cell's row of Z, and a
    SMOTE row's is z_s + g * (z_n - z_s). ``adjoint(r)`` is its transpose:
    per-entry values scatter back onto the same rows, a SMOTE row's onto s
    and n with weights 1 - g and g, giving (R @ X, per-cell sums of r). Rows
    outside a cell never enter its logits or products, not even times zero.
    """

    def __init__(self, X, cells):
        self.X, width, n_docs = X, len(cells), len(X)
        own = np.repeat(np.arange(width), [len(c.rows) for c in cells])
        syn = np.repeat(np.arange(width), [len(c.seeds) for c in cells])
        self.m, self.cell = len(own), np.concatenate([own, syn]).astype(np.int32)
        # Positions in Z.ravel(): own rows, then each triple's s, then its n.
        self.at = np.concatenate([
            own * n_docs + _cat([c.rows for c in cells], np.int64),
            syn * n_docs + _cat([c.seeds for c in cells], np.int64),
            syn * n_docs + _cat([c.nbrs for c in cells], np.int64),
        ])
        self.g = _cat([c.gammas for c in cells], np.float64)
        self.y = _cat([c.y for c in cells] + [np.full(len(c.seeds), c.minority) for c in cells], np.int8)
        self.n = np.bincount(self.cell, minlength=width).astype(np.float64)

    def forward(self, W, B):
        Z = W @ self.X.T
        Z += B[:, None]
        z, z_n = np.take(Z, self.at[: len(self.cell)]), np.take(Z, self.at[len(self.cell):])
        z_n -= z[self.m:]
        z_n *= self.g
        z[self.m:] += z_n
        return z

    def adjoint(self, r):
        """(R @ X, per-cell sums of r) of per-entry values r; overwrites r."""
        m, width, size = self.m, len(self.n), len(self.n) * len(self.X)
        sums = np.bincount(self.cell, r, minlength=width)
        # With no SMOTE rows the bincount is empty, and so int64.
        R = np.bincount(self.at[len(r):], self.g * r[m:], minlength=size).astype(np.float64, copy=False)
        r[m:] *= 1.0 - self.g
        R += np.bincount(self.at[: len(r)], r, minlength=size)
        return R.reshape(width, len(self.X)) @ self.X, sums

    def _mean(self, sums, l2, W):
        # An adjoint's sums over each cell's n entries as means, plus l2 W.
        gw, gb = sums
        gw /= self.n[:, None]
        gw += l2 * W
        return gw, gb / self.n

    # The per-entry arrays below are as long as all cells' rows together,
    # so they are built in place, a few at a time.

    def objective(self, z, W, l2):
        """Each cell's loss at logits z = forward(W, B)."""
        terms = np.log1p(_exp_neg_abs(z))
        terms += np.maximum(z, 0.0)
        terms -= self.y * z
        return np.bincount(self.cell, terms, minlength=len(self.n)) / self.n + 0.5 * l2 * np.einsum("ij,ij->i", W, W)

    def gradient(self, z, W, l2):
        """Weight and bias gradients at logits z = forward(W, B), and the
        per-entry curvature p (1 - p) of the Hessian there."""
        e = _exp_neg_abs(z)
        r = np.where(z >= 0.0, 1.0, e)
        r /= 1.0 + e
        r -= self.y
        e /= np.square(1.0 + e)
        return (*self._mean(self.adjoint(r), l2, W), e)

    def hessian(self, curvature, l2, V, c):
        """The Hessian at ``curvature`` times each cell's direction (V, c)."""
        # The weighted logits are freed before _mean allocates.
        return self._mean(self.adjoint(self.forward(V, c) * curvature), l2, V)


def _exp_neg_abs(z):
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _newton_direction(op, curvature, l2, gw, gb):
    """Per cell, d with H d = -g to the forcing term, by conjugate gradients.

    Cells run in one batch: a cell whose residual meets its forcing term
    steps 0 from then on, and so does one with no curvature left along its
    search direction (saturated logits, l2 = 0), keeping the step so far. A
    nan or infinite residual never meets the forcing term, so a cell whose
    products overflow gets a non-finite direction.
    """
    gg = np.einsum("ij,ij->i", gw, gw) + gb * gb
    target = np.minimum(0.25, np.sqrt(gg)) * gg  # the forcing term, squared, times ||g||^2
    dw, db = np.zeros_like(gw), np.zeros_like(gb)
    rw, rb, rr = -gw, -gb, gg
    pw, pb = rw.copy(), rb.copy()
    flat = np.zeros(len(gg), dtype=bool)
    for _ in range(_CG_MAX):
        active = ~flat & ~(np.isfinite(rr) & (rr <= target))
        if not active.any():
            break
        hw, hb = op.hessian(curvature, l2, pw, pb)
        curv = np.einsum("ij,ij->i", pw, hw) + pb * hb
        flat |= active & (curv <= 0.0)
        active &= ~flat
        alpha = np.where(active, rr, 0.0) / np.where(active, curv, 1.0)
        dw += alpha[:, None] * pw
        db += alpha * pb
        hw *= alpha[:, None]
        rw -= hw
        rb -= alpha * hb
        rr_next = np.einsum("ij,ij->i", rw, rw) + rb * rb
        beta = np.where(active, rr_next, 0.0) / np.where(active, rr, 1.0)
        pw *= beta[:, None]
        pw += rw
        pb, rr = rb + beta * pb, rr_next
        del hw  # before the next product allocates its own
    return dw, db


def _line_search(op, l2, w, b, z, f, dw, db, slope):
    """Move each cell's (w, b) and its logits z and loss f, in place, by
    the first of the steps 1, 1/2, ..., 2**-_MAX_HALVINGS along (dw, db)
    that passes Armijo; a non-finite direction is taken whole. Returns
    which cells found no such step."""
    nonfinite = ~(np.isfinite(dw).all(axis=1) & np.isfinite(db))
    t, pending = np.ones(len(f)), np.ones(len(f), dtype=bool)
    for _ in range(_MAX_HALVINGS + 1):
        w_t, b_t = w + t[:, None] * dw, b + t * db
        z_t = op.forward(w_t, b_t)
        f_t = op.objective(z_t, w_t, l2)
        ok = pending & (nonfinite | (f_t <= f + _ARMIJO_C * t * slope))
        w[ok], b[ok], f[ok] = w_t[ok], b_t[ok], f_t[ok]
        np.copyto(z, z_t, where=ok[op.cell])
        pending &= ~ok
        if not pending.any():
            break
        t[pending] *= 0.5
    return pending


def logreg_descent_cells(X, cells, l2, max_iter, tol):
    """Truncated-Newton fit from zero init of every cell over one matrix X.

    ``cells`` is a sequence of ``LRCell``; no cell's rows are copied out of
    X. Returns (W, B, losses, converged, diverged): (cells, dim) weights,
    (cells,) biases, a list with each cell's loss history (the objective at
    every visited state, the zero start included, so one entry more than
    its Newton iterations), and two (cells,) bool arrays. A cell leaves,
    with its triples, when:

    - its gradient max-norm over (w, b) drops below ``tol`` (converged);
    - its loss turns non-finite (diverged); a non-finite Newton step is
      taken whole, so a cell whose Hessian products overflow diverges;
    - it has made ``max_iter`` Newton iterations;
    - or no step of 2**-30 or more along its direction passes Armijo.
    """
    X = _f64(X)
    l2, max_iter, tol = float(l2), int(max_iter), float(tol)
    n_cells, d = len(cells), X.shape[1]
    left = []  # (cells, w, b) of each group of cells as it leaves
    converged, diverged = np.zeros(n_cells, dtype=bool), np.zeros(n_cells, dtype=bool)
    histories = [[] for _ in range(n_cells)]
    live, stalled = np.arange(n_cells), np.zeros(n_cells, dtype=bool)
    op = _Operator(X, cells)
    w, b = np.zeros((n_cells, d)), np.zeros(n_cells)
    # A diverging cell overflows on its way to a non-finite loss; that is
    # reported through ``diverged``, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = op.forward(w, b)
        f = op.objective(z, w, l2)
        for it in range(max_iter + 1):
            if not live.size:
                break
            for i, v in zip(live[~stalled].tolist(), f[~stalled].tolist()):
                histories[i].append(v)
            gw, gb, curvature = op.gradient(z, w, l2)
            gnorm = np.maximum(np.abs(gw).max(axis=1, initial=0.0), np.abs(gb))
            bad = ~np.isfinite(f)
            stop = bad | (gnorm < tol) | stalled | (it == max_iter)
            if stop.any():
                done = live[stop]
                left.append((done, w[stop], b[stop]))
                converged[done], diverged[done] = ~bad[stop] & (gnorm[stop] < tol), bad[stop]
                keep = ~stop
                # Entries are ordered by cell within own and SMOTE rows, so
                # the kept cells' entries are the new operator's, in order.
                z, curvature = z[keep[op.cell]], curvature[keep[op.cell]]
                live, w, b, f, gw, gb = (v[keep] for v in (live, w, b, f, gw, gb))
                op = _Operator(X, [cells[i] for i in live])
            dw, db = _newton_direction(op, curvature, l2, gw, gb)
            stalled = _line_search(op, l2, w, b, z, f, dw, db, np.einsum("ij,ij->i", gw, dw) + gb * db)
            # This iteration's arrays go before the next gradient allocates its own.
            del gw, gb, curvature, dw, db
    W, B = np.zeros((n_cells, d)), np.zeros(n_cells)
    for done, w, b in left:
        W[done], B[done] = w, b
    return W, B, [np.array(h) for h in histories], converged, diverged


# ---------------------------------------------------------------------------
# SMOTE: nearest minority neighbors and segment interpolation
# ---------------------------------------------------------------------------


# Below this squared row norm, every product, partial sum and result of
# the Gram form on integer rows is an integer below 2**53, and so exact.
_GRAM_NORM_BOUND = 2.0 ** 51
_CHECK_ROWS = 64  # rows per block of the integrality check


def _gram_is_exact(M, norms):
    """Whether the Gram form is exact on M: finite integer entries and every
    squared row norm (``norms``) below _GRAM_NORM_BOUND. The integrality
    check runs a block of rows at a time, so it needs no M-sized temporary."""
    # A nan or infinite entry makes its row's norm nan or inf, which fails.
    if not len(M) or not norms.max() < _GRAM_NORM_BOUND:
        return False
    buf = np.empty((min(len(M), _CHECK_ROWS), M.shape[1]))
    for start in range(0, len(M), _CHECK_ROWS):
        block = M[start:start + _CHECK_ROWS]
        frac = buf[: len(block)]
        np.trunc(block, out=frac)
        np.subtract(block, frac, out=frac)
        if frac.any():
            return False
    return True


def sq_distances(M):
    """Squared Euclidean distances between the rows of M, as an (n, n)
    float64 array.

    Row i is the diff form ((M - M[i]) ** 2).sum(axis=1), so an entry
    depends only on its two rows, never on the other rows of M, and a
    distance block sliced from the matrix of a larger M equals, bit for bit,
    the matrix of that block's rows alone. When every entry of M is a finite
    integer and every squared row norm is below 2**51 (bag-of-words counts),
    the matrix is computed as |a|^2 + |b|^2 - 2 (M @ M.T): every product,
    partial sum and result is then an integer below 2**53, exact in any
    summation order, so it equals the diff form bit for bit. Any other M
    (averaged word vectors, a nan or infinite entry, counts past the bound)
    takes the diff form, one row at a time.
    """
    M = _f64(M)
    norms = np.einsum("ij,ij->i", M, M)
    if _gram_is_exact(M, norms):
        out = M @ M.T
        out *= -2.0
        out += norms[:, None]
        out += norms
        return out
    out = np.empty((M.shape[0], M.shape[0]))
    diff = np.empty_like(M)  # one buffer, squared in place, for every row
    for i in range(M.shape[0]):
        np.subtract(M, M[i], out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=out[i])
    return out


def knn_from_distances(D, k):
    """Per row of the square distance block D: positions of its k nearest
    other rows.

    The diagonal is ignored (a copy of D gets inf there). Distance ties
    break toward the lower row position (stable sort). k is clipped to
    n-1. Returns an (n, k_eff) int64 array.
    """
    D = np.array(D, dtype=np.float64)
    np.fill_diagonal(D, np.inf)
    k_eff = min(int(k), D.shape[0] - 1)
    return np.ascontiguousarray(np.argsort(D, axis=1, kind="stable")[:, :k_eff], dtype=np.int64)


def neighbour_order(M):
    """Per row of M, every row position of M from nearest to farthest: the
    stable argsort of sq_distances(M) with inf on its diagonal, as an (n, n)
    int64 array. Ties break toward the lower row position. The distance
    matrix is freed once the order exists.

    When every distance is an integer (bag-of-words counts) small enough
    for int64 keys distance * n + position, each row sorts as those keys,
    with the diagonal's above every distance: they order exactly as the
    stable argsort does, and sort several times faster.
    """
    D = sq_distances(M)
    n = len(D)
    np.fill_diagonal(D, 0.0)
    top = np.abs(D).max(initial=0.0) + 1.0  # nan or inf if some distance is
    if top * n + n < 2.0 ** 62 and np.array_equal(D, np.trunc(D)):
        keys = D.astype(np.int64)
        del D
        np.fill_diagonal(keys, int(top))
        keys *= n
        keys += np.arange(n)
        keys.sort(axis=1)
        keys %= n
        return keys
    np.fill_diagonal(D, np.inf)
    return np.argsort(D, axis=1, kind="stable").astype(np.int64, copy=False)


def knn_in_splits(order, held, k):
    """Per row h of the (splits, n) bool array ``held``, which marks the
    rows a split leaves out: for each row position a of the split, in
    ascending order, the first k_eff entries of order[a] that are in the
    split, as positions in the split, with k_eff = min(k, split size - 1).
    Returns a list of one (split size, k_eff) int64 array per split.

    ``order`` is neighbour_order of some rows. A split's columns are a
    subsequence of those rows, in ascending position, so a stable order
    restricted to them is the split's own stable order: the result equals
    minority_knn of the split's rows, ties included. Each order[a] is a
    permutation, so a row of the split meets every row of the split once,
    itself last (at distance inf), and the first k_eff are its neighbours.

    A row's first k_eff neighbours in a split lie among the first k + h
    entries of its order, h being the rows the split leaves out, so one
    pass over the first k + max(h) columns serves every split: per split,
    each row of it keeps the entries in the split, up to k_eff of them,
    and those become positions in the split.
    """
    order, held = np.asarray(order, dtype=np.int64), np.asarray(held, dtype=bool)
    n = len(order)
    sizes = n - held.sum(axis=1)
    k_eff = np.clip(np.minimum(int(k), sizes - 1), 0, None)
    first = order[:, : min(n, int(k) + int((n - sizes).max(initial=0)))]
    keep = ~held[:, first]  # (splits, rows, columns): whether each entry is in the split
    keep &= ~held[:, :, None]  # ... and its row too
    keep &= np.cumsum(keep, axis=2, dtype=np.int32) <= k_eff[:, None, None]
    split, row, col = np.nonzero(keep)  # per split, k_eff entries of each of its rows in order
    position = np.cumsum(~held, axis=1, dtype=np.int64) - 1  # of each row in each split
    nbrs = position[split, first[row, col]]
    blocks = np.split(nbrs, np.cumsum(sizes * k_eff)[:-1])
    return [block.reshape(size, ke) for block, size, ke in zip(blocks, sizes.tolist(), k_eff.tolist())]


def minority_knn(M, k):
    """Per row of M: positions of its k nearest other rows (Euclidean).

    The composition knn_from_distances(sq_distances(M), k): distance ties
    break toward the lower row position and k is clipped to n-1. Returns an
    (n, k_eff) int64 array.
    """
    return knn_from_distances(sq_distances(M), k)


def interpolate_rows(M, seed_pos, nbr_pos, gammas):
    """Rows M[s] + gamma * (M[n] - M[s]) for each (s, n, gamma) triple.

    Built in place in the gathered M[n] rows, with one temporary (M[s]).
    """
    M = _f64(M)
    S = M[np.asarray(seed_pos, dtype=np.int64)]
    out = M[np.asarray(nbr_pos, dtype=np.int64)]
    out -= S
    out *= _f64(gammas)[:, None]
    out += S
    return out
