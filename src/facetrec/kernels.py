"""Hot numeric kernels: logistic-regression fits and SMOTE's geometry.

Each kernel has one vectorized numpy implementation. The public functions
coerce their inputs to contiguous float64 (int64 for row positions) once
and then run the numpy code, so lists and other array-likes are accepted.

Logistic regression has one objective, gradient and Hessian-vector
product and one truncated-Newton loop, all over many cells that share one
feature matrix, each cell a set of its rows plus SMOTE rows given as
interpolation triples; ``logreg_loss_grad`` and ``logreg_descent`` run them
on one cell of all rows. A matrix with fewer rows than columns (and a
finite Gram matrix) is fitted in one coefficient per row, so that each
Hessian product is one product with its Gram matrix; any other matrix in
the weights themselves. Both bases run through the same Newton loop and
conjugate gradients, in workspaces sized once per Newton iteration. The
tests keep a per-cell dense Newton solver and plain-Python loop versions of
the kernels as reference implementations.

SMOTE's neighbour search rests on ``sq_distances``, the exact
squared-distance matrix of some rows: a Gram product on finite integer rows
of bounded norm (bag-of-words counts), where it is exact, and the diff form
one row at a time on any other rows. ``neighbour_order`` sorts that matrix
of all rows once, and ``knn_in_splits`` restricts the order to many
overlapping sets of rows in one pass, as the training splits of one facet
are; a set's lists are its own stable sort's, ties included. Every SMOTE
draw takes its neighbours so, through ``resample``'s cell planner.
``minority_knn`` is the same search on one set of all rows, and
``interpolate_rows`` (SMOTE's rows from their triples) serves
``resample.smote``.
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
# Walker 1996), by ||H d + g|| <= _CG_FLOOR tol (a step solved further
# than the stop rule can see is wasted work) or after _CG_MAX Hessian
# products, then backtracks from the full step, halving it until
# f(x + t d) <= f(x) + _ARMIJO_C t g.d. This is the Newton-CG family of
# liblinear's logistic regression (Lin, Weng & Keerthi 2008), with a line
# search in place of its trust region.
#
# Every gradient, Hessian product and so every step from the zero start
# lies in the span of X's rows, w = a X for one coefficient per document.
# When X has fewer rows than columns and a finite Gram matrix G = X X^T,
# the fit runs in those coefficients (the document basis): w's logits are
# a G and |w|^2 = a G a^T, and each vector carries its logits image a G
# beside a, so a Hessian product costs one (cells x docs)(docs x docs)
# product. Any other X keeps the weights themselves (the weight basis), at
# two (cells x docs x columns) products per Hessian product.

_CG_MAX = 50  # Hessian products per Newton iteration
_CG_FLOOR = 0.1  # conjugate gradients stop at a residual below this times tol
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


def _gram(X):
    """G = X X^T when X has fewer rows than columns and G is finite (the
    document basis), else None (the weight basis)."""
    if len(X) >= X.shape[1]:
        return None
    G = X @ X.T
    return G if np.isfinite(G).all() else None


def _rows(buf, rows, cols):
    """The first rows * cols entries of the flat array ``buf`` as a
    (rows, cols) array."""
    return buf[: rows * cols].reshape(rows, cols)


class _Operator:
    """The logits of many cells over one shared matrix X, and their adjoint.

    A cell's vector is a row of a (cells, dim) array whose first ``k``
    columns are its coefficients: its weights w (the weight basis, G None,
    k = dim = X's columns), or one per document, w = a X, followed by the
    image a G (the document basis, k = docs, dim = 2 docs).

    ``forward(W, B)`` maps vectors W and (cells,) biases B to one logit per
    entry: each cell's own rows, then each cell's SMOTE rows. With
    Z = w X^T + B per cell, an own row's logit is in its cell's row of Z,
    and a SMOTE row's is z_s + g * (z_n - z_s). The adjoint is its
    transpose, one scatter in both bases: per-entry values add back onto
    the same rows, a SMOTE row's onto s and n with weights 1 - g and g,
    into a (cells, docs) array R whose row sums are the cells' sums of the
    values. The coefficients are R X in the weight basis and R itself in
    the document basis.

    A row outside a cell enters the cell's products only times a zero
    coefficient, which leaves them as they are: X is finite in the weight
    basis, and so is G in the document basis.

    A Hessian product runs in a workspace sized for these cells. It is
    what ``forward`` and ``hessian`` return views of: a forward's logits
    hold until the next forward or Hessian product, and a product until
    the next product.
    """

    def __init__(self, X, cells, G=None):
        self.X, self.G, width, n_docs = X, G, len(cells), len(X)
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
        self.k = X.shape[1] if G is None else n_docs
        self.dim = self.k if G is None else 2 * n_docs
        self._entries, self._smote = np.empty(len(self.cell)), np.empty(len(self.g))
        # Logits, then their scatter, then l2 times a vector's coefficients.
        z_buf = np.empty(width * max(n_docs, self.k))
        self._Z, self._l2v = _rows(z_buf, width, n_docs), _rows(z_buf, width, self.k)
        self._H = np.empty((width, self.dim))  # the Hessian product

    def forward(self, W, B):
        Z = self._Z
        if self.G is None:
            np.matmul(W, self.X.T, out=Z)
            Z += B[:, None]
        else:
            np.add(W[:, self.k:], B[:, None], out=Z)
        # A take into ``out`` buffers the result unless it cannot raise.
        z = np.take(Z, self.at[: len(self.cell)], out=self._entries, mode="clip")
        z_n = np.take(Z, self.at[len(self.cell):], out=self._smote, mode="clip")
        z_n -= z[self.m:]
        z_n *= self.g
        z[self.m:] += z_n
        return z

    def _scatter(self, r):
        """R, the (cells, docs) sums of per-entry values r onto their rows
        (a SMOTE row's onto s and n with weights 1 - g and g), and each
        cell's sum of r, which is R's row sum as the weights 1 - g and g sum
        to 1. R is the logits' workspace; r is overwritten."""
        k, m, R = len(self.cell), self.m, self._Z
        R.fill(0.0)
        np.add.at(R.reshape(-1), self.at[k:], np.multiply(r[m:], self.g, out=self._smote))
        r[m:] *= np.subtract(1.0, self.g, out=self._smote)
        np.add.at(R.reshape(-1), self.at[:k], r)
        return R, R.sum(axis=1)

    def _mean_adjoint(self, r, l2, V, out):
        """Each cell's mean of the adjoint of per-entry values r, plus l2
        times V's coefficients, as a vector in ``out``, and the per-cell
        means of r (the bias part). Overwrites r."""
        R, sums = self._scatter(r)
        coef = out[:, : self.k]
        if self.G is None:  # the weight basis's coefficients are R X
            R = np.matmul(R, self.X, out=coef)
        np.divide(R, self.n[:, None], out=coef)
        coef += np.multiply(V[:, : self.k], l2, out=self._l2v)
        return self.lift(out), sums / self.n

    def lift(self, V):
        """V with its image recomputed from its coefficients, in place."""
        if self.G is not None:
            np.matmul(V[:, : self.k], self.G, out=V[:, self.k:])
        return V

    def dot(self, U, V):
        """Each cell's inner product of the weights of U and V; U may be
        coefficients alone."""
        return np.einsum("ij,ij->i", U[:, : self.k], V[:, self.dim - self.k:])

    def weights(self, V):
        """The (cells, columns) weights of vectors or coefficients V."""
        return V if self.G is None else V[:, : self.k] @ self.X

    def below(self, V, bound):
        """Whether each cell's weights of V all lie below ``bound`` in
        absolute value. The document basis forms the weights only of cells
        whose weight norm allows that (|w|_inf >= |w|_2 / sqrt(columns))."""
        if self.G is None:
            return np.abs(V).max(axis=1, initial=0.0) < bound
        may = np.flatnonzero(self.dot(V, V) < 2.0 * self.X.shape[1] * bound * bound)
        below = np.zeros(len(V), dtype=bool)
        below[may] = np.abs(self.weights(V[may])).max(axis=1, initial=0.0) < bound
        return below

    # The per-entry arrays below are as long as all cells' rows together,
    # so they are built in place, a few at a time.

    def objective(self, z, W, l2):
        """Each cell's loss at logits z = forward(W, B)."""
        terms = np.log1p(_exp_neg_abs(z))
        part = np.maximum(z, 0.0)
        terms += part
        terms -= np.multiply(self.y, z, out=part)
        return np.bincount(self.cell, terms, minlength=len(self.n)) / self.n + 0.5 * l2 * self.dot(W, W)

    def gradient(self, z, W, l2):
        """Gradient vector and bias gradients at logits z = forward(W, B),
        and the per-entry curvature p (1 - p) of the Hessian there."""
        e = _exp_neg_abs(z)
        r = np.where(z >= 0.0, 1.0, e)
        r /= 1.0 + e
        r -= self.y
        e /= np.square(1.0 + e)
        return (*self._mean_adjoint(r, l2, W, np.empty((len(self.n), self.dim))), e)

    def hessian(self, curvature, l2, V, c):
        """The Hessian at ``curvature`` times each cell's direction (V, c)."""
        r = self.forward(V, c)
        r *= curvature
        return self._mean_adjoint(r, l2, V, self._H)


def _exp_neg_abs(z):
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _newton_direction(op, curvature, l2, gw, gb, floor):
    """Per cell, the coefficients and bias of d with H d = -g, to the
    forcing term or to a residual of ``floor``, by conjugate gradients, and
    the slope g.d. The residual takes gw's memory.

    Cells run in one batch: a cell whose residual meets its forcing term
    steps 0 from then on, and so does one with no curvature left along its
    search direction (saturated logits, l2 = 0) or whose next step would
    not go downhill, keeping the step so far. A nan or infinite residual
    never meets the forcing term, so a cell whose products overflow gets a
    non-finite direction.
    """
    k = op.k
    gg = op.dot(gw, gw) + gb * gb
    # The forcing term, squared, times ||g||^2, or the floor squared.
    target = np.maximum(np.minimum(0.25, np.sqrt(gg)) * gg, floor * floor)
    g = gw[:, op.dim - k:].copy()  # what dot(d, g) reads of g
    dw, db = np.zeros((len(gw), k)), np.zeros_like(gb)
    rw, rb, rr = np.negative(gw, out=gw), -gb, gg
    pw, pb = rw.copy(), rb.copy()
    flat, slope = np.zeros(len(gg), dtype=bool), np.zeros(len(gg))
    for _ in range(_CG_MAX):
        active = ~flat & ~(np.isfinite(rr) & (rr <= target))
        if not active.any():
            break
        hw, hb = op.hessian(curvature, l2, pw, pb)
        curv = op.dot(pw, hw) + pb * hb
        flat |= active & (curv <= 0.0)
        active &= ~flat
        alpha = np.where(active, rr, 0.0) / np.where(active, curv, 1.0)
        # Exact conjugate gradients from 0 only go downhill (g.d < 0). A step
        # that would not has lost to rounding, as images drift from their
        # coefficients when the curvature spans many orders of magnitude.
        along = alpha * (np.einsum("ij,ij->i", pw[:, :k], g) + pb * gb)
        uphill = slope + along >= 0.0
        flat |= active & uphill
        alpha[uphill] = 0.0
        slope += np.where(uphill, 0.0, along)
        hw *= alpha[:, None]
        rw -= hw
        rb -= alpha * hb
        dw += np.multiply(pw[:, :k], alpha[:, None], out=hw[:, :k])  # hw is spent
        db += alpha * pb
        rr_next = op.dot(rw, rw) + rb * rb
        beta = np.where(active, rr_next, 0.0) / np.where(active, rr, 1.0)
        pw *= beta[:, None]
        pw += rw
        pb, rr = rb + beta * pb, rr_next
    return dw, db, np.einsum("ij,ij->i", dw, g) + gb * db


def _line_search(op, l2, w, b, z, f, dw, db, slope):
    """Move each cell's coefficients w and bias b, its logits z and loss f,
    in place, by the first of the steps 1, 1/2, ..., 2**-_MAX_HALVINGS
    along (dw, db) that passes Armijo; a non-finite direction is taken
    whole. Returns which cells found no such step. A trial's logits come
    from its coefficients."""
    k = op.k
    nonfinite = ~(np.isfinite(dw).all(axis=1) & np.isfinite(db))
    t, pending = np.ones(len(f)), np.ones(len(f), dtype=bool)
    w_t = np.empty((len(w), op.dim))
    for _ in range(_MAX_HALVINGS + 1):
        np.multiply(dw, t[:, None], out=w_t[:, :k])
        w_t[:, :k] += w
        b_t = b + t * db
        z_t = op.forward(op.lift(w_t), b_t)
        f_t = op.objective(z_t, w_t, l2)
        ok = pending & (nonfinite | (f_t <= f + _ARMIJO_C * t * slope))
        np.copyto(w, w_t[:, :k], where=ok[:, None])
        b[ok], f[ok] = b_t[ok], f_t[ok]
        np.copyto(z, z_t, where=ok[op.cell])
        pending &= ~ok
        if not pending.any():
            break
        t[pending] *= 0.5
    return pending


def logreg_descent_cells(X, cells, l2, max_iter, tol):
    """Truncated-Newton fit from zero init of every cell over one matrix X.

    ``cells`` is a sequence of ``LRCell``; no cell's rows are copied out of
    X. Returns (W, B, losses, converged, diverged): (cells, columns) weights,
    (cells,) biases, a list with each cell's loss history (the objective at
    every visited state, the zero start included, so one entry more than
    its Newton iterations), and two (cells,) bool arrays. A cell leaves,
    with its triples, when:

    - its gradient max-norm over (w, b) drops below ``tol`` (converged);
    - its loss turns non-finite (diverged); a non-finite Newton step is
      taken whole, so a cell whose Hessian products overflow diverges;
    - it has made ``max_iter`` Newton iterations;
    - or no step of 2**-30 or more along its direction passes Armijo.

    The basis (see above) follows from X alone: the document basis when X
    has fewer rows than columns and a finite Gram matrix.
    """
    X = _f64(X)
    l2, max_iter, tol = float(l2), int(max_iter), float(tol)
    n_cells, d = len(cells), X.shape[1]
    left = []  # (cells, w, b) of each group of cells as it leaves
    converged, diverged = np.zeros(n_cells, dtype=bool), np.zeros(n_cells, dtype=bool)
    histories = [[] for _ in range(n_cells)]
    live, stalled = np.arange(n_cells), np.zeros(n_cells, dtype=bool)
    # A diverging cell overflows on its way to a non-finite loss; that is
    # reported through ``diverged``, so numpy's warnings are silenced. So
    # is the Gram product's overflow, which sends X to the weight basis.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G = _gram(X)
        op = _Operator(X, cells, G)
        w, b = np.zeros((n_cells, op.dim)), np.zeros(n_cells)  # the zero start and its image
        z = op.forward(w, b).copy()
        f = op.objective(z, w, l2)
        w = w[:, : op.k].copy()  # the state keeps its coefficients alone
        for it in range(max_iter + 1):
            if not live.size:
                break
            for i, v in zip(live[~stalled].tolist(), f[~stalled].tolist()):
                histories[i].append(v)
            gw, gb, curvature = op.gradient(z, w, l2)
            small = op.below(gw, tol) & (np.abs(gb) < tol)  # the gradient's max-norm
            bad = ~np.isfinite(f)
            stop = bad | small | stalled | (it == max_iter)
            if stop.any():
                done = live[stop]
                left.append((done, op.weights(w[stop]), b[stop]))
                converged[done], diverged[done] = ~bad[stop] & small[stop], bad[stop]
                keep = ~stop
                # Entries are ordered by cell within own and SMOTE rows, so
                # the kept cells' entries are the new operator's, in order.
                z, curvature = z[keep[op.cell]], curvature[keep[op.cell]]
                live, w, b, f, gw, gb = (v[keep] for v in (live, w, b, f, gw, gb))
                del op  # and its workspace, before the next one is allocated
                op = _Operator(X, [cells[i] for i in live], G)
            dw, db, slope = _newton_direction(op, curvature, l2, gw, gb, _CG_FLOOR * tol)
            del gw, gb, curvature  # before the line search allocates its own arrays
            stalled = _line_search(op, l2, w, b, z, f, dw, db, slope)
            del dw, db  # before the next gradient allocates its own
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
    the first k_eff columns of neighbour_order of the split's rows, ties
    included. Each order[a] is a
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

    ``knn_in_splits`` of ``neighbour_order(M)`` in one split that holds
    every row: distance ties break toward the lower row position and k is
    clipped to n-1. Returns an (n, k_eff) int64 array.
    """
    return knn_in_splits(neighbour_order(M), np.zeros((1, len(M)), dtype=bool), k)[0]


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
