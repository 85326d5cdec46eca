from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from loop_oracles import (
    assert_near_newton_oracle,
    interpolate_rows_loops,
    logreg_loss_grad_loops,
    logreg_newton_numpy,
    minority_knn_loops,
    sq_distances_rows,
)

from facetrec import kernels


def _problem(seed, n=24, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (X @ w_true + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
    return X, y


def test_loss_grad_paths_agree():
    X, y = _problem(1)
    w = np.random.default_rng(2).normal(size=X.shape[1])
    b = 0.37
    l_np, gw_np, gb_np = kernels.logreg_loss_grad(X, y, w, b, 1e-3)
    l_lp, gw_lp, gb_lp = logreg_loss_grad_loops(X, y, w, b, 1e-3)
    assert l_np == pytest.approx(l_lp, rel=1e-12)
    assert np.allclose(gw_np, gw_lp, rtol=1e-12, atol=1e-14)
    assert gb_np == pytest.approx(gb_lp, rel=1e-12, abs=1e-14)


def test_descent_paths_agree():
    X, y = _problem(3)
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 1e-4, 80, 1e-8)
    assert converged and not diverged
    assert np.all(np.diff(losses) <= 0.0)
    assert_near_newton_oracle(X, y, 1e-4, w, b, losses, logreg_newton_numpy(X, y, 1e-4, 80, 1e-8))


def test_descent_records_initial_state_and_every_epoch():
    # tol = 0 never stops a cell; it makes max_iter Newton iterations, each
    # recording the loss of the state it reaches.
    X, y = _problem(4)
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 1e-4, 3, 0.0)
    assert not converged and not diverged
    assert len(losses) == 4
    assert losses[0] == pytest.approx(np.log(2))
    assert np.all(np.diff(losses) < 0.0)


def test_descent_stops_at_zero_gradient():
    X = np.zeros((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 0.0, 50, 1e-8)
    assert converged and not diverged
    assert len(losses) == 1
    assert np.all(w == 0.0) and b == 0.0


@pytest.mark.filterwarnings("error")
def test_descent_flags_divergence():
    # Features near 1e200 keep the zero start's loss finite (log 2), but
    # overflow the Hessian products: the Newton step comes out non-finite,
    # and so does the loss of the state it reaches.
    X, y = _problem(5)
    w, b, losses, converged, diverged = kernels.logreg_descent(X * 1e200, y, 1e-4, 200, 0.0)
    assert diverged and not converged
    assert len(losses) == 2 and losses[0] == pytest.approx(np.log(2))
    assert not np.isfinite(losses[-1])


def test_separable_rows_without_l2_run_to_the_cap_without_diverging():
    # Without l2 the optimum of separable rows lies at infinity: Newton's
    # logits grow until their curvature underflows to 0 (after about 120
    # iterations here). Conjugate gradients then stop with the step so
    # far, which is finite, so the cell runs on to max_iter.
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 0.0, 200, 0.0)
    assert not converged and not diverged
    assert len(losses) == 201 and np.all(np.isfinite(losses)) and np.all(np.diff(losses) <= 0.0)
    assert losses[-1] < 1e-50 and w[0] > 0.0


def test_a_cell_that_no_step_decreases_leaves_unconverged(monkeypatch):
    # A convex loss never falls by more than its slope predicts, so with a
    # sufficient-decrease constant above 1 no halved step passes Armijo:
    # every cell leaves at its zero start, unconverged and not diverged.
    monkeypatch.setattr(kernels, "_ARMIJO_C", 1.5)
    X, y = _problem(6)
    cells = _cells(X, y, np.random.default_rng(6), 3)
    W, B, losses, converged, diverged = kernels.logreg_descent_cells(X, cells, 1e-4, 50, 1e-8)
    assert not converged.any() and not diverged.any()
    assert [len(h) for h in losses] == [1, 1, 1]
    assert np.all(W == 0.0) and np.all(B == 0.0)


def _cells(X, y, rng, n_cells, synthetic=True):
    # Cells over the rows of X: a random half to all of the rows each, and
    # (when ``synthetic``) up to 12 SMOTE-like triples between two of them.
    cells = []
    for _ in range(n_cells):
        rows = np.sort(rng.choice(len(X), size=rng.integers(len(X) // 2, len(X) + 1), replace=False))
        m = int(rng.integers(1, 13)) if synthetic else 0
        seeds, nbrs = rng.choice(rows, size=m), rng.choice(rows, size=m)
        cells.append(kernels.LRCell(rows, y[rows], seeds, nbrs, rng.random(m), int(rng.integers(0, 2))))
    return cells


def _materialized(X, cell):
    rows = np.vstack([X[cell.rows], kernels.interpolate_rows(X, cell.seeds, cell.nbrs, cell.gammas)])
    return rows, np.concatenate([cell.y, np.full(len(cell.seeds), cell.minority)])


def _assert_cells_match_materialized(X, cells, l2, max_iter, tol):
    # Every cell of one batched fit against the oracle on its materialized
    # rows: the same stop (converged, diverged, or neither) and, unless
    # diverged, a finite non-increasing history and weights within the
    # oracle's bound.
    W, B, losses, converged, diverged = kernels.logreg_descent_cells(X, cells, l2, max_iter, tol)
    assert W.shape == (len(cells), X.shape[1]) and B.shape == converged.shape == diverged.shape == (len(cells),)
    for i, cell in enumerate(cells):
        rows, labels = _materialized(X, cell)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's own overflow
            oracle = logreg_newton_numpy(rows, labels, l2, max_iter, tol)
        assert (converged[i], diverged[i]) == oracle[3:], i
        assert 1 <= len(losses[i]) <= max_iter + 1, i
        if diverged[i]:
            assert not np.isfinite(losses[i][-1]) and np.all(np.isfinite(losses[i][:-1])), i
            continue
        assert np.all(np.isfinite(losses[i])) and np.all(np.diff(losses[i]) <= 0.0), i
        assert_near_newton_oracle(rows, labels, l2, W[i], B[i], losses[i], oracle)
    return losses, converged, diverged


def test_batched_descent_matches_per_cell_when_cells_stop_at_different_epochs():
    # Feature scales set how far each cell's optimum lies from the zero
    # start, so the cells converge after different numbers of Newton
    # iterations, and leave the batch one group after another. Each scale
    # block of X holds its own cells, half of them with synthetic rows.
    rng = np.random.default_rng(7)
    scales = [0.05, 3.0, 0.5, 8.0, 1.0, 0.05]
    blocks = [rng.normal(size=(30, 4)) * s for s in scales]
    X = np.zeros((30 * len(scales), 4 * len(scales)))
    for i, block in enumerate(blocks):
        X[30 * i: 30 * (i + 1), 4 * i: 4 * (i + 1)] = block
    y = (rng.random(len(X)) < 0.5).astype(np.float64)
    cells = []
    for i in range(len(scales)):
        for c in _cells(X[30 * i: 30 * (i + 1)], y[30 * i: 30 * (i + 1)], rng, 2, synthetic=i % 2 == 0):
            cells.append(c._replace(rows=c.rows + 30 * i, seeds=c.seeds + 30 * i, nbrs=c.nbrs + 30 * i))
    losses, converged, diverged = _assert_cells_match_materialized(X, cells, 1e-3, 400, 1e-8)
    assert converged.all()
    assert len({len(h) for h in losses}) >= 3


@pytest.mark.filterwarnings("error")
def test_batched_descent_matches_per_cell_with_a_diverging_cell():
    # Rows 20-39 are rows 0-19 scaled by 1e200; only the middle cell trains
    # on them, and only its loss may turn non-finite.
    X, y = _problem(8, n=20, d=3)
    X = np.vstack([X, X * 1e200])
    y = np.concatenate([y, y])
    rng = np.random.default_rng(8)
    low, high = _cells(X[:20], y[:20], rng, 2)
    high = high._replace(rows=high.rows + 20, seeds=high.seeds + 20, nbrs=high.nbrs + 20)
    no_synth = low._replace(seeds=low.seeds[:0], nbrs=low.nbrs[:0], gammas=low.gammas[:0])
    losses, converged, diverged = _assert_cells_match_materialized(X, [low, high, no_synth], 1e-4, 60, 1e-8)
    assert diverged.tolist() == [False, True, False] and converged.tolist() == [True, False, True]
    assert len(losses[1]) < 61 and not np.isfinite(losses[1][-1])


def test_hessian_products_match_central_differences_of_the_gradient():
    # H(w, b) (v, c) is the derivative of the gradient along (v, c), for
    # every cell of one operator: own rows and SMOTE triples alike.
    rng = np.random.default_rng(11)
    X, y = _problem(11, n=30, d=4)
    cells = _cells(X, y, rng, 5) + _cells(X, y, rng, 2, synthetic=False)
    op = kernels._Operator(X, cells)
    W, B, V, c = rng.normal(size=(7, 4)), rng.normal(size=7), rng.normal(size=(7, 4)), rng.normal(size=7)
    l2, h = 1e-2, 1e-5

    def gradient(t):
        return op.gradient(op.forward(W + t * V, B + t * c), W + t * V, l2)

    hw, hc = op.hessian(gradient(0.0)[2], l2, V, c)
    (up_w, up_b, _), (down_w, down_b, _) = gradient(h), gradient(-h)
    assert np.allclose(hw, (up_w - down_w) / (2 * h), rtol=1e-7, atol=1e-9)
    assert np.allclose(hc, (up_b - down_b) / (2 * h), rtol=1e-7, atol=1e-9)
    assert np.all(np.einsum("ij,ij->i", V, hw) + c * hc > 0.0)


def test_the_basis_follows_the_shape_and_a_finite_gram_matrix():
    # Fewer rows than columns and a finite Gram matrix: document
    # coefficients. Any other matrix keeps the weights.
    wide = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(kernels._gram(wide), wide @ wide.T)
    assert kernels._gram(np.ones((3, 3))) is None and kernels._gram(np.ones((3, 2))) is None
    with np.errstate(over="ignore"):
        assert kernels._gram(wide * 1e200) is None


@pytest.mark.parametrize("n, d", [(30, 4), (20, 35)], ids=["weights", "documents"])
def test_the_scatter_adds_each_entry_onto_its_rows_and_sums_each_cell(n, d):
    # Both bases share one scatter: an own row's value with weight 1, a
    # SMOTE row's onto s and n with weights 1 - g and g. Those sum to 1, so
    # the row sums of R are each cell's sums of the values.
    rng = np.random.default_rng(17)
    X, y = _problem(17, n=n, d=d)
    cells = _cells(X, y, rng, 5) + _cells(X, y, rng, 2, synthetic=False)
    op = kernels._Operator(X, cells, kernels._gram(X))
    assert (op.G is None) == (n > d)
    r = rng.normal(size=len(op.cell))
    expected, values = np.zeros((len(cells), n)), iter(r.tolist())
    for i, cell in enumerate(cells):  # own rows of every cell, then SMOTE rows
        for row in cell.rows.tolist():
            expected[i, row] += next(values)
    for i, cell in enumerate(cells):
        for s, nbr, g in zip(cell.seeds.tolist(), cell.nbrs.tolist(), cell.gammas.tolist()):
            v = next(values)
            expected[i, s] += (1.0 - g) * v
            expected[i, nbr] += g * v
    cell_sums = np.bincount(op.cell, r, minlength=len(cells))
    R, sums = op._scatter(r.copy())
    assert np.allclose(R, expected, rtol=1e-12, atol=1e-14)
    assert np.allclose(sums, cell_sums, rtol=1e-12, atol=1e-14)


def test_document_basis_hessian_products_match_central_differences_of_the_gradient():
    # The twin of the weight-basis check over 20 rows x 35 columns: each
    # vector is (a, a G), its weights a X, and the gradient's weights are
    # the weight basis's gradient at those weights.
    rng = np.random.default_rng(13)
    X, y = _problem(13, n=20, d=35)
    cells = _cells(X, y, rng, 5) + _cells(X, y, rng, 2, synthetic=False)
    op, by_weights = kernels._Operator(X, cells, kernels._gram(X)), kernels._Operator(X, cells)
    assert (op.k, op.dim) == (20, 40)

    def vector(coef):
        return op.lift(np.hstack([coef, np.zeros_like(coef)]))

    W, V = vector(0.1 * rng.normal(size=(7, 20))), vector(0.1 * rng.normal(size=(7, 20)))
    B, c = rng.normal(size=7), rng.normal(size=7)
    l2, h = 1e-2, 1e-5

    def gradient(t):
        Wt = vector(W[:, :20] + t * V[:, :20])
        return op.gradient(op.forward(Wt, B + t * c), Wt, l2)

    gw, gb, curvature = gradient(0.0)
    w = op.weights(W)
    gw_w, gb_w, _ = by_weights.gradient(by_weights.forward(w, B), w, l2)
    assert np.allclose(op.weights(gw), gw_w, rtol=1e-10, atol=1e-13) and np.allclose(gb, gb_w, rtol=1e-12)
    assert np.allclose(gw[:, 20:], gw[:, :20] @ op.G, rtol=1e-12, atol=1e-13)
    hw, hc = (a.copy() for a in op.hessian(curvature, l2, V, c))
    (up_w, up_b, _), (down_w, down_b, _) = gradient(h), gradient(-h)
    assert np.allclose(hw, (up_w - down_w) / (2 * h), rtol=1e-7, atol=1e-9)
    assert np.allclose(hc, (up_b - down_b) / (2 * h), rtol=1e-7, atol=1e-9)
    assert np.all(op.dot(V, hw) + c * hc > 0.0)


def test_wide_cells_with_smote_rows_match_the_newton_oracle():
    # 40 rows x 90 columns take the document basis. Every cell, with SMOTE
    # triples or without, stops as the dense oracle does, within its bound.
    X, y = _problem(12, n=40, d=90)
    assert kernels._gram(X) is not None
    rng = np.random.default_rng(12)
    cells = _cells(X, y, rng, 6) + _cells(X, y, rng, 2, synthetic=False)
    losses, converged, diverged = _assert_cells_match_materialized(X, cells, 1e-3, 200, 1e-8)
    assert converged.all() and len({len(h) for h in losses}) >= 2


def test_wide_cells_marked_converged_meet_tol_at_their_weights():
    # The document basis decides convergence from a X; the loop gradient at
    # the weights it returns, on each cell's materialized rows, agrees.
    X, y = _problem(14, n=40, d=90)
    rng = np.random.default_rng(14)
    cells = _cells(X, y, rng, 8)
    W, B, _, converged, _ = kernels.logreg_descent_cells(X, cells, 1e-4, 500, 1e-6)
    assert converged.all()
    for i, cell in enumerate(cells):
        rows, labels = _materialized(X, cell)
        _, gw, gb = logreg_loss_grad_loops(rows, labels, W[i], B[i], 1e-4)
        assert max(np.abs(gw).max(), abs(gb)) < 1e-6, i


def test_wide_separable_rows_without_l2_run_to_the_cap_without_diverging():
    # The wide twin: four independent rows in six columns, separable with
    # any labels. As the curvature underflows, the images of the conjugate
    # gradients drift from their coefficients; a solve stops before a step
    # that would not go downhill, so every Newton step still descends.
    X = np.array([[-2.0, 1, 0, 0, 0, 0], [-1.0, 0, 1, 0, 0, 0], [1.0, 0, 0, 1, 0, 0], [2.0, 0, 0, 0, 1, 0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert kernels._gram(X) is not None
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 0.0, 200, 0.0)
    assert not converged and not diverged
    assert len(losses) == 201 and np.all(np.isfinite(losses)) and np.all(np.diff(losses) <= 0.0)
    assert losses[-1] < 1e-40


def test_batched_descent_handles_zero_width_cells():
    X = np.zeros((6, 0))
    y = np.array([0.0, 1.0] * 3)
    rng = np.random.default_rng(9)
    cells = _cells(X, y, rng, 2) + _cells(X, y, rng, 2, synthetic=False)
    _assert_cells_match_materialized(X, cells, 1e-4, 40, 1e-6)


def test_descent_without_cells_returns_empty_arrays():
    W, B, losses, converged, diverged = kernels.logreg_descent_cells(np.ones((3, 2)), [], 0.0, 10, 0.0)
    assert W.shape == (0, 2) and B.shape == converged.shape == diverged.shape == (0,) and losses == []


def test_minority_knn_orders_by_distance():
    M = np.array([[0.0], [3.0], [1.0], [7.0]])
    nbrs = kernels.minority_knn(M, 2)
    assert nbrs.shape == (4, 2)
    assert nbrs[0].tolist() == [2, 1]
    assert nbrs[3].tolist() == [1, 2]


def test_minority_knn_breaks_ties_toward_lower_index():
    M = np.array([[0.0], [1.0], [-1.0], [1.0]])
    nbrs = kernels.minority_knn(M, 3)
    assert nbrs[0].tolist() == [1, 2, 3]
    assert np.array_equal(minority_knn_loops(M, 3), nbrs)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minority_knn_matches_loop_oracle_with_ties(seed, grid):
    # Duplicated rows tie at distance 0; small-integer coordinates ("grid")
    # also tie at equal nonzero distances. Ties must break the same way.
    # Rows holding nan, +-inf or 1e200 give nan and inf distances, where two
    # sorts could part: nan sorts after the inf diagonal. The search, the
    # loop oracle and the order restricted to a split agree there too.
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 3, size=(30, 7)).astype(np.float64) if grid else rng.normal(size=(30, 7))
    M[[4, 17, 23, 29]] = M[[9, 9, 2, 11]]
    assert np.array_equal(kernels.minority_knn(M, 5), minority_knn_loops(M, 5))
    odd = M.copy()
    odd[[1, 6, 12, 20, 26], rng.integers(0, 7, size=5)] = [np.nan, np.inf, -np.inf, 1e200, np.inf]
    held = rng.random(30) < 0.3
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(kernels.minority_knn(odd, 5), minority_knn_loops(odd, 5))
        restricted = kernels.knn_in_splits(kernels.neighbour_order(odd), held[None], 5)[0]
        assert np.array_equal(restricted, minority_knn_loops(odd[~held], 5))


def test_minority_knn_clips_k():
    M = np.array([[0.0], [1.0], [2.0]])
    assert kernels.minority_knn(M, 10).shape == (3, 2)


@pytest.mark.parametrize("kind", ["counts", "gaussian", "duplicated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_sliced_distance_block_is_the_blocks_own_matrix(seed, kind):
    # Each entry is the diff-form reduction of its two rows alone, so a
    # block sliced from the matrix of all rows equals, bit for bit, the
    # matrix of the block's rows, and so do the neighbour lists drawn from
    # it. The Gaussian columns span six orders of magnitude, where a Gram
    # form (|a|^2 + |b|^2 - 2ab) would not match.
    rng = np.random.default_rng(seed)
    if kind == "counts":
        M = rng.poisson(0.4, size=(60, 300)).astype(np.float64)
    elif kind == "gaussian":
        M = rng.normal(size=(60, 50)) * 10.0 ** rng.uniform(-3, 3, size=50)
    else:
        M = rng.normal(size=(12, 20))[rng.integers(0, 12, size=60)]
    D = kernels.sq_distances(M)
    assert np.array_equal(D, np.array([((M - m) ** 2).sum(axis=1) for m in M]))
    for _ in range(10):
        sub = np.sort(rng.choice(60, size=int(rng.integers(2, 60)), replace=False))
        block = D[np.ix_(sub, sub)]
        assert np.array_equal(block, kernels.sq_distances(M[sub]))
        np.fill_diagonal(block, np.inf)
        nearest = np.argsort(block, axis=1, kind="stable")[:, : min(5, len(sub) - 1)]
        assert np.array_equal(nearest, kernels.minority_knn(M[sub], 5))


_BOUND = 2**51  # the squared row norm below which integer rows take the Gram form


@st.composite
def integer_rows(draw):
    """Integer matrices with duplicated rows, zero rows, binary rows, small
    counts (many tied distances) and rows whose squared norm comes up to
    just below the bound (every entry within sqrt((2**51 - 1) / d))."""
    d = draw(st.integers(1, 6))
    top = math.isqrt((_BOUND - 1) // d)
    entry = {
        "zero": st.just(0),
        "binary": st.integers(0, 1),
        "counts": st.integers(-3, 3),
        "large": st.one_of(st.sampled_from([-top, top]), st.integers(-top, top)),
    }
    row = st.sampled_from(sorted(entry)).flatmap(lambda kind: st.lists(entry[kind], min_size=d, max_size=d))
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return np.array([pool[i] for i in picks], dtype=np.float64)


def _bits(D):
    return D.view(np.int64)


@given(integer_rows())
def test_integer_rows_take_the_exact_gram_form(M):
    # The product path runs here, and its matrix has the bits of the
    # row-by-row diff form, signs of zeros included.
    assert kernels._gram_is_exact(M, np.einsum("ij,ij->i", M, M))
    assert np.array_equal(_bits(kernels.sq_distances(M)), _bits(sq_distances_rows(M)))


@pytest.mark.parametrize("bad", ["half", "small", "nan", "inf", "-inf", "over", "huge"])
@given(M=integer_rows(), data=st.data())
def test_a_row_the_gram_form_cannot_hold_sends_the_matrix_to_the_diff_form(bad, M, data):
    d = M.shape[1]
    over = math.isqrt((_BOUND - 1) // d) + 1  # a row of these has norm >= 2**51
    value = {"half": 0.5, "small": 1e-3, "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
             "over": float(over), "huge": 2.0**60}[bad]
    M = np.insert(M, data.draw(st.integers(0, len(M))), value, axis=0)
    assert not kernels._gram_is_exact(M, np.einsum("ij,ij->i", M, M))
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(kernels.sq_distances(M), sq_distances_rows(M), equal_nan=True)


def test_counts_past_the_norm_bound_keep_their_exact_distances():
    # |2**26 + 1|^2 is not a float64, so the Gram form would miss the
    # distance 1 between these rows; the diff form gets it exactly.
    M = np.array([[2.0**26], [2.0**26 + 1.0]])
    norms = np.einsum("ij,ij->i", M, M)
    gram = norms[:, None] + norms - 2.0 * (M @ M.T)
    assert gram[0, 1] != 1.0
    assert kernels.sq_distances(M).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_gram_check_covers_every_row_block():
    # One fractional entry in the last row of a matrix taller than a block
    # of the integrality check.
    M = np.ones((3 * kernels._CHECK_ROWS + 5, 4))
    assert kernels._gram_is_exact(M, np.einsum("ij,ij->i", M, M))
    M[-1, -1] = 0.5
    assert not kernels._gram_is_exact(M, np.einsum("ij,ij->i", M, M))
    assert np.array_equal(kernels.sq_distances(M), sq_distances_rows(M))


def test_empty_and_zero_width_matrices():
    assert kernels.sq_distances(np.empty((0, 3))).shape == (0, 0)
    assert np.array_equal(kernels.sq_distances(np.empty((4, 0))), np.zeros((4, 4)))


@given(st.data())
def test_a_restricted_neighbour_order_is_the_blocks_own_search(data):
    # The first k entries of each row's order over all rows, restricted to
    # the rows of each of several splits at once (any of them, none or all
    # left out), are that split's own k nearest, ties included: duplicated
    # rows tie at zero, and a row of inf is at distance inf from every
    # other row, where it ties with the diagonal.
    M = data.draw(integer_rows())
    if data.draw(st.booleans()):
        M = M + data.draw(st.sampled_from([0.25, 1e-9]))  # fractional: the diff form
    if data.draw(st.booleans()):
        M = np.insert(M, data.draw(st.integers(0, len(M))), np.inf, axis=0)
    n = len(M)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    held = np.array(data.draw(st.lists(masks, min_size=1, max_size=4)), dtype=bool)
    k = data.draw(st.integers(1, n + 1))
    with np.errstate(invalid="ignore"):
        got = kernels.knn_in_splits(kernels.neighbour_order(M), held, k)
        assert len(got) == len(held)
        for h, nbrs in zip(held, got):
            at = np.flatnonzero(~h)
            assert nbrs.dtype == np.int64
            if len(at) >= 2:
                assert np.array_equal(nbrs, kernels.minority_knn(M[at], k))
            else:
                assert nbrs.shape == (len(at), 0)


def _stable_order(M):
    D = sq_distances_rows(M)
    np.fill_diagonal(D, np.inf)
    return np.argsort(D, axis=1, kind="stable")


@given(st.data())
def test_neighbour_order_is_the_stable_sort_of_the_distances(data):
    # Integer rows take the int64 keys (up to distances near 2**53), other
    # rows the stable argsort; both give the stable order, ties included.
    M = data.draw(integer_rows())
    if data.draw(st.booleans()):
        M = M + data.draw(st.sampled_from([0.25, 1e-9]))
    got = kernels.neighbour_order(M)
    assert got.dtype == np.int64 and np.array_equal(got, _stable_order(M))


def test_distances_too_large_for_int64_keys_take_the_stable_sort(monkeypatch):
    # Squared distances of 2**60 and up, times 6 rows, pass 2**62: no keys.
    M = np.array([[0.0], [2.0**30], [0.0], [2.0**31], [2.0**30], [0.0]])
    want, small = _stable_order(M), M / 2.0**29
    want_small = _stable_order(small)
    sorts = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or real(*a, **kw))
    assert np.array_equal(kernels.neighbour_order(M), want) and sorts == [1]
    sorts.clear()
    assert np.array_equal(kernels.neighbour_order(small), want_small) and sorts == []


def test_interpolate_rows_exact():
    M = np.array([[0.0, 0.0], [2.0, 4.0]])
    out = kernels.interpolate_rows(M, np.array([0]), np.array([1]), np.array([0.25]))
    assert np.array_equal(out, np.array([[0.5, 1.0]]))
    out0 = kernels.interpolate_rows(M, np.array([1]), np.array([0]), np.array([0.0]))
    assert np.array_equal(out0, np.array([[2.0, 4.0]]))


def test_interpolate_paths_agree_exactly():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(7, 3))
    s = rng.integers(0, 7, size=11)
    n = rng.integers(0, 7, size=11)
    g = rng.random(11)
    assert np.array_equal(
        kernels.interpolate_rows(M, s, n, g),
        interpolate_rows_loops(M, s, n, g),
    )


def test_descent_accepts_list_labels_and_dense_rows():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    y = [0, 1, 0, 1]
    w, b, losses, converged, diverged = kernels.logreg_descent(X, y, 0.0, 5, 0.0)
    assert w.shape == (2,)
    assert not diverged
