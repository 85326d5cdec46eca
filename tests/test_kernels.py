from __future__ import annotations

import numpy as np
import pytest
from loop_oracles import (
    interpolate_rows_loops,
    logreg_descent_loops,
    logreg_descent_numpy,
    logreg_loss_grad_loops,
    minority_knn_loops,
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
    args = (X, y, 0.1, 1e-4, 80, 0.0)
    w1, b1, losses1, div1 = kernels.logreg_descent(*args)
    w2, b2, losses2, count, div2 = logreg_descent_loops(*args)
    assert div1 is False and not div2
    assert count == len(losses1)
    assert np.allclose(w1, w2, rtol=1e-10, atol=1e-12)
    assert b1 == pytest.approx(b2, rel=1e-10, abs=1e-12)
    assert np.allclose(losses1, losses2[:count], rtol=1e-10)


def test_descent_records_initial_state_and_every_epoch():
    X, y = _problem(4)
    w, b, losses, diverged = kernels.logreg_descent(X, y, 0.05, 1e-4, 30, 0.0)
    assert not diverged
    assert len(losses) == 31
    assert losses[0] == pytest.approx(np.log(2))


def test_descent_stops_at_zero_gradient():
    X = np.zeros((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    w, b, losses, diverged = kernels.logreg_descent(X, y, 0.1, 0.0, 50, 1e-8)
    assert not diverged
    assert len(losses) == 1
    assert np.all(w == 0.0) and b == 0.0


@pytest.mark.filterwarnings("error")
def test_descent_flags_divergence():
    X, y = _problem(5)
    w, b, losses, diverged = kernels.logreg_descent(X, y, 1e3, 1e3, 200, 0.0)
    assert diverged
    assert len(losses) <= 201
    assert not np.isfinite(losses[-1])


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


# Bound of the operator against materialized rows, absolute on weights,
# biases and every loss. The operator forms a synthetic row's logit and
# gradient share from its two end rows, and sums each cell over the
# shared matrix, so each epoch differs from the materialized descent by a
# few rounding errors of the logits; with the step below 2/L these do not
# grow, and the largest gap measured on these tests is below 1e-14.
OPERATOR_ATOL = 1e-12


def _assert_cells_match_materialized(X, cells, learning_rate, l2, max_epochs, tol):
    W, B, losses, diverged = kernels.logreg_descent_cells(X, cells, learning_rate, l2, max_epochs, tol)
    assert W.shape == (len(cells), X.shape[1]) and B.shape == diverged.shape == (len(cells),)
    for i, cell in enumerate(cells):
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's own overflow
            w, b, hist, div = logreg_descent_numpy(*_materialized(X, cell), learning_rate, l2, max_epochs, tol)
        assert len(losses[i]) == len(hist), i
        assert diverged[i] == div, i
        finite = np.isfinite(hist)
        assert np.array_equal(np.isfinite(losses[i]), finite), i
        assert np.allclose(losses[i][finite], hist[finite], rtol=0, atol=OPERATOR_ATOL), i
        # A diverged cell stops at weights near 1e200, held to the same
        # 1e-12 relative to their size.
        rtol = 1e-12 if div else 0.0
        assert np.allclose(W[i], w, rtol=rtol, atol=OPERATOR_ATOL), i
        assert np.isclose(B[i], b, rtol=rtol, atol=OPERATOR_ATOL), i
    return losses, diverged


def test_batched_descent_matches_per_cell_when_cells_stop_at_different_epochs():
    # Wider feature scales curve the loss more, so those cells reach the
    # tolerance sooner; the smallest scale runs to max_epochs. Each scale
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
    losses, diverged = _assert_cells_match_materialized(X, cells, 0.1, 1e-3, 400, 1e-3)
    lengths = [len(h) for h in losses]
    assert not diverged.any()
    assert lengths[0] == lengths[-1] == 401
    assert len(set(lengths)) >= 4 and min(lengths) < 401


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
    losses, diverged = _assert_cells_match_materialized(X, [low, high, no_synth], 0.1, 1e-4, 60, 0.0)
    assert diverged.tolist() == [False, True, False]
    assert len(losses[1]) < 61 and not np.isfinite(losses[1][-1])


def test_batched_descent_handles_zero_width_cells():
    X = np.zeros((6, 0))
    y = np.array([0.0, 1.0] * 3)
    rng = np.random.default_rng(9)
    cells = _cells(X, y, rng, 2) + _cells(X, y, rng, 2, synthetic=False)
    _assert_cells_match_materialized(X, cells, 0.1, 1e-4, 40, 1e-6)


def test_descent_without_cells_returns_empty_arrays():
    W, B, losses, diverged = kernels.logreg_descent_cells(np.ones((3, 2)), [], 0.1, 0.0, 10, 0.0)
    assert W.shape == (0, 2) and B.shape == diverged.shape == (0,) and losses == []


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
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 3, size=(30, 7)).astype(np.float64) if grid else rng.normal(size=(30, 7))
    M[[4, 17, 23, 29]] = M[[9, 9, 2, 11]]
    assert np.array_equal(kernels.minority_knn(M, 5), minority_knn_loops(M, 5))


def test_minority_knn_clips_k():
    M = np.array([[0.0], [1.0], [2.0]])
    assert kernels.minority_knn(M, 10).shape == (3, 2)


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
    w, b, losses, diverged = kernels.logreg_descent(X, y, 0.1, 0.0, 5, 0.0)
    assert w.shape == (2,)
    assert not diverged
