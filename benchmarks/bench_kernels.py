"""Two kernel cases, each timed against the per-cell way of doing it.

Logistic regression: builds a bag-of-words-shaped case (300 documents x
501 columns, 100 cells, each training on 270 of the rows plus about 130
SMOTE triples) and trains it twice: once with one logreg_descent_cells
call over the shared matrix, and once as 100 logreg_descent calls, each on
its cell's materialized rows (own rows, then the interpolated SMOTE rows).
Prints the best-of wall times, the floating-point operations and bytes of
one epoch on each side, and the largest weight gap between the two.

SMOTE's neighbours: one facet shaped like the smote-nb workload's (600
documents x 501 count columns, 120 minority rows, 10 folds). Per fold,
minority_knn on the fold's own minority rows, against one sq_distances
matrix over all 120 rows that each fold slices with knn_from_distances.
Prints the best-of wall times and exits 1 if any fold's neighbour lists
differ between the two.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from facetrec import kernels

DOCS, DIM, CELLS, OWN, SYNTH = 300, 501, 100, 270, 130
KNN_DOCS, KNN_MINORITY, KNN_FOLDS, KNN_K = 600, 120, 10, 5


def best_of(fn, repeat: int):
    """Best wall time in seconds over ``repeat`` calls, and the last result."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def make_cells(rng):
    # Sparse nonnegative counts, as a bag of words; each cell's minority
    # rows seed its triples, as SMOTE's do.
    X = rng.poisson(0.5, size=(DOCS, DIM)).astype(np.float64)
    y = (rng.random(DOCS) < 0.2).astype(np.int64)
    cells = []
    for _ in range(CELLS):
        rows = np.sort(rng.choice(DOCS, size=OWN, replace=False))
        minority = rows[y[rows] == 1]
        m = int(rng.integers(SYNTH - 10, SYNTH + 11))
        cells.append(kernels.LRCell(rows, y[rows], rng.choice(minority, m), rng.choice(minority, m), rng.random(m)))
    return X, cells


def epoch_cost(X, cells):
    """(flops, bytes) of one epoch: operator, then materialized cells.

    Counted are the two matrix products of an epoch (z = Xw and the
    gradient), which hold all but a few percent of the arithmetic. Bytes
    are the float64 operands each product reads and writes once; the
    operator also gathers and scatters one logit per own row and two per
    SMOTE row.
    """
    n, d = X.shape
    entries = sum(len(c.rows) + len(c.seeds) for c in cells)
    ends = sum(len(c.rows) + 2 * len(c.seeds) for c in cells)
    op_flops = 2 * 2 * n * d * len(cells)
    op_bytes = 8 * 2 * (n * d + len(cells) * d + n * len(cells)) + 8 * 2 * ends
    # One matrix-vector product each way over a cell's materialized rows.
    mat_flops = 2 * 2 * d * entries
    mat_bytes = 8 * 2 * (d * entries + entries + d * len(cells))
    return (op_flops, op_bytes), (mat_flops, mat_bytes)


def knn_case(rng, repeat: int) -> bool:
    """Time per-fold searches against one sliced matrix; True if every
    fold's neighbour lists are equal."""
    X = rng.poisson(0.5, size=(KNN_DOCS, DIM)).astype(np.float64)
    members = np.sort(rng.choice(KNN_DOCS, size=KNN_MINORITY, replace=False))
    folds = rng.permutation(np.arange(KNN_DOCS) % KNN_FOLDS)
    # Each fold's minority rows, as documents and as positions in members.
    fold_docs = [members[folds[members] != k] for k in range(KNN_FOLDS)]
    fold_at = [np.searchsorted(members, docs) for docs in fold_docs]

    def per_fold():
        return [kernels.minority_knn(X[docs], KNN_K) for docs in fold_docs]

    def sliced():
        D = kernels.sq_distances(X[members])
        return [kernels.knn_from_distances(D[np.ix_(at, at)], KNN_K) for at in fold_at]

    t_fold, want = best_of(per_fold, repeat)
    t_sliced, got = best_of(sliced, repeat)
    same = all(np.array_equal(a, b) for a, b in zip(want, got))
    print(f"SMOTE neighbours: {KNN_MINORITY} minority rows of {KNN_DOCS} x {DIM}, "
          f"{KNN_FOLDS} folds, k={KNN_K}; matrix {KNN_MINORITY ** 2 * 8 / 1e3:.0f} KB")
    print(f"{'per-fold minority_knn':<26} {t_fold * 1e3:>10.1f} ms")
    print(f"{'one matrix, sliced':<26} {t_sliced * 1e3:>10.1f} ms")
    print(f"speedup {t_fold / t_sliced:.1f}x; neighbour lists {'identical' if same else 'DIFFER'}")
    return same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=100, help="descent epochs")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per side (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    X, cells = make_cells(np.random.default_rng(args.seed))
    descent = (0.1, 1e-4, args.epochs, 0.0)
    materialized = [
        (np.vstack([X[c.rows], kernels.interpolate_rows(X, c.seeds, c.nbrs, c.gammas)]),
         np.concatenate([c.y, np.full(len(c.seeds), c.minority)]))
        for c in cells
    ]

    t_op, (W, _, _, _) = best_of(lambda: kernels.logreg_descent_cells(X, cells, *descent), args.repeat)
    t_mat, fits = best_of(lambda: [kernels.logreg_descent(Xc, yc, *descent) for Xc, yc in materialized], args.repeat)
    gap = max(float(np.max(np.abs(W[i] - w))) for i, (w, _, _, _) in enumerate(fits))

    (op_flops, op_bytes), (mat_flops, mat_bytes) = epoch_cost(X, cells)
    print(f"{CELLS} cells over {DOCS} x {DIM}, {OWN} own rows and ~{SYNTH} SMOTE rows each, {args.epochs} epochs")
    header = f"{'side':<26} {'ms':>10} {'MFLOP/epoch':>12} {'MB/epoch':>10}"
    print(header)
    print("-" * len(header))
    print(f"{'operator (1 call)':<26} {t_op * 1e3:>10.1f} {op_flops / 1e6:>12.1f} {op_bytes / 1e6:>10.2f}")
    print(f"{'materialized (1 per cell)':<26} {t_mat * 1e3:>10.1f} {mat_flops / 1e6:>12.1f} {mat_bytes / 1e6:>10.2f}")
    print(f"speedup {t_mat / t_op:.1f}x; largest weight gap {gap:.3g}")
    print()
    return 0 if knn_case(np.random.default_rng(args.seed), args.repeat) else 1


if __name__ == "__main__":
    raise SystemExit(main())
