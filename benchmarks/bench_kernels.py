"""Two kernel cases, each timed against the per-cell way of doing it, and
one normalization case.

Logistic regression: builds a bag-of-words-shaped case (300 documents x
501 columns, 100 cells, each training on 270 of the rows plus about 130
SMOTE triples) and fits it twice by truncated Newton: once with one
logreg_descent_cells call over the shared matrix, and once as 100
logreg_descent calls, each on its cell's materialized rows (own rows, then
the interpolated SMOTE rows). Both sides have fewer rows than columns, so
both fit in document coefficients (kernels' document basis). Prints the
basis each side ran in, the best-of wall times, the matrix products each
side makes (one pass over its matrix each) and how many of them are Gram
products (X X^T or an image a G), their floating-point operations and
bytes, the Newton iterations, and the largest weight gap between the two.

SMOTE's neighbours: one facet shaped like the smote-nb workload's (600
documents, 120 minority rows, 10 folds), twice: on 501 count columns,
whose distances take sq_distances' Gram product, and on 50 columns of
averaged-word-vector-like floats, which take its row-by-row diff form. One
order per fold (minority_knn: a neighbour_order of the fold's own minority
rows, taken whole), against one neighbour_order over all 120 rows (one
product or row loop, one sort) that knn_in_splits restricts to every fold
in one pass. Prints the best-of wall times and exits 1 if any fold's
neighbour lists differ between the two.

Normalization: corpus.normalize on long, laughter-heavy seeded posts, under
the shipped table and under the same table plus a rule with a group that
never matches, which should cost one search per post and change no text.
Prints the best-of wall times and exits 1 if the two tables' texts differ.

The kernel cases run with numpy's OpenBLAS on one thread, as every
facetrec command does (facetrec.blas). Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from facetrec import blas, corpus, kernels
from facetrec.synth import LAUGH_LITERALS

DOCS, DIM, CELLS, OWN, SYNTH = 300, 501, 100, 270, 130
KNN_DOCS, KNN_MINORITY, KNN_FOLDS, KNN_K, EMBED_DIM = 600, 120, 10, 5, 50
NORM_POSTS, NORM_WORDS, NORM_LAUGH = 200, 400, 0.3
# Other words, among them near misses of the shipped rules.
NORM_OTHER_WORDS = ("ok", "que", "bom", "Hoje", "demais", "khaki", "bahaha", "kk", "ha!", "jajaj_")


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


class Products:
    """Counts the matrix products of every fit, each one pass over its
    matrix: in the weight basis, forward's W X^T and the adjoint's R X; in
    the document basis, the Gram matrix X X^T once per fit, each image a G
    and the weights a X that the stop rule and the result take. Records
    which basis each fit ran in."""

    PATCHED = ("forward", "_mean_adjoint", "lift", "weights")

    def __init__(self):
        self.count = self.gram = self.flops = self.bytes = 0
        self.bases = set()
        self._real = {name: getattr(kernels._Operator, name) for name in self.PATCHED}
        self._gram = kernels._gram

    def _tally(self, rows, inner, cols, gram=False):
        self.count += 1
        self.gram += gram
        self.flops += 2 * rows * inner * cols
        self.bytes += 8 * (rows * inner + inner * cols + rows * cols)

    def __enter__(self):
        counter, real = self, self._real

        def forward(op, W, B):
            if op.G is None:
                counter._tally(len(W), op.X.shape[1], len(op.X))
            return real["forward"](op, W, B)

        def _mean_adjoint(op, r, l2, V, out):
            if op.G is None:
                counter._tally(len(op.n), len(op.X), op.X.shape[1])
            return real["_mean_adjoint"](op, r, l2, V, out)

        def lift(op, V):
            if op.G is not None:
                counter._tally(len(V), len(op.X), len(op.X), gram=True)
            return real["lift"](op, V)

        def weights(op, V):
            if op.G is not None:
                counter._tally(len(V), len(op.X), op.X.shape[1])
            return real["weights"](op, V)

        def gram(X):
            G = counter._gram(X)
            if len(X) < X.shape[1]:
                counter._tally(len(X), X.shape[1], len(X), gram=True)
            counter.bases.add("weight" if G is None else "document")
            return G

        for name, fn in zip(self.PATCHED, (forward, _mean_adjoint, lift, weights)):
            setattr(kernels._Operator, name, fn)
        kernels._gram = gram
        return self

    def __exit__(self, *exc):
        for name, fn in self._real.items():
            setattr(kernels._Operator, name, fn)
        kernels._gram = self._gram


def knn_case(X, rng, repeat: int) -> bool:
    """Time per-fold searches against one restricted neighbour order over
    the rows of X; True if every fold's neighbour lists are equal."""
    members = np.sort(rng.choice(KNN_DOCS, size=KNN_MINORITY, replace=False))
    folds = rng.permutation(np.arange(KNN_DOCS) % KNN_FOLDS)
    # Each fold's minority rows, and the minority rows each fold holds out.
    fold_docs = [members[folds[members] != k] for k in range(KNN_FOLDS)]
    held = folds[members] == np.arange(KNN_FOLDS)[:, None]

    def per_fold():
        return [kernels.minority_knn(X[docs], KNN_K) for docs in fold_docs]

    def restricted():
        return kernels.knn_in_splits(kernels.neighbour_order(X[members]), held, KNN_K)

    t_fold, want = best_of(per_fold, repeat)
    t_order, got = best_of(restricted, repeat)
    same = all(np.array_equal(a, b) for a, b in zip(want, got))
    M = X[members]
    form = "Gram product" if kernels._gram_is_exact(M, np.einsum("ij,ij->i", M, M)) else "diff form"
    print(f"SMOTE neighbours: {KNN_MINORITY} minority rows of {KNN_DOCS} x {X.shape[1]} ({form}), "
          f"{KNN_FOLDS} folds, k={KNN_K}; order {KNN_MINORITY ** 2 * 8 / 1e3:.0f} KB")
    print(f"{'one order per fold':<26} {t_fold * 1e3:>10.1f} ms")
    print(f"{'one order, restricted':<26} {t_order * 1e3:>10.1f} ms")
    print(f"speedup {t_fold / t_order:.1f}x; neighbour lists {'identical' if same else 'DIFFER'}")
    return same


def normalize_case(rng, repeat: int) -> bool:
    """Time corpus.normalize over seeded posts under the shipped table and
    under it plus a rule that never matches; True if the texts are equal."""
    posts = []
    for _ in range(NORM_POSTS):
        laugh = rng.random(NORM_WORDS) < NORM_LAUGH
        words = np.where(laugh, rng.choice(LAUGH_LITERALS, NORM_WORDS), rng.choice(NORM_OTHER_WORDS, NORM_WORDS))
        posts.append(" ".join(words.tolist()))
    shipped = corpus.default_normalization_table()
    quiet = corpus.NormalizationTable(rules=(*shipped.rules, corpus.NormRule(r"(x)yz\1", "$XYZ$")))
    print(f"Normalization: {NORM_POSTS} posts of {NORM_WORDS} words, {NORM_LAUGH:.0%} laughter, "
          f"{sum(map(len, posts)) / 1e3:.0f} KB")
    texts = []
    for name, table in (("shipped table", shipped), ("shipped + (x)yz\\1", quiet)):
        t, out = best_of(lambda: [corpus.normalize(post, table) for post in posts], repeat)
        texts.append(out)
        print(f"{name:<26} {t * 1e3:>10.1f} ms  ({sum(o.count('$LAUGH$') for o in out)} replacements)")
    same = texts[0] == texts[1]
    print(f"normalized texts {'identical' if same else 'DIFFER'}")
    return same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=500, help="cap on Newton iterations (max_epochs)")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per side (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    with blas.one_thread():
        return run(args)


def run(args) -> int:
    X, cells = make_cells(np.random.default_rng(args.seed))
    fit = (1e-4, args.epochs, 1e-5)  # the default l2 and tol
    materialized = [
        (np.vstack([X[c.rows], kernels.interpolate_rows(X, c.seeds, c.nbrs, c.gammas)]),
         np.concatenate([c.y, np.full(len(c.seeds), c.minority)]))
        for c in cells
    ]

    with Products() as op_products:
        t_op, (W, _, losses, converged, _) = best_of(lambda: kernels.logreg_descent_cells(X, cells, *fit), args.repeat)
    with Products() as mat_products:
        t_mat, fits = best_of(lambda: [kernels.logreg_descent(Xc, yc, *fit) for Xc, yc in materialized], args.repeat)
    gap = max(float(np.max(np.abs(W[i] - w))) for i, (w, *_) in enumerate(fits))
    iterations = [len(h) - 1 for h in losses]

    print(f"{CELLS} cells over {DOCS} x {DIM}, {OWN} own rows and ~{SYNTH} SMOTE rows each; "
          f"Newton iterations {min(iterations)}-{max(iterations)}, {int(converged.sum())} converged "
          f"(cap {args.epochs})")
    header = f"{'side':<26} {'basis':>9} {'ms':>10} {'passes':>9} {'of Gram':>9} {'MFLOP':>9} {'MB read':>9}"
    print(header)
    print("-" * len(header))
    for name, t, counted in (("one batched fit", t_op, op_products), ("materialized (1 per cell)", t_mat, mat_products)):
        print(f"{name:<26} {'+'.join(sorted(counted.bases)):>9} {t * 1e3:>10.1f} {counted.count // args.repeat:>9} "
              f"{counted.gram // args.repeat:>9} {counted.flops / args.repeat / 1e6:>9.1f} "
              f"{counted.bytes / args.repeat / 1e6:>9.1f}")
    print(f"speedup {t_mat / t_op:.1f}x; largest weight gap {gap:.3g}")
    rng = np.random.default_rng(args.seed)
    counts = rng.poisson(0.5, size=(KNN_DOCS, DIM)).astype(np.float64)
    # Averages of unit-scale word vectors: floats, some rows repeated.
    vectors = rng.normal(size=(KNN_DOCS // 2, EMBED_DIM)) / np.sqrt(40.0)
    vectors = vectors[rng.integers(0, len(vectors), size=KNN_DOCS)]
    same = True
    for X in (counts, vectors):
        print()
        same &= knn_case(X, rng, args.repeat)
    print()
    same &= normalize_case(rng, args.repeat)
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
