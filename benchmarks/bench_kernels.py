"""Per-cell against batched logistic-regression descent.

Times 100 descents on cells of the demo shape (54 x 50): one
logreg_descent call per cell against one logreg_descent_batched call for
all of them, and prints the best-of wall times.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from facetrec import kernels


def best_of(fn, args, repeat: int) -> float:
    """Best wall time in seconds over ``repeat`` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=200, help="descent epochs")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per kernel (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    cells = 100
    Xc = rng.standard_normal((cells, 54, 50)) / 7.0
    yc = (rng.random((cells, 54)) < 0.5).astype(np.float64)
    descent = (0.1, 1e-4, args.epochs, 0.0)

    def per_cell():
        for i in range(cells):
            kernels.logreg_descent(Xc[i], yc[i], *descent)

    t_cells = best_of(per_cell, (), args.repeat)
    t_batch = best_of(kernels.logreg_descent_batched, (Xc, yc, *descent), args.repeat)
    header = f"{'kernel':<28} {'cells ms':>10} {'batch ms':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    name = f"batched descent ({cells}x54x50)"
    print(f"{name:<28} {t_cells * 1e3:>10.3f} {t_batch * 1e3:>10.3f} {t_cells / t_batch:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
