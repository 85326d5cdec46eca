"""Throughput comparison of the numpy and numba kernel paths.

Times each hot kernel on synthetic data with both implementations and
prints a small table. The numba twins are compiled (or loaded from the
on-disk cache) during a warm-up call that is excluded from the timings.
A last table times 100 descents on cells of the demo shape (54 x 50): one
logreg_descent_numpy call per cell against one logreg_descent_batched
call for all of them. It needs numpy only.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    FACETREC_BACKEND=numpy python3 benchmarks/bench_kernels.py  # fallback only
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
    ap.add_argument("--rows", type=int, default=4000, help="training rows")
    ap.add_argument("--dim", type=int, default=50, help="feature columns")
    ap.add_argument("--epochs", type=int, default=200, help="descent epochs")
    ap.add_argument("--minority", type=int, default=600, help="minority rows for the knn kernel")
    ap.add_argument("--synthetic", type=int, default=2000, help="interpolated rows")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per kernel (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    X = np.ascontiguousarray(rng.standard_normal((args.rows, args.dim)))
    y = np.ascontiguousarray((rng.random(args.rows) < 0.5).astype(np.float64))
    w = np.ascontiguousarray(rng.standard_normal(args.dim))
    M = np.ascontiguousarray(rng.standard_normal((args.minority, args.dim)))
    k_eff = min(5, args.minority - 1)
    seed_pos = np.ascontiguousarray(rng.integers(0, args.minority, size=args.synthetic))
    nbr_pos = np.ascontiguousarray(rng.integers(0, args.minority, size=args.synthetic))
    gammas = np.ascontiguousarray(rng.random(args.synthetic))

    cases = [
        (
            "logreg loss+grad",
            kernels.logreg_loss_grad_numpy,
            kernels.logreg_loss_grad_numba,
            (X, y, w, 0.1, 1e-4),
        ),
        (
            f"logreg descent ({args.epochs} epochs)",
            kernels.logreg_descent_numpy,
            kernels.logreg_descent_numba if kernels.logreg_loss_grad_numba else None,
            (X, y, 0.1, 1e-4, args.epochs, 0.0),
        ),
        (
            "minority knn (k=5)",
            kernels.minority_knn_numpy,
            kernels.minority_knn_numba,
            (M, k_eff),
        ),
        (
            "segment interpolation",
            kernels.interpolate_rows_numpy,
            kernels.interpolate_rows_numba,
            (M, seed_pos, nbr_pos, gammas),
        ),
    ]

    print(f"active backend: {kernels.BACKEND}")
    print(f"rows={args.rows} dim={args.dim} minority={args.minority} synthetic={args.synthetic}")
    header = f"{'kernel':<28} {'numpy ms':>10} {'numba ms':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, fn_np, fn_nb, call_args in cases:
        t_np = best_of(fn_np, call_args, args.repeat)
        if fn_nb is None:
            print(f"{name:<28} {t_np * 1e3:>10.3f} {'-':>10} {'-':>9}")
            continue
        fn_nb(*call_args)  # warm-up: compile or load from cache
        t_nb = best_of(fn_nb, call_args, args.repeat)
        print(f"{name:<28} {t_np * 1e3:>10.3f} {t_nb * 1e3:>10.3f} {t_np / t_nb:>8.1f}x")

    cells = 100
    Xc = rng.standard_normal((cells, 54, 50)) / 7.0
    yc = (rng.random((cells, 54)) < 0.5).astype(np.float64)
    descent = (0.1, 1e-4, args.epochs, 0.0)

    def per_cell():
        for i in range(cells):
            kernels.logreg_descent_numpy(Xc[i], yc[i], *descent)

    t_cells = best_of(per_cell, (), args.repeat)
    t_batch = best_of(kernels.logreg_descent_batched, (Xc, yc, *descent), args.repeat)
    print()
    header = f"{'kernel':<28} {'cells ms':>10} {'batch ms':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    name = f"batched descent ({cells}x54x50)"
    print(f"{name:<28} {t_cells * 1e3:>10.3f} {t_batch * 1e3:>10.3f} {t_cells / t_batch:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
