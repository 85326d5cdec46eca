"""Output and method-property checks, written apart from facetrec's own code.

Everything here is derived from the report format, the experiment spec and
the method (SMOTE, gradient descent), never from a stored copy of earlier
output. Each check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The ten facets of the scoring key. `facetrec synth` plants every facet at
# the requested positive rate (at least one author on each side), so none is
# ever degenerate and every report covers all ten.
FACETS = (
    "Assertiveness",
    "Activity",
    "Altruism",
    "Compliance",
    "Order",
    "SelfDiscipline",
    "Anxiety",
    "Depression",
    "Aesthetics",
    "Ideas",
)

HEADER = "section,model,facet,fold,f1"
AGGREGATE_TOL = 1e-12
BASELINE_TOL = 0.01
MIN_MARGIN = 0.15


@dataclass
class Report:
    """The rows of a report.csv, keyed the way the checks need them."""

    systems: list[str] = field(default_factory=list)
    folds: dict[tuple[str, str], dict[int, float]] = field(default_factory=dict)
    facet_means: dict[tuple[str, str], float] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)
    wins: dict[str, int] = field(default_factory=dict)
    n_fold_rows: int = 0
    n_rows: int = 0


def read_report(text: str) -> tuple[Report, list[str]]:
    """Parse report.csv text; malformed lines are reported, not raised."""
    rep = Report()
    problems = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return rep, [f"header is not {HEADER!r}"]
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            problems.append(f"line {no}: {len(parts)} fields, expected 5")
            continue
        section, system, facet, fold, value = parts
        rep.n_rows += 1
        if system not in rep.systems:
            rep.systems.append(system)
        try:
            if section == "fold":
                cell = rep.folds.setdefault((system, facet), {})
                if int(fold) in cell:
                    problems.append(f"line {no}: {system}/{facet} fold {fold} repeated")
                cell[int(fold)] = float(value)
                rep.n_fold_rows += 1
            elif section == "facet_mean":
                rep.facet_means[(system, facet)] = float(value)
            elif section == "overall":
                rep.overall[system] = float(value)
            elif section == "wins":
                rep.wins[system] = int(value)
            else:
                problems.append(f"line {no}: unknown section {section!r}")
        except ValueError as e:
            problems.append(f"line {no}: {e}")
    return rep, problems


def baseline_f1(pos_rate: float) -> float:
    """Macro-F1 of predicting the majority class on every test row.

    The positive-class F1 is 0; the majority-class F1 is 2(1-m)/(2(1-m)+m)
    for minority share m. SMOTE raises the minority to parity, the tie
    goes negative, so the baseline still predicts negative everywhere.
    """
    m = min(pos_rate, 1.0 - pos_rate)
    return 0.5 * 2.0 * (1.0 - m) / (2.0 * (1.0 - m) + m)


def check_report(text: str, systems, n_folds: int, pos_rate: float) -> list[str]:
    """Check a report.csv against the experiment that should have produced it."""
    rep, problems = read_report(text)
    if problems:
        return problems
    systems = list(systems)
    if rep.systems != systems:
        problems.append(f"systems {rep.systems} != expected {systems}")
    want_fold_rows = len(systems) * len(FACETS) * n_folds
    if rep.n_fold_rows != want_fold_rows:
        problems.append(f"{rep.n_fold_rows} fold rows, expected {want_fold_rows}")
    want_rows = len(systems) * (len(FACETS) * n_folds + len(FACETS) + 2)
    if rep.n_rows != want_rows:
        problems.append(f"{rep.n_rows} data rows, expected {want_rows}")
    if problems:
        return problems

    means: dict[str, dict[str, float]] = {}
    for system in systems:
        means[system] = {}
        for facet in FACETS:
            cell = rep.folds.get((system, facet), {})
            if sorted(cell) != list(range(n_folds)):
                problems.append(f"{system}/{facet}: folds {sorted(cell)}")
                continue
            values = [cell[k] for k in range(n_folds)]
            bad = [v for v in values if not 0.0 <= v <= 1.0]
            if bad:
                problems.append(f"{system}/{facet}: F1 outside [0, 1]: {bad}")
            mean = math.fsum(values) / n_folds
            means[system][facet] = mean
            got = rep.facet_means.get((system, facet))
            if got is None or abs(got - mean) > AGGREGATE_TOL:
                problems.append(f"{system}/{facet}: facet_mean {got!r}, recomputed {mean!r}")
        if len(means[system]) != len(FACETS):
            continue
        overall = math.fsum(means[system].values()) / len(FACETS)
        got = rep.overall.get(system)
        if got is None or abs(got - overall) > AGGREGATE_TOL:
            problems.append(f"{system}: overall {got!r}, recomputed {overall!r}")
    if problems:
        return problems

    wins = {s: 0 for s in systems}
    for facet in FACETS:
        best = max(means[s][facet] for s in systems)
        for s in systems:
            if means[s][facet] >= best - AGGREGATE_TOL:
                wins[s] += 1
    for s in systems:
        if rep.wins.get(s) != wins[s]:
            problems.append(f"{s}: wins {rep.wins.get(s)!r}, recomputed {wins[s]}")

    floor = baseline_f1(pos_rate)
    if "baseline" in systems:
        for facet in FACETS:
            if abs(means["baseline"][facet] - floor) > BASELINE_TOL:
                problems.append(
                    f"baseline/{facet}: {means['baseline'][facet]:.4f}, expected {floor:.4f}"
                )
        base = rep.overall["baseline"]
        for s in systems:
            if s != "baseline" and rep.overall[s] < base + MIN_MARGIN:
                problems.append(
                    f"{s}: overall {rep.overall[s]:.4f} does not beat baseline "
                    f"{base:.4f} by {MIN_MARGIN}"
                )
    return problems


def _dense(X) -> np.ndarray:
    return np.asarray(X.toarray() if hasattr(X, "toarray") else X, dtype=np.float64)


def check_smote(X, y, ratio: float, X_aug, y_aug) -> list[str]:
    """SMOTE keeps the original rows first and unchanged, brings the minority
    to floor(ratio * majority) and puts every synthetic row inside the
    column range of the minority rows it was drawn from."""
    Xd = _dense(X)
    y = np.asarray(y)
    X_aug = np.asarray(X_aug, dtype=np.float64)
    y_aug = np.asarray(y_aug)
    n = len(y)
    problems = []
    if X_aug.shape[0] != len(y_aug) or X_aug.shape[1] != Xd.shape[1]:
        return [f"augmented shapes {X_aug.shape} / {y_aug.shape} do not match"]
    head = np.ascontiguousarray(X_aug[:n])
    if head.shape != Xd.shape or head.tobytes() != np.ascontiguousarray(Xd).tobytes():
        problems.append("original rows are not kept first and bit-for-bit")
    if not np.array_equal(y_aug[:n], y):
        problems.append("original labels are not kept first")
    n_pos = int(np.sum(y == 1))
    n_neg = n - n_pos
    if n_pos == n_neg:
        if len(y_aug) != n:
            problems.append(f"balanced input gained {len(y_aug) - n} rows")
        return problems
    minority = 1 if n_pos < n_neg else 0
    n_min, n_maj = min(n_pos, n_neg), max(n_pos, n_neg)
    want_min = max(n_min, math.floor(ratio * n_maj))
    got_min = int(np.sum(y_aug == minority))
    if got_min != want_min or len(y_aug) - got_min != n_maj:
        problems.append(
            f"class counts {got_min}/{len(y_aug) - got_min}, expected {want_min}/{n_maj}"
        )
    synth = X_aug[n:]
    if len(synth):
        if np.any(y_aug[n:] != minority):
            problems.append("a synthetic row is not labelled minority")
        M = Xd[y == minority]
        lo, hi = M.min(axis=0), M.max(axis=0)
        tol = 1e-12 * (1.0 + float(np.abs(M).max()))
        outside = int(np.sum(np.any((synth < lo - tol) | (synth > hi + tol), axis=1)))
        if outside:
            problems.append(f"{outside} synthetic rows leave the minority column range")
    return problems


def check_lr_descent(X, learning_rate: float, l2: float, losses) -> list[str]:
    """Gradient descent with a step below 2/L never raises the loss.

    L bounds the curvature of mean logistic loss plus (l2/2)|w|^2 with an
    unregularized bias: the sigmoid slope is at most 1/4, so
    L <= max_i(|x_i|^2 + 1) / 4 + l2.
    """
    Xd = _dense(X)
    losses = np.asarray(losses, dtype=np.float64)
    problems = []
    L = 0.25 * float(np.max(np.sum(Xd * Xd, axis=1) + 1.0)) + l2
    if not learning_rate < 2.0 / L:
        problems.append(f"step {learning_rate} is not below 2/L = {2.0 / L:.4g}")
    if not np.all(np.isfinite(losses)):
        problems.append("loss history has non-finite values")
    rises = int(np.sum(np.diff(losses) > 0.0))
    if rises:
        problems.append(f"loss rose in {rises} of {len(losses) - 1} epochs")
    return problems
