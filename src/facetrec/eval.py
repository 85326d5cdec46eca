"""Stratified cross-validation, macro-F1 scoring and Table-style reporting.

Fold plans are built per facet (stratification keeps each fold's class mix
within one document of proportional). Given a realized feature matrix, for
every facet and fold the training split is resampled, a model is trained
and the held-out split is scored with macro-F1 over both classes. Reports
aggregate fold scores into per-facet means, an overall mean and a wins
count per system.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import kernels
from .errors import ConfigError, FacetrecError, ValidationError
from .inventory import FACET_NAMES
from .models import ModelSpec, lr_model, lr_training_set, predict, train, train_majority
from .resample import ResampleConfig, resampled_labels, smote, smote_triples
from .seeding import STREAM_FOLDS, STREAM_SMOTE, check_seed, derive_seed, substream

DEFAULT_FOLDS = 10

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FoldPlan:
    """Per-facet assignment of every document to an evaluation fold."""

    n_folds: int
    seed: int
    assignment: dict[str, np.ndarray]


def make_folds(labels: dict[str, np.ndarray], n_folds: int = DEFAULT_FOLDS, seed: int = 0) -> FoldPlan:
    """Seeded, stratified round-robin fold assignment, per facet.

    Documents are shuffled once per facet; positives are dealt round-robin
    over the folds first, negatives continue the same counter. Fold sizes
    therefore differ by at most one, and so do per-fold class counts.
    """
    if not isinstance(n_folds, int) or isinstance(n_folds, bool) or n_folds < 2:
        raise ConfigError(f"n_folds must be an integer of at least 2, got {n_folds!r}")
    check_seed(seed)
    if not labels:
        raise ValidationError("no facet labels to fold")
    assignment: dict[str, np.ndarray] = {}
    n_docs = None
    for facet, y in labels.items():
        if facet not in FACET_NAMES:
            raise ValidationError(f"unknown facet {facet!r}")
        y = np.asarray(y)
        if n_docs is None:
            n_docs = len(y)
            if n_docs < n_folds:
                raise ValidationError(
                    f"need at least {n_folds} documents for {n_folds} folds, got {n_docs}"
                )
        elif len(y) != n_docs:
            raise ValidationError("facet label vectors differ in length")
        rng = substream(seed, STREAM_FOLDS, FACET_NAMES.index(facet))
        perm = rng.permutation(n_docs)
        order = np.concatenate([perm[y[perm] == 1], perm[y[perm] == 0]])
        if order.size != n_docs:
            raise ValidationError(f"facet {facet}: labels must be 0 or 1")
        fold = np.empty(n_docs, dtype=np.int64)
        fold[order] = np.arange(n_docs) % n_folds
        assignment[facet] = fold
    return FoldPlan(n_folds=n_folds, seed=seed, assignment=assignment)


def f1_binary(gold, predicted, positive_class: int) -> float:
    """F1 of one class. All-absent-and-none-predicted counts as 1.0."""
    gold = np.asarray(gold)
    predicted = np.asarray(predicted)
    if gold.shape != predicted.shape:
        raise ValidationError(
            f"gold and predicted lengths differ: {gold.shape} vs {predicted.shape}"
        )
    if positive_class not in (0, 1):
        raise ValidationError(f"positive_class must be 0 or 1, got {positive_class!r}")
    is_pos = gold == positive_class
    said_pos = predicted == positive_class
    tp = int(np.sum(is_pos & said_pos))
    fp = int(np.sum(~is_pos & said_pos))
    fn = int(np.sum(is_pos & ~said_pos))
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def f1_macro(gold, predicted) -> float:
    """Mean of the two per-class F1 scores."""
    return 0.5 * (f1_binary(gold, predicted, 1) + f1_binary(gold, predicted, 0))


@dataclass(frozen=True)
class SystemResult:
    """Per-fold macro-F1 of one (features, model) system, keyed by facet."""

    name: str
    fold_f1: dict[str, tuple[float, ...]]


@dataclass
class EvaluationReport:
    """Fold scores for one or more systems over the same facets and folds."""

    facets: tuple[str, ...]
    n_folds: int
    systems: tuple[SystemResult, ...]

    def facet_mean(self, system: SystemResult, facet: str) -> float:
        return float(np.mean(system.fold_f1[facet]))

    def overall(self, system: SystemResult) -> float:
        return float(np.mean([self.facet_mean(system, f) for f in self.facets]))

    def wins(self) -> dict[str, int]:
        """Per system: count of facets where it ties or holds the best mean."""
        counts = {s.name: 0 for s in self.systems}
        for facet in self.facets:
            means = [self.facet_mean(s, facet) for s in self.systems]
            best = max(means)
            for s, m in zip(self.systems, means):
                if m == best:
                    counts[s.name] += 1
        return counts


@contextmanager
def _cell(facet, k):
    # Prefix an error of one facet x fold cell with where it happened.
    try:
        yield
    except FacetrecError as e:
        raise type(e)(f"facet {facet}, fold {k}: {e}") from e


def _evaluate_facet(X, n_folds, model_spec, resample_cfg, plan_seed, facet, y, folds):
    # One facet's folds in order: the macro-F1 of a majority or naive Bayes
    # model, or a logistic-regression cell, checked before any descent runs.
    # Models are scored as they are trained, not held, and X_aug stays bound
    # until the next fold's SMOTE rows exist. On a 600 x 3000 bag of words,
    # holding the models or freeing X_aug early let the allocator return
    # pages and fault them in again: 3 and 5 times the page faults.
    facet_idx = FACET_NAMES.index(facet)
    out = []
    for k in range(n_folds):
        train_rows = folds != k
        cfg = replace(resample_cfg, seed=derive_seed(plan_seed, STREAM_SMOTE, facet_idx, k))
        with _cell(facet, k):
            if model_spec.kind == "logistic_regression":
                rows = np.flatnonzero(train_rows)
                seeds, nbrs, gammas, y_aug = smote_triples(*lr_training_set(X[rows], y[rows]), cfg)
                out.append(kernels.LRCell(rows, y[rows], rows[seeds], rows[nbrs], gammas, int(y_aug[-1])))
                continue
            if model_spec.kind == "majority":
                # The baseline reads only labels, so it skips SMOTE's rows.
                model = train_majority(resampled_labels(y[train_rows], cfg), feature_dim=X.shape[1])
            else:
                X_aug, y_aug = smote(X[train_rows], y[train_rows], cfg)
                model = train(model_spec, X_aug, y_aug)
            pred, _ = predict(model, X[folds == k])
        out.append(f1_macro(y[folds == k], pred))
    return out


def run_experiment(
    corpus,
    X,
    model_spec: ModelSpec,
    resample_cfg: ResampleConfig,
    plan: FoldPlan,
    jobs: int = 1,
    name: str = "system",
) -> dict[str, tuple[float, ...]]:
    """Cross-validate one model on a realized feature matrix (one row per
    corpus document): resample each training split, train, and score every
    held-out split with macro-F1. Returns the fold scores keyed by facet.

    Facets flagged degenerate by the corpus are skipped. Facet cells are
    independent; jobs > 1 evaluates facets (for logistic regression: plans
    their cells) in worker processes, and results are merged in facet order
    regardless of completion order. All logistic-regression cells, in facet
    then fold order, then train in one ``kernels.logreg_descent_cells``
    descent over X, and an info log line headed ``name`` sums up their
    epochs.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    facets = corpus.active_facets
    if not facets:
        raise ValidationError("all facets are degenerate; nothing to evaluate")
    if X.shape[0] != len(corpus.documents):
        raise ValidationError("feature matrix does not match corpus size")
    for facet in facets:
        if facet not in plan.assignment:
            raise ValidationError(f"fold plan is missing facet {facet!r}")
        if len(plan.assignment[facet]) != len(corpus.documents):
            raise ValidationError("fold plan does not match corpus size")

    task = partial(_evaluate_facet, X, plan.n_folds, model_spec, resample_cfg, plan.seed)
    args = (facets, [corpus.labels(f) for f in facets], [plan.assignment[f] for f in facets])
    if jobs == 1:
        results = list(map(task, *args))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(task, *args))
    if model_spec.kind != "logistic_regression":
        return {facet: tuple(fold_f1) for facet, fold_f1 in zip(facets, results)}

    hyper = model_spec.lr
    fits = kernels.logreg_descent_cells(
        X, [cell for cells in results for cell in cells],
        hyper.learning_rate, hyper.l2, hyper.max_epochs, hyper.tol,
    )
    epochs = [len(losses) - 1 for losses in fits[2]]
    converged = sum(e < hyper.max_epochs and not bad for e, bad in zip(epochs, fits[3]))
    log.info("%s: LR converged in %d/%d cells (epochs %d-%d)",
             name, converged, len(epochs), min(epochs), max(epochs))
    fits = iter(zip(*fits))
    scores = {}
    for facet in facets:
        y, folds = corpus.labels(facet), plan.assignment[facet]
        fold_f1 = []
        for k in range(plan.n_folds):
            with _cell(facet, k):
                pred, _ = predict(lr_model(hyper, *next(fits)), X[folds == k])
            fold_f1.append(f1_macro(y[folds == k], pred))
        scores[facet] = tuple(fold_f1)
    return scores


def render_report(report: EvaluationReport, fmt: str = "text") -> str:
    """Render as an aligned table (2 decimals) or long-form CSV (full
    precision; sections: fold, facet_mean, overall, wins)."""
    if fmt == "text":
        return _render_text(report)
    if fmt == "csv":
        return _render_csv(report)
    raise ConfigError(f"format must be 'text' or 'csv', got {fmt!r}")


def _render_text(report: EvaluationReport) -> str:
    wins = report.wins()
    headers = ["system", "overall", "wins", *FACET_NAMES]
    rows = []
    for system in report.systems:
        cells = [system.name, f"{report.overall(system):.2f}", str(wins[system.name])]
        for facet in FACET_NAMES:
            if facet in report.facets:
                cells.append(f"{report.facet_mean(system, facet):.2f}")
            else:
                cells.append("-")
        rows.append(cells)
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(
        h.ljust(widths[i]) if i == 0 else h.rjust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                c.ljust(widths[i]) if i == 0 else c.rjust(widths[i]) for i, c in enumerate(row)
            )
        )
    return "\n".join(lines) + "\n"


def _render_csv(report: EvaluationReport) -> str:
    wins = report.wins()
    lines = ["section,model,facet,fold,f1"]
    for system in report.systems:
        for facet in report.facets:
            for k, value in enumerate(system.fold_f1[facet]):
                lines.append(f"fold,{system.name},{facet},{k},{value!r}")
        for facet in report.facets:
            lines.append(f"facet_mean,{system.name},{facet},,{report.facet_mean(system, facet)!r}")
        lines.append(f"overall,{system.name},,,{report.overall(system)!r}")
        lines.append(f"wins,{system.name},,,{wins[system.name]}")
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> EvaluationReport:
    """Rebuild a report from its CSV rendering (fold rows carry full
    precision, so aggregates are recomputed losslessly)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "section,model,facet,fold,f1":
        raise ValidationError("not a report CSV: missing or wrong header")
    fold_rows: dict[str, dict[str, dict[int, float]]] = {}
    system_order: list[str] = []
    facet_order: list[str] = []
    max_fold = -1
    for ln_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(f"report CSV line {ln_no}: expected 5 fields")
        section, system, facet, fold, value = parts
        if section == "fold":
            try:
                k = int(fold)
                f1 = float(value)
            except ValueError as e:
                raise ValidationError(f"report CSV line {ln_no}: {e}") from e
            if system not in fold_rows:
                fold_rows[system] = {}
                system_order.append(system)
            if facet not in fold_rows[system]:
                fold_rows[system][facet] = {}
                if facet not in facet_order:
                    facet_order.append(facet)
            fold_rows[system][facet][k] = f1
            max_fold = max(max_fold, k)
        elif section in ("facet_mean", "overall", "wins"):
            continue  # redundant aggregates, recomputed from fold rows
        else:
            raise ValidationError(f"report CSV line {ln_no}: unknown section {section!r}")
    if max_fold < 0:
        raise ValidationError("report CSV has no fold rows")
    n_folds = max_fold + 1
    systems = []
    for name in system_order:
        per_facet = {}
        for facet in facet_order:
            folds = fold_rows[name].get(facet)
            if folds is None or sorted(folds) != list(range(n_folds)):
                raise ValidationError(
                    f"report CSV: system {name!r} facet {facet!r} has incomplete folds"
                )
            per_facet[facet] = tuple(folds[k] for k in range(n_folds))
        systems.append(SystemResult(name=name, fold_f1=per_facet))
    return EvaluationReport(
        facets=tuple(facet_order), n_folds=n_folds, systems=tuple(systems)
    )
