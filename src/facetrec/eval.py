"""Stratified cross-validation, macro-F1 scoring and Table-style reporting.

Fold plans are built per facet (stratification keeps each fold's class mix
within one document of proportional). Given a realized feature matrix, each
facet x fold cell is planned once (``plan_cells``, through ``resample``'s
cell planner): its training rows and SMOTE's rows as interpolation triples
of rows of the matrix, whose neighbours come from one sorted neighbour
order per facet and minority class, restricted to every fold at once.
Every model kind on that matrix trains from the same cells without copying
rows, and each held-out split is scored with macro-F1 over both classes,
all folds of a facet from one count of its predictions. Reports aggregate
fold scores into per-facet means, an overall mean and a wins count per
system."""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import kernels
from .errors import ConfigError, FacetrecError, ValidationError, is_int
from .inventory import FACET_NAMES
from .models import ModelSpec, fit_cells, predict
from .resample import ResampleConfig, _as_labels, plan_cell, smote_neighbours
from .seeding import STREAM_FOLDS, STREAM_SMOTE, check_seed, derive_seed, substream

DEFAULT_FOLDS = 10

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FoldPlan:
    """Per-facet assignment of every document to an evaluation fold."""

    n_folds: int
    assignment: dict[str, np.ndarray]


def make_folds(labels: dict[str, np.ndarray], n_folds: int = DEFAULT_FOLDS, seed: int = 0) -> FoldPlan:
    """Seeded, stratified round-robin fold assignment, per facet.

    Documents are shuffled once per facet; positives are dealt round-robin
    over the folds first, negatives continue the same counter. Fold sizes
    therefore differ by at most one, and so do per-fold class counts.
    """
    if not is_int(n_folds) or n_folds < 2:
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
    return FoldPlan(n_folds=n_folds, assignment=assignment)


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
    return _f1(tp, fp, fn)


def _f1(tp: int, fp: int, fn: int) -> float:
    # F1 of one class from its true positive, false positive and false
    # negative counts, the one formula behind every F1 here.
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def f1_macro(gold, predicted) -> float:
    """Mean of the two per-class F1 scores."""
    return 0.5 * (f1_binary(gold, predicted, 1) + f1_binary(gold, predicted, 0))


def fold_f1(gold, predicted, folds, n_folds: int) -> tuple[float, ...]:
    """Macro-F1 of every fold k in range(n_folds): the same float as
    ``f1_macro(gold[folds == k], predicted[folds == k])``, from one count of
    the (fold, gold, predicted) triples. Labels are 0 or 1, and every fold
    number lies in range(n_folds)."""
    cells = np.bincount(folds * 4 + gold * 2 + predicted, minlength=4 * n_folds)
    # Per fold, the counts of (gold, predicted) = (0, 0), (0, 1), (1, 0) and
    # (1, 1); class 0's false positives are class 1's false negatives.
    return tuple(
        0.5 * (_f1(tp, fp, fn) + _f1(tn, fn, fp))
        for tn, fp, fn, tp in cells.reshape(n_folds, 4).tolist()
    )


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
def _at(where):
    # Prefix an error of one facet, or facet x fold cell, with where it happened.
    try:
        yield
    except FacetrecError as e:
        raise type(e)(f"{where}: {e}") from e


@dataclass(frozen=True)
class CellPlan:
    """Every facet x fold training cell of one feature matrix, which every
    model kind trains from (``plan_cells``)."""

    facets: tuple[str, ...]
    folds: FoldPlan
    labels: tuple[np.ndarray, ...]  # per facet, int64 0/1 labels of all documents
    cells: tuple[tuple[kernels.LRCell, ...], ...]  # per facet, its cells in fold order


def plan_cells(corpus, X, resample_cfg: ResampleConfig, fold_plan: FoldPlan) -> CellPlan:
    """Plan every facet x fold cell of a realized feature matrix (one row per
    corpus document), skipping degenerate facets: each training split's rows
    and SMOTE's triples (``resample.plan_cell``, with ``smote_neighbours``
    over the facet's folds and each cell's own seed, derived from
    ``resample_cfg.seed``, the facet and the fold). Labels are checked
    once per facet, and each cell as it is planned, so an error names its
    facet and fold before any model trains."""
    facets = corpus.active_facets
    if not facets:
        raise ValidationError("all facets are degenerate; nothing to evaluate")
    if X.shape[0] != len(corpus.documents):
        raise ValidationError("feature matrix does not match corpus size")
    n_folds, labels, cells = fold_plan.n_folds, [], []
    for facet in facets:
        if facet not in fold_plan.assignment:
            raise ValidationError(f"fold plan is missing facet {facet!r}")
        folds = fold_plan.assignment[facet]
        if len(folds) != len(corpus.documents):
            raise ValidationError("fold plan does not match corpus size")
        if len(folds) and not 0 <= folds.min() <= folds.max() < n_folds:
            raise ValidationError(f"fold plan of facet {facet} has folds outside 0..{n_folds - 1}")
        with _at(f"facet {facet}"):
            y = _as_labels(corpus.labels(facet))
        held = folds == np.arange(n_folds)[:, None]
        neighbours, facet_cells = smote_neighbours(X, y, held), []
        for k in range(n_folds):
            seed = derive_seed(resample_cfg.seed, STREAM_SMOTE, FACET_NAMES.index(facet), k)
            with _at(f"facet {facet}, fold {k}"):
                facet_cells.append(plan_cell(y, np.flatnonzero(~held[k]), replace(resample_cfg, seed=seed),
                                             partial(neighbours, split=k)))
        labels.append(y)
        cells.append(tuple(facet_cells))
    return CellPlan(facets, fold_plan, tuple(labels), tuple(cells))


def run_experiment(X, model_spec: ModelSpec, cells: CellPlan, name: str = "system") -> dict[str, tuple[float, ...]]:
    """Cross-validate one model on the feature matrix X that ``cells`` was
    planned from: train every cell's model (``models.fit_cells``) and score
    each held-out split with macro-F1, all folds of a facet from one count
    (``fold_f1``). Returns the fold scores keyed by facet. Info log lines
    headed ``name`` sum up SMOTE's rows and LR's iterations, and a warning
    names each LR cell that stops without converging."""
    facets, n_folds = cells.facets, cells.folds.n_folds
    models = fit_cells(X, model_spec, cells.cells, name, lambda i: f"facet {facets[i // n_folds]}, fold {i % n_folds}")
    scores = {}
    for facet, y in zip(facets, cells.labels):
        folds = cells.folds.assignment[facet]
        pred = np.empty_like(y)
        for k in range(n_folds):
            held_out = folds == k
            with _at(f"facet {facet}, fold {k}"):
                pred[held_out], _ = predict(next(models), X, held_out)
        scores[facet] = fold_f1(y, pred, folds, n_folds)
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
    rows = [["system", "overall", "wins", *FACET_NAMES]]
    for system in report.systems:
        means = [f"{report.facet_mean(system, f):.2f}" if f in report.facets else "-" for f in FACET_NAMES]
        rows.append([system.name, f"{report.overall(system):.2f}", str(wins[system.name]), *means])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    rows.insert(1, ["-" * w for w in widths])
    # The system name is left-aligned, every other column right-aligned.
    return "".join(
        "  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(row, widths))) + "\n"
        for row in rows
    )


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
    precision, so aggregates are recomputed losslessly). Blank lines are
    skipped; errors name their line of ``text``."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "section,model,facet,fold,f1":
        raise ValidationError("not a report CSV: missing or wrong header")
    fold_rows: dict[str, dict[str, dict[int, float]]] = {}
    facet_order: list[str] = []
    max_fold = -1
    for ln_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(f"report CSV line {ln_no}: expected 5 fields")
        section, system, facet, fold, value = parts
        if section in ("facet_mean", "overall", "wins"):
            continue  # redundant aggregates, recomputed from fold rows
        if section != "fold":
            raise ValidationError(f"report CSV line {ln_no}: unknown section {section!r}")
        try:
            k = int(fold)
            f1 = float(value)
        except ValueError as e:
            raise ValidationError(f"report CSV line {ln_no}: {e}") from e
        if facet not in FACET_NAMES:
            raise ValidationError(f"report CSV line {ln_no}: unknown facet {facet!r}")
        if not 0.0 <= f1 <= 1.0:  # also rejects nan
            raise ValidationError(f"report CSV line {ln_no}: F1 must lie in [0, 1], got {value!r}")
        folds = fold_rows.setdefault(system, {}).setdefault(facet, {})
        if k in folds:
            raise ValidationError(f"report CSV line {ln_no}: repeats fold {k} of {system!r} on {facet}")
        if facet not in facet_order:
            facet_order.append(facet)
        folds[k] = f1
        max_fold = max(max_fold, k)
    if max_fold < 0:
        raise ValidationError("report CSV has no fold rows")
    n_folds = max_fold + 1
    systems = []
    for name, by_facet in fold_rows.items():
        per_facet = {}
        for facet in facet_order:
            folds = by_facet.get(facet)
            if folds is None or sorted(folds) != list(range(n_folds)):
                raise ValidationError(
                    f"report CSV: system {name!r} facet {facet!r} has incomplete folds"
                )
            per_facet[facet] = tuple(folds[k] for k in range(n_folds))
        systems.append(SystemResult(name=name, fold_f1=per_facet))
    return EvaluationReport(
        facets=tuple(facet_order), n_folds=n_folds, systems=tuple(systems)
    )
