"""SMOTE's neighbours from one sorted distance matrix per facet and class.

`run`'s cell planner (`resample.plan_cell` with `resample.smote_neighbours`)
computes the squared distances among a facet's rows of one class once and
sorts each row of that matrix once; each fold restricts those orders to its
own minority rows.
These tests hold every fold to what a search on its own minority rows
(`kernels.minority_knn`, the per-fold search) gives: the same neighbour
lists and the same triples, bit for bit, whose rows are the ones
`resample.smote` adds to the fold's own rows. `report.csv` cannot show this
on the default corpora, where the trained systems score 1.00 whatever the
neighbours are, so the lists are compared directly.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from facetrec import kernels, resample
from facetrec.corpus import assign_labels, build_documents, default_normalization_table, load_corpus
from facetrec.errors import ValidationError
from facetrec.eval import FoldPlan, make_folds, plan_cells, run_experiment
from facetrec.features import BowSpec, EmbeddingSpec, realize_features
from facetrec.inventory import FACET_NAMES, default_scoring_key, score_inventory
from facetrec.models import LRHyperparams, ModelSpec
from facetrec.resample import ResampleConfig, plan_cell
from facetrec.seeding import STREAM_SMOTE, derive_seed
from facetrec.synth import SynthSpec, write_bundle

NB = ModelSpec(kind="naive_bayes")
LR = ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=1))


def _record_smote(monkeypatch):
    """Record every cell a run plans (``plan_cell`` as `eval` calls it), in
    call order: its inputs, the neighbour lists its neighbour function gave
    (None if it drew no rows) and the cell it returned."""
    calls = []
    real = resample.plan_cell

    def recording(y, rows, cfg, neighbours):
        call = {"y": y, "rows": rows, "cfg": cfg, "knn": None}
        calls.append(call)

        def recorded(at, k):
            call["knn"] = neighbours(at, k)
            return call["knn"]

        call["cell"] = real(y, rows, cfg, recorded)
        return call["cell"]

    monkeypatch.setattr("facetrec.eval.plan_cell", recording)
    return calls


def _count_matrices(monkeypatch):
    """Record the row count of every distance matrix a run builds."""
    built = []
    real = kernels.sq_distances

    def counting(M):
        built.append(len(M))
        return real(M)

    monkeypatch.setattr(kernels, "sq_distances", counting)
    return built


def _assert_matches_per_fold_search(calls, X, assignments):
    """Each recorded call's neighbour lists and cell equal those of the
    per-fold search on that call's own minority rows, and the cell's
    triples give the rows ``smote`` adds to the fold's own rows. The calls
    are a run's over X, facet by facet and fold by fold, with the facets'
    fold assignments in order. Returns how many calls drew synthetic rows."""
    n_folds = int(assignments[0].max()) + 1
    assert len(calls) == n_folds * len(assignments)
    drawn = 0
    for i, call in enumerate(calls):
        rows, cfg, cell = call["rows"], call["cfg"], call["cell"]
        assert np.array_equal(rows, np.flatnonzero(assignments[i // n_folds] != i % n_folds))
        if not len(cell.seeds):
            assert call["knn"] is None
            continue
        drawn += 1
        at = rows[cell.y == cell.minority]
        assert np.array_equal(call["knn"], kernels.minority_knn(X[at], cfg.k_neighbors))
        alone = plan_cell(call["y"], rows, cfg, lambda docs, k: kernels.minority_knn(X[docs], k))
        assert all(np.array_equal(a, b) for a, b in zip(cell, alone))
        X_aug, y_aug = resample.smote(X[rows], cell.y, cfg)
        assert np.array_equal(X_aug[len(rows):], kernels.interpolate_rows(X, cell.seeds, cell.nbrs, cell.gammas))
        assert np.array_equal(y_aug[len(rows):], np.full(len(cell.seeds), cell.minority))
    return drawn


def _one_facet(X, y, folds, spec, facet="Anxiety", seed=4):
    # One facet's fold scores, planned and run on a stand-in corpus.
    corpus = SimpleNamespace(active_facets=(facet,), documents=range(len(y)), labels=lambda f: y)
    plan = FoldPlan(n_folds=int(folds.max()) + 1, assignment={facet: folds})
    return run_experiment(X, spec, plan_cells(corpus, X, ResampleConfig(seed=seed), plan))[facet]


# --- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    """A seeded synth corpus at 20% positives, with its embedding files."""
    out = tmp_path_factory.mktemp("synth")
    paths = write_bundle(out, SynthSpec(seed=7, authors=120, tokens_per_author=40, pos_rate=0.2))
    records = load_corpus(paths["corpus"])
    key = default_scoring_key()
    scores = {r.author_id: score_inventory(r.inventory, key) for r in records}
    return assign_labels(build_documents(records, default_normalization_table()), scores), paths


def _duplicated_rows():
    # Six distinct count rows, each present three or four times, so most
    # distances tie (many at zero); 7 of 22 rows are minority.
    rng = np.random.default_rng(9)
    base = rng.integers(0, 3, size=(6, 4)).astype(np.float64)
    X = base[rng.permutation(np.arange(22) % 6)]
    y = np.zeros(22, dtype=np.int64)
    y[rng.choice(22, size=7, replace=False)] = 1
    return X, y, make_folds({"Anxiety": y}, n_folds=5, seed=2).assignment["Anxiety"]


def _flipping_minority():
    # 10 positives and 10 negatives over 4 folds: stratified dealing gives
    # folds 0 and 1 three positives and two negatives, folds 2 and 3 the
    # reverse, so the training minority is 1 in folds 0-1 and 0 in 2-3.
    rng = np.random.default_rng(3)
    X = rng.random((20, 5))
    y = np.array([1, 0] * 10)
    folds = make_folds({"Anxiety": y}, n_folds=4, seed=1).assignment["Anxiety"]
    return X, y, folds


# --- exactness --------------------------------------------------------------


@pytest.mark.parametrize(
    "features, spec",
    [("bow", NB), ("bow", LR), ("skip", LR), ("cbow", LR)],
    ids=["bow-nb", "bow-lr", "skip-lr", "cbow-lr"],
)
def test_every_cell_gets_the_per_fold_neighbours_on_a_synth_corpus(monkeypatch, synth_corpus, features, spec):
    corpus, paths = synth_corpus
    feature_spec = BowSpec(vocab_size=300) if features == "bow" else EmbeddingSpec(paths[features], features)
    X, _, _ = realize_features(feature_spec, corpus)
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=10, seed=7)
    calls = _record_smote(monkeypatch)
    run_experiment(X, spec, plan_cells(corpus, X, ResampleConfig(seed=7), plan))
    assignments = [plan.assignment[f] for f in corpus.active_facets]
    assert _assert_matches_per_fold_search(calls, X, assignments) == len(calls) == 10 * len(assignments)


@pytest.mark.parametrize("spec", [NB, LR], ids=["nb", "lr"])
def test_tied_duplicated_rows_get_the_per_fold_neighbours(monkeypatch, spec):
    X, y, folds = _duplicated_rows()
    calls = _record_smote(monkeypatch)
    _one_facet(X, y, folds, spec)
    assert _assert_matches_per_fold_search(calls, X, [folds]) == 5
    # The ties are real: some minority row has a zero distance to another.
    M = X[y == 1]
    assert np.any(kernels.sq_distances(M)[~np.eye(len(M), dtype=bool)] == 0.0)


@pytest.mark.parametrize("spec", [NB, LR], ids=["nb", "lr"])
def test_a_minority_that_flips_between_folds_gets_the_per_fold_neighbours(monkeypatch, spec):
    X, y, folds = _flipping_minority()
    calls = _record_smote(monkeypatch)
    _one_facet(X, y, folds, spec)
    assert _assert_matches_per_fold_search(calls, X, [folds]) == 4
    assert [c["cell"].minority for c in calls] == [1, 1, 0, 0]


@pytest.mark.parametrize("data", [_flipping_minority, _duplicated_rows], ids=["flipping", "duplicated"])
def test_planned_cells_are_the_per_cell_loops(data):
    # Each cell planned on its own, with a config carrying its seed and a
    # search among its own minority rows: the planner's cells are the same,
    # field for field, though it sorts once per class and restricts that
    # order to every fold in one pass. In the flipping corpus both classes
    # oversample, each in two of the four folds.
    X, y, folds = data()
    n_folds = int(folds.max()) + 1
    cfg = ResampleConfig(k_neighbors=3, seed=9)
    corpus = SimpleNamespace(active_facets=("Ideas",), documents=range(len(y)), labels=lambda f: y)
    plan = FoldPlan(n_folds=n_folds, assignment={"Ideas": folds})
    planned = plan_cells(corpus, X, cfg, plan).cells[0]
    minorities = set()
    for k, cell in enumerate(planned):
        seed = derive_seed(9, STREAM_SMOTE, FACET_NAMES.index("Ideas"), k)
        alone = plan_cell(y, np.flatnonzero(folds != k), replace(cfg, seed=seed),
                          lambda docs, kk: kernels.minority_knn(X[docs], kk))
        assert len(alone.seeds) and cell.minority == alone.minority
        assert all(np.array_equal(a, b) for a, b in zip(cell[:5], alone[:5]))
        minorities.add(cell.minority)
    assert minorities == ({0, 1} if data is _flipping_minority else {1})


def test_a_fold_without_two_minority_rows_names_its_facet_and_fold():
    # Two positives, dealt to folds 0 and 1: each of those folds trains on
    # one positive, which SMOTE cannot interpolate from.
    X = np.random.default_rng(4).random((12, 3))
    y = np.zeros(12, dtype=np.int64)
    y[[2, 7]] = 1
    folds = make_folds({"Ideas": y}, n_folds=4, seed=5).assignment["Ideas"]
    assert sorted(folds[y == 1].tolist()) == [0, 1]
    with pytest.raises(ValidationError, match=r"^facet Ideas, fold 0: minority class needs at least 2 samples"):
        _one_facet(X, y, folds, NB, facet="Ideas")


# --- held-out rows ----------------------------------------------------------


def test_a_held_out_minority_row_never_reaches_its_folds_neighbours(monkeypatch):
    # Minority row `far` sits in fold k's test split only, and is the
    # class's first row, so a slice that took the wrong rows of the facet
    # matrix would likely take it. Moving it far away must leave fold k's
    # triples as they are; the folds that train on it see it move.
    rng = np.random.default_rng(5)
    X = rng.random((40, 3))
    y = (np.arange(40) % 4 == 1).astype(np.int64)
    folds = make_folds({"Anxiety": y}, n_folds=5, seed=6).assignment["Anxiety"]
    far = int(np.flatnonzero(y == 1)[0])
    k = int(folds[far])
    calls = _record_smote(monkeypatch)
    _one_facet(X, y, folds, NB)
    X_far = X.copy()
    X_far[far, 0] = 1e6
    _one_facet(X_far, y, folds, NB)
    before, after = [c["cell"] for c in calls[:5]], [c["cell"] for c in calls[5:]]
    assert all(np.array_equal(a, b) for a, b in zip(before[k], after[k]))
    moved = [j for j in range(5) if not all(np.array_equal(a, b) for a, b in zip(before[j], after[j]))]
    assert moved and k not in moved
    assert _assert_matches_per_fold_search(calls[:5], X, [folds]) == 5
    assert _assert_matches_per_fold_search(calls[5:], X_far, [folds]) == 5


# --- which matrices get built -----------------------------------------------


@pytest.mark.parametrize("spec", [NB, LR, ModelSpec(kind="majority")], ids=["nb", "lr", "majority"])
def test_balanced_folds_build_no_distance_matrix(monkeypatch, spec):
    # Even rows form fold 0 and odd rows fold 1; each training split holds
    # 4 + 4 labels, so SMOTE adds nothing.
    X = np.random.default_rng(1).random((16, 3))
    y = (np.arange(16) // 2) % 2
    built = _count_matrices(monkeypatch)
    _one_facet(X, y, np.arange(16) % 2, spec)
    assert built == []


def test_an_imbalanced_facet_builds_one_matrix_not_one_per_fold(monkeypatch):
    # Two facets, each with minority 1 in every one of its 5 folds: one
    # matrix per facet, over all of the facet's minority rows, sorted once,
    # and no per-fold search or sort.
    def no_search(*args):
        raise AssertionError("a fold searched its own rows")

    real_argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        sorts.append(np.shape(a))
        return real_argsort(a, *args, **kwargs)

    rng = np.random.default_rng(8)
    X = rng.random((45, 4))
    labels = {"Anxiety": (rng.random(45) < 0.3).astype(np.int64), "Ideas": (np.arange(45) % 3 == 0).astype(np.int64)}
    plan = make_folds(labels, n_folds=5, seed=3)
    corpus = SimpleNamespace(active_facets=tuple(labels), documents=range(45), labels=labels.__getitem__)
    built, sorts = _count_matrices(monkeypatch), []
    monkeypatch.setattr(kernels, "minority_knn", no_search)
    monkeypatch.setattr(np, "argsort", counting_argsort)
    for spec in (NB, LR):
        built.clear()
        sorts.clear()
        run_experiment(X, spec, plan_cells(corpus, X, ResampleConfig(seed=3), plan))
        assert built == [int(labels[f].sum()) for f in labels]
        assert sorts == [(n, n) for n in built]


def test_a_flipping_minority_builds_one_matrix_per_class(monkeypatch):
    X, y, folds = _flipping_minority()
    built = _count_matrices(monkeypatch)
    _one_facet(X, y, folds, NB)
    assert built == [10, 10]


def test_a_matrix_error_names_the_fold_that_first_needs_it(monkeypatch):
    # The matrix is built lazily, inside the cell of the first fold that
    # oversamples; its errors carry that facet and fold.
    def failing(M):
        raise ValidationError("no distances")

    X, y, folds = _flipping_minority()
    monkeypatch.setattr(kernels, "sq_distances", failing)
    with pytest.raises(ValidationError, match=r"^facet Ideas, fold 0: no distances"):
        _one_facet(X, y, folds, LR, facet="Ideas")
