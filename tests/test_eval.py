from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st
from loop_oracles import (
    assert_near_newton_oracle,
    fold_assignment_loops,
    logreg_newton_numpy,
    train_materialized,
)

from facetrec import kernels, models, resample
from facetrec.cli import main, parse_experiment_config
from facetrec.errors import ConfigError, TrainingError, ValidationError
from facetrec.eval import (
    EvaluationReport,
    FoldPlan,
    SystemResult,
    f1_binary,
    f1_macro,
    fold_f1,
    make_folds,
    parse_report_csv,
    plan_cells,
    render_report,
    run_experiment,
)
from facetrec.features import BowSpec, realize_features
from facetrec.inventory import FACET_NAMES
from facetrec.models import LRHyperparams, ModelSpec, lr_model, predict
from facetrec.resample import ResampleConfig
from facetrec.seeding import STREAM_FOLDS, STREAM_SMOTE, derive_seed, substream

# --- F1 ---------------------------------------------------------------------


def test_f1_binary_hand_case():
    gold = [1, 1, 0, 0]
    pred = [1, 0, 1, 0]
    assert f1_binary(gold, pred, 1) == pytest.approx(0.5)
    assert f1_binary(gold, pred, 0) == pytest.approx(0.5)


def test_f1_binary_perfect_and_empty_class():
    gold = [1, 0, 1]
    assert f1_binary(gold, gold, 1) == 1.0
    # No true, no predicted positives: vacuously perfect.
    assert f1_binary([0, 0], [0, 0], 1) == 1.0
    # Positives exist but none are found (or vice versa): zero.
    assert f1_binary([1, 0], [0, 0], 1) == 0.0
    assert f1_binary([0, 0], [1, 0], 1) == 0.0


def test_f1_macro_constant_negative_on_balanced_is_one_third():
    gold = [1] * 6 + [0] * 6
    pred = [0] * 12
    assert f1_macro(gold, pred) == 0.5 * (2 / 3)
    assert f1_macro(gold, pred) == pytest.approx(1 / 3)


def test_f1_macro_averages_both_classes():
    gold = [1, 1, 0, 0]
    pred = [1, 0, 1, 0]
    assert f1_macro(gold, pred) == pytest.approx(0.5)
    assert f1_macro(gold, gold) == 1.0


def test_f1_validation():
    with pytest.raises(ValidationError):
        f1_binary([1, 0], [1], 1)
    with pytest.raises(ValidationError, match="positive_class"):
        f1_binary([1, 0], [1, 0], 2)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
def test_f1_macro_stays_in_unit_interval(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    v = f1_macro(gold, pred)
    assert 0.0 <= v <= 1.0


# Rows of (fold, gold, predicted). Fold 0 has no positive and predicts none,
# fold 1 has no positive but predicts one, folds 2 and 3 hold one row each.
_HAND_FOLDS = [(0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 0), (2, 1, 1), (3, 1, 0)]


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
        )
    )
)
@example((4, _HAND_FOLDS))
def test_fold_f1_is_f1_macro_of_every_fold(case):
    n_folds, rows = case
    folds, gold, pred = (np.array(column, dtype=np.int64) for column in zip(*rows))
    want = tuple(f1_macro(gold[folds == k], pred[folds == k]) for k in range(n_folds))
    assert fold_f1(gold, pred, folds, n_folds) == want


def test_fold_f1_hand_folds():
    folds, gold, pred = (np.array(column, dtype=np.int64) for column in zip(*_HAND_FOLDS))
    # Fold 0: both classes vacuously or wholly right. Fold 1: class 1 is
    # absent but predicted (0.0), class 0 has F1 2/3. Fold 2: one right row.
    # Fold 3: one wrong row, so both classes score 0.0.
    assert fold_f1(gold, pred, folds, 4) == (1.0, 0.5 * (0.0 + 2 / 3), 1.0, 0.0)


# --- folds ------------------------------------------------------------------


def _labels(n, n_pos, facets=FACET_NAMES):
    y = np.array([1] * n_pos + [0] * (n - n_pos), dtype=np.int64)
    return {f: y.copy() for f in facets}


def test_make_folds_partitions_every_document():
    labels = _labels(23, 7)
    plan = make_folds(labels, n_folds=10, seed=0)
    assert plan.n_folds == 10
    for facet in FACET_NAMES:
        assignment = plan.assignment[facet]
        assert assignment.shape == (23,)
        assert set(assignment.tolist()) <= set(range(10))
        sizes = np.bincount(assignment, minlength=10)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 23


def test_make_folds_stratifies_both_classes():
    labels = _labels(23, 7)
    plan = make_folds(labels, n_folds=10, seed=1)
    y = labels["Anxiety"]
    assignment = plan.assignment["Anxiety"]
    pos_per_fold = np.bincount(assignment[y == 1], minlength=10)
    neg_per_fold = np.bincount(assignment[y == 0], minlength=10)
    assert pos_per_fold.max() - pos_per_fold.min() <= 1
    assert neg_per_fold.max() - neg_per_fold.min() <= 1


def test_make_folds_is_deterministic_and_facet_specific():
    labels = _labels(30, 11)
    p1 = make_folds(labels, n_folds=5, seed=7)
    p2 = make_folds(labels, n_folds=5, seed=7)
    p3 = make_folds(labels, n_folds=5, seed=8)
    for facet in FACET_NAMES:
        assert np.array_equal(p1.assignment[facet], p2.assignment[facet])
    assert any(
        not np.array_equal(p1.assignment[f], p3.assignment[f]) for f in FACET_NAMES
    )
    # Different facets shuffle independently even with identical labels.
    assert any(
        not np.array_equal(p1.assignment[FACET_NAMES[0]], p1.assignment[f])
        for f in FACET_NAMES[1:]
    )


@given(
    st.lists(st.integers(0, 1), min_size=12, max_size=80),
    st.integers(2, 12),
    st.integers(0, 2**64 - 1),
    st.sampled_from(FACET_NAMES),
)
def test_make_folds_matches_the_dealing_loop(labels, n_folds, seed, facet):
    y = np.array(labels, dtype=np.int64)
    plan = make_folds({facet: y}, n_folds=n_folds, seed=seed)
    perm = substream(seed, STREAM_FOLDS, FACET_NAMES.index(facet)).permutation(len(y))
    assert np.array_equal(plan.assignment[facet], fold_assignment_loops(y, perm, n_folds))


def test_make_folds_validation():
    with pytest.raises(ConfigError, match="n_folds"):
        make_folds(_labels(10, 5), n_folds=1)
    with pytest.raises(ValidationError):
        make_folds(_labels(4, 2), n_folds=10)
    with pytest.raises(ValidationError, match="no facet"):
        make_folds({}, n_folds=2)
    with pytest.raises(ValidationError, match="unknown facet"):
        make_folds({"Wit": np.array([0, 1, 0])}, n_folds=2)
    bad = _labels(10, 5)
    bad["Anxiety"] = bad["Anxiety"][:5]
    with pytest.raises(ValidationError, match="length"):
        make_folds(bad, n_folds=2)
    with pytest.raises(ValidationError, match="Anxiety: labels must be 0 or 1"):
        make_folds({"Anxiety": np.array([0, 1, 2, 0, 1, 2])}, n_folds=2)


# --- experiment loop --------------------------------------------------------


def _tiny_tokens(n, vocab=("red", "blue", "green", "gold")):
    return [[vocab[i % len(vocab)], vocab[(i + 1) % len(vocab)]] for i in range(n)]


def _bow(corpus):
    X, _, _ = realize_features(BowSpec(vocab_size=8), corpus)
    return X


def test_run_experiment_majority_on_balanced_labels_is_one_third(corpus_factory):
    # 24 alternating labels over 4 folds: every fold holds exactly 3 of each
    # class, so the constant-negative baseline lands on 1/3 in every cell.
    corpus = corpus_factory(_tiny_tokens(24))
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=4, seed=3)
    X = _bow(corpus)
    fold_f1 = run_experiment(X, ModelSpec(kind="majority"), plan_cells(corpus, X, ResampleConfig(seed=3), plan))
    assert tuple(fold_f1) == FACET_NAMES
    for facet in FACET_NAMES:
        assert len(fold_f1[facet]) == 4
        for v in fold_f1[facet]:
            assert v == pytest.approx(1 / 3)


def test_run_experiment_wraps_cell_errors_with_context(corpus_factory):
    # Every other facet alternates 4/4, so its training splits are balanced
    # and resampling is a no-op; Anxiety's lone positive cannot be
    # oversampled, and that error must carry the facet and fold.
    corpus = corpus_factory(_tiny_tokens(8), positives={"Anxiety": {0}})
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=1)
    with pytest.raises(ValidationError, match=r"facet Anxiety, fold \d+:"):
        plan_cells(corpus, _bow(corpus), ResampleConfig(seed=1), plan)


def test_run_experiment_skips_degenerate_facets(corpus_factory):
    corpus = corpus_factory(_tiny_tokens(8))
    corpus = type(corpus)(
        documents=corpus.documents,
        label_thresholds=corpus.label_thresholds,
        degenerate=("Anxiety",),
    )
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=2)
    X = _bow(corpus)
    fold_f1 = run_experiment(X, ModelSpec(kind="majority"), plan_cells(corpus, X, ResampleConfig(seed=2), plan))
    assert "Anxiety" not in fold_f1
    assert len(fold_f1) == 9


def test_run_experiment_validates_plan_and_jobs(corpus_factory, tmp_path):
    corpus = corpus_factory(_tiny_tokens(8))
    X = _bow(corpus)
    rcfg = ResampleConfig(seed=2)
    plan = make_folds({"Anxiety": corpus.labels("Anxiety")}, n_folds=2, seed=2)
    with pytest.raises(ValidationError, match="missing facet"):
        plan_cells(corpus, X, rcfg, plan)
    full = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=2)
    with pytest.raises(ValidationError, match="feature matrix does not match corpus size"):
        plan_cells(corpus, X[:7], rcfg, full)
    for bad in (-1, 2):
        assignment = dict(full.assignment, Anxiety=np.where(full.assignment["Anxiety"] == 1, bad, 0))
        with pytest.raises(ValidationError, match="facet Anxiety has folds outside 0..1"):
            plan_cells(corpus, X, rcfg, FoldPlan(2, assignment))
    # Runs are single-process: a config may still say `jobs: 1`, nothing else.
    data = {"corpus": "c.jsonl", "seed": 2, "out": "o", "systems": [{"model": "majority", "features": {"kind": "bow"}}]}
    path = tmp_path / "config.yaml"
    assert parse_experiment_config(dict(data, jobs=1), path) == parse_experiment_config(data, path)
    for jobs in (0, 2):
        with pytest.raises(ConfigError, match=r"jobs.*single-process"):
            parse_experiment_config(dict(data, jobs=jobs), path)


# --- report aggregation -----------------------------------------------------


def _system(name, value_by_facet, n_folds=2, facets=FACET_NAMES):
    return SystemResult(name=name, fold_f1={f: tuple([value_by_facet[f]] * n_folds) for f in facets})


def _report(systems, facets=FACET_NAMES, n_folds=2):
    return EvaluationReport(facets=facets, n_folds=n_folds, systems=tuple(systems))


def test_report_means_and_overall():
    sys_a = SystemResult(name="a", fold_f1={f: (0.25, 0.75) for f in FACET_NAMES})
    report = _report([sys_a])
    assert report.facet_mean(sys_a, "Anxiety") == 0.5
    assert report.overall(sys_a) == 0.5


def test_wins_award_all_tied_systems():
    a = _system("a", {f: 0.5 for f in FACET_NAMES})
    b = _system("b", {f: 0.5 for f in FACET_NAMES})
    report = _report([a, b])
    assert report.wins() == {"a": 10, "b": 10}
    c = _system("c", {f: (0.9 if f == "Ideas" else 0.1) for f in FACET_NAMES})
    report = _report([a, c])
    assert report.wins() == {"a": 9, "c": 1}


# --- rendering and parsing --------------------------------------------------


def test_render_text_layout():
    a = _system("alpha", {f: 0.5 for f in FACET_NAMES})
    text = render_report(_report([a]), "text")
    lines = text.splitlines()
    header = lines[0].split()
    assert header[:3] == ["system", "overall", "wins"]
    assert tuple(header[3:]) == FACET_NAMES
    assert set(lines[1]) <= {"-", " "}
    assert "0.50" in lines[2]
    assert text.endswith("\n")


def test_render_text_marks_excluded_facets_with_dash():
    facets = tuple(f for f in FACET_NAMES if f != "Ideas")
    a = _system("alpha", {f: 0.5 for f in facets}, facets=facets)
    text = render_report(_report([a], facets=facets), "text")
    row = text.splitlines()[2]
    assert row.split()[-1] == "-"
    assert "Ideas" in text.splitlines()[0]


def test_render_csv_sections_and_full_precision():
    a = _system("alpha", {f: 1 / 3 for f in FACET_NAMES})
    csv_text = render_report(_report([a]), "csv")
    lines = csv_text.splitlines()
    assert lines[0] == "section,model,facet,fold,f1"
    assert lines[1] == f"fold,alpha,Assertiveness,0,{(1 / 3)!r}"
    sections = {line.split(",")[0] for line in lines[1:]}
    assert sections == {"fold", "facet_mean", "overall", "wins"}


def test_render_rejects_unknown_format():
    a = _system("alpha", {f: 0.5 for f in FACET_NAMES})
    with pytest.raises(ConfigError, match="format"):
        render_report(_report([a]), "html")


def test_csv_round_trip_preserves_fold_values():
    rng = np.random.default_rng(9)
    a = SystemResult(name="a", fold_f1={f: tuple(rng.random(3).tolist()) for f in FACET_NAMES})
    b = SystemResult(name="b", fold_f1={f: tuple(rng.random(3).tolist()) for f in FACET_NAMES})
    report = EvaluationReport(facets=FACET_NAMES, n_folds=3, systems=(a, b))
    parsed = parse_report_csv(render_report(report, "csv"))
    assert parsed.n_folds == 3
    assert parsed.facets == FACET_NAMES
    assert [s.name for s in parsed.systems] == ["a", "b"]
    for orig, back in zip(report.systems, parsed.systems):
        assert orig.fold_f1 == back.fold_f1
    # A re-render of the parsed report reproduces the fold rows byte for byte.
    again = render_report(parsed, "csv")
    fold_rows = [l for l in again.splitlines() if l.startswith("fold,")]
    orig_rows = [l for l in render_report(report, "csv").splitlines() if l.startswith("fold,")]
    assert fold_rows == orig_rows


def test_parse_report_csv_errors():
    with pytest.raises(ValidationError, match="header"):
        parse_report_csv("nope\n")
    good = render_report(_report([_system("a", {f: 0.5 for f in FACET_NAMES})]), "csv")
    with pytest.raises(ValidationError, match="section"):
        parse_report_csv(good + "mystery,a,Anxiety,0,0.5\n")
    # Drop one facet's second fold so the fold grid has a hole.
    truncated = "\n".join(
        l for l in good.splitlines() if not l.startswith("fold,a,Anxiety,1,")
    )
    with pytest.raises(ValidationError):
        parse_report_csv(truncated + "\n")
    # A repeated fold, an F1 outside [0, 1] and an unknown facet each name
    # their line, counted over the text with its blank lines.
    line = len(good.splitlines()) + 2
    for row, match in [
        ("fold,a,Anxiety,1,0.9", "repeats fold 1"),
        ("fold,b,Anxiety,0,1.5", r"F1 must lie in \[0, 1\]"),
        ("fold,b,Anxiety,0,-0.1", r"F1 must lie in \[0, 1\]"),
        ("fold,b,Anxiety,0,nan", r"F1 must lie in \[0, 1\]"),
        ("fold,b,Bogus,0,0.6", "unknown facet 'Bogus'"),
    ]:
        with pytest.raises(ValidationError, match=rf"line {line}: {match}"):
            parse_report_csv(good + "\n" + row + "\n")


# --- logistic regression: every cell of a run in one Newton fit ------------


def _record_descents(monkeypatch):
    """Record the cells and results of every many-cell fit a run makes."""
    calls = []
    real = kernels.logreg_descent_cells

    def recording(X, cells, *hyper):
        result = real(X, cells, *hyper)
        calls.append((X, list(cells), hyper, result))
        return result

    monkeypatch.setattr(kernels, "logreg_descent_cells", recording)
    return calls


def _evaluate(X, y, folds, model_spec, facet="Anxiety"):
    # One facet's fold scores, planned and run on a stand-in corpus.
    corpus = SimpleNamespace(active_facets=(facet,), documents=range(len(y)), labels=lambda f: y)
    plan = FoldPlan(n_folds=int(folds.max()) + 1, assignment={facet: folds})
    return run_experiment(X, model_spec, plan_cells(corpus, X, ResampleConfig(seed=4), plan))[facet]


def _two_balanced_folds(d=3):
    # Even rows form fold 0 and odd rows fold 1; each fold holds 4 + 4
    # labels, so both training splits are 8 x d and SMOTE adds nothing.
    X = np.random.default_rng(1).normal(size=(16, d))
    y = (np.arange(16) // 2) % 2
    return X, y, np.arange(16) % 2


@pytest.mark.parametrize(
    "value, error, message",
    [
        (1e200, TrainingError, "loss became non-finite"),
        (np.nan, ValidationError, "features contain non-finite values"),
    ],
)
def test_lr_cell_errors_name_their_own_fold(monkeypatch, value, error, message):
    # Row 0 sits in fold 0's test split, so only fold 1 trains on it. A
    # non-finite feature is caught before any fit runs; a feature of 1e200
    # overflows fold 1's Newton step, and its loss turns non-finite.
    calls = _record_descents(monkeypatch)
    X, y, folds = _two_balanced_folds()
    X[0] = value
    with pytest.raises(error, match=rf"^facet Altruism, fold 1: {message}"):
        _evaluate(X, y, folds, ModelSpec(kind="logistic_regression"), facet="Altruism")
    assert [len(cells) for _, cells, _, _ in calls] == ([2] if error is TrainingError else [])


@pytest.mark.parametrize("value", [1e200, -1e200])
def test_held_out_rows_never_reach_a_cells_loss(monkeypatch, value):
    # Row 0 is in fold 0's test split only. Fold 0's cell shares the one
    # matrix with it, yet must train as if the value were 0: a held-out row
    # that reached its logits or Hessian products would make it diverge as
    # well. Only fold 1, which trains on the row, diverges.
    _assert_held_out_row_stays_out(monkeypatch, value, d=3)


@pytest.mark.parametrize("value", [1e200, -1e200, 1e150, -1e150])
def test_held_out_rows_never_reach_a_wide_cells_loss(monkeypatch, value):
    # The same on 16 rows x 24 columns. At 1e150 the Gram matrix is finite,
    # so the fit runs in document coefficients, where the held-out row
    # meets fold 0's logits only through Gram entries times a zero
    # coefficient; at 1e200 its Gram entries overflow, which sends the fit
    # to the weight basis. Either way only fold 1 diverges.
    X = _two_balanced_folds(d=24)[0]
    X[0, 1] = value
    with np.errstate(over="ignore", invalid="ignore"):
        assert (kernels._gram(X) is None) == (abs(value) > 1e154)
    _assert_held_out_row_stays_out(monkeypatch, value, d=24)


def _assert_held_out_row_stays_out(monkeypatch, value, d):
    spec = ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=60))
    X, y, folds = _two_balanced_folds(d)
    calls = _record_descents(monkeypatch)
    reference = _evaluate(X.copy(), y, folds, spec)
    X_big = X.copy()
    X_big[0, 1] = value
    with pytest.raises(TrainingError, match=r"^facet Anxiety, fold 1: loss became non-finite"):
        _evaluate(X_big, y, folds, spec)
    (_, _, _, (W0, B0, losses0, conv0, div0)), (_, _, _, (W, B, losses, conv, div)) = calls
    assert div0.tolist() == [False, False] and div.tolist() == [False, True]
    assert conv0.tolist() == [True, True] and conv.tolist() == [True, False]
    assert len(losses[0]) == len(losses0[0]) and np.all(np.isfinite(losses[0]))
    assert np.allclose(W[0], W0[0], rtol=0, atol=1e-12) and abs(B[0] - B0[0]) <= 1e-12
    model = lr_model(spec.lr, W[0], B[0], losses[0], conv[0], div[0])
    pred, _ = predict(model, X[folds == 0])
    assert f1_macro(y[folds == 0], pred) == reference[0]


def test_single_class_lr_cell_names_its_own_fold(monkeypatch):
    # Every model kind checks its labels before SMOTE's draws: fold 2's
    # all-negative training split fails the check after folds 0 and 1 are
    # planned, with one message whatever the kind, and no fit runs.
    calls = _record_descents(monkeypatch)
    X = np.random.default_rng(2).random((12, 3))
    y = np.array([0] * 8 + [1] * 4)
    folds = np.repeat(np.arange(3), 4)
    for kind in ("majority", "naive_bayes", "logistic_regression"):
        with pytest.raises(ValidationError, match=r"^facet Anxiety, fold 2: training labels contain a single class$"):
            _evaluate(X, y, folds, ModelSpec(kind=kind))
    # An empty training split names its fold too, and labels that are not
    # 0 or 1 name their facet, checked once before any cell is planned.
    with pytest.raises(ValidationError, match=r"^facet Anxiety, fold 1: training split is empty$"):
        _evaluate(X, y, np.ones(12, dtype=np.int64), ModelSpec(kind="majority"))
    with pytest.raises(ValidationError, match=r"^facet Anxiety: labels must be binary 0/1"):
        _evaluate(X, np.where(np.arange(12) == 0, 2, y), folds, ModelSpec(kind="majority"))
    assert calls == []


def test_lr_cells_score_as_the_per_cell_oracle(monkeypatch):
    # Imbalanced labels make SMOTE add rows to every training split. The
    # reference trains every cell alone with the exact-Newton oracle on its
    # materialized rows. The run trains all five cells in one truncated-
    # Newton fit over the shared matrix, and none through
    # kernels.logreg_descent; each cell's weights are within the oracle's
    # bound, and every fold scores the same.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(45, 6)) + (rng.random(45) < 0.3)[:, None]
    y = (rng.random(45) < 0.3).astype(np.int64)
    folds = make_folds({"Anxiety": y}, n_folds=5, seed=6).assignment["Anxiety"]
    spec = ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=60))

    def materialized(X, c):
        rows = np.vstack([X[c.rows], kernels.interpolate_rows(X, c.seeds, c.nbrs, c.gammas)])
        return rows, np.concatenate([c.y, np.full(len(c.seeds), c.minority)])

    def per_cell(X, cells, *hyper):
        W, B, losses, converged, diverged = zip(*(logreg_newton_numpy(*materialized(X, c), *hyper) for c in cells))
        return np.stack(W), np.array(B), list(losses), np.array(converged), np.array(diverged)

    def no_per_cell(*args):
        raise AssertionError("an LR cell left the many-cell descent")

    real = kernels.logreg_descent_cells
    monkeypatch.setattr(kernels, "logreg_descent_cells", per_cell)
    oracle = _evaluate(X, y, folds, spec)
    monkeypatch.setattr(kernels, "logreg_descent_cells", real)
    monkeypatch.setattr(kernels, "logreg_descent", no_per_cell)
    calls = _record_descents(monkeypatch)
    assert _evaluate(X, y, folds, spec) == oracle
    [(_, cells, hyper, (W, B, losses, converged, _))] = calls
    assert len(cells) == 5 and all(len(c.seeds) > 0 for c in cells) and converged.all()
    for i, c in enumerate(cells):
        rows, labels = materialized(X, c)
        assert_near_newton_oracle(rows, labels, spec.lr.l2, W[i], B[i], losses[i],
                                  logreg_newton_numpy(rows, labels, *hyper))


def _imbalanced_fractional(minority):
    # 45 rows of fractional counts, about 30% of them `minority`, whose
    # odd features run higher; 5 stratified folds, each with SMOTE rows.
    rng = np.random.default_rng(5)
    y = (rng.random(45) < 0.3).astype(np.int64)
    y = y if minority == 1 else 1 - y
    X = 2.5 * rng.random((45, 6)) + 0.7 * (y == minority)[:, None] * (np.arange(6) % 2)
    return X, y, make_folds({"Anxiety": y}, n_folds=5, seed=6).assignment["Anxiety"]


@pytest.mark.parametrize("minority", [1, 0])
def test_naive_bayes_cells_score_as_materialized_smote(monkeypatch, minority):
    # The reference trains each fold on the rows resample.smote
    # materializes for it, summing them per class. The run takes its class
    # sums from one weighted product with X, so the fractional SMOTE rows
    # add up in another order: log-likelihoods may differ in the last bits
    # only.
    X, y, folds = _imbalanced_fractional(minority)
    planned = []
    real = models.nb_models

    def recording(*args):
        planned.extend(real(*args))
        return planned[-len(args[0]):]

    monkeypatch.setattr(models, "nb_models", recording)
    scores = _evaluate(X, y, folds, ModelSpec(kind="naive_bayes"))
    monkeypatch.undo()  # the oracle goes through nb_models too
    assert len(planned) == 5
    for k, model in enumerate(planned):
        train = folds != k
        cfg = ResampleConfig(seed=derive_seed(4, STREAM_SMOTE, FACET_NAMES.index("Anxiety"), k))
        oracle, _, y_aug = train_materialized(ModelSpec(kind="naive_bayes"), X[train], y[train], cfg)
        assert np.sum(y_aug == minority) > np.sum(y[train] == minority)
        assert np.array_equal(model.params.log_priors, oracle.params.log_priors)
        assert np.allclose(model.params.log_likelihoods, oracle.params.log_likelihoods, rtol=1e-12, atol=0)
        pred, _ = predict(oracle, X[folds == k])
        assert scores[k] == f1_macro(y[folds == k], pred)


def test_no_model_materializes_smote_rows(monkeypatch):
    # Majority, naive Bayes and logistic regression all train from the
    # planned cells: none builds SMOTE's rows, though every fold draws them.
    def no_rows(*args):
        raise AssertionError("a cell materialized SMOTE rows")

    monkeypatch.setattr(resample, "smote", no_rows)
    monkeypatch.setattr(kernels, "interpolate_rows", no_rows)
    X, y, folds = _imbalanced_fractional(1)
    for spec in (ModelSpec(kind="majority"), ModelSpec(kind="naive_bayes"),
                 ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=20))):
        assert len(_evaluate(X, y, folds, spec)) == 5


def test_majority_trains_on_resampled_labels_without_smote(monkeypatch):
    # Majority counts the planned cell's labels, SMOTE's triples included,
    # and never materializes SMOTE's rows.
    def no_rows(*args):
        raise AssertionError("a majority cell materialized SMOTE rows")

    monkeypatch.setattr(resample, "smote", no_rows)
    monkeypatch.setattr(kernels, "interpolate_rows", no_rows)
    # 7 positives of 20: the training splits have minority rows to add, and
    # with parity the tie sends the baseline negative.
    y = np.array([1] * 7 + [0] * 13)
    folds = np.arange(20) % 4
    scores = _evaluate(np.zeros((20, 2)), y, folds, ModelSpec(kind="majority"))
    for k, value in enumerate(scores):
        assert value == f1_macro(y[folds == k], np.zeros(5, dtype=np.int64))


def test_trained_systems_beat_the_baseline_on_a_weak_signal_corpus(weak_bundle, tmp_path, capsys):
    # At the default signal rate the bag-of-words systems score 0.99-1.00,
    # which leaves a wrong answer little room to show. On the weak-signal
    # corpus naive Bayes scores about 0.85 and LR 0.63 against the
    # baseline's 0.44, on one BoW space.
    bow = {"kind": "bow", "vocab_size": 3000}
    config = yaml.safe_load((weak_bundle / "config.yaml").read_text(encoding="utf-8"))
    config["corpus"] = str(weak_bundle / "corpus.jsonl")
    config["systems"] = [{"name": name, "model": model, "features": bow} for name, model in
                         (("baseline", "majority"), ("bow-nb", "naive_bayes"), ("bow-lr", "logistic_regression"))]
    (tmp_path / "weak.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "weak.yaml"), "--out", str(tmp_path / "out")]) == 0
    report = parse_report_csv((tmp_path / "out" / "report.csv").read_text(encoding="utf-8"))
    overall = {s.name: report.overall(s) for s in report.systems}
    for name in ("bow-nb", "bow-lr"):
        assert overall[name] >= overall["baseline"] + 0.15, overall


def test_batched_lr_descends_monotonically_on_the_demo_corpus(tmp_path, monkeypatch):
    # The README demo (synth --seed 7, 60 authors x 60 tokens): each LR
    # system trains its 100 cells in one Newton fit. Every cell converges:
    # its gradient max-norm on its own rows is below the default tol, and
    # its loss history is finite and non-increasing.
    assert main(["synth", "--out", str(tmp_path), "--seed", "7", "--authors", "60", "--tokens", "60"]) == 0
    config = yaml.safe_load((tmp_path / "config.yaml").read_text(encoding="utf-8"))
    config["systems"] = [s for s in config["systems"] if s["model"] == "logistic_regression"]
    (tmp_path / "lr.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")

    def no_per_cell(*args):
        raise AssertionError("a demo LR cell left the many-cell fit")

    calls = _record_descents(monkeypatch)
    monkeypatch.setattr(kernels, "logreg_descent", no_per_cell)
    assert main(["run", "--config", str(tmp_path / "lr.yaml"), "--out", str(tmp_path / "out")]) == 0

    assert [len(cells) for _, cells, _, _ in calls] == [10 * 10, 10 * 10]
    for X, cells, (l2, _, tol), (W, B, histories, converged, _) in calls:
        assert converged.all()
        for cell, w, b, losses in zip(cells, W, B, histories):
            # A cell with SMOTE rows would need them materialized; the demo's
            # folds are balanced, so its own rows are all of it.
            assert len(cell.seeds) == 0
            _, gw, gb = kernels.logreg_loss_grad(X[cell.rows], cell.y, w, b, l2)
            assert max(np.abs(gw).max(), abs(gb)) < tol
            assert np.all(np.isfinite(losses))
            assert np.all(np.diff(losses) <= 0.0)
