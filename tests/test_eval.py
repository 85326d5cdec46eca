from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from loop_oracles import fold_assignment_loops, logreg_descent_numpy

from facetrec import eval as eval_module
from facetrec import kernels
from facetrec.cli import main
from facetrec.errors import ConfigError, TrainingError, ValidationError
from facetrec.eval import (
    EvaluationReport,
    FoldPlan,
    SystemResult,
    f1_binary,
    f1_macro,
    make_folds,
    parse_report_csv,
    render_report,
    run_experiment,
)
from facetrec.features import BowSpec, realize_features
from facetrec.inventory import FACET_NAMES
from facetrec.models import LRHyperparams, ModelSpec, lr_model, predict
from facetrec.resample import ResampleConfig
from facetrec.seeding import STREAM_FOLDS, substream

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
    fold_f1 = run_experiment(
        corpus, _bow(corpus), ModelSpec(kind="majority"), ResampleConfig(seed=3), plan
    )
    assert tuple(fold_f1) == FACET_NAMES
    for facet in FACET_NAMES:
        assert len(fold_f1[facet]) == 4
        for v in fold_f1[facet]:
            assert v == pytest.approx(1 / 3)


def test_run_experiment_parallel_matches_sequential(corpus_factory):
    corpus = corpus_factory(_tiny_tokens(12))
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=3, seed=5)
    X = _bow(corpus)
    for kind in ("naive_bayes", "logistic_regression"):
        seq = run_experiment(corpus, X, ModelSpec(kind=kind), ResampleConfig(seed=5), plan, jobs=1)
        par = run_experiment(corpus, X, ModelSpec(kind=kind), ResampleConfig(seed=5), plan, jobs=2)
        assert seq == par


def test_run_experiment_wraps_cell_errors_with_context(corpus_factory):
    # Every other facet alternates 4/4, so its training splits are balanced
    # and resampling is a no-op; Anxiety's lone positive cannot be
    # oversampled, and that error must carry the facet and fold.
    corpus = corpus_factory(_tiny_tokens(8), positives={"Anxiety": {0}})
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=1)
    with pytest.raises(ValidationError, match=r"facet Anxiety, fold \d+:"):
        run_experiment(corpus, _bow(corpus), ModelSpec(kind="majority"), ResampleConfig(seed=1), plan)


def test_run_experiment_skips_degenerate_facets(corpus_factory):
    corpus = corpus_factory(_tiny_tokens(8))
    corpus = type(corpus)(
        documents=corpus.documents,
        label_thresholds=corpus.label_thresholds,
        degenerate=("Anxiety",),
    )
    plan = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=2)
    fold_f1 = run_experiment(
        corpus, _bow(corpus), ModelSpec(kind="majority"), ResampleConfig(seed=2), plan
    )
    assert "Anxiety" not in fold_f1
    assert len(fold_f1) == 9


def test_run_experiment_validates_plan_and_jobs(corpus_factory):
    corpus = corpus_factory(_tiny_tokens(8))
    X = _bow(corpus)
    majority, rcfg = ModelSpec(kind="majority"), ResampleConfig(seed=2)
    plan = make_folds({"Anxiety": corpus.labels("Anxiety")}, n_folds=2, seed=2)
    with pytest.raises(ValidationError, match="missing facet"):
        run_experiment(corpus, X, majority, rcfg, plan)
    full = make_folds({f: corpus.labels(f) for f in corpus.active_facets}, n_folds=2, seed=2)
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(corpus, X, majority, rcfg, full, jobs=0)
    with pytest.raises(ValidationError, match="feature matrix does not match corpus size"):
        run_experiment(corpus, X[:7], majority, rcfg, full)


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


# --- logistic regression: every cell of a run in one descent ---------------


def _record_descents(monkeypatch):
    """Record the cells and results of every many-cell descent a run makes."""
    calls = []
    real = kernels.logreg_descent_cells

    def recording(X, cells, *hyper):
        result = real(X, cells, *hyper)
        calls.append((X, list(cells), hyper, result))
        return result

    monkeypatch.setattr(kernels, "logreg_descent_cells", recording)
    return calls


def _evaluate(X, y, folds, model_spec, facet="Anxiety"):
    # One facet's fold scores, through run_experiment on a stand-in corpus.
    corpus = SimpleNamespace(active_facets=(facet,), documents=range(len(y)), labels=lambda f: y)
    plan = FoldPlan(n_folds=int(folds.max()) + 1, seed=4, assignment={facet: folds})
    return run_experiment(corpus, X, model_spec, ResampleConfig(seed=4), plan)[facet]


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
    # non-finite feature is caught before any descent runs.
    calls = _record_descents(monkeypatch)
    X, y, folds = _two_balanced_folds()
    X[0] = value
    with pytest.raises(error, match=rf"^facet Altruism, fold 1: {message}"):
        _evaluate(X, y, folds, ModelSpec(kind="logistic_regression"), facet="Altruism")
    assert [len(cells) for _, cells, _, _ in calls] == ([2] if error is TrainingError else [])


@pytest.mark.parametrize("value", [1e200, -1e200])
def test_held_out_rows_never_reach_a_cells_loss(monkeypatch, value):
    # Row 0 is in fold 0's test split only. Fold 0's cell shares the one
    # matrix with it, yet must train as if the row were 0: a held-out row
    # that reached its loss or gradient would make it diverge as well.
    # Only fold 1, which trains on the row, diverges.
    spec = ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=60))
    X, y, folds = _two_balanced_folds()
    calls = _record_descents(monkeypatch)
    reference = _evaluate(X.copy(), y, folds, spec)
    X_big = X.copy()
    X_big[0, 1] = value
    with pytest.raises(TrainingError, match=r"^facet Anxiety, fold 1: loss became non-finite"):
        _evaluate(X_big, y, folds, spec)
    (_, _, _, (W0, B0, losses0, div0)), (_, _, _, (W, B, losses, div)) = calls
    assert div0.tolist() == [False, False] and div.tolist() == [False, True]
    assert len(losses[0]) == len(losses0[0]) and np.all(np.isfinite(losses[0]))
    assert np.allclose(W[0], W0[0], rtol=0, atol=1e-12) and abs(B[0] - B0[0]) <= 1e-12
    model = lr_model(spec.lr, W[0], B[0], losses[0], div[0])
    pred, _ = predict(model, X[folds == 0])
    assert f1_macro(y[folds == 0], pred) == reference[0]


def test_single_class_lr_cell_names_its_own_fold(monkeypatch):
    # The LR checks run before SMOTE's draws: fold 2's all-negative
    # training split fails them after folds 0 and 1 are planned, and no
    # descent runs.
    calls = _record_descents(monkeypatch)
    X = np.random.default_rng(2).normal(size=(12, 3))
    y = np.array([0] * 8 + [1] * 4)
    folds = np.repeat(np.arange(3), 4)
    with pytest.raises(ValidationError, match=r"^facet Anxiety, fold 2: training labels contain a single class"):
        _evaluate(X, y, folds, ModelSpec(kind="logistic_regression"))
    assert calls == []


def test_lr_cells_score_as_the_per_cell_oracle(monkeypatch):
    # Imbalanced labels make SMOTE add rows to every training split. The
    # reference trains every cell alone with the per-cell numpy oracle on
    # its materialized rows. The run trains all five cells in one descent
    # over the shared matrix, and none through kernels.logreg_descent.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(45, 6)) + (rng.random(45) < 0.3)[:, None]
    y = (rng.random(45) < 0.3).astype(np.int64)
    folds = make_folds({"Anxiety": y}, n_folds=5, seed=6).assignment["Anxiety"]
    spec = ModelSpec(kind="logistic_regression", lr=LRHyperparams(max_epochs=60))

    def per_cell(X, cells, *hyper):
        fits = []
        for c in cells:
            rows = np.vstack([X[c.rows], kernels.interpolate_rows(X, c.seeds, c.nbrs, c.gammas)])
            labels = np.concatenate([c.y, np.full(len(c.seeds), c.minority)])
            fits.append(logreg_descent_numpy(rows, labels, *hyper))
        W, B, losses, diverged = zip(*fits)
        return np.stack(W), np.array(B), list(losses), np.array(diverged)

    def no_per_cell(*args):
        raise AssertionError("an LR cell left the many-cell descent")

    real = kernels.logreg_descent_cells
    monkeypatch.setattr(kernels, "logreg_descent_cells", per_cell)
    oracle = _evaluate(X, y, folds, spec)
    monkeypatch.setattr(kernels, "logreg_descent_cells", real)
    monkeypatch.setattr(kernels, "logreg_descent", no_per_cell)
    calls = _record_descents(monkeypatch)
    assert _evaluate(X, y, folds, spec) == oracle
    [(_, cells, _, _)] = calls
    assert len(cells) == 5 and all(len(c.seeds) > 0 for c in cells)


def test_majority_trains_on_resampled_labels_without_smote(monkeypatch):
    def no_smote(*args):
        raise AssertionError("majority cells must not build SMOTE rows")

    monkeypatch.setattr(eval_module, "smote", no_smote)
    # 7 positives of 20: the training splits have minority rows to add, and
    # with parity the tie sends the baseline negative.
    y = np.array([1] * 7 + [0] * 13)
    folds = np.arange(20) % 4
    scores = _evaluate(np.zeros((20, 2)), y, folds, ModelSpec(kind="majority"))
    for k, value in enumerate(scores):
        assert value == f1_macro(y[folds == k], np.zeros(5, dtype=np.int64))


def test_batched_lr_descends_monotonically_on_the_demo_corpus(tmp_path, monkeypatch):
    # The README demo (synth --seed 7, 60 authors x 60 tokens): each LR
    # system trains its 100 cells in one descent. Averaged unit word vectors
    # bound the curvature, L <= max_i(|x_i|^2 + 1) / 4 + l2 over a cell's
    # rows; a synthetic row is a convex combination of two training rows,
    # so the max over the training rows bounds it. The default step 0.1 is
    # below 2/L, and every loss history must be finite and non-increasing.
    assert main(["synth", "--out", str(tmp_path), "--seed", "7", "--authors", "60", "--tokens", "60"]) == 0
    config = yaml.safe_load((tmp_path / "config.yaml").read_text(encoding="utf-8"))
    config["systems"] = [s for s in config["systems"] if s["model"] == "logistic_regression"]
    (tmp_path / "lr.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")

    def no_per_cell(*args):
        raise AssertionError("a demo LR cell left the many-cell descent")

    calls = _record_descents(monkeypatch)
    monkeypatch.setattr(kernels, "logreg_descent", no_per_cell)
    assert main(["run", "--config", str(tmp_path / "lr.yaml"), "--out", str(tmp_path / "out")]) == 0

    assert [len(cells) for _, cells, _, _ in calls] == [10 * 10, 10 * 10]
    for X, cells, (learning_rate, l2, _, _), (_, _, histories, _) in calls:
        for cell, losses in zip(cells, histories):
            L = 0.25 * float(np.max(np.sum(X[cell.rows] ** 2, axis=1) + 1.0)) + l2
            assert learning_rate < 2.0 / L
            assert np.all(np.isfinite(losses))
            assert np.all(np.diff(losses) <= 1e-12)
