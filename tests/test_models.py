from __future__ import annotations

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from facetrec import kernels
from facetrec.errors import ConfigError, TrainingError, ValidationError
from facetrec.models import (
    LogisticRegressionParams,
    LRHyperparams,
    ModelSpec,
    NaiveBayesParams,
    TrainedModel,
    load_model,
    nb_models,
    predict,
    save_model,
    train,
    train_logistic_regression,
    train_majority,
    train_naive_bayes,
)


# --- majority --------------------------------------------------------------


def test_majority_picks_most_frequent_label():
    assert predict(train_majority([1, 1, 0]), np.zeros((2, 1)))[0].tolist() == [1, 1]
    assert predict(train_majority([0, 0, 1]), np.zeros((2, 1)))[0].tolist() == [0, 0]


def test_majority_tie_goes_negative():
    model = train_majority([0, 1, 1, 0])
    labels, scores = predict(model, np.zeros((3, 4)))
    assert labels.tolist() == [0, 0, 0]
    assert np.all(scores == 0.0)


def test_majority_ignores_feature_width_when_untracked():
    model = train_majority([1, 1, 0])
    assert model.feature_dim is None
    labels, _ = predict(model, np.zeros((2, 99)))
    assert labels.tolist() == [1, 1]


# --- naive Bayes -----------------------------------------------------------


def test_naive_bayes_matches_hand_counts():
    # class 1 docs: [2,1], [1,1]; class 0 doc: [1,3]; alpha=1, V=2.
    X = np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 3.0]])
    y = np.array([1, 1, 0])
    model = train_naive_bayes(X, y, alpha=1.0)
    p = model.params
    lik = np.exp(p.log_likelihoods)
    assert np.allclose(lik[1], [4 / 7, 3 / 7], atol=1e-12)
    assert np.allclose(lik[0], [2 / 6, 4 / 6], atol=1e-12)
    assert np.allclose(np.exp(p.log_priors), [1 / 3, 2 / 3], atol=1e-15)


def test_naive_bayes_decisions_match_argmax_oracle():
    X = np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 3.0]])
    y = np.array([1, 1, 0])
    model = train_naive_bayes(X, y)
    tests = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    labels, scores = predict(model, tests)
    p = model.params
    for row, lab, sc in zip(tests, labels, scores):
        joint = [
            p.log_priors[c] + sum(row[j] * p.log_likelihoods[c][j] for j in range(2))
            for c in (0, 1)
        ]
        margin = joint[1] - joint[0]
        assert lab == (1 if margin > 0 else 0)
        assert sc == pytest.approx(margin, rel=1e-12, abs=1e-12)


def test_naive_bayes_exact_tie_is_negative():
    # Perfectly symmetric classes: the all-equal test row has margin 0.
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    model = train_naive_bayes(X, y)
    labels, scores = predict(model, np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert scores[1] == 0.0  # zero row: only equal priors in the margin
    assert labels.tolist() == [0, 0]


def test_naive_bayes_accepts_fractional_counts():
    X = np.array([[0.5, 1.5], [2.5, 0.0], [0.0, 2.0]])
    y = np.array([1, 1, 0])
    model = train_naive_bayes(X, y)
    lik = np.exp(model.params.log_likelihoods)
    assert np.allclose(lik.sum(axis=1), 1.0, atol=1e-12)
    labels, _ = predict(model, X)
    assert labels.shape == (3,)


def test_naive_bayes_large_alpha_flattens_likelihoods():
    X = np.array([[5.0, 0.0], [0.0, 5.0]])
    y = np.array([1, 0])
    model = train_naive_bayes(X, y, alpha=1e9)
    lik = np.exp(model.params.log_likelihoods)
    assert np.allclose(lik, 0.5, atol=1e-6)


@given(st.integers(0, 2**32 - 1))
def test_naive_bayes_likelihoods_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(6, 4)).astype(np.float64)
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_naive_bayes(X, y)
    lik = np.exp(model.params.log_likelihoods)
    assert np.allclose(lik.sum(axis=1), 1.0, atol=1e-9)


def test_naive_bayes_duplication_keeps_confident_decisions():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 6, size=(8, 3)).astype(np.float64)
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    m1 = train_naive_bayes(X, y)
    m2 = train_naive_bayes(np.vstack([X, X]), np.concatenate([y, y]))
    # Priors are exactly invariant under duplication.
    assert np.array_equal(m1.params.log_priors, m2.params.log_priors)
    # Fixed-alpha smoothing drifts the likelihoods slightly; decisions are
    # preserved wherever the margin exceeds that drift.
    drift = np.max(np.abs(m1.params.log_likelihoods - m2.params.log_likelihoods))
    tests = rng.integers(0, 6, size=(40, 3)).astype(np.float64)
    l1, s1 = predict(m1, tests)
    l2, _ = predict(m2, tests)
    bound = drift * tests.sum(axis=1)
    confident = np.abs(s1) > bound
    assert confident.any()
    assert np.array_equal(l1[confident], l2[confident])


def test_naive_bayes_errors():
    X = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValidationError, match="single class"):
        train_naive_bayes(X, np.array([1, 1]))
    with pytest.raises(ConfigError, match="alpha"):
        train_naive_bayes(X, np.array([0, 1]), alpha=0.0)
    with pytest.raises(ValidationError, match="nonnegative"):
        train_naive_bayes(np.array([[1.0, -2.0], [2.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(ValidationError, match="one per"):
        train_naive_bayes(X, np.array([0, 1, 1]))


def test_naive_bayes_params_enforce_normalization():
    with pytest.raises(ValidationError, match="sum to 1"):
        NaiveBayesParams(
            alpha=1.0,
            log_priors=np.log([0.5, 0.5]),
            log_likelihoods=np.log([[0.9, 0.3], [0.5, 0.5]]),
        )


# --- logistic regression ---------------------------------------------------


def test_logreg_zero_model_scores_half():
    params = LogisticRegressionParams(
        weights=np.zeros(2),
        bias=0.0,
        hyper=LRHyperparams(),
        loss_history=(0.7,),
        converged=True,
    )
    model = TrainedModel(kind="logistic_regression", feature_dim=2, params=params)
    labels, scores = predict(model, np.array([[3.0, -1.0]]))
    assert scores[0] == 0.5
    assert labels[0] == 0  # score of exactly 0.5 is not positive


def test_logreg_separates_separable_data():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    model = train_logistic_regression(X, y)
    p = model.params
    assert p.weights[0] > 0
    labels, scores = predict(model, X)
    assert labels.tolist() == [0, 0, 1, 1]
    assert np.all((scores > 0.5) == (y == 1))


def test_logreg_loss_history_is_monotone():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] + 0.2 * rng.normal(size=30) > 0).astype(int)
    model = train_logistic_regression(X, y)
    losses = np.array(model.params.loss_history)
    assert losses[0] == pytest.approx(np.log(2))
    assert np.all(np.diff(losses) <= 1e-12)


@pytest.mark.parametrize("tol", [1e-5, 5e-2])
def test_logreg_matches_a_one_cell_batched_stack(tol):
    # `facetrec train` and `run` share their arithmetic: a model is the
    # many-cell Newton fit's result on its rows as the only cell, with no
    # synthetic rows, bit for bit, both when the cell stops at the
    # tolerance and when a loose tolerance stops it early.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(54, 50)) / 7.0
    y = (rng.random(54) < 0.5).astype(np.int64)
    hyper = LRHyperparams(max_epochs=80, tol=tol)
    p = train_logistic_regression(X, y, hyper).params
    none = np.empty(0, dtype=np.int64)
    cell = kernels.LRCell(np.arange(54), y, none, none, np.empty(0))
    W, B, losses, converged, _ = kernels.logreg_descent_cells(X, [cell], hyper.l2, hyper.max_epochs, hyper.tol)
    assert np.array_equal(p.weights, W[0])
    assert p.bias == B[0]
    assert np.array_equal(p.loss_history, losses[0])
    assert p.converged == converged[0]


def test_logreg_convergence_flag_and_history_length():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    hyper = LRHyperparams(max_epochs=3, tol=0.0)
    model = train_logistic_regression(X, y, hyper)
    p = model.params
    assert not p.converged
    assert len(p.loss_history) == 4  # initial state plus 3 Newton iterations
    loose = train_logistic_regression(X, y, LRHyperparams(tol=0.2))
    assert loose.params.converged


@pytest.mark.filterwarnings("error")
def test_logreg_divergence_raises_training_error():
    # Finite features near 1e200 overflow the Newton step, and the loss of
    # the state it reaches is non-finite.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 3)) * 1e200
    y = (rng.random(10) > 0.5).astype(int)
    y[0], y[1] = 0, 1
    with pytest.raises(TrainingError, match="^loss became non-finite after 1 Newton iterations$"):
        train_logistic_regression(X, y)


def test_logreg_errors():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValidationError, match="single class"):
        train_logistic_regression(X, np.array([1, 1]))
    with pytest.raises(ValidationError, match="non-finite"):
        train_logistic_regression(np.array([[np.nan], [1.0]]), np.array([0, 1]))
    with pytest.raises(ConfigError, match="l2"):
        LRHyperparams(l2=-1.0)
    with pytest.raises(ConfigError, match="max_epochs"):
        LRHyperparams(max_epochs=0)


# --- dispatcher and shared behavior ----------------------------------------


def test_train_dispatcher_covers_all_kinds():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    y = np.array([1, 0, 1, 0])
    for kind in ("majority", "naive_bayes", "logistic_regression"):
        model = train(ModelSpec(kind=kind), X, y)
        assert model.kind == kind
        assert model.feature_dim == 2
        labels, scores = predict(model, X)
        assert labels.shape == (4,)
        assert scores.shape == (4,)
    with pytest.raises(ConfigError, match="kind"):
        ModelSpec(kind="perceptron")


def test_predict_rejects_wrong_width():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = train(ModelSpec(kind="naive_bayes"), X, np.array([0, 1]))
    with pytest.raises(ValidationError, match="feature"):
        predict(model, np.zeros((2, 3)))


def test_predict_selects_rows_by_mask():
    X, y, models = _fit_all()
    mask = np.array([True, False, True, True])
    for model in models:
        labels, scores = predict(model, X, mask)
        want_labels, want_scores = predict(model, X[mask])
        assert np.array_equal(labels, want_labels) and np.array_equal(scores, want_scores)


def test_majority_predicts_without_reading_rows():
    # Only the matrix's shape is read: this stand-in has no rows to gather.
    model = train_majority([1, 1, 0], feature_dim=3)
    labels, scores = predict(model, SimpleNamespace(shape=(5, 3)), np.array([True, False, True, True, False]))
    assert labels.tolist() == [1, 1, 1] and scores.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValidationError, match="feature"):
        predict(model, SimpleNamespace(shape=(5, 4)))


def _nb_per_class(class_sums, class_counts, alpha):
    # nb_models' formula one class at a time, as its plain reading goes.
    n_features = class_sums.shape[1]
    log_priors, log_likelihoods = np.empty(2), np.empty((2, n_features))
    for c in (0, 1):
        log_priors[c] = np.log(class_counts[c] / (class_counts[0] + class_counts[1]))
        log_likelihoods[c] = np.log((class_sums[c] + alpha) / (class_sums[c].sum() + alpha * n_features))
    return log_priors, log_likelihoods


@pytest.mark.parametrize("alpha", [1.0, 0.37])
def test_nb_models_fit_each_cell_as_one_cell_alone(alpha):
    # Fractional class sums (SMOTE rows weigh 1 - g and g), many cells and
    # a width past one pairwise-summation block: every cell's logs equal,
    # bit for bit, those of the per-class formula and of the cell alone.
    rng = np.random.default_rng(11)
    sums = rng.integers(0, 9, size=(13, 2, 301)) + rng.random((13, 2, 301)) * (rng.random((13, 2, 1)) < 0.5)
    counts = rng.integers(1, 60, size=(13, 2))
    models = nb_models(sums, counts, alpha)
    assert len(models) == 13
    for model, cell_sums, cell_counts in zip(models, sums, counts):
        priors, likelihoods = _nb_per_class(cell_sums, cell_counts, alpha)
        assert np.array_equal(model.params.log_priors, priors)
        assert np.array_equal(model.params.log_likelihoods, likelihoods)
        alone = nb_models(cell_sums[None], cell_counts[None], alpha)[0].params
        assert np.array_equal(alone.log_priors, priors) and np.array_equal(alone.log_likelihoods, likelihoods)


# --- persistence -----------------------------------------------------------


def _fit_all():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    y = np.array([1, 0, 1, 0])
    return X, y, [train(ModelSpec(kind=k), X, y) for k in ("majority", "naive_bayes", "logistic_regression")]


def test_save_load_round_trip_preserves_predictions(tmp_path):
    X, y, models = _fit_all()
    for i, model in enumerate(models):
        path = tmp_path / f"m{i}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.feature_dim == model.feature_dim
        l1, s1 = predict(model, X)
        l2, s2 = predict(loaded, X)
        assert np.array_equal(l1, l2)
        assert np.allclose(s1, s2, atol=0, rtol=0)


def test_save_load_round_trip_is_exact_for_lr(tmp_path):
    X, y, models = _fit_all()
    lr = models[2]
    path = tmp_path / "lr.json"
    save_model(lr, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.params.weights, lr.params.weights)
    assert loaded.params.bias == lr.params.bias
    assert loaded.params.loss_history == lr.params.loss_history
    assert loaded.params.converged == lr.params.converged
    assert loaded.params.hyper == lr.params.hyper


def test_save_model_writes_stable_json(tmp_path):
    _, _, models = _fit_all()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(models[1], p1)
    save_model(models[1], p2)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["format"] == "facetrec-model"
    assert payload["version"] == 3


def test_load_model_error_matrix(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_model(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_model(path)
    path.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(ConfigError, match="not a model file"):
        load_model(path)
    path.write_text(json.dumps({"format": "facetrec-model", "version": 9, "kind": "majority"}))
    with pytest.raises(ConfigError, match="version"):
        load_model(path)
    # Version 1 files hold a gradient-descent learning rate, and version 2
    # files lack the normalization table; neither loads.
    for version in (1, 2):
        path.write_text(json.dumps({"format": "facetrec-model", "version": version, "kind": "majority",
                                    "params": {"label": 0}}))
        with pytest.raises(ConfigError, match=f"unsupported model version {version}"):
            load_model(path)
    path.write_text(json.dumps({"format": "facetrec-model", "version": 3, "kind": "majority"}))
    with pytest.raises(ConfigError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize(
    "kind, key, edit, message",
    [
        ("logistic_regression", "weights", lambda v: v[:-1], "weights has shape"),
        ("logistic_regression", "weights", lambda v: [v], "weights has shape"),
        ("naive_bayes", "log_likelihoods", lambda v: [row[:-1] for row in v], "log_likelihoods has shape"),
        ("naive_bayes", "log_likelihoods", lambda v: v[:1], "log_likelihoods has shape"),
        ("naive_bayes", "log_priors", lambda v: v + [0.0], "log_priors has shape"),
        ("naive_bayes", "log_likelihoods", lambda v: [[x + 1.0 for x in row] for row in v], "per-class likelihoods"),
        ("majority", "label", lambda v: 2, "majority label must be 0 or 1"),
        ("logistic_regression", "bias", lambda v: "0.5", "bias must be a finite number, got '0.5'"),
        ("logistic_regression", "weights", lambda v: [float("nan"), *v[1:]], "weights must be finite"),
        ("logistic_regression", "bias", lambda v: float("inf"), "bias must be a finite number, got inf"),
        ("naive_bayes", "log_priors", lambda v: [-50.0, 0.0], "log_priors must be the logs of two class fractions"),
        ("naive_bayes", "log_priors", lambda v: [0.0, 0.0], "log_priors must be the logs of two class fractions"),
        ("logistic_regression", "converged", lambda v: "false", "converged must be true or false, got 'false'"),
        ("logistic_regression", "hyper", lambda h: {**h, "max_epochs": 3.7},
         "max_epochs must be a positive integer, got 3.7"),
        ("naive_bayes", "alpha", lambda v: True, "alpha must be finite and positive, got True"),
        ("logistic_regression", "loss_history", lambda v: "123", "loss_history must be a list of numbers, got '123'"),
        ("naive_bayes", "learning_rate", lambda v: 0.1,
         "unknown params keys: learning_rate; naive_bayes params takes alpha, log_priors, log_likelihoods"),
        ("logistic_regression", "hyper", lambda h: {k: v for k, v in h.items() if k != "tol"}, "hyper lacks 'tol'"),
        ("naive_bayes", "log_priors", lambda v: ["-0.5", "-0.9"],
         r"log_priors has shape \(2,\), feature_dim needs \(2,\), of numbers \(not bools or strings\)"),
        ("logistic_regression", "weights", lambda v: [True, *v[1:]],
         r"weights has shape \(2,\), feature_dim needs \(2,\), of numbers \(not bools or strings\)"),
    ],
    ids=["lr-short", "lr-2d", "nb-narrow", "nb-one-class", "nb-three-priors", "nb-unnormalized", "majority-label",
         "lr-bias-string", "lr-weight-nan", "lr-bias-inf", "nb-priors-far", "nb-priors-zero", "lr-converged-string",
         "lr-max-epochs-float", "nb-alpha-bool", "lr-loss-history-string", "nb-unknown-key", "lr-hyper-missing-key",
         "nb-priors-strings", "lr-weight-bool"],
)
def test_load_model_rejects_parameters_that_do_not_fit(tmp_path, kind, key, edit, message):
    # A parameter array whose shape disagrees with feature_dim, a value no
    # trained model holds, or a key the params do not take, is a malformed
    # file named by its path, with the field, caught at load rather than
    # as a numpy error or a moved prediction at predict.
    _, _, models = _fit_all()
    path = tmp_path / "m.json"
    save_model(next(m for m in models if m.kind == kind), path)
    payload = json.loads(path.read_text())
    payload["params"][key] = edit(payload["params"].get(key))
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: malformed model file: {message}"):
        load_model(path)


@pytest.mark.parametrize("kind", ["majority", "naive_bayes", "logistic_regression"])
@pytest.mark.parametrize("dim", ["2", 2.0, True, -1, None])
def test_load_model_needs_an_integer_feature_dim(tmp_path, kind, dim):
    # Only a majority model may leave feature_dim null.
    _, _, models = _fit_all()
    path = tmp_path / "m.json"
    save_model(next(m for m in models if m.kind == kind), path)
    payload = json.loads(path.read_text())
    payload["feature_dim"] = dim
    path.write_text(json.dumps(payload))
    if dim is None and kind == "majority":
        assert load_model(path).feature_dim is None
        return
    with pytest.raises(ConfigError, match="malformed model file: feature_dim must be a nonnegative integer"):
        load_model(path)


def test_label_validation_is_shared():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValidationError, match="binary"):
        train_majority([0, 2])
    with pytest.raises(ValidationError, match="non-empty"):
        train_majority([])
    with pytest.raises(ValidationError, match="binary"):
        train_logistic_regression(X, np.array([0.5, 1.0]))
