from __future__ import annotations

import json

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
    # batched kernel's result on its cell stacked alone, bit for bit, both
    # when the cell runs all epochs and when it stops at the tolerance.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(54, 50)) / 7.0
    y = (rng.random(54) < 0.5).astype(np.int64)
    hyper = LRHyperparams(max_epochs=80, tol=tol)
    p = train_logistic_regression(X, y, hyper).params
    W, B, losses, _ = kernels.logreg_descent_batched(
        X[None], y[None], hyper.learning_rate, hyper.l2, hyper.max_epochs, hyper.tol
    )
    assert np.array_equal(p.weights, W[0])
    assert p.bias == B[0]
    assert np.array_equal(p.loss_history, losses[0])
    assert p.converged == (len(losses[0]) <= hyper.max_epochs)


def test_logreg_convergence_flag_and_history_length():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    hyper = LRHyperparams(max_epochs=3, tol=0.0)
    model = train_logistic_regression(X, y, hyper)
    p = model.params
    assert not p.converged
    assert len(p.loss_history) == 4  # initial state plus 3 updates
    loose = train_logistic_regression(X, y, LRHyperparams(tol=0.2))
    assert loose.params.converged


@pytest.mark.filterwarnings("error")
def test_logreg_divergence_raises_training_error():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 3)) * 5
    y = (rng.random(10) > 0.5).astype(int)
    y[0], y[1] = 0, 1
    with pytest.raises(TrainingError, match="non-finite"):
        train_logistic_regression(X, y, LRHyperparams(learning_rate=1e3, l2=1e3))


def test_logreg_errors():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValidationError, match="single class"):
        train_logistic_regression(X, np.array([1, 1]))
    with pytest.raises(ValidationError, match="non-finite"):
        train_logistic_regression(np.array([[np.nan], [1.0]]), np.array([0, 1]))
    with pytest.raises(ConfigError, match="learning_rate"):
        LRHyperparams(learning_rate=0.0)
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
    assert payload["version"] == 1


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
    path.write_text(json.dumps({"format": "facetrec-model", "version": 1, "kind": "majority"}))
    with pytest.raises(ConfigError, match="malformed"):
        load_model(path)


def test_label_validation_is_shared():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValidationError, match="binary"):
        train_majority([0, 2])
    with pytest.raises(ValidationError, match="non-empty"):
        train_majority([])
    with pytest.raises(ValidationError, match="binary"):
        train_logistic_regression(X, np.array([0.5, 1.0]))
