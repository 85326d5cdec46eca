"""Three binary classifiers behind one train/predict/save contract.

Majority baseline (constant prediction, ties negative), multinomial Naive
Bayes with Laplace smoothing over nonnegative count features, and binary
logistic regression fit by full-batch gradient descent. All three are
deterministic functions of their training data and hyperparameters.

`eval` trains many cells of one feature matrix without copying their rows:
it checks features once per matrix (``unusable_rows``), and ``nb_model``
and ``lr_model`` build a model from its cell's class sums or descent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, TrainingError, ValidationError

MODEL_KINDS = ("majority", "naive_bayes", "logistic_regression")

_MODEL_FORMAT = "facetrec-model"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class MajorityParams:
    label: int  # most frequent training label; exact tie stores negative

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"majority label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class NaiveBayesParams:
    """Log priors and per-class log likelihoods of a multinomial model."""

    alpha: float
    log_priors: np.ndarray  # shape (2,), indexed by class label
    log_likelihoods: np.ndarray  # shape (2, n_features)

    def __post_init__(self):
        totals = np.exp(self.log_likelihoods).sum(axis=1)
        if np.any(np.abs(totals - 1.0) > 1e-9):
            raise ValidationError(
                f"per-class likelihoods must sum to 1, got {totals.tolist()}"
            )


@dataclass(frozen=True)
class LRHyperparams:
    learning_rate: float = 0.1
    l2: float = 1e-4
    max_epochs: int = 500
    tol: float = 1e-5

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if not isinstance(self.max_epochs, int) or isinstance(self.max_epochs, bool) or self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be a positive integer, got {self.max_epochs!r}")
        if self.tol < 0:
            raise ConfigError(f"tol must be nonnegative, got {self.tol}")


@dataclass(frozen=True)
class LogisticRegressionParams:
    weights: np.ndarray
    bias: float
    hyper: LRHyperparams
    loss_history: tuple[float, ...]  # objective at every visited parameter state
    converged: bool  # stopped by the gradient tolerance before max_epochs


@dataclass(frozen=True)
class ModelSpec:
    """Which classifier to train, with its hyperparameters."""

    kind: str
    alpha: float = 1.0
    lr: LRHyperparams = field(default_factory=LRHyperparams)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(
                f"model kind must be one of {', '.join(MODEL_KINDS)}, got {self.kind!r}"
            )
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier; predict only accepts rows of feature_dim width.

    feature_dim may be None for a majority model trained from labels alone,
    in which case the width check is skipped. feature_ref optionally records
    the feature space the model was trained in (see save_model).
    """

    kind: str
    feature_dim: int | None
    params: object
    feature_ref: dict | None = None


def _as_labels(y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or len(y) == 0:
        raise ValidationError("labels must be a non-empty 1-d sequence")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError(f"labels must be binary 0/1, got values {sorted(set(y.tolist()))}")
    return y.astype(np.int64)


def train_majority(y, feature_dim: int | None = None) -> TrainedModel:
    """Record the most frequent training label; exact ties go negative."""
    y = _as_labels(y)
    n_pos = int(np.sum(y == 1))
    label = 1 if n_pos * 2 > len(y) else 0
    return TrainedModel(
        kind="majority", feature_dim=feature_dim, params=MajorityParams(label=label)
    )


def training_labels(y) -> np.ndarray:
    """y as int64 labels; ValidationError unless both classes are present."""
    y = _as_labels(y)
    if y.min() == y.max():
        raise ValidationError("training labels contain a single class")
    return y


def unusable_rows(kind: str, X) -> tuple[np.ndarray, str]:
    """Per row of the 2-d float X, whether a ``kind`` model cannot train on
    it, and the message of a training set that holds such a row: naive
    Bayes needs nonnegative counts, logistic regression finite features."""
    if kind == "naive_bayes":
        return ~np.all(X >= 0, axis=1), "count features must be nonnegative"
    if kind == "logistic_regression":
        return ~np.all(np.isfinite(X), axis=1), "features contain non-finite values"
    return np.zeros(len(X), dtype=bool), ""


def _training_set(kind: str, X, y) -> tuple[np.ndarray, np.ndarray]:
    # Float64 rows and int64 labels a ``kind`` model can train on.
    y = training_labels(y)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValidationError("labels must be one per feature row")
    bad, message = unusable_rows(kind, X)
    if bad.any():
        raise ValidationError(message)
    return X, y


def nb_model(class_sums, class_counts, alpha: float) -> TrainedModel:
    """Naive Bayes from per-class feature sums (2, n_features) and row counts:
    likelihood(j | c) = (sum of j-counts in c + alpha) / (all counts in c +
    alpha * n_features), and priors are class fractions. Stored as logs."""
    n_features = class_sums.shape[1]
    log_priors = np.empty(2)
    log_likelihoods = np.empty((2, n_features))
    for c in (0, 1):
        log_priors[c] = np.log(class_counts[c] / (class_counts[0] + class_counts[1]))
        denom = class_sums[c].sum() + alpha * n_features
        log_likelihoods[c] = np.log((class_sums[c] + alpha) / denom)
    params = NaiveBayesParams(alpha=float(alpha), log_priors=log_priors, log_likelihoods=log_likelihoods)
    return TrainedModel(kind="naive_bayes", feature_dim=n_features, params=params)


def train_naive_bayes(X, y, alpha: float = 1.0) -> TrainedModel:
    """Multinomial Naive Bayes over nonnegative (possibly fractional)
    counts: ``nb_model`` of the class sums and counts of (X, y)."""
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    X, y = _training_set("naive_bayes", X, y)
    return nb_model(np.stack([X[y == c].sum(axis=0) for c in (0, 1)]), np.bincount(y, minlength=2), alpha)


def lr_model(hyper: LRHyperparams, w, b, losses, diverged) -> TrainedModel:
    """The model one descent produced; a diverged descent raises TrainingError."""
    if diverged:
        raise TrainingError(
            f"loss became non-finite after {len(losses) - 1} updates; "
            "try a smaller learning rate"
        )
    converged = len(losses) <= hyper.max_epochs
    return TrainedModel(
        kind="logistic_regression",
        feature_dim=len(w),
        params=LogisticRegressionParams(
            weights=w,
            bias=float(b),
            hyper=hyper,
            loss_history=tuple(float(v) for v in losses),
            converged=converged,
        ),
    )


def train_logistic_regression(
    X, y, hyper: LRHyperparams | None = None
) -> TrainedModel:
    """Fit weights by full-batch gradient descent from zero initialization.

    Objective: mean logistic loss + (l2/2) * ||w||^2, bias unregularized.
    Stops at the gradient max-norm tolerance or max_epochs; a non-finite
    loss raises TrainingError.
    """
    hyper = hyper or LRHyperparams()
    X, y = _training_set("logistic_regression", X, y)
    fit = kernels.logreg_descent(X, y, hyper.learning_rate, hyper.l2, hyper.max_epochs, hyper.tol)
    return lr_model(hyper, *fit)


def train(spec: ModelSpec, X, y) -> TrainedModel:
    """Dispatch to the right trainer for a ModelSpec."""
    if spec.kind == "majority":
        return train_majority(y, feature_dim=X.shape[1])
    if spec.kind == "naive_bayes":
        return train_naive_bayes(X, y, alpha=spec.alpha)
    return train_logistic_regression(X, y, hyper=spec.lr)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def predict(model: TrainedModel, X):
    """Labels and per-row diagnostic scores.

    Majority: constant label, score = that label. Naive Bayes: argmax of
    log prior + counts . log likelihoods, score = positive minus negative
    log posterior. Logistic regression: positive iff sigmoid(w.x + b) > 0.5,
    score = the sigmoid. All ties resolve negative.
    """
    n_rows, n_cols = X.shape
    if model.feature_dim is not None and n_cols != model.feature_dim:
        raise ValidationError(
            f"feature dimension mismatch: model expects {model.feature_dim}, got {n_cols}"
        )
    if model.kind == "majority":
        label = model.params.label
        labels = np.full(n_rows, label, dtype=np.int64)
        scores = np.full(n_rows, float(label))
        return labels, scores
    if model.kind == "naive_bayes":
        p = model.params
        joint = X @ p.log_likelihoods.T + p.log_priors  # (n_rows, 2)
        scores = joint[:, 1] - joint[:, 0]
        return (scores > 0).astype(np.int64), scores
    if model.kind == "logistic_regression":
        p = model.params
        z = X @ p.weights + p.bias
        scores = _stable_sigmoid(z)
        return (scores > 0.5).astype(np.int64), scores
    raise ConfigError(f"unknown model kind {model.kind!r}")


def save_model(model: TrainedModel, path) -> None:
    """Write a model as JSON; floats round-trip exactly via repr."""
    if model.kind == "majority":
        params = {"label": model.params.label}
    elif model.kind == "naive_bayes":
        p = model.params
        params = {
            "alpha": p.alpha,
            "log_priors": p.log_priors.tolist(),
            "log_likelihoods": p.log_likelihoods.tolist(),
        }
    elif model.kind == "logistic_regression":
        p = model.params
        params = {
            "weights": p.weights.tolist(),
            "bias": p.bias,
            "hyper": asdict(p.hyper),
            "loss_history": list(p.loss_history),
            "converged": p.converged,
        }
    else:
        raise ConfigError(f"unknown model kind {model.kind!r}")
    payload = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "kind": model.kind,
        "feature_dim": model.feature_dim,
        "feature_ref": model.feature_ref,
        "params": params,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model written by save_model."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read model: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e.msg}") from e
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise ConfigError(f"{path}: not a model file")
    if payload.get("version") != _MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {payload.get('version')!r}")
    kind = payload.get("kind")
    raw = payload.get("params")
    if kind not in MODEL_KINDS or not isinstance(raw, dict):
        raise ConfigError(f"{path}: malformed model file")
    try:
        if kind == "majority":
            params = MajorityParams(label=raw["label"])
        elif kind == "naive_bayes":
            params = NaiveBayesParams(
                alpha=float(raw["alpha"]),
                log_priors=np.array(raw["log_priors"], dtype=np.float64),
                log_likelihoods=np.array(raw["log_likelihoods"], dtype=np.float64),
            )
        else:
            h = raw["hyper"]
            params = LogisticRegressionParams(
                weights=np.array(raw["weights"], dtype=np.float64),
                bias=float(raw["bias"]),
                hyper=LRHyperparams(
                    learning_rate=float(h["learning_rate"]),
                    l2=float(h["l2"]),
                    max_epochs=int(h["max_epochs"]),
                    tol=float(h["tol"]),
                ),
                loss_history=tuple(float(v) for v in raw["loss_history"]),
                converged=bool(raw["converged"]),
            )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: malformed model file: {e}") from e
    return TrainedModel(
        kind=kind,
        feature_dim=payload.get("feature_dim"),
        params=params,
        feature_ref=payload.get("feature_ref"),
    )
