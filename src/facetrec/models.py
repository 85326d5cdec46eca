"""Three binary classifiers behind one train/predict/save contract.

Majority baseline (constant prediction, ties negative), multinomial Naive
Bayes with Laplace smoothing over nonnegative count features, and binary
logistic regression fit by truncated Newton (Newton-CG). All three are
deterministic functions of their training data and hyperparameters, which
``ModelSpec.options`` names per kind for configs and manifests.

Every model trains through one path. ``resample.plan_cell`` checks a
training set of rows of one feature matrix and, with SMOTE, draws its
synthetic rows as interpolation triples; ``fit_cells`` trains the models of
many such cells without copying their rows. Every model kind trains from
the same cells: `eval` plans each facet x fold cell of a matrix once,
``facetrec train`` one cell of all rows with SMOTE, and ``train`` one
without it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ConfigError, TrainingError, ValidationError, config_fields, is_int, is_number, read_config
from .resample import _as_labels, _as_rows, plan_cell

_MODEL_FORMAT = "facetrec-model"
_MODEL_VERSION = 3

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MajorityParams:
    label: int  # most frequent training label; exact tie stores negative

    def __post_init__(self):
        if not is_int(self.label) or self.label not in (0, 1):
            raise ValidationError(f"majority label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class NaiveBayesParams:
    """Log priors and per-class log likelihoods of a multinomial model."""

    alpha: float
    log_priors: np.ndarray  # shape (2,), indexed by class label
    log_likelihoods: np.ndarray  # shape (2, n_features)

    def __post_init__(self):
        if not (is_number(self.alpha) and 0 < self.alpha < math.inf):
            raise ValidationError(f"alpha must be finite and positive, got {self.alpha!r}")
        # The fractions of rows in each of two classes, both present: each
        # prior is one minus the other, to a relative 1e-6, which a fit of
        # fewer than 1e9 rows meets.
        lp = np.asarray(self.log_priors)
        p = np.exp(np.minimum(lp, 0.0))
        if not (np.all((-math.inf < lp) & (lp < 0)) and np.all(np.abs(1 - p[::-1] - p) <= 1e-6 * p)):
            raise ValidationError(f"log_priors must be the logs of two class fractions, got {lp.tolist()}")
        totals = np.exp(self.log_likelihoods).sum(axis=1)
        if np.any(np.abs(totals - 1.0) > 1e-9):
            raise ValidationError(
                f"per-class likelihoods must sum to 1, got {totals.tolist()}"
            )


@dataclass(frozen=True)
class LRHyperparams:
    l2: float = 1e-4
    max_epochs: int = 500  # cap on Newton iterations
    tol: float = 1e-5

    def __post_init__(self):
        for name in ("l2", "tol"):
            value = getattr(self, name)
            if not (is_number(value) and 0 <= value < math.inf):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value!r}")
        if not is_int(self.max_epochs) or self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be a positive integer, got {self.max_epochs!r}")


@dataclass(frozen=True)
class LogisticRegressionParams:
    weights: np.ndarray
    bias: float
    hyper: LRHyperparams
    loss_history: tuple[float, ...]  # objective at every visited parameter state
    converged: bool  # stopped by the gradient tolerance

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")
        if not (is_number(self.bias) and math.isfinite(self.bias)):
            raise ValidationError(f"bias must be a finite number, got {self.bias!r}")
        history = self.loss_history
        if not (isinstance(history, (list, tuple)) and all(map(is_number, history))):
            raise ValidationError(f"loss_history must be a list of numbers, got {history!r}")
        object.__setattr__(self, "loss_history", tuple(history))
        if not isinstance(self.converged, bool):
            raise ValidationError(f"converged must be true or false, got {self.converged!r}")


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
        if not (is_number(self.alpha) and 0 < self.alpha < math.inf):
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha!r}")

    def options(self) -> dict:
        """This kind's options, which a config may set and a manifest records."""
        if self.kind == "naive_bayes":
            return {"alpha": self.alpha}
        if self.kind == "logistic_regression":
            return asdict(self.lr)
        return {}

    def with_options(self, **options) -> ModelSpec:
        """This spec with some of its ``options()`` set, each checked."""
        if self.kind == "logistic_regression":
            return replace(self, lr=replace(self.lr, **options))
        return replace(self, **options)


_PARAMS = {"majority": MajorityParams, "naive_bayes": NaiveBayesParams, "logistic_regression": LogisticRegressionParams}
MODEL_KINDS = tuple(_PARAMS)


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


def train_majority(y, feature_dim: int | None = None) -> TrainedModel:
    """Record the most frequent training label; exact ties go negative."""
    y = _as_labels(y)
    return majority_model(int(np.sum(y == 1)), len(y), feature_dim)


def majority_model(n_pos: int, n: int, feature_dim: int | None = None) -> TrainedModel:
    """The majority model of n labels of which n_pos are positive."""
    return TrainedModel(
        kind="majority", feature_dim=feature_dim, params=MajorityParams(label=int(n_pos * 2 > n))
    )


def unusable_rows(kind: str, X) -> tuple[np.ndarray, str]:
    """Per row of the 2-d float X, whether a ``kind`` model cannot train on
    it, and the message of a training set that holds such a row: naive
    Bayes needs nonnegative counts, logistic regression finite features."""
    if kind == "naive_bayes":
        return ~np.all(X >= 0, axis=1), "count features must be nonnegative"
    if kind == "logistic_regression":
        return ~np.all(np.isfinite(X), axis=1), "features contain non-finite values"
    return np.zeros(len(X), dtype=bool), ""


def _class_sums(X, cells):
    # Per cell, its (2, dim) feature sums and its counts by class, from one
    # product of a (2 * cells, docs) weight matrix with X. An own row weighs
    # 1 in its class; a SMOTE row (s, n, g), 1 - g at s and g at n.
    n, at, w = len(X), [], []
    for i, c in enumerate(cells):
        at += [(2 * i + c.y) * n + c.rows, (2 * i + c.minority) * n + np.concatenate([c.seeds, c.nbrs])]
        w += [np.ones(len(c.rows)), 1.0 - c.gammas, c.gammas]
    W = np.bincount(np.concatenate(at), np.concatenate(w), minlength=2 * len(cells) * n).reshape(-1, n)
    counts = [np.bincount(c.y, minlength=2) + len(c.seeds) * (np.arange(2) == c.minority) for c in cells]
    return (W @ X).reshape(len(cells), 2, -1), np.array(counts)


def nb_models(class_sums, class_counts, alpha: float) -> list[TrainedModel]:
    """Naive Bayes of every cell, from (cells, 2, n_features) class sums and
    (cells, 2) row counts, in one pass: likelihood(j | c) = (sum of j-counts
    in c + alpha) / (all counts in c + alpha * n_features), and priors are
    class fractions, stored as logs. Each cell's model is the one it gives alone."""
    n_features = class_sums.shape[2]
    log_priors = np.log(class_counts / class_counts.sum(axis=1, keepdims=True))
    denom = class_sums.sum(axis=2, keepdims=True)
    denom += alpha * n_features
    log_likelihoods = class_sums + alpha
    log_likelihoods /= denom
    np.log(log_likelihoods, out=log_likelihoods)
    return [
        TrainedModel(kind="naive_bayes", feature_dim=n_features,
                     params=NaiveBayesParams(alpha=float(alpha), log_priors=priors, log_likelihoods=likelihoods))
        for priors, likelihoods in zip(log_priors, log_likelihoods)
    ]


def lr_model(hyper: LRHyperparams, w, b, losses, converged, diverged) -> TrainedModel:
    """The model one Newton fit produced; a diverged fit raises TrainingError."""
    if diverged:
        raise TrainingError(f"loss became non-finite after {len(losses) - 1} Newton iterations")
    return TrainedModel(
        kind="logistic_regression",
        feature_dim=len(w),
        params=LogisticRegressionParams(
            weights=w,
            bias=float(b),
            hyper=hyper,
            loss_history=tuple(float(v) for v in losses),
            converged=bool(converged),
        ),
    )


def fit_cells(X, spec: ModelSpec, groups, name: str = "model", where=None):
    """Every cell's ``spec`` model, in order, built lazily so that a cell's
    error surfaces when its model is taken.

    ``groups`` is a sequence of sequences of cells that ``plan_cell`` made
    over the float64 matrix X. A cell that holds a row a ``spec`` model
    cannot train on (``unusable_rows``) raises ValidationError headed
    ``where(i)`` before any model trains, i counting cells over all groups.
    Majority trains on each cell's labels, SMOTE's rows included; naive
    Bayes on its class sums, from one weighted product with X per group;
    and logistic regression in one ``kernels.logreg_descent_cells`` Newton
    fit of all cells. Info log lines headed ``name`` sum up SMOTE's rows
    and LR's iterations; each LR cell that stops without converging logs a
    warning headed ``name`` and ``where(i)``.
    """
    cells = [cell for group in groups for cell in group]
    bad, message = unusable_rows(spec.kind, X)
    for i, c in enumerate(cells):
        if bad[c.rows].any():
            raise ValidationError(f"{where(i)}: {message}" if where else message)
    if spec.kind == "majority":
        return (majority_model(int(c.y.sum()) + len(c.seeds) * c.minority, len(c.y) + len(c.seeds), X.shape[1])
                for c in cells)
    log.info("%s: SMOTE added %d rows to %d cells", name, sum(len(c.seeds) for c in cells), len(cells))
    if spec.kind == "naive_bayes":
        return (model for group in groups for model in nb_models(*_class_sums(X, group), spec.alpha))
    hyper = spec.lr
    fits = kernels.logreg_descent_cells(X, cells, hyper.l2, hyper.max_epochs, hyper.tol)
    iterations = [len(losses) - 1 for losses in fits[2]]
    log.info("%s: LR converged in %d/%d cells (iterations %d-%d)",
             name, fits[3].sum(), len(cells), min(iterations), max(iterations))
    for i in np.flatnonzero(~fits[3] & ~fits[4]):  # a diverged cell raises when its model is taken
        log.warning("%s: LR stopped after %d Newton iterations without converging",
                    f"{name}: {where(i)}" if where else name, iterations[i])
    return (lr_model(hyper, *fit) for fit in zip(*fits))


def train(spec: ModelSpec, X, y) -> TrainedModel:
    """Fit a ``spec`` model on all rows of (X, y), without SMOTE: the model
    ``fit_cells`` trains on the one cell ``plan_cell`` makes of them."""
    X, y = _as_rows(X, y)
    return next(fit_cells(X, spec, [[plan_cell(y, np.arange(len(X)))]]))


def train_naive_bayes(X, y, alpha: float = 1.0) -> TrainedModel:
    return train(ModelSpec(kind="naive_bayes", alpha=alpha), X, y)


def train_logistic_regression(X, y, hyper: LRHyperparams | None = None) -> TrainedModel:
    return train(ModelSpec(kind="logistic_regression", lr=hyper or LRHyperparams()), X, y)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def predict(model: TrainedModel, X, rows=None):
    """Labels and per-row diagnostic scores of the rows of X, or of those
    the bool mask ``rows`` selects.

    Majority: constant label, score = that label, without reading X's rows.
    Naive Bayes: argmax of log prior + counts . log likelihoods, score =
    positive minus negative log posterior. Logistic regression: positive
    iff sigmoid(w.x + b) > 0.5, score = the sigmoid. All ties resolve
    negative.
    """
    n_rows, n_cols = X.shape
    if model.feature_dim is not None and n_cols != model.feature_dim:
        raise ValidationError(
            f"feature dimension mismatch: model expects {model.feature_dim}, got {n_cols}"
        )
    if model.kind == "majority":
        label = model.params.label
        if rows is not None:
            n_rows = int(np.count_nonzero(rows))
        labels = np.full(n_rows, label, dtype=np.int64)
        scores = np.full(n_rows, float(label))
        return labels, scores
    if rows is not None:
        X = X[rows]
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
    """Write a model as JSON, its params as the fields of their dataclass;
    floats round-trip exactly via repr."""
    params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(model.params).items()}
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


def _array(raw, key, shape):
    # A model file's array of numbers ``raw[key]``, which must have ``shape``.
    a = np.array(raw[key], dtype=object)
    if a.shape != shape or not all(map(is_number, a.flat)):
        raise ValueError(f"{key} has shape {a.shape}, feature_dim needs {shape}, of numbers (not bools or strings)")
    return a.astype(np.float64)


def load_model(path) -> TrainedModel:
    """Read a model written by save_model. Its top level, its params and LR's
    hyperparameters must each hold every field of their dataclass, which
    checks them, and no other; the shapes of the params must agree with
    feature_dim. ``features.featurize`` reads the feature reference."""
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
    try:
        keys = {"format": MISSING, "version": MISSING, **config_fields(TrainedModel, required=True)}
        payload = read_config(payload, keys, "model file keys", "a model file")
        kind, dim = payload["kind"], payload["feature_dim"]
        cls = _PARAMS.get(kind)
        if cls is None:
            raise ValueError(f"unknown model kind {kind!r}")
        if (not is_int(dim) or dim < 0) and not (dim is None and kind == "majority"):
            raise ValueError(f"feature_dim must be a nonnegative integer, got {dim!r}")
        raw = read_config(payload["params"], config_fields(cls, required=True), "params keys", f"{kind} params")
        shapes = {"log_priors": (2,), "log_likelihoods": (2, dim), "weights": (dim,)}
        raw.update({key: _array(raw, key, shape) for key, shape in shapes.items() if key in raw})
        if kind == "logistic_regression":
            hyper = config_fields(LRHyperparams, required=True)
            raw["hyper"] = LRHyperparams(**read_config(raw["hyper"], hyper, "hyper keys", "hyper"))
        params = cls(**raw)
    except (ConfigError, TypeError, ValueError, ValidationError) as e:
        raise ConfigError(f"{path}: malformed model file: {e}") from e
    return TrainedModel(kind=kind, feature_dim=dim, params=params, feature_ref=payload["feature_ref"])
