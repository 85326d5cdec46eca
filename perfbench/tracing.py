"""Spans and counters around facetrec's public functions, from outside it.

`install` replaces each traced function with a wrapper in every loaded
facetrec module that holds a reference to it (so `from .x import f` call
sites are covered too). A wrapper records one span: name, parent span,
start, end. Counters are taken from the arguments and results at the same
boundaries. Method-property checks run in a paused block whose time is
left out of every open span and of the run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

import checks

# span name -> (module, function). Times of these spans are inclusive.
TRACED = {
    "cli.main": ("facetrec.cli", "main"),
    "corpus.load": ("facetrec.corpus", "load_corpus"),
    "corpus.documents": ("facetrec.corpus", "build_documents"),
    "corpus.labels": ("facetrec.corpus", "assign_labels"),
    "inventory.score": ("facetrec.inventory", "score_inventory"),
    "eval.folds": ("facetrec.eval", "make_folds"),
    "eval.experiment": ("facetrec.eval", "run_experiment"),
    "eval.f1": ("facetrec.eval", "f1_macro"),
    "eval.render": ("facetrec.eval", "render_report"),
    "features.realize": ("facetrec.features", "realize_features"),
    "features.vocab": ("facetrec.features", "build_vocabulary"),
    "features.bow": ("facetrec.features", "bow_matrix"),
    "features.embeddings": ("facetrec.features", "load_embeddings"),
    "resample.smote": ("facetrec.resample", "smote"),
    "kernels.knn": ("facetrec.kernels", "minority_knn"),
    "kernels.logreg": ("facetrec.kernels", "logreg_descent"),
    "models.train": ("facetrec.models", "train"),
    "models.lr_train": ("facetrec.models", "train_logistic_regression"),
    "models.nb_train": ("facetrec.models", "train_naive_bayes"),
    "models.majority_train": ("facetrec.models", "train_majority"),
    "models.predict": ("facetrec.models", "predict"),
}

# metric -> span name
TIME_METRICS = {
    "corpus.load_s": "corpus.load",
    "corpus.documents_s": "corpus.documents",
    "corpus.labels_s": "corpus.labels",
    "inventory.score_s": "inventory.score",
    "eval.folds_s": "eval.folds",
    "eval.f1_s": "eval.f1",
    "eval.render_s": "eval.render",
    "features.realize_s": "features.realize",
    "resample.smote_s": "resample.smote",
    "kernels.knn_s": "kernels.knn",
    "kernels.logreg_s": "kernels.logreg",
    "models.train_s": "models.train",
    "models.lr_train_s": "models.lr_train",
    "models.nb_train_s": "models.nb_train",
    "models.majority_train_s": "models.majority_train",
    "models.predict_s": "models.predict",
}
# Span duration minus the traced calls inside it. For eval.experiment that
# is the per-cell loop of run_experiment: row slicing, seeds, bookkeeping.
SELF_METRICS = {"cli.self_s": "cli.main", "eval.cell_self_s": "eval.experiment"}
CALL_METRICS = {
    "inventory.authors": "inventory.score",
    "eval.cells": "eval.f1",
    "features.realize_calls": "features.realize",
    "features.vocab_builds": "features.vocab",
    "features.embedding_loads": "features.embeddings",
    "resample.smote_calls": "resample.smote",
    "kernels.knn_calls": "kernels.knn",
    "kernels.logreg_calls": "kernels.logreg",
}
HOOK_METRICS = (
    "corpus.tokens",
    "features.bow_rows",
    "resample.synthetic_rows",
    "resample.majority_synthetic_rows",
    "kernels.knn_rows",
    "models.lr_epochs",
    "models.lr_converged",
    "models.lr_flops",
    "models.lr_bytes",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self, check_lr_descent: bool):
        self.check_lr_descent = check_lr_descent
        self.spans: list[list] = []  # [name, parent index, start, end, paused seconds]
        self.counts = dict.fromkeys(HOOK_METRICS, 0)
        self.problems: list[str] = []
        self.paused_s = 0.0
        self.model_kind = None
        self._stack: list[int] = []

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    def wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(sig.bind(*args, **kwargs).arguments)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.paused_s]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[4] = self.paused_s - span[4]
                self._stack.pop()
            if after is not None:
                after(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- hooks: counters, and the method-property checks --------------------

    def _experiment(self, a):
        self.model_kind = a["model_spec"].kind

    def _documents(self, a, docs):
        self.counts["corpus.tokens"] += sum(len(tokens) for _, tokens in docs)

    def _bow(self, a, X):
        self.counts["features.bow_rows"] += X.shape[0]

    def _smote(self, a, result):
        X_aug, y_aug = result
        added = len(y_aug) - len(a["y"])
        self.counts["resample.synthetic_rows"] += added
        if self.model_kind == "majority":
            self.counts["resample.majority_synthetic_rows"] += added
        with self.paused():
            self._note("smote", checks.check_smote(a["X"], a["y"], a["cfg"].target_ratio, X_aug, y_aug))

    def _knn(self, a, result):
        self.counts["kernels.knn_rows"] += a["M"].shape[0]

    def _logreg(self, a, result):
        # One loss/gradient evaluation per history entry; each is two
        # matrix-vector products over X (z = Xw, g = X^T r): 4 flops and
        # two float64 reads per element of X.
        evals = len(result[2])
        size = a["X"].shape[0] * a["X"].shape[1]
        self.counts["models.lr_flops"] += 4 * size * evals
        self.counts["models.lr_bytes"] += 16 * size * evals

    def _lr_train(self, a, model):
        p = model.params
        self.counts["models.lr_epochs"] += len(p.loss_history) - 1
        self.counts["models.lr_converged"] += int(p.converged)
        if self.check_lr_descent:
            with self.paused():
                self._note(
                    "lr",
                    checks.check_lr_descent(a["X"], p.hyper.learning_rate, p.hyper.l2, p.loss_history),
                )

    def _note(self, what, problems):
        if problems and len(self.problems) < 20:
            self.problems.append(f"{what} (span {len(self.spans) - 1}): " + "; ".join(problems))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[str, float] = {}
        for name, parent, start, end, paused in self.spans:
            d = end - start - paused
            total[name] = total.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + d
        out = {m: total.get(s, 0.0) for m, s in TIME_METRICS.items()}
        out.update({m: total.get(s, 0.0) - child.get(s, 0.0) for m, s in SELF_METRICS.items()})
        out.update({m: calls.get(s, 0) for m, s in CALL_METRICS.items()})
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, paused) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "paused": paused}) + "\n")


def install(check_lr_descent: bool) -> Tracer:
    """Wrap every TRACED function in all loaded facetrec modules."""
    tracer = Tracer(check_lr_descent)
    before = {"eval.experiment": tracer._experiment}
    after = {
        "corpus.documents": tracer._documents,
        "features.bow": tracer._bow,
        "resample.smote": tracer._smote,
        "kernels.knn": tracer._knn,
        "kernels.logreg": tracer._logreg,
        "models.lr_train": tracer._lr_train,
    }
    for name, (module, attr) in TRACED.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = tracer.wrap(name, original, before.get(name), after.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "facetrec" or mod_name.startswith("facetrec."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return tracer
