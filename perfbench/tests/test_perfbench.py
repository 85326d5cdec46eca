"""The benchmark's own tests: a tiny-corpus smoke run of the harness, and
mutation cases that the output and method-property checks must catch.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
from facetrec import kernels
from facetrec.resample import ResampleConfig, smote

TINY = run.Workload(60, 60, 0.3, ("baseline", "bow-nb", "skip-lr"), folds=3, check_lr_descent=True)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    return "tiny"


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> str:
    work = tmp_path_factory.mktemp("tiny")
    config = run.make_corpus(TINY, 5, work)
    rep = run.repetition(config, work, traced=False, check_lr=False)
    assert rep is not None
    return rep["report"]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(tiny, trace):
    result = run.measure(tiny, seed=5, seconds=0, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == ((2, 0) if trace else (1, 0))
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["eval.cells"] == len(TINY.systems) * len(checks.FACETS) * TINY.folds
        assert layers["resample.synthetic_rows"] > 0 and layers["models.lr_epochs"] > 0


def test_real_report_passes(report):
    assert checks.check_report(report, TINY.systems, TINY.folds, TINY.pos_rate) == []


def _mutate(report: str, section: str, nth: int, edit) -> str:
    lines = report.split("\n")
    hits = [i for i, ln in enumerate(lines) if ln.startswith(section + ",")]
    i = hits[nth]
    lines[i] = edit(lines[i])
    return "\n".join(ln for ln in lines if ln is not None)


def _shift_value(delta):
    def edit(line):
        head, value = line.rsplit(",", 1)
        return f"{head},{float(value) + delta!r}"

    return edit


@pytest.mark.parametrize(
    "mutant",
    [
        pytest.param(lambda r: _mutate(r, "fold", 7, _shift_value(-0.01)), id="one-fold-f1"),
        pytest.param(lambda r: _mutate(r, "overall", 1, _shift_value(1e-9)), id="wrong-overall"),
        pytest.param(lambda r: _mutate(r, "fold", 4, lambda ln: None), id="row-dropped"),
        pytest.param(lambda r: r + r.split("\n")[1] + "\n", id="row-repeated"),
        pytest.param(lambda r: _mutate(r, "wins", 0, lambda ln: ln[:-1] + "9"), id="wrong-wins"),
    ],
)
def test_checks_catch_a_mutated_report(report, mutant):
    bad = mutant(report)
    assert bad != report
    assert checks.check_report(bad, TINY.systems, TINY.folds, TINY.pos_rate) != []


def test_baseline_floor_follows_the_positive_rate():
    assert checks.baseline_f1(0.5) == pytest.approx(1 / 3)
    assert checks.baseline_f1(0.2) == pytest.approx(0.5 * 1.6 / 1.8)


def _imbalanced(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((20, 4))
    y = np.array([1] * 5 + [0] * 15)
    return X, y


def test_smote_check_accepts_smote_and_catches_mutations():
    X, y = _imbalanced()
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=3))
    assert checks.check_smote(X, y, 1.0, X_aug, y_aug) == []

    moved = X_aug.copy()
    moved[2, 0] += 1e-9
    assert checks.check_smote(X, y, 1.0, moved, y_aug) != []
    outside = X_aug.copy()
    outside[-1, 1] = X[y == 1, 1].max() + 0.1
    assert checks.check_smote(X, y, 1.0, outside, y_aug) != []
    assert checks.check_smote(X, y, 1.0, X_aug[:-1], y_aug[:-1]) != []


def test_lr_check_accepts_descent_and_catches_mutations():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = (X[:, 0] > 0).astype(float)
    _, _, losses, _ = kernels.logreg_descent(X, y, 0.1, 1e-4, 200, 1e-5)
    assert checks.check_lr_descent(X, 0.1, 1e-4, losses) == []

    rising = np.array(losses)
    rising[50] = rising[49] + 1e-12
    assert checks.check_lr_descent(X, 0.1, 1e-4, rising) != []
    assert checks.check_lr_descent(X, 5.0, 1e-4, losses) != []
    assert checks.check_lr_descent(X, 0.1, 1e-4, [*losses, float("nan")]) != []


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "demo", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
