"""Acceptance gate: nine go/no-go checks with pinned tolerances.

Each test prints a one-line verdict in the terminal summary (see conftest).
The checks, tolerances in brackets:

1.  On a balanced synthetic corpus the majority baseline lands on the
    vacuous-macro-F1 floor for every facet [1/3 +- 0.01, run < 10 s].
2.  Trained systems beat that baseline on a corpus with planted lexical
    signal [margin >= 0.15 overall, run < 120 s].
3.  Naive Bayes probabilities match an independent pure-Python counting
    oracle [exact float equality] and decisions agree on 100 seeded draws.
4.  Logistic-regression analytic gradients match central differences
    [|analytic - numeric| <= 1e-5 * max(1, |analytic|), h = 1e-6] and the
    descent loss history never increases [slack 1e-12].
5.  Minority oversampling reproduces an independent replay of the frozen
    draw order on 200 seeded instances [bit-exact rows and counts].
6.  Inventory facet and domain scores match hand-computed means
    [<= 1e-12], including reversed items and a non-default scale.
7.  The strict above-mean labeling rule holds on all ten facets,
    including ties at the mean and degenerate single-class columns.
8.  Rerunning the same config yields byte-identical report.csv and
    report.txt.
9.  Embedding files and saved models round-trip through disk
    [vectors <= 1e-6; predictions exact, scores <= 1e-6].
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from facetrec.cli import main
from facetrec.corpus import assign_labels
from facetrec.errors import ValidationError
from facetrec.eval import parse_report_csv
from facetrec.features import EmbeddingStore, load_embeddings, write_embeddings
from facetrec.inventory import (
    FACET_NAMES,
    FacetScores,
    InventoryResponse,
    ScoringKey,
    default_scoring_key,
    score_inventory,
)
from facetrec.kernels import logreg_loss_grad
from facetrec.models import LRHyperparams, ModelSpec, load_model, predict, save_model, train
from facetrec.resample import ResampleConfig, smote

C1_TOL = 0.01
C1_BUDGET_S = 10.0
C2_MARGIN = 0.15
C2_BUDGET_S = 120.0
C4_H = 1e-6
C4_TOL = 1e-5
C9_TOL = 1e-6


def _synth(tmp_path_factory, name: str, **flags) -> Path:
    out = tmp_path_factory.mktemp(name)
    argv = ["synth", "--out", str(out)]
    for key, val in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    assert main(argv) == 0
    return out


def _trim_systems(bundle: Path, keep: list[str]) -> Path:
    """Write a copy of the bundle config restricted to the named systems."""
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["systems"] = [s for s in data["systems"] if s["name"] in keep]
    trimmed = bundle / "config-trimmed.yaml"
    trimmed.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return trimmed


def _timed_run(config: Path, out: Path) -> float:
    start = time.perf_counter()
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return time.perf_counter() - start


def test_c1_balanced_baseline_sits_on_the_floor(tmp_path_factory):
    bundle = _synth(tmp_path_factory, "c1", seed=101, authors=240, tokens=40)
    config = _trim_systems(bundle, ["baseline"])
    out = bundle / "c1-out"
    elapsed = _timed_run(config, out)

    report = parse_report_csv((out / "report.csv").read_text(encoding="utf-8"))
    assert tuple(report.facets) == FACET_NAMES
    (system,) = report.systems
    assert system.name == "baseline"
    for facet in FACET_NAMES:
        assert abs(report.facet_mean(system, facet) - 1.0 / 3.0) <= C1_TOL
    assert elapsed < C1_BUDGET_S


def test_c2_trained_systems_beat_the_baseline(tmp_path_factory):
    bundle = _synth(tmp_path_factory, "c2", seed=202, authors=500)
    out = bundle / "c2-out"
    elapsed = _timed_run(bundle / "config.yaml", out)

    report = parse_report_csv((out / "report.csv").read_text(encoding="utf-8"))
    overall = {s.name: report.overall(s) for s in report.systems}
    assert set(overall) == {"baseline", "bow-nb", "skip-lr", "cbow-lr"}
    for name in ("bow-nb", "skip-lr", "cbow-lr"):
        assert overall[name] >= overall["baseline"] + C2_MARGIN, (name, overall)
    assert elapsed < C2_BUDGET_S


def _nb_oracle(rows, labels, alpha):
    """Counting-based naive Bayes in plain Python lists and loops."""
    n_feat = len(rows[0])
    priors, liks = [], []
    for cls in (0, 1):
        members = [r for r, y in zip(rows, labels) if y == cls]
        priors.append(len(members) / len(rows))
        totals = [0.0] * n_feat
        for row in members:
            for j in range(n_feat):
                totals[j] += row[j]
        grand = 0.0
        for t in totals:
            grand += t
        liks.append([(t + alpha) / (grand + alpha * n_feat) for t in totals])
    decisions = []
    for row in rows:
        joint = []
        for cls in (0, 1):
            s = math.log(priors[cls])
            for j in range(n_feat):
                s += row[j] * math.log(liks[cls][j])
            joint.append(s)
        decisions.append(1 if joint[1] - joint[0] > 0 else 0)
    return priors, liks, decisions


def test_c3_naive_bayes_matches_the_counting_oracle():
    rng = np.random.default_rng(3003)
    for trial in range(100):
        n_feat = int(rng.integers(2, 5))
        n_docs = int(rng.integers(2, 9))
        X = rng.integers(0, 5, size=(n_docs, n_feat)).astype(np.float64)
        if trial % 2:
            X += rng.integers(0, 2, size=X.shape) * 0.5  # fractional counts
        y = rng.integers(0, 2, size=n_docs)
        y[0], y[-1] = 0, 1  # both classes present
        alpha = float(rng.choice([0.5, 1.0, 2.0]))

        model = train(ModelSpec(kind="naive_bayes", alpha=alpha), X, y)
        priors, liks, decisions = _nb_oracle(X.tolist(), y.tolist(), alpha)

        want_priors = np.array([math.log(p) for p in priors])
        want_liks = np.array([[math.log(v) for v in row] for row in liks])
        assert np.array_equal(model.params.log_priors, want_priors), trial
        assert np.array_equal(model.params.log_likelihoods, want_liks), trial
        got_labels, _ = predict(model, X)
        assert got_labels.tolist() == decisions, trial


def test_c4_gradients_match_central_differences():
    rng = np.random.default_rng(4004)
    l2_grid = [0.0, 1e-4, 0.1]
    for trial in range(50):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        y[0], y[-1] = 0.0, 1.0
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = l2_grid[trial % 3]

        _, gw, gb = logreg_loss_grad(X, y, w, b, l2)

        def loss_at(wv, bv):
            return logreg_loss_grad(X, y, wv, bv, l2)[0]

        for j in range(d):
            bump = np.zeros(d)
            bump[j] = C4_H
            numeric = (loss_at(w + bump, b) - loss_at(w - bump, b)) / (2 * C4_H)
            assert abs(numeric - gw[j]) <= C4_TOL * max(1.0, abs(gw[j])), (trial, j)
        numeric_b = (loss_at(w, b + C4_H) - loss_at(w, b - C4_H)) / (2 * C4_H)
        assert abs(numeric_b - gb) <= C4_TOL * max(1.0, abs(gb))

        if trial % 5 == 0:
            hyper = LRHyperparams(l2=l2, max_epochs=150, tol=0.0)
            model = train(ModelSpec(kind="logistic_regression", lr=hyper), X, y.astype(np.int64))
            history = np.array(model.params.loss_history)
            assert history[0] == pytest.approx(math.log(2.0), rel=1e-12)
            assert np.all(np.diff(history) <= 1e-12), trial


def _replay_synthetic_rows(X, y, cfg):
    """Independent replay of the documented oversampling draw order."""
    Xd = np.asarray(X, dtype=np.float64)
    classes, counts = np.unique(np.asarray(y), return_counts=True)
    minority = int(classes[np.argmin(counts)])
    M = Xd[np.asarray(y) == minority]
    n_min = M.shape[0]
    n_maj = Xd.shape[0] - n_min
    n_synth = math.floor(cfg.target_ratio * n_maj) - n_min
    if n_synth <= 0:
        return np.zeros((0, Xd.shape[1])), minority

    k_eff = min(cfg.k_neighbors, n_min - 1)
    knn = np.empty((n_min, k_eff), dtype=np.int64)
    for i in range(n_min):
        dist = ((M - M[i]) ** 2).sum(axis=1)
        dist[i] = np.inf
        knn[i] = np.argsort(dist, kind="stable")[:k_eff]

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n_min)
    picks = rng.integers(0, k_eff, size=n_synth)
    gammas = rng.random(n_synth)
    seed_pos = perm[np.arange(n_synth) % n_min]
    nbr_pos = knn[seed_pos, picks]
    return M[seed_pos] + gammas[:, None] * (M[nbr_pos] - M[seed_pos]), minority


def test_c5_oversampling_replays_bit_for_bit():
    rng = np.random.default_rng(5005)
    for trial in range(200):
        n_min = int(rng.integers(2, 9))
        n_maj = n_min + int(rng.integers(1, 13))
        d = int(rng.integers(1, 6))
        minority_class = int(rng.integers(0, 2))
        ratio = 1.0 if trial < 120 else float(rng.uniform(0.3, 0.99))
        k = 5 if trial % 2 else int(rng.integers(1, 7))
        X = np.concatenate(
            [rng.normal(0.0, 1.0, size=(n_min, d)), rng.normal(6.0, 1.0, size=(n_maj, d))]
        )
        y = np.array([minority_class] * n_min + [1 - minority_class] * n_maj)
        cfg = ResampleConfig(k_neighbors=k, target_ratio=ratio, seed=int(rng.integers(2**32)))

        Xr, yr = smote(X, y, cfg)
        n = X.shape[0]
        assert np.array_equal(Xr[:n], X) and np.array_equal(yr[:n], y), trial

        want_rows, minority = _replay_synthetic_rows(X, y, cfg)
        assert minority == minority_class
        assert np.array_equal(Xr[n:], want_rows), trial
        assert np.all(yr[n:] == minority_class), trial

        expected_minority = max(n_min, math.floor(ratio * n_maj))
        assert int((yr == minority_class).sum()) == expected_minority, trial

    # Boundary behavior: balanced input is a no-op, a singleton minority
    # cannot be interpolated.
    Xb = np.arange(12.0).reshape(6, 2)
    yb = np.array([0, 1, 0, 1, 0, 1])
    Xr, yr = smote(Xb, yb, ResampleConfig(seed=1))
    assert np.array_equal(Xr, Xb) and np.array_equal(yr, yb)
    with pytest.raises(ValidationError, match="at least 2"):
        smote(Xb, np.array([0, 1, 1, 1, 1, 1]), ResampleConfig(seed=1))


def _response(fill: int = 3, **at: int) -> InventoryResponse:
    items = [fill] * 44
    for pos, val in at.items():
        items[int(pos[1:])] = val
    return InventoryResponse(items=tuple(items))


def test_c6_inventory_scores_match_hand_means():
    key = default_scoring_key()
    # Assertiveness members are item 26 and reversed item 31 (1-based).
    sc = score_inventory(_response(i25=5, i30=1), key)
    assert abs(sc.facets["Assertiveness"] - 5.0) <= 1e-12
    sc = score_inventory(_response(i25=4, i30=2), key)
    assert abs(sc.facets["Assertiveness"] - 4.0) <= 1e-12
    for facet, val in score_inventory(_response(), key).facets.items():
        assert abs(val - 3.0) <= 1e-12, facet

    # Nine-item domain, three raised responses: (5 + 4 + 4 + 6 * 3) / 9.
    sc = score_inventory(_response(i6=5, i16=4, i21=4), key)
    assert abs(sc.domains["Agreeableness"] - 31.0 / 9.0) <= 1e-12

    # Same rules on a 0..5 scale: reversing maps r to 5 - r.
    domains = {
        f"D{k}": tuple((8 * k + j, j == 1) for j in range(8)) for k in range(5)
    }
    facets = {}
    for d_idx, pair in enumerate(zip(FACET_NAMES[::2], FACET_NAMES[1::2])):
        base = 8 * d_idx
        facets[pair[0]] = ((base, False), (base + 1, True))
        facets[pair[1]] = ((base + 2, False), (base + 3, False))
    key05 = ScoringKey(scale_min=0, scale_max=5, domains=domains, facets=facets)
    first = FACET_NAMES[0]
    sc = score_inventory(_response(fill=2, i0=5, i1=1), key05)
    assert abs(sc.facets[first] - 4.5) <= 1e-12  # (5 + (5 - 1)) / 2


def _scored_docs(values: dict[str, list[float]], n: int):
    docs = [(f"a{i}", ("tok",)) for i in range(n)]
    scores = {
        f"a{i}": FacetScores(domains={}, facets={f: values[f][i] for f in FACET_NAMES})
        for i in range(n)
    }
    return docs, scores


def test_c7_above_mean_labeling_on_all_facets():
    # Mean of {3, 4, 5} is 4: only the 5 is strictly above.
    docs, scores = _scored_docs({f: [3.0, 4.0, 5.0] for f in FACET_NAMES}, 3)
    corpus = assign_labels(docs, scores)
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 0, 1], facet
        assert corpus.label_thresholds[facet] == 4.0

    # Two points: the larger is above the midpoint mean.
    docs, scores = _scored_docs({f: [1.0, 5.0] for f in FACET_NAMES}, 2)
    corpus = assign_labels(docs, scores)
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 1], facet

    # Scores equal to the mean count as negative.
    docs, scores = _scored_docs({f: [1.0, 3.0, 3.0, 5.0] for f in FACET_NAMES}, 4)
    corpus = assign_labels(docs, scores)
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 0, 0, 1], facet

    # Identical scores give a single class: all negative, flagged degenerate.
    docs, scores = _scored_docs({f: [2.0, 2.0, 2.0] for f in FACET_NAMES}, 3)
    corpus = assign_labels(docs, scores)
    assert corpus.degenerate == FACET_NAMES
    assert corpus.active_facets == ()
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 0, 0], facet


def test_c8_reruns_are_byte_identical(tmp_path_factory):
    bundle = _synth(tmp_path_factory, "c8", seed=808, authors=120, tokens=40)
    config = _trim_systems(bundle, ["baseline", "bow-nb", "skip-lr"])
    first, second = bundle / "one", bundle / "two"
    _timed_run(config, first)
    _timed_run(config, second)
    for name in ("report.csv", "report.txt"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, name
    assert (first / "manifest.yaml").is_file()


def test_c9_disk_round_trips(tmp_path):
    rng = np.random.default_rng(909)
    tokens = ["$LAUGH$"] + [f"w{i}" for i in range(29)]
    store = EmbeddingStore(
        dim=7,
        vectors={t: rng.uniform(-3, 3, size=7) for t in tokens},
        flavor="cbow",
        source="unit-test",
        fingerprint="unset",
    )
    path = tmp_path / "roundtrip.vec"
    write_embeddings(store, path)
    loaded = load_embeddings(path, "cbow")
    assert loaded.dim == 7 and set(loaded.vectors) == set(tokens)
    for t in tokens:
        assert np.max(np.abs(loaded.vectors[t] - store.vectors[t])) <= C9_TOL, t

    X = rng.integers(0, 6, size=(40, 6)).astype(np.float64)
    w_true = np.array([2.0, -1.5, 0.0, 1.0, -0.5, 0.25])
    y = (X @ w_true > np.median(X @ w_true)).astype(np.int64)
    for kind in ("majority", "naive_bayes", "logistic_regression"):
        model = train(ModelSpec(kind=kind), X, y)
        dest = tmp_path / f"{kind}.json"
        save_model(model, dest)
        back = load_model(dest)
        assert back.kind == kind and back.feature_dim == model.feature_dim
        labels_a, scores_a = predict(model, X)
        labels_b, scores_b = predict(back, X)
        assert np.array_equal(labels_a, labels_b), kind
        assert np.max(np.abs(scores_a - scores_b)) <= C9_TOL, kind
        if kind == "logistic_regression":
            assert back.params.loss_history == model.params.loss_history
            assert back.params.hyper == model.params.hyper
