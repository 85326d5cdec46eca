from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from facetrec.errors import ConfigError, ValidationError
from facetrec.resample import ResampleConfig, resampled_labels, smote


def make_data(n_min=4, n_maj=10, d=3, seed=0, minority_class=1):
    rng = np.random.default_rng(seed)
    X_min = rng.normal(loc=0.0, size=(n_min, d))
    X_maj = rng.normal(loc=8.0, size=(n_maj, d))
    X = np.vstack([X_min, X_maj])
    y = np.array([minority_class] * n_min + [1 - minority_class] * n_maj, dtype=np.int64)
    return X, y


def replay_synthetic_rows(X, y, cfg):
    """Independent reconstruction of the documented sampling procedure."""
    Xd = np.asarray(X, dtype=np.float64)
    n_pos = int((y == 1).sum())
    minority = 1 if n_pos < len(y) - n_pos else 0
    min_idx = np.flatnonzero(y == minority)
    n_min = len(min_idx)
    n_maj = len(y) - n_min
    n_synth = math.floor(cfg.target_ratio * n_maj) - n_min
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n_min)
    k_eff = min(cfg.k_neighbors, n_min - 1)
    picks = rng.integers(0, k_eff, size=n_synth)
    gammas = rng.random(n_synth)
    M = Xd[min_idx]
    rows = []
    for t in range(n_synth):
        s = perm[t % n_min]
        d2 = ((M - M[s]) ** 2).sum(axis=1)
        d2[s] = np.inf
        order = np.argsort(d2, kind="stable")
        nb = order[picks[t]]
        rows.append(M[s] + gammas[t] * (M[nb] - M[s]))
    return np.array(rows).reshape(n_synth, M.shape[1]), minority


def test_smote_counts_to_parity():
    X, y = make_data(n_min=4, n_maj=10)
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=3))
    assert X_aug.shape == (20, 3)
    assert len(y_aug) == 20
    assert int((y_aug == 1).sum()) == 10
    assert int((y_aug == 0).sum()) == 10


def test_smote_keeps_originals_bit_for_bit():
    X, y = make_data()
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=3))
    assert np.array_equal(X_aug[: len(y)], X)
    assert np.array_equal(y_aug[: len(y)], y)


def test_smote_synthetic_rows_match_replay():
    cfg = ResampleConfig(k_neighbors=3, target_ratio=1.0, seed=11)
    X, y = make_data(n_min=5, n_maj=9, d=2, seed=4)
    X_aug, y_aug = smote(X, y, cfg)
    expected, minority = replay_synthetic_rows(X, y, cfg)
    assert np.array_equal(X_aug[len(y):], expected)
    assert np.all(y_aug[len(y):] == minority)


def test_smote_interpolates_on_segments():
    # Two minority points on a line: every synthetic point stays between them.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [6.0, 0.0], [7.0, 0.0]])
    y = np.array([1, 1, 0, 0, 0])
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=9))
    synth = X_aug[5:]
    assert synth.shape == (1, 2)
    g = synth[0, 0]
    assert synth[0, 1] == g  # on the x = y segment
    assert 0.0 <= g < 1.0


def test_smote_balanced_input_is_a_no_op():
    X, y = make_data(n_min=5, n_maj=5)
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=1))
    assert np.array_equal(X_aug, X)
    assert np.array_equal(y_aug, y)


def test_smote_ratio_already_met_is_a_no_op():
    X, y = make_data(n_min=8, n_maj=10)
    X_aug, y_aug = smote(X, y, ResampleConfig(target_ratio=0.5, seed=1))
    assert X_aug.shape == X.shape
    assert np.array_equal(y_aug, y)


def test_smote_fractional_ratio_floor():
    X, y = make_data(n_min=3, n_maj=10)
    X_aug, y_aug = smote(X, y, ResampleConfig(target_ratio=0.75, seed=1))
    # floor(0.75 * 10) = 7 minority rows after augmentation
    assert int((y_aug == 1).sum()) == 7
    assert len(y_aug) == 17


def test_smote_errors():
    X = np.zeros((4, 2))
    with pytest.raises(ValidationError, match="degenerate"):
        smote(X, np.array([1, 1, 1, 1]), ResampleConfig(seed=0))
    with pytest.raises(ValidationError, match="at least 2"):
        smote(X, np.array([1, 0, 0, 0]), ResampleConfig(seed=0))
    with pytest.raises(ValidationError, match="binary"):
        smote(X, np.array([1, 2, 0, 0]), ResampleConfig(seed=0))
    with pytest.raises(ValidationError, match="one per"):
        smote(X, np.array([1, 0, 1]), ResampleConfig(seed=0))


@pytest.mark.parametrize(
    "labels, message",
    [([1, 1, 1, 1], "degenerate"), ([1, 0, 0, 0], "at least 2"), ([1, 2, 0, 0], "binary")],
)
def test_resampled_labels_raise_what_smote_raises(labels, message):
    cfg = ResampleConfig(seed=0)
    with pytest.raises(ValidationError, match=message):
        smote(np.zeros((4, 2)), np.array(labels), cfg)
    with pytest.raises(ValidationError, match=message):
        resampled_labels(np.array(labels), cfg)


def test_smote_is_deterministic_and_seed_sensitive():
    X, y = make_data(n_min=4, n_maj=9, seed=2)
    a1, _ = smote(X, y, ResampleConfig(seed=5))
    a2, _ = smote(X, y, ResampleConfig(seed=5))
    b, _ = smote(X, y, ResampleConfig(seed=6))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_smote_majority_rows_never_contribute():
    # Minority sits in [0, 1]^d, majority far away at 8: synthetic rows must
    # stay inside the minority bounding box.
    rng = np.random.default_rng(7)
    X_min = rng.random((5, 3))
    X_maj = np.full((12, 3), 8.0)
    X = np.vstack([X_min, X_maj])
    y = np.array([1] * 5 + [0] * 12)
    X_aug, _ = smote(X, y, ResampleConfig(seed=8))
    synth = X_aug[17:]
    assert len(synth) == 7
    assert np.all(synth >= X_min.min(axis=0) - 1e-12)
    assert np.all(synth <= X_min.max(axis=0) + 1e-12)


def test_smote_works_when_majority_is_class_one():
    X, y = make_data(n_min=3, n_maj=8, minority_class=0)
    X_aug, y_aug = smote(X, y, ResampleConfig(seed=4))
    assert int((y_aug == 0).sum()) == 8
    assert np.all(y_aug[11:] == 0)
    assert np.array_equal(resampled_labels(y, ResampleConfig(seed=4)), y_aug)


@given(
    st.integers(2, 6),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.floats(0.3, 1.0),
)
def test_smote_count_arithmetic(n_min, extra, d, seed, ratio):
    n_maj = n_min + extra
    X, y = make_data(n_min=n_min, n_maj=n_maj, d=d, seed=seed % 1000)
    cfg = ResampleConfig(target_ratio=ratio, seed=seed)
    X_aug, y_aug = smote(X, y, cfg)
    expected_min = max(n_min, math.floor(ratio * n_maj))
    assert int((y_aug == 1).sum()) == expected_min
    labels = resampled_labels(y, cfg)
    assert labels.dtype == y_aug.dtype and np.array_equal(labels, y_aug)
    assert int((y_aug == 0).sum()) == n_maj
    assert np.array_equal(X_aug[: len(y)], X)


def test_resample_config_validation():
    with pytest.raises(ConfigError, match="k_neighbors"):
        ResampleConfig(k_neighbors=0)
    with pytest.raises(ConfigError, match="k_neighbors"):
        ResampleConfig(k_neighbors="5")
    with pytest.raises(ConfigError, match="target_ratio"):
        ResampleConfig(target_ratio=0.0)
    with pytest.raises(ConfigError, match="target_ratio"):
        ResampleConfig(target_ratio=1.5)
    with pytest.raises(ConfigError):
        ResampleConfig(seed=-1)
    cfg = ResampleConfig()
    assert cfg.k_neighbors == 5
    assert cfg.target_ratio == 1.0
