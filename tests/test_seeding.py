from __future__ import annotations

import numpy as np
import pytest

from facetrec.errors import ConfigError
from facetrec.seeding import (
    STREAM_FOLDS,
    STREAM_SMOTE,
    STREAM_SYNTH,
    check_seed,
    derive_seed,
    substream,
)


def test_streams_are_distinct():
    assert len({STREAM_FOLDS, STREAM_SMOTE, STREAM_SYNTH}) == 3


def test_check_seed_accepts_full_uint64_range():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_check_seed_rejects_non_uint64(bad):
    with pytest.raises(ConfigError):
        check_seed(bad)


def test_substream_is_deterministic():
    a = substream(42, STREAM_FOLDS, 3).random(8)
    b = substream(42, STREAM_FOLDS, 3).random(8)
    assert np.array_equal(a, b)


def test_substream_separates_streams_and_keys():
    base = substream(42, STREAM_FOLDS).random(8)
    assert not np.array_equal(base, substream(42, STREAM_SMOTE).random(8))
    assert not np.array_equal(base, substream(42, STREAM_FOLDS, 1).random(8))
    assert not np.array_equal(base, substream(43, STREAM_FOLDS).random(8))


def test_derive_seed_range_and_determinism():
    s = derive_seed(7, STREAM_SMOTE, 2, 5)
    assert isinstance(s, int)
    assert 0 <= s < 2**64
    assert s == derive_seed(7, STREAM_SMOTE, 2, 5)
    assert s != derive_seed(7, STREAM_SMOTE, 2, 6)
    assert s != derive_seed(8, STREAM_SMOTE, 2, 5)


def test_derived_seeds_feed_generators():
    s = derive_seed(7, STREAM_SMOTE, 0, 0)
    a = np.random.default_rng(s).random(4)
    b = np.random.default_rng(derive_seed(7, STREAM_SMOTE, 0, 0)).random(4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_derive_seed_cache_keeps_rejecting_what_equals_a_cached_seed(bad):
    # True == 1 and 1.0 == 1 hash alike; the cache must not answer for them.
    derive_seed(1, STREAM_SMOTE, 0, 0)
    with pytest.raises(ConfigError):
        derive_seed(bad, STREAM_SMOTE, 0, 0)
