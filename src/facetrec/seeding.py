"""Named RNG substreams derived from a single experiment seed.

Every source of randomness in the pipeline (fold shuffling, SMOTE, synthetic
data) draws from its own substream so each component can be reproduced in
isolation without replaying the others.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, is_int

# Stream ids. Keep stable: they are part of the reproducibility contract.
STREAM_FOLDS = 1
STREAM_SMOTE = 2
STREAM_SYNTH = 3

_MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def substream(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Generator for the (stream, *key) substream of ``seed``."""
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([seed, stream, *key]))


# typed: True == 1 and 5.0 == 5, but check_seed rejects a bool or a float
# seed, so neither may share a cache entry with an int.
@lru_cache(maxsize=4096, typed=True)
def derive_seed(seed: int, stream: int, *key: int) -> int:
    """Collapse a substream identity into a plain 64-bit seed. Cached, so
    the systems of one run derive each facet x fold seed once."""
    check_seed(seed)
    words = np.random.SeedSequence([seed, stream, *key]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])
