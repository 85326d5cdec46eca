"""Synthetic corpus and embedding fixtures with planted facet signals.

Each facet gets ten "high" and ten "low" marker words. An author's latent
facet state decides which side they draw from, at a controllable signal
rate; inventories are built so the above-mean labeling reproduces the
latent states exactly. Embedding fixtures cluster the marker words of a
facet around opposite poles of a facet direction, so averaged vectors are
linearly separable when the signal is present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import yamlio
from .corpus import AuthorRecord
from .errors import ConfigError, is_int
from .features import EmbeddingStore, write_embeddings
from .inventory import FACET_NAMES, N_ITEMS, InventoryResponse, ScoringKey, default_scoring_key
from .seeding import STREAM_SYNTH, check_seed, substream

N_BACKGROUND = 300
N_SIGNAL_PER_SIDE = 10
LAUGH_RATE = 0.04
LAUGH_LITERALS = ("haha", "hahaha", "hahah", "hehe", "kkkk", "kkkkk", "rsrs", "rsrsrs", "jajaja")

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generated fixture."""

    seed: int
    authors: int = 500
    signal: float = 0.5
    pos_rate: float = 0.5
    dim: int = 50
    tokens_per_author: int = 80

    def __post_init__(self):
        check_seed(self.seed)
        if not is_int(self.authors) or self.authors < 20:
            raise ConfigError(f"authors must be an integer of at least 20, got {self.authors!r}")
        if not 0.0 <= self.signal < 1.0:
            raise ConfigError(f"signal must lie in [0, 1), got {self.signal}")
        if not 0.0 < self.pos_rate < 1.0:
            raise ConfigError(f"pos_rate must lie in (0, 1), got {self.pos_rate}")
        if not is_int(self.dim) or self.dim < 2:
            raise ConfigError(f"dim must be an integer of at least 2, got {self.dim!r}")
        if not isinstance(self.tokens_per_author, int) or self.tokens_per_author < 10:
            raise ConfigError(
                f"tokens_per_author must be an integer of at least 10, got {self.tokens_per_author!r}"
            )


def _pseudo_words(rng, count: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if word in taken:
            continue
        taken.add(word)
        words.append(word)
    return words


@dataclass(frozen=True)
class WordTables:
    background: tuple[str, ...]
    hi: dict[str, tuple[str, ...]]  # facet -> high-side marker words
    lo: dict[str, tuple[str, ...]]


def make_word_tables(seed: int) -> WordTables:
    rng = substream(seed, STREAM_SYNTH, 0)
    taken: set[str] = set(LAUGH_LITERALS)
    background = tuple(_pseudo_words(rng, N_BACKGROUND, taken))
    hi = {}
    lo = {}
    for facet in FACET_NAMES:
        hi[facet] = tuple(_pseudo_words(rng, N_SIGNAL_PER_SIDE, taken))
        lo[facet] = tuple(_pseudo_words(rng, N_SIGNAL_PER_SIDE, taken))
    return WordTables(background=background, hi=hi, lo=lo)


def make_latents(spec: SynthSpec) -> dict[str, np.ndarray]:
    """Balanced binary states per facet: round(pos_rate * authors) ones."""
    rng = substream(spec.seed, STREAM_SYNTH, 1)
    n_pos = int(round(spec.pos_rate * spec.authors))
    n_pos = min(max(n_pos, 1), spec.authors - 1)
    latents = {}
    for facet in FACET_NAMES:
        z = np.zeros(spec.authors, dtype=np.int64)
        z[rng.permutation(spec.authors)[:n_pos]] = 1
        latents[facet] = z
    return latents


def _inventory_for(z_by_facet: dict[str, int], key: ScoringKey) -> InventoryResponse:
    # Facet member items sit at the scale ends so the facet score is extreme;
    # everything else rests at the midpoint.
    mid = (key.scale_min + key.scale_max) // 2
    items = [mid] * N_ITEMS
    for facet, z in z_by_facet.items():
        for idx, rev in key.facets[facet]:
            high = bool(z) != rev
            items[idx] = key.scale_max if high else key.scale_min
    return InventoryResponse(items=tuple(items))


def generate_records(
    spec: SynthSpec, tables: WordTables, latents: dict[str, np.ndarray], key: ScoringKey
) -> list[AuthorRecord]:
    """Author records whose posts carry the planted lexical signal."""
    rng = substream(spec.seed, STREAM_SYNTH, 2)
    weights = 1.0 / np.arange(1, N_BACKGROUND + 1) ** 1.1
    weights /= weights.sum()
    width = len(str(spec.authors))
    records = []
    for a in range(spec.authors):
        tokens = []
        for _ in range(spec.tokens_per_author):
            r = rng.random()
            if r < spec.signal:
                g = FACET_NAMES[rng.integers(len(FACET_NAMES))]
                side = tables.hi[g] if latents[g][a] else tables.lo[g]
                tokens.append(side[rng.integers(N_SIGNAL_PER_SIDE)])
            elif r < spec.signal + LAUGH_RATE:
                tokens.append(LAUGH_LITERALS[rng.integers(len(LAUGH_LITERALS))])
            else:
                tokens.append(tables.background[rng.choice(N_BACKGROUND, p=weights)])
        posts = []
        pos = 0
        while pos < len(tokens):
            step = int(rng.integers(5, 15))
            chunk = tokens[pos : pos + step]
            pos += step
            text = " ".join(chunk)
            if rng.random() < 0.7:
                text = text[0].upper() + text[1:]
            tail = rng.integers(4)
            if tail == 0:
                text += "."
            elif tail == 1:
                text += "!"
            elif tail == 2:
                text += "?"
            posts.append(text)
        inv = _inventory_for({f: int(latents[f][a]) for f in FACET_NAMES}, key)
        records.append(
            AuthorRecord(author_id=f"a{a + 1:0{width}d}", posts=tuple(posts), inventory=inv)
        )
    return records


def clustered_embeddings(
    spec: SynthSpec, tables: WordTables, flavor: str, stream_key: int
) -> EmbeddingStore:
    """Unit vectors where a facet's hi/lo marker words sit at opposite poles
    of a per-facet direction; background words are isotropic noise."""
    rng = substream(spec.seed, STREAM_SYNTH, stream_key)

    def unit(v: np.ndarray) -> np.ndarray:
        return v / math.sqrt(float(v @ v))

    axes = {facet: unit(rng.standard_normal(spec.dim)) for facet in FACET_NAMES}
    vectors: dict[str, np.ndarray] = {}
    vectors["$LAUGH$"] = unit(rng.standard_normal(spec.dim))
    for word in tables.background:
        vectors[word] = unit(rng.standard_normal(spec.dim))
    for facet in FACET_NAMES:
        for word in tables.hi[facet]:
            vectors[word] = unit(axes[facet] + 0.35 * rng.standard_normal(spec.dim))
        for word in tables.lo[facet]:
            vectors[word] = unit(-axes[facet] + 0.35 * rng.standard_normal(spec.dim))
    return EmbeddingStore(
        dim=spec.dim,
        vectors=vectors,
        flavor=flavor,
        source=f"synthetic-clustered(seed={spec.seed}, dim={spec.dim}, flavor={flavor})",
        fingerprint=f"synth-clustered-{spec.seed}-{spec.dim}-{flavor}",
    )


def write_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "author_id": rec.author_id,
                        "posts": list(rec.posts),
                        "bfi44": list(rec.inventory.items),
                    }
                )
            )
            fh.write("\n")


def write_bundle(out_dir, spec: SynthSpec) -> dict[str, str]:
    """Generate and write the full fixture: corpus, two embedding files and
    a ready-to-run experiment config. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    key = default_scoring_key()
    tables = make_word_tables(spec.seed)
    latents = make_latents(spec)
    records = generate_records(spec, tables, latents, key)

    paths = {
        "corpus": out / "corpus.jsonl",
        "skip": out / "embeddings-skip.vec",
        "cbow": out / "embeddings-cbow.vec",
        "config": out / "config.yaml",
    }
    write_corpus(records, paths["corpus"])
    write_embeddings(clustered_embeddings(spec, tables, "skip", 4), paths["skip"])
    write_embeddings(clustered_embeddings(spec, tables, "cbow", 5), paths["cbow"])

    config = {
        "corpus": "corpus.jsonl",
        "seed": spec.seed,
        "folds": 10,
        "out": "results",
        "smote": {"k_neighbors": 5, "target_ratio": 1.0},
        "systems": [
            {"name": "baseline", "model": "majority", "features": {"kind": "bow", "vocab_size": 3000}},
            {"name": "bow-nb", "model": "naive_bayes", "features": {"kind": "bow", "vocab_size": 3000}},
            {
                "name": "skip-lr",
                "model": "logistic_regression",
                "features": {"kind": "embeddings", "path": "embeddings-skip.vec", "flavor": "skip"},
            },
            {
                "name": "cbow-lr",
                "model": "logistic_regression",
                "features": {"kind": "embeddings", "path": "embeddings-cbow.vec", "flavor": "cbow"},
            },
        ],
    }
    with open(paths["config"], "w", encoding="utf-8", newline="\n") as fh:
        yamlio.dump(config, fh, sort_keys=False)
    return {k: str(v) for k, v in paths.items()}
