"""Document featurization: bag-of-words counts and averaged word vectors.

Feature matrices keep one row per document, aligned with corpus document
order. Bag-of-words matrices are sparse CSR with raw counts over the most
frequent tokens; embedding matrices are dense rows of averaged word vectors
read from word2vec text files.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ValidationError

log = logging.getLogger(__name__)

DEFAULT_VOCAB_SIZE = 3000
EMBEDDING_FLAVORS = ("skip", "cbow")


@dataclass(frozen=True)
class Vocabulary:
    """Tokens ordered by descending corpus frequency (ties lexicographic)."""

    entries: tuple[tuple[str, int], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((t, int(f)) for t, f in self.entries))
        idx = {}
        for i, (token, _) in enumerate(self.entries):
            if token in idx:
                raise ValidationError(f"duplicate vocabulary token {token!r}")
            idx[token] = i
        object.__setattr__(self, "index", idx)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for token, _ in self.entries:
            h.update(token.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def build_vocabulary(corpus, vocab_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Top ``vocab_size`` tokens over all documents of a labeled corpus."""
    if not isinstance(vocab_size, int) or isinstance(vocab_size, bool) or vocab_size < 1:
        raise ConfigError(f"vocab_size must be a positive integer, got {vocab_size!r}")
    counts: Counter[str] = Counter()
    for doc in corpus.documents:
        counts.update(doc.tokens)
    if not counts:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(entries=tuple(ordered[:vocab_size]))


def bow_matrix(token_seqs, vocab: Vocabulary, binary: bool = False) -> sp.csr_matrix:
    """Stacked bag-of-words rows for a sequence of token sequences."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for tokens in token_seqs:
        counts: Counter[int] = Counter()
        for tok in tokens:
            j = vocab.index.get(tok)
            if j is not None:
                counts[j] += 1
        cols = sorted(counts)
        indices.extend(cols)
        data.extend(1.0 if binary else float(counts[j]) for j in cols)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(vocab)),
    )


@dataclass
class EmbeddingStore:
    """Fixed-dimension word vectors plus flavor/source metadata."""

    dim: int
    vectors: dict[str, np.ndarray]
    flavor: str
    source: str
    fingerprint: str

    def __len__(self) -> int:
        return len(self.vectors)


def _check_flavor(flavor: str) -> str:
    if flavor not in EMBEDDING_FLAVORS:
        raise ConfigError(
            f"embedding flavor must be one of {', '.join(EMBEDDING_FLAVORS)}, got {flavor!r}"
        )
    return flavor


def load_embeddings(path, expected_flavor: str = "skip") -> EmbeddingStore:
    """Parse a word2vec text file: optional "count dim" header, then one
    token and its components per line. The dimension is inferred from the
    first vector and enforced on every later line.
    """
    _check_flavor(expected_flavor)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read embeddings: {e}") from e
    fingerprint = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not valid UTF-8: {e}") from e

    vectors: dict[str, np.ndarray] = {}
    dim = None
    declared = None  # (count, dim) from the header, when present
    first_content_line = True
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if first_content_line:
            first_content_line = False
            if len(parts) == 2:
                try:
                    declared = (int(parts[0]), int(parts[1]))
                except ValueError:
                    declared = None
                if declared is not None:
                    if declared[1] < 1 or declared[0] < 0:
                        raise ValidationError(f"{path}:{ln}: invalid header {line.strip()!r}")
                    dim = declared[1]
                    continue
        token = parts[0]
        vals = parts[1:]
        if not vals:
            raise ValidationError(f"{path}:{ln}: no vector components for {token!r}")
        if dim is None:
            dim = len(vals)
        elif len(vals) != dim:
            raise ValidationError(
                f"{path}:{ln}: expected {dim} components, got {len(vals)}"
            )
        if token in vectors:
            raise ValidationError(f"{path}:{ln}: duplicate token {token!r}")
        try:
            vec = np.array([float(v) for v in vals], dtype=np.float64)
        except ValueError as e:
            raise ValidationError(f"{path}:{ln}: bad component: {e}") from e
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"{path}:{ln}: non-finite component for {token!r}")
        vectors[token] = vec
    if not vectors:
        raise ValidationError(f"{path}: no vectors found")
    if declared is not None and declared[0] != len(vectors):
        raise ValidationError(
            f"{path}: header declares {declared[0]} vectors, file has {len(vectors)}"
        )
    return EmbeddingStore(
        dim=dim,
        vectors=vectors,
        flavor=expected_flavor,
        source=str(path),
        fingerprint=fingerprint,
    )


def write_embeddings(store: EmbeddingStore, path, header: bool = True) -> None:
    """Write the store in the same text format load_embeddings reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(f"{len(store.vectors)} {store.dim}\n")
        for token, vec in store.vectors.items():
            fh.write(token)
            for v in vec:
                fh.write(" %.8f" % v)
            fh.write("\n")


def avg_vectorize(tokens, store: EmbeddingStore) -> np.ndarray:
    """Mean of stored vectors over the token stream, occurrence-weighted.

    Tokens missing from the store are skipped; if nothing matches, the zero
    vector is returned.
    """
    acc = np.zeros(store.dim, dtype=np.float64)
    hits = 0
    for tok in tokens:
        vec = store.vectors.get(tok)
        if vec is not None:
            acc += vec
            hits += 1
    if hits:
        acc /= hits
    return acc


def embedding_matrix(token_seqs, store: EmbeddingStore) -> np.ndarray:
    """Stacked averaged-vector rows; logs the aggregate OOV rate."""
    rows = []
    total = 0
    misses = 0
    for tokens in token_seqs:
        rows.append(avg_vectorize(tokens, store))
        total += len(tokens)
        misses += sum(1 for t in tokens if t not in store.vectors)
    X = np.vstack(rows) if rows else np.zeros((0, store.dim))
    if total:
        log.debug("embedding OOV rate: %.4f (%d of %d tokens)", misses / total, misses, total)
    return X


@dataclass(frozen=True)
class BowSpec:
    """Bag-of-words feature request: top-k vocabulary, raw or binary counts."""

    vocab_size: int = DEFAULT_VOCAB_SIZE
    binary: bool = False


@dataclass(frozen=True)
class EmbeddingSpec:
    """Averaged-word-vector feature request backed by an embedding file."""

    path: str
    flavor: str = "skip"


def realize_features(spec, corpus):
    """Vectorize a labeled corpus per spec.

    Returns (X, ref, space): the feature matrix (CSR for bag-of-words, dense
    for embeddings), a compact reference dict identifying the feature space
    (for manifests and model files), and the realized Vocabulary or
    EmbeddingStore itself.
    """
    docs = [doc.tokens for doc in corpus.documents]
    if isinstance(spec, BowSpec):
        vocab = build_vocabulary(corpus, spec.vocab_size)
        X = bow_matrix(docs, vocab, binary=spec.binary)
        ref = {
            "kind": "bow",
            "vocab_size": spec.vocab_size,
            "binary": spec.binary,
            "actual_size": len(vocab),
            "vocab_sha256": vocab.fingerprint(),
        }
        return X, ref, vocab
    if isinstance(spec, EmbeddingSpec):
        store = load_embeddings(spec.path, spec.flavor)
        X = embedding_matrix(docs, store)
        if not np.all(np.isfinite(X)):
            raise ValidationError("embedding features contain non-finite values")
        ref = {
            "kind": "embeddings",
            "path": str(spec.path),
            "flavor": spec.flavor,
            "dim": store.dim,
            "file_sha256": store.fingerprint,
        }
        return X, ref, store
    raise ConfigError(f"unknown feature spec {spec!r}")
