"""Document featurization: bag-of-words counts and averaged word vectors.

Feature matrices keep one row per document, aligned with corpus document
order, as dense float64 arrays. Bag-of-words rows hold raw counts over the
most frequent tokens, counted from the same pass of token ids that builds
the vocabulary; embedding rows (``embedding_matrix``) are occurrence-weighted
means of word vectors read from word2vec text files.
"""

from __future__ import annotations

import array
import hashlib
import logging
import math
from dataclasses import MISSING, asdict, dataclass, field
from itertools import chain

import numpy as np

from .corpus import _table_from_mapping, build_documents
from .errors import ConfigError, ValidationError, config_fields, is_int, read_config
from .inventory import FACET_NAMES

log = logging.getLogger(__name__)

DEFAULT_VOCAB_SIZE = 3000
EMBEDDING_FLAVORS = ("skip", "cbow")


@dataclass(frozen=True)
class Vocabulary:
    """Tokens ordered by descending corpus frequency (ties lexicographic)."""

    entries: tuple[tuple[str, int], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.entries, (list, tuple)):
            raise ValidationError(f"vocabulary must be a list of [token, count] pairs, got {self.entries!r}")
        idx = {}
        for i, entry in enumerate(self.entries):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str)
                    and is_int(entry[1])):
                raise ValidationError(f"vocabulary entry {entry!r} is not a [token, count] pair")
            if entry[0] in idx:
                raise ValidationError(f"duplicate vocabulary token {entry[0]!r}")
            idx[entry[0]] = i
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        object.__setattr__(self, "index", idx)

    def __len__(self) -> int:
        return len(self.entries)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for token, _ in self.entries:
            h.update(token.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def build_vocabulary(corpus, vocab_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Top ``vocab_size`` tokens over all documents of a labeled corpus."""
    BowSpec(vocab_size=vocab_size)  # checks vocab_size
    index, ids, _ = _token_ids(doc.tokens for doc in corpus.documents)
    return _vocabulary(index, ids, vocab_size)


def bow_matrix(token_seqs, vocab: Vocabulary, binary: bool = False) -> np.ndarray:
    """Stacked bag-of-words rows for a sequence of token sequences."""
    return _bow_rows(*_token_ids(token_seqs), vocab, binary)


class _Ids(dict):
    """token -> id, ids numbered in order of first lookup."""

    def __missing__(self, token):
        self[token] = i = len(self)
        return i


def _token_ids(token_seqs) -> tuple[_Ids, np.ndarray, np.ndarray]:
    """(index, ids, lengths) from one pass over every token.

    ``index`` numbers the distinct tokens in order of first occurrence,
    ``ids`` (int32) holds the id of every token of the sequences laid end
    to end, and ``lengths`` holds each sequence's length.
    """
    seqs = list(token_seqs)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    index = _Ids()
    ids = np.fromiter(
        map(index.__getitem__, chain.from_iterable(seqs)), dtype=np.int32, count=int(lengths.sum())
    )
    return index, ids, lengths


def _vocabulary(index: _Ids, ids, vocab_size: int) -> Vocabulary:
    """Top ``vocab_size`` tokens of a ``_token_ids`` pass, by descending
    count, ties lexicographic."""
    if not index:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    counts = np.bincount(ids, minlength=len(index)).tolist()
    ordered = sorted(zip(index, counts), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(entries=tuple(ordered[:vocab_size]))


# Bag-of-words cells counted per np.bincount: bounds the int64 counts it
# returns, and the int32 cell index of each token, to a few hundred KiB.
_BOW_CHUNK_CELLS = 1 << 16


def _bow_rows(index: _Ids, ids, lengths, vocab: Vocabulary, binary: bool) -> np.ndarray:
    """Bag-of-words rows of a ``_token_ids`` pass over ``vocab``: one
    ``np.bincount`` of each in-vocabulary token's cell (row * width +
    column) per block of rows of at most _BOW_CHUNK_CELLS cells."""
    column = np.full(len(index), -1, dtype=np.int32)  # by id; -1 outside the vocabulary
    for token, j in vocab.index.items():
        i = index.get(token)
        if i is not None:
            column[i] = j
    width = len(vocab)
    X = np.zeros((len(lengths), width))
    step = max(1, _BOW_CHUNK_CELLS // max(width, 1))
    ends = np.cumsum(lengths)
    for start in range(0, len(lengths), step):
        stop = min(start + step, len(lengths))
        first, last = (int(ends[start - 1]) if start else 0), int(ends[stop - 1])
        cols = column[ids[first:last]]
        cells = np.repeat(np.arange(stop - start, dtype=np.int32) * np.int32(width), lengths[start:stop])
        cells += cols
        X[start:stop] = np.bincount(cells[cols >= 0], minlength=(stop - start) * width).reshape(stop - start, width)
    return np.minimum(X, 1.0, out=X) if binary else X


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


def load_embeddings(path, expected_flavor: str = "skip") -> EmbeddingStore:
    """Parse a word2vec text file: optional "count dim" header, then one
    token and its components per line. The dimension is inferred from the
    first vector and enforced on every later line.
    """
    EmbeddingSpec(str(path), expected_flavor)  # checks the flavor
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

    vectors: dict[str, None] = {}  # tokens in file order
    components = array.array("d")  # every vector's, one after another
    dim = None
    declared = None  # (count, dim) from the header, when present
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if dim is None and len(parts) == 2:  # the first content line may be the header
            try:
                declared = (int(parts[0]), int(parts[1]))
            except ValueError:
                pass
            else:
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
            vec = [float(v) for v in vals]
        except ValueError as e:
            raise ValidationError(f"{path}:{ln}: bad component: {e}") from e
        if not all(map(math.isfinite, vec)):
            raise ValidationError(f"{path}:{ln}: non-finite component for {token!r}")
        vectors[token] = None
        components.extend(vec)
    if not vectors:
        raise ValidationError(f"{path}: no vectors found")
    if declared is not None and declared[0] != len(vectors):
        raise ValidationError(
            f"{path}: header declares {declared[0]} vectors, file has {len(vectors)}"
        )
    return EmbeddingStore(
        dim=dim,
        vectors=dict(zip(vectors, np.frombuffer(components).reshape(len(vectors), dim))),
        flavor=expected_flavor,
        source=str(path),
        fingerprint=fingerprint,
    )


def write_embeddings(store: EmbeddingStore, path) -> None:
    """Write the store in the text format load_embeddings reads, header first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(store.vectors)} {store.dim}\n")
        for token, vec in store.vectors.items():
            fh.write(token)
            for v in vec:
                fh.write(" %.8f" % v)
            fh.write("\n")


def embedding_matrix(token_seqs, store: EmbeddingStore) -> np.ndarray:
    """One row per token sequence: the mean of the stored vectors of its
    tokens, occurrence-weighted, added in token order. Tokens missing from
    the store are skipped, and a row that matches none stays zero. Logs the
    aggregate OOV rate."""
    seqs = list(token_seqs)
    X = np.zeros((len(seqs), store.dim))
    total = misses = 0
    for row, tokens in zip(X, seqs):
        hits = 0
        for tok in tokens:
            vec = store.vectors.get(tok)
            if vec is not None:
                row += vec
                hits += 1
        if hits:
            row /= hits
        total += len(tokens)
        misses += len(tokens) - hits
    if total:
        log.debug("embedding OOV rate: %.4f (%d of %d tokens)", misses / total, misses, total)
    return X


@dataclass(frozen=True)
class BowSpec:
    """Bag-of-words feature request: top-k vocabulary, raw or binary counts."""

    vocab_size: int = DEFAULT_VOCAB_SIZE
    binary: bool = False

    def __post_init__(self):
        if not is_int(self.vocab_size) or self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be a positive integer, got {self.vocab_size!r}")
        if not isinstance(self.binary, bool):
            raise ConfigError(f"binary must be true or false, got {self.binary!r}")


@dataclass(frozen=True)
class EmbeddingSpec:
    """Averaged-word-vector feature request backed by an embedding file."""

    path: str
    flavor: str = "skip"

    def __post_init__(self):
        if not isinstance(self.path, str):
            raise ConfigError(f"path must be a string, got {self.path!r}")
        if self.flavor not in EMBEDDING_FLAVORS:
            raise ConfigError(f"embedding flavor must be one of {', '.join(EMBEDDING_FLAVORS)}, got {self.flavor!r}")


FEATURE_SPECS = {"bow": BowSpec, "embeddings": EmbeddingSpec}  # by the kind a config or a model file names
# The keys that realize_features and model_ref add to a spec's fields
_REF_KEYS = {"bow": ("actual_size", "vocab_sha256", "vocab"), "embeddings": ("dim", "file_sha256")}


def realize_features(spec, corpus):
    """Vectorize a labeled corpus per spec.

    Returns (X, ref, space): the dense float64 feature matrix, a compact
    reference dict identifying the feature space (for manifests and model
    files), and the realized Vocabulary or EmbeddingStore itself.
    """
    docs = [doc.tokens for doc in corpus.documents]
    if isinstance(spec, BowSpec):
        # one id pass gives both the vocabulary and the rows
        index, ids, lengths = _token_ids(docs)
        vocab = _vocabulary(index, ids, spec.vocab_size)
        X = _bow_rows(index, ids, lengths, vocab, spec.binary)
        ref = {"kind": "bow", **asdict(spec), "actual_size": len(vocab), "vocab_sha256": vocab.fingerprint()}
        return X, ref, vocab
    if isinstance(spec, EmbeddingSpec):
        store = load_embeddings(spec.path, spec.flavor)
        X = embedding_matrix(docs, store)
        if not np.all(np.isfinite(X)):
            raise ValidationError("embedding features contain non-finite values")
        ref = {"kind": "embeddings", **asdict(spec), "dim": store.dim, "file_sha256": store.fingerprint}
        return X, ref, store
    raise ConfigError(f"unknown feature spec {spec!r}")


def model_ref(ref: dict, space, table) -> dict:
    """The feature reference a model file keeps: ``realize_features``' ref,
    the rules of the normalization table the text went through, and for a
    bag of words its space's entries, all of which ``featurize`` reads."""
    ref = {**ref, "normalization": {"rules": [{"pattern": r.pattern, "token": r.token} for r in table.rules]}}
    if ref["kind"] == "bow":
        ref["vocab"] = [[t, f] for t, f in space.entries]
    return ref


def featurize(ref, records) -> tuple[list[str], np.ndarray]:
    """(author ids, rows) of the documents of corpus records in the feature
    space that a model file's feature reference (``model_ref``) names, their
    posts normalized by its table. The reference must hold each key that
    ``model_ref`` writes and no other but ``train``'s ``facet``; its types
    build and check its spec, vocabulary and table, and its checksums must
    match. A malformed field, or an embedding file that changed since
    training, is a ConfigError."""
    if not ref:
        raise ConfigError("model file lacks a feature reference; cannot vectorize input")
    if not isinstance(ref, dict) or "kind" not in ref:
        raise ConfigError(f"model file's feature reference is not a mapping with 'kind': {ref!r}")
    kind = ref["kind"]
    if kind not in FEATURE_SPECS:
        raise ConfigError(f"unknown feature kind {kind!r} in model file")
    cls, where = FEATURE_SPECS[kind], f"model file's {kind} feature reference"
    keys = dict.fromkeys(["kind", *config_fields(cls), *_REF_KEYS[kind], "normalization"], MISSING)
    ref = read_config(ref, {**keys, "facet": None}, f"{kind} feature reference keys", where)
    if "facet" in ref and ref["facet"] not in FACET_NAMES:  # predict's CSV header
        raise ConfigError(f"{where}: unknown facet {ref['facet']!r}")
    try:
        spec = cls(**{k: ref[k] for k in config_fields(cls)})
        vocab = Vocabulary(entries=ref["vocab"]) if kind == "bow" else None
    except (ConfigError, ValidationError) as e:
        raise ConfigError(f"{where}: {e}") from e
    table = _table_from_mapping(ref["normalization"], "model file's normalization table")
    if kind == "bow":
        if (vocab.fingerprint(), len(vocab)) != (ref["vocab_sha256"], ref["actual_size"]):
            raise ConfigError(f"{where}: vocab does not match vocab_sha256 and actual_size")
    else:
        store = load_embeddings(spec.path, spec.flavor)
        if (store.fingerprint, store.dim) != (ref["file_sha256"], ref["dim"]):
            raise ConfigError(f"{where}: embedding file {spec.path} changed since training (file_sha256 or dim)")
    docs = build_documents(records, table)
    authors, tokens = [aid for aid, _ in docs], [tokens for _, tokens in docs]
    if kind == "bow":
        return authors, bow_matrix(tokens, vocab, spec.binary)
    return authors, embedding_matrix(tokens, store)
