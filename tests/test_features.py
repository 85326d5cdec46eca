from __future__ import annotations

import hashlib
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from facetrec.errors import ConfigError, ValidationError
from facetrec.features import (
    BowSpec,
    EmbeddingSpec,
    EmbeddingStore,
    Vocabulary,
    bow_matrix,
    build_vocabulary,
    embedding_matrix,
    featurize,
    load_embeddings,
    model_ref,
    realize_features,
    write_embeddings,
)
from facetrec.corpus import AuthorRecord, LabeledCorpus, build_documents, default_normalization_table, load_corpus
from facetrec.inventory import FACET_NAMES
from facetrec.synth import SynthSpec, write_bundle
from loop_oracles import bow_loops, embedding_average_loops


def make_store(mapping, flavor="skip"):
    vecs = {t: np.asarray(v, dtype=np.float64) for t, v in mapping.items()}
    dim = len(next(iter(vecs.values())))
    return EmbeddingStore(dim=dim, vectors=vecs, flavor=flavor, source="test", fingerprint="t")


# --- vocabulary ------------------------------------------------------------


def test_build_vocabulary_orders_by_frequency_then_token(corpus_factory):
    corpus = corpus_factory([["b", "b", "b", "a", "c"], ["a", "c", "d"]])
    vocab = build_vocabulary(corpus, vocab_size=10)
    assert vocab.entries == (("b", 3), ("a", 2), ("c", 2), ("d", 1))
    assert len(vocab) == 4


def test_build_vocabulary_truncates(corpus_factory):
    corpus = corpus_factory([["b", "b", "b", "a", "c"], ["a", "c", "d"]])
    vocab = build_vocabulary(corpus, vocab_size=2)
    assert vocab.entries == (("b", 3), ("a", 2))


def test_build_vocabulary_validates_size(corpus_factory):
    corpus = corpus_factory([["a", "b"]])
    with pytest.raises(ConfigError, match="vocab_size"):
        build_vocabulary(corpus, vocab_size=0)
    with pytest.raises(ConfigError, match="vocab_size"):
        build_vocabulary(corpus, vocab_size="3")


def test_build_vocabulary_rejects_empty_corpus():
    corpus = LabeledCorpus(documents=(), label_thresholds={f: 0.0 for f in FACET_NAMES})
    with pytest.raises(ValidationError, match="empty"):
        build_vocabulary(corpus, vocab_size=5)


def test_vocabulary_rejects_duplicates_and_fingerprints_content():
    with pytest.raises(ValidationError, match="duplicate"):
        Vocabulary(entries=(("a", 2), ("a", 1)))
    va = Vocabulary(entries=(("a", 2), ("b", 1)))
    vb = Vocabulary(entries=(("b", 2), ("a", 1)))
    assert va.fingerprint() != vb.fingerprint()
    assert va.fingerprint() == Vocabulary(entries=(("a", 9), ("b", 9))).fingerprint()


# --- bag of words ----------------------------------------------------------


def test_bow_vectorize_counts_and_oov():
    vocab = Vocabulary(entries=(("a", 3), ("b", 2), ("c", 1)))
    row = bow_matrix([["a", "b", "a", "z"]], vocab)
    assert isinstance(row, np.ndarray) and row.dtype == np.float64
    assert row.tolist() == [[2.0, 1.0, 0.0]]


def test_bow_vectorize_binary_mode():
    vocab = Vocabulary(entries=(("a", 3), ("b", 2)))
    row = bow_matrix([["a", "a", "a"]], vocab, binary=True)
    assert row.dtype == np.float64
    assert row.tolist() == [[1.0, 0.0]]


def test_bow_matrix_stacks_rows():
    vocab = Vocabulary(entries=(("a", 3), ("b", 2)))
    X = bow_matrix([["a"], ["b", "b"], []], vocab)
    assert isinstance(X, np.ndarray) and X.dtype == np.float64
    assert X.tolist() == [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]


@given(st.lists(st.sampled_from(["a", "b", "c", "z", "q"]), max_size=30))
def test_bow_row_sum_counts_in_vocab_tokens(tokens):
    vocab = Vocabulary(entries=(("a", 3), ("b", 2), ("c", 1)))
    row = bow_matrix([tokens], vocab)
    expected = sum(1 for t in tokens if t in {"a", "b", "c"})
    assert row.sum() == expected


# --- embedding files -------------------------------------------------------


def test_embeddings_round_trip(tmp_path):
    store = make_store({"a": [0.5, -1.25], "b": [3.0, 0.125]})
    path = tmp_path / "emb.vec"
    write_embeddings(store, path)
    loaded = load_embeddings(path)
    assert loaded.dim == 2
    assert set(loaded.vectors) == {"a", "b"}
    assert np.allclose(loaded.vectors["a"], [0.5, -1.25], atol=1e-8)
    assert loaded.fingerprint == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_embeddings_without_header(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("a 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
    store = load_embeddings(path)
    assert store.dim == 2
    assert len(store) == 2


def test_load_embeddings_header_count_mismatch(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="header declares 3"):
        load_embeddings(path)


def test_load_embeddings_dimension_mismatch_names_line(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":2: expected 2 components, got 1"):
        load_embeddings(path)


def test_load_embeddings_duplicate_token(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("a 1.0\na 2.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":2: duplicate token"):
        load_embeddings(path)


def test_load_embeddings_bad_and_nonfinite_components(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":1: bad component"):
        load_embeddings(path)
    # Each error names the first faulty line, ahead of a later line's fault.
    for bad in ("nan", "inf"):
        path.write_text(f"a 1.0 2.0\nb 1.0 {bad}\nc 1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r":2: non-finite component for 'b'$"):
            load_embeddings(path)


def test_load_embeddings_rejects_empty_and_binary(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match="no vectors"):
        load_embeddings(path)
    path.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(ValidationError, match="UTF-8"):
        load_embeddings(path)


def test_load_embeddings_checks_flavor(tmp_path):
    with pytest.raises(ConfigError, match="flavor"):
        load_embeddings(tmp_path / "emb.vec", expected_flavor="glove")


# --- averaging -------------------------------------------------------------


def test_embedding_rows_are_occurrence_weighted():
    store = make_store({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    X = embedding_matrix([["x", "y"], ["x", "x", "y"]], store)
    assert np.array_equal(X[0], [0.5, 0.5])
    assert np.allclose(X[1], [2 / 3, 1 / 3])


def test_embedding_rows_ignore_oov_and_zero_all_oov():
    store = make_store({"x": [1.0, 0.0]})
    X = embedding_matrix([["x", "zzz"], ["zzz", "qqq"], []], store)
    assert np.array_equal(X, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert embedding_matrix([], store).shape == (0, 2)


@given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=12))
def test_embedding_rows_stay_in_convex_hull(tokens):
    store = make_store({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    [row] = embedding_matrix([tokens], store)
    assert row.sum() == pytest.approx(1.0)
    assert np.all(row >= 0.0)


def test_embedding_matrix_equals_the_loop_average():
    # Bit for bit: repeated and missing tokens, empty and long documents.
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    store = make_store({w: rng.normal(size=7) for w in words[:30]})
    seqs = [[str(w) for w in rng.choice(words, size=n)] for n in (0, 1, 5, 60, 400)] + [["w35", "w36"]]
    X = embedding_matrix(seqs, store)
    assert X.shape == (len(seqs), 7)
    for row, seq in zip(X, seqs):
        assert row.tolist() == embedding_average_loops(seq, store)


# --- feature realization ----------------------------------------------------


def test_realize_features_bow(corpus_factory):
    corpus = corpus_factory([["a", "b"], ["b", "b"]])
    X, ref, vocab = realize_features(BowSpec(vocab_size=5), corpus)
    assert isinstance(X, np.ndarray) and X.dtype == np.float64
    assert X.tolist() == [[1.0, 1.0], [2.0, 0.0]]  # columns: b, a
    assert ref["kind"] == "bow"
    assert ref["actual_size"] == 2
    assert ref["vocab_sha256"] == vocab.fingerprint()
    assert "vocab" not in ref  # the compact ref carries only the digest


@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "$LAUGH$", "zz", "q"]), max_size=12), min_size=1, max_size=6),
    st.integers(1, 7),
    st.booleans(),
)
def test_realize_features_bow_matches_the_loops(seqs, vocab_size, binary):
    # realize_features reads only the documents' tokens, which may be empty here
    corpus = SimpleNamespace(documents=[SimpleNamespace(tokens=tuple(tokens)) for tokens in seqs])
    if not any(seqs):
        with pytest.raises(ValidationError, match="empty corpus"):
            realize_features(BowSpec(vocab_size=vocab_size, binary=binary), corpus)
        return
    X, _, vocab = realize_features(BowSpec(vocab_size=vocab_size, binary=binary), corpus)
    entries, rows = bow_loops(seqs, vocab_size, binary)
    assert vocab.entries == entries
    assert X.shape == (len(seqs), len(entries)) and X.tolist() == rows
    assert build_vocabulary(corpus, vocab_size) == vocab
    assert np.array_equal(bow_matrix(seqs, vocab, binary=binary), X)


@pytest.mark.parametrize("cells", [1, 5, 7, 1 << 16])
def test_bow_rows_do_not_depend_on_the_block_size(monkeypatch, cells):
    # Blocks of one row each (a block holds at least one), of several rows
    # with a remainder, and of every row: the same counts as the loops, with
    # empty documents and tokens outside the vocabulary.
    from facetrec import features

    seqs = [["a", "b", "a"], [], ["zz", "q", "q", "a"], ["c"], ["b", "b", "$LAUGH$"], [], ["q"] * 9, ["a", "c"]]
    monkeypatch.setattr(features, "_BOW_CHUNK_CELLS", cells)
    corpus = SimpleNamespace(documents=[SimpleNamespace(tokens=tuple(tokens)) for tokens in seqs])
    X, _, vocab = realize_features(BowSpec(vocab_size=3), corpus)
    entries, rows = bow_loops(seqs, 3)
    assert vocab.entries == entries and X.tolist() == rows


def test_embedding_oov_line_counts_the_misses(tmp_path, caplog):
    # The quick-start bundle, whose vectors cover all its tokens, and one
    # document more with two tokens that have none: the debug line gives
    # the misses as a share and as counts.
    paths = write_bundle(tmp_path, SynthSpec(seed=7, authors=60, tokens_per_author=60))
    docs = [tokens for _, tokens in build_documents(load_corpus(paths["corpus"]), default_normalization_table())]
    docs.append(("unseen", docs[0][0], "words"))
    store = load_embeddings(paths["skip"])
    total = sum(map(len, docs))
    misses = sum(1 for tokens in docs for t in tokens if t not in store.vectors)
    assert misses == 2
    with caplog.at_level(logging.DEBUG, logger="facetrec.features"):
        X = embedding_matrix(docs, store)
    assert X.shape == (len(docs), store.dim)
    assert caplog.messages == [f"embedding OOV rate: {misses / total:.4f} ({misses} of {total} tokens)"]


def test_realize_features_embeddings(tmp_path, corpus_factory):
    store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    path = tmp_path / "emb.vec"
    write_embeddings(store, path)
    corpus = corpus_factory([["a", "b"], ["b", "b"]])
    X, ref, loaded = realize_features(EmbeddingSpec(path=str(path)), corpus)
    assert X.shape == (2, 2)
    assert ref["kind"] == "embeddings"
    assert ref["dim"] == 2
    assert ref["file_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert loaded.flavor == "skip"


def test_realize_features_rejects_unknown_spec(corpus_factory):
    corpus = corpus_factory([["a"]])
    with pytest.raises(ConfigError, match="feature spec"):
        realize_features(object(), corpus)


# --- a model file's feature reference ----------------------------------------


# One field each, and what the error says of it.
_TAMPERED_REFS = {
    "binary": ("bow", "binary", "false", "binary must be true or false, got 'false'"),
    "vocab-count": ("bow", "vocab", [["a", 2], ["b", "7"]],
                    r"vocabulary entry \['b', '7'\] is not a \[token, count\] pair"),
    "vocab-reversed": ("bow", "vocab", lambda v: v[::-1], "vocab does not match vocab_sha256 and actual_size"),
    "actual-size": ("bow", "actual_size", 3, "vocab does not match vocab_sha256 and actual_size"),
    "unknown-key": ("bow", "vocab_md5", "0", "unknown bow feature reference keys: vocab_md5;"),
    "missing-key": ("bow", "vocab_sha256", None, "model file's bow feature reference lacks 'vocab_sha256'"),
    "facet": ("bow", "facet", "Wit", "unknown facet 'Wit'"),
    "flavor": ("embeddings", "flavor", "glove", "embedding flavor must be one of skip, cbow, got 'glove'"),
    "dim": ("embeddings", "dim", 3, r"changed since training \(file_sha256 or dim\)"),
    "file-sha256": ("embeddings", "file_sha256", "0" * 64, r"changed since training \(file_sha256 or dim\)"),
}


@pytest.mark.parametrize("kind, key, value, message", _TAMPERED_REFS.values(), ids=_TAMPERED_REFS)
def test_featurize_rejects_each_tampered_field(tmp_path, corpus_factory, kind, key, value, message):
    # The feature reference of a model file, tampered in one field: each
    # edit is a ConfigError that names the model file's reference and the
    # field, not a moved feature matrix.
    corpus = corpus_factory([["a", "b"], ["a", "a"]])
    if kind == "bow":
        spec = BowSpec()
    else:
        spec = EmbeddingSpec(path=str(tmp_path / "v.vec"))
        write_embeddings(make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]}), spec.path)
    _, ref, space = realize_features(spec, corpus)
    ref = model_ref(ref, space, default_normalization_table())
    records = [AuthorRecord(author_id="x", posts=("a b b",), inventory=None)]
    assert featurize(ref, records)[0] == ["x"]
    if value is None:
        del ref[key]
    else:  # a facet is new: train adds it, model_ref does not
        ref[key] = value(ref[key]) if callable(value) else value
    with pytest.raises(ConfigError, match=message) as err:
        featurize(ref, records)
    assert f"model file's {kind} feature reference" in str(err.value)
