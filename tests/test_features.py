from __future__ import annotations

import hashlib

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
    avg_vectorize,
    bow_matrix,
    build_vocabulary,
    embedding_matrix,
    load_embeddings,
    realize_features,
    write_embeddings,
)
from facetrec.corpus import LabeledCorpus
from facetrec.inventory import FACET_NAMES


def make_store(mapping, flavor="skip"):
    vecs = {t: np.asarray(v, dtype=np.float64) for t, v in mapping.items()}
    dim = len(next(iter(vecs.values())))
    return EmbeddingStore(dim=dim, vectors=vecs, flavor=flavor, source="test", fingerprint="t")


# --- vocabulary ------------------------------------------------------------


def test_build_vocabulary_orders_by_frequency_then_token(corpus_factory):
    corpus = corpus_factory([["b", "b", "b", "a", "c"], ["a", "c", "d"]])
    vocab = build_vocabulary(corpus, vocab_size=10)
    assert vocab.entries == (("b", 3), ("a", 2), ("c", 2), ("d", 1))
    assert vocab.tokens == ("b", "a", "c", "d")
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
    path.write_text("a 1.0 nan\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="non-finite"):
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


def test_avg_vectorize_is_occurrence_weighted():
    store = make_store({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    assert np.array_equal(avg_vectorize(["x", "y"], store), [0.5, 0.5])
    out = avg_vectorize(["x", "x", "y"], store)
    assert np.allclose(out, [2 / 3, 1 / 3])


def test_avg_vectorize_ignores_oov_and_zeroes_all_oov():
    store = make_store({"x": [1.0, 0.0]})
    assert np.array_equal(avg_vectorize(["x", "zzz"], store), [1.0, 0.0])
    assert np.array_equal(avg_vectorize(["zzz", "qqq"], store), [0.0, 0.0])
    assert np.array_equal(avg_vectorize([], store), [0.0, 0.0])


@given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=12))
def test_avg_vectorize_stays_in_convex_hull(tokens):
    store = make_store({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    out = avg_vectorize(tokens, store)
    assert out.sum() == pytest.approx(1.0)
    assert np.all(out >= 0.0)


def test_embedding_matrix_rows_match_avg_vectorize():
    store = make_store({"x": [1.0, 0.0], "y": [0.0, 1.0]})
    seqs = [["x"], ["x", "y"], ["zzz"]]
    X = embedding_matrix(seqs, store)
    assert X.shape == (3, 2)
    for i, seq in enumerate(seqs):
        assert np.array_equal(X[i], avg_vectorize(seq, store))


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
