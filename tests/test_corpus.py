from __future__ import annotations

import logging
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st
from loop_oracles import build_documents_loops, normalize_loops, tokenize_loops

from facetrec.corpus import (
    AuthorRecord,
    LabeledCorpus,
    LabeledDocument,
    NormalizationTable,
    NormRule,
    assign_labels,
    build_documents,
    default_normalization_table,
    load_corpus,
    load_normalization_table,
    normalize,
    tokenize,
)
from facetrec.errors import ConfigError, ValidationError
from facetrec.inventory import FACET_NAMES, FacetScores, InventoryResponse, default_scoring_key
from facetrec.synth import SynthSpec, generate_records, make_latents, make_word_tables


def rec(aid, posts):
    return AuthorRecord(
        author_id=aid, posts=tuple(posts), inventory=InventoryResponse(items=(3,) * 44)
    )


def fs(default=3.0, **per):
    return FacetScores(domains={}, facets={f: float(per.get(f, default)) for f in FACET_NAMES})


def table(*pairs):
    return NormalizationTable(rules=tuple(NormRule(pattern=p, token=t) for p, t in pairs))


# --- normalization ---------------------------------------------------------


def test_default_table_collapses_laughter():
    t = default_normalization_table()
    assert normalize("hahaha que bom", t) == "$LAUGH$ que bom"
    for lit in ["haha", "hahaha", "hahah", "hehe", "kkkk", "kkkkk", "rsrs", "rsrsrs", "jajaja"]:
        assert normalize(lit, t) == "$LAUGH$", lit


def test_normalize_is_case_insensitive():
    t = default_normalization_table()
    assert normalize("HAHAHA", t) == "$LAUGH$"
    assert normalize("KkKk", t) == "$LAUGH$"


def test_normalize_respects_word_boundaries():
    t = default_normalization_table()
    assert normalize("bahaha", t) == "bahaha"
    assert normalize("khaki", t) == "khaki"


def test_normalize_prefers_longest_match_at_same_start():
    t = table((r"ha", "$A$"), (r"haha", "$B$"))
    assert normalize("haha", t) == "$B$"


def test_normalize_breaks_ties_by_rule_order():
    t = table((r"ha", "$A$"), (r"ha", "$B$"))
    assert normalize("ha", t) == "$A$"


def test_normalize_prefers_leftmost_match():
    t = table((r"bb", "$B$"), (r"aa", "$A$"))
    assert normalize("aa bb", t) == "$A$ $B$"


def test_normalize_is_single_pass():
    # The replacement text is never rescanned, even when another rule
    # would match inside it.
    t = table((r"aha", "$HA$"), (r"HA", "$X$"))
    assert normalize("aha", t) == "$HA$"
    # Scanning resumes after the replaced span, not at the string start.
    t = table((r"aha", "$HA$"))
    assert normalize("ahaha", t) == "$HA$ha"


def test_normalize_empty_and_no_match():
    t = default_normalization_table()
    assert normalize("", t) == ""
    assert normalize("nothing to do", t) == "nothing to do"


def test_norm_rule_rejects_bad_pattern_and_token():
    with pytest.raises(ConfigError, match="pattern"):
        NormRule(pattern="(unclosed", token="$X$")
    with pytest.raises(ConfigError, match="survive"):
        NormRule(pattern="ok", token="two words")
    with pytest.raises(ConfigError, match="survive"):
        NormRule(pattern="ok", token="$lower$")


# --- tokenization ----------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, world!") == ["hello", "world"]
    assert tokenize("don't stop") == ["don", "t", "stop"]
    assert tokenize("a1 b_2") == ["a1", "b_2"]
    assert tokenize("") == []


def test_tokenize_preserves_placeholders():
    assert tokenize("$LAUGH$ ok") == ["$LAUGH$", "ok"]
    assert tokenize("so $LAUGH$!") == ["so", "$LAUGH$"]
    # Lowercase dollar-words are not placeholders.
    assert tokenize("$laugh$") == ["laugh"]


# --- fast paths against the loop oracles -----------------------------------

# Texts mix ASCII words, digits, laughter, placeholders and near-placeholders
# with characters whose lowercase form is longer ("İ"), that case-fold to
# more than one character ("ß", "ﬁ"), or that str.split() takes for
# whitespace although they are no space ("\x1c"-"\x1f").
_TEXT_PIECES = [
    "a", "b", "h", "k", "x", "ha", "HA", "he", "kkk", "rs", "ja", " ", "  ", "!", "'", "_", "1", "42", "A_9",
    "$LAUGH$", "$", "$ab$", "$A1$", "$B_C$", "$$", "$1A$", "$_A$", "$A-B$", "$A", "İ", "ß", "ﬁ", "ss", "é", "\n",
    "\x1c", "\x1d", "\x1e", "\x1f",
]
texts = st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join)

def _cannot_match_empty(pattern):
    try:
        NormRule(pattern, "$A$")
    except ConfigError:
        return False
    return True


# Patterns may carry a global inline flag, which keeps a table on the
# loop, and a group with its backreference, which does so after the first
# rule; some pieces match the empty string, which a whole rule may not.
_PATTERN_PIECES = [
    "a", "h", "k", "ha", "(?:ha){2,}", "(?:he)+h?", "k{3,}", "[ab]", "a+", "b*", "x?", "s",
    r"\b", r"\w", r"\$", ".", "İ", "ß", "ﬁ", r"(a)\1", "a|b", "(?i:x)",
]
patterns = st.builds(
    lambda flag, pieces: flag + "".join(pieces),
    st.sampled_from(["", "", "", "(?x)", "(?s)", "(?i)"]),
    st.lists(st.sampled_from(_PATTERN_PIECES), min_size=1, max_size=3),
).filter(_cannot_match_empty)
tables = st.lists(
    st.tuples(patterns, st.sampled_from(["$A$", "$LAUGH$", "$B_1$"])), max_size=4
).map(lambda pairs: table(*pairs))


@given(tables, texts)
def test_normalize_matches_the_loop_oracle(t, text):
    assert normalize(text, t) == normalize_loops(text, t)


@given(texts)
def test_normalize_default_table_matches_the_loop_oracle(text):
    t = default_normalization_table()
    assert normalize(text, t) == normalize_loops(text, t)


@given(texts)
def test_tokenize_matches_the_loop_oracle(text):
    assert tokenize(text) == tokenize_loops(text)


@given(st.text(max_size=40))
def test_tokenize_matches_the_loop_oracle_on_any_text(text):
    assert tokenize(text) == tokenize_loops(text)


def test_tokenize_keeps_non_ascii_on_the_loop():
    # "İ".lower() is "i" plus a combining dot, which is no word character.
    assert tokenize("İSTANBUL $LAUGH$ Straße ﬁx") == ["i̇stanbul", "$LAUGH$", "straße", "ﬁx"]
    assert tokenize("İSTANBUL") == tokenize_loops("İSTANBUL")


def test_default_table_is_word_level():
    t = default_normalization_table()
    assert t.word_level
    text = "Hahaha KKKK rsrs! jajaja hehe, bahaha khaki"
    assert normalize(text, t) == normalize_loops(text, t) == "$LAUGH$ $LAUGH$ $LAUGH$! $LAUGH$ $LAUGH$, bahaha khaki"


# Tables with anchors, lookarounds, a backreference in rule 0, classes,
# branches and repeats, whose matches begin with one of a fixed set of
# characters, and tables whose first node can repeat zero times, has an
# empty alternative, a wildcard, scoped flags, a category, a negated class
# or a global inline flag, whose matches need not.
# The second item says whether every rule's matches begin with one of a
# fixed set of characters; the search loop treats both kinds alike. The
# third says whether normalizing an author's posts joined with single
# spaces gives the posts' own normalizations joined: only literals, classes
# without a space, branches, groups, repeats, \b and \B allow that. It is
# checked on pairs of posts where it holds;
# test_tables_that_do_not_join_posts_normalize_each_post shows posts where
# it fails.
_GUARD_CASES = [
    ([(r"\bk{2,}\b", "$K$"), ("(?:ha){2,}h?", "$LAUGH$")], True, True),
    ([("s+", "$S$"), ("i", "$I$"), ("k", "$K$")], True, True),
    ([("[a-c]s", "$AS$"), ("(?:h|j)a", "$HA$"), ("(?:ha)+?", "$HH$")], True, True),
    ([(r"\Bk\b", "$K$"), ("a{2}", "$AA$")], True, True),
    ([("ha ha", "$HH$"), ("k", "$K$")], True, False),  # a match can hold the space between posts
    ([("[ -~]x", "$X$")], True, False),
    ([("(?<=a)k", "$K$"), ("(?!ka)k", "$NK$")], True, False),
    ([("^ha", "$H$"), (r"\Aa", "$A$"), ("s$", "$S$")], True, False),
    ([(r"(a)\1", "$AA$"), ("k+", "$K$")], True, False),
    ([("(?:ha)+", "laugh")], True, True),  # a word token
    ([("x*k", "$XK$"), ("k", "$K$")], False, False),
    ([("(?:x|)k", "$XK$"), ("k", "$K$")], False, False),
    ([(".k", "$DK$"), ("k", "$K$")], False, False),
    ([("k", "$K$"), ("x*y", "$XY$")], False, False),
    ([("k", "$K$"), ("(?-i:s)", "$S$")], False, False),
    ([("k", "$K$"), (r"\w", "$W$")], False, False),
    ([("[^a]", "$N$")], False, False),
    ([("k", "$K$"), ("(?x) h a", "$HA$")], False, False),
    # Atomic groups and possessive repeats parse from Python 3.11 on.
    *([([("(?>ha)+", "$HH$"), ("k++", "$K$")], True, True)] if sys.version_info >= (3, 11) else []),
]

# Posts that meet the rules above at their edges.
_EDGE_POSTS = ["", " ", "!", "a", "k", "kk", "ka", "s", "as", "i", "ha", "hah", "haha", "ja", "aa", "x", "bs", "K"]


@pytest.mark.parametrize("pairs, fixed_first, joins_posts", _GUARD_CASES)
def test_guard_needs_first_characters_for_every_rule(pairs, fixed_first, joins_posts):
    t = table(*pairs)
    for a in _EDGE_POSTS:
        for b in _EDGE_POSTS:
            text = f"{a} {b}"
            assert normalize(text, t) == normalize_loops(text, t), text
            if joins_posts:
                assert normalize(text, t) == f"{normalize(a, t)} {normalize(b, t)}", (a, b)


# Which tables normalize word by word: every rule starts and ends with \b,
# consumes only ASCII [0-9A-Za-z_] through literals, classes, branches,
# groups and repeats, and has the table's flags.
_WORD_LEVEL_CASES = [
    ([], True),
    ([(r"\b(?:ha){2,}h?\b", "$LAUGH$"), (r"\bk{3,}\b", "$LAUGH$")], True),
    ([(r"\b(?:ha|he)+\b", "lol")], True),  # a word token
    ([(r"\b[a-z_0-9]+x\b", "$X$")], True),  # case folding adds K, ſ, İ and ı
    ([(r"\bk\Bk+\b", "$K$")], True),
    ([(r"\bk+\b", "$K$"), (r"\b(ha)+\b", "$H$")], True),  # a group after rule 0
    ([(r"\b(?:ha){2,}h?\b", "$LAUGH$"), ("(?:ha){2,}h?", "$LAUGH$")], False),  # no \b
    ([(r"\bha", "$H$")], False),
    ([(r"\bha\B", "$H$")], False),
    ([(r"^ha\b", "$H$")], False),
    ([(r"\b(?:ha)*k\b", "$H$")], True),  # a first node that can repeat zero times
    ([(r"\b[a-zé]+\b", "$W$")], False),  # a non-ASCII class member
    ([(r"\b[a-~]+\b", "$W$")], False),  # a range past the word characters
    ([(r"\b\w+\b", "$W$")], False),
    ([(r"\b.+\b", "$W$")], False),
    ([(r"\b[^a]\b", "$N$")], False),
    ([(r"\b(?=h)ha\b", "$H$")], False),
    ([(r"\b(?-i:ha)\b", "$H$")], False),
    ([(r"(?x)\b h a \b", "$H$")], False),
    ([(r"\b(a)\1\b", "$AA$")], False),
    ([(r"\bha ha\b", "$HH$")], False),
]


@pytest.mark.parametrize("pairs, word_level", _WORD_LEVEL_CASES)
def test_word_level_tables(pairs, word_level):
    assert table(*pairs).word_level == word_level


_EMPTY_MATCHING = {
    "ha-repeat": r"\b(?:ha)*\b", "start": "^", "string-start": r"\A", "end": "$", "star": "x*", "empty-group": "(?:)",
    "boundary": r"\b", "lookahead": "(?=k)", "optional-backref": r"(a?)\1", "empty-branch": "k|",
}


@pytest.mark.parametrize("pattern", _EMPTY_MATCHING.values(), ids=_EMPTY_MATCHING)
def test_a_rule_that_can_match_empty_is_rejected(tmp_path, pattern):
    # It would match at every position; its parse tree's minimum width is 0.
    with pytest.raises(ConfigError, match=r"can match the empty string") as err:
        NormRule(pattern, "$H$")
    assert repr(pattern) in str(err.value)
    path = tmp_path / "norm.yaml"
    path.write_text(f"rules:\n  - pattern: 'k+'\n    token: $K$\n  - pattern: '{pattern}'\n    token: $H$\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=r"rule 1: pattern .* can match the empty string"):
        load_normalization_table(path)


@pytest.mark.parametrize(
    "pairs, posts",
    [
        ([("ha ha", "$HH$")], ["xha", "ha"]),
        ([("[ -~]x", "$X$")], ["a", "x"]),
        ([("k(?= )", "$K$")], ["k", "a"]),
        ([("^ha", "$H$")], ["x", "ha"]),
        ([("s$", "$S$")], ["as", "b"]),
    ],
)
def test_tables_that_do_not_join_posts_normalize_each_post(pairs, posts):
    # Each author's joined posts would normalize otherwise than its posts.
    t = table(*pairs)
    per_post = " ".join(normalize(post, t) for post in posts)
    assert not t.word_level and normalize(" ".join(posts), t) != per_post
    assert build_documents([rec("u", posts)], t) == [("u", tuple(tokenize(per_post)))]


def test_normalize_folds_case_as_the_rules_do():
    # KELVIN SIGN, LONG S and capital I with dot match k, s and i under
    # IGNORECASE.
    t = table(("k+", "$K$"), ("s", "$S$"), ("i", "$I$"))
    text = "\u212a\u212ak \u017f \u0130 K S I"
    assert normalize(text, t) == normalize_loops(text, t) == "$K$ $S$ $I$ $K$ $S$ $I$"


# Posts over case variants that fold into ASCII rules (K, ſ, İ, ı), a
# character whose case folds to two ("ß"), "$" (which sends an author
# through normalize per post), words equal to word tokens, spaces and
# punctuation. Posts may start or end with a space or a word, so rules meet
# the edges between posts.
_POST_PIECES = [
    "a", "h", "k", "s", "i", "j", "x", "K", "S", "I", "\u212a", "\u017f", "\u0130", "\u0131", "\u00df", "ha",
    "HAHA", "kkk", "rsrs", "lol", "LOL", "laugh", "$", "$A$", "$ab", " ", "  ", "!", ".", "-", "_", "1", "ha ha",
]
author_posts = st.lists(st.lists(st.sampled_from(_POST_PIECES), max_size=10).map("".join), max_size=4)

# Rules between \b and \b over ASCII word characters, most of them
# word-level; "s?" and "\B" alone would let a rule match empty, and no such
# rule loads.
_WORD_PATTERN_PIECES = [
    "a", "h", "k", "s", "i", "l", "o", "ha", "lol", "(?:ha)+", "(?:he){2,}", "k{3,}", "[a-c]", "[a-z]+",
    "[0-9]", "_", "(?:rs|ja)+", r"\B", "s?", "[k-s]", "[A-C]", "K",
]
word_tables = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_WORD_PATTERN_PIECES), min_size=1, max_size=3)
        .map(lambda p: rf"\b{''.join(p)}\b").filter(_cannot_match_empty),
        st.sampled_from(["$A$", "$LAUGH$", "lol", "laugh", "a"]),
    ),
    max_size=4,
).map(lambda pairs: table(*pairs))


@given(
    st.one_of(
        st.sampled_from(_GUARD_CASES).map(lambda case: table(*case[0])),
        st.sampled_from(_WORD_LEVEL_CASES).map(lambda case: table(*case[0])),
        word_tables,
        tables,
    ),
    st.lists(author_posts, min_size=1, max_size=4),
)
def test_build_documents_matches_the_loops(t, authors):
    records = [rec(f"u{i}", posts) for i, posts in enumerate(authors)]
    docs = build_documents(records, t)
    assert docs == build_documents_loops(records, t)
    every = [tok for _, tokens in docs for tok in tokens]
    assert len({id(tok) for tok in every}) == len(set(every))
    for posts in authors:
        for post in posts:
            assert normalize(post, t) == normalize_loops(post, t)


# Rules that would change meaning joined into one alternation, and rules
# whose matches may start before the characters they repeat. The third item
# says whether the rules join: a later rule's groups would be renumbered,
# and a global inline flag cannot sit inside a group. Each rule is searched
# on its own, so both kinds normalize as the loop oracle does.
@pytest.mark.parametrize(
    "pairs, text, joinable",
    [
        # A later rule's own group: in an alternation, \1 would point at rule 0's.
        ([("(x)y", "$A$"), (r"(a)\1", "$B$")], "xy aa ab", False),
        # A group in the first rule keeps its number.
        ([(r"(a)\1", "$B$"), ("k+", "$K$")], "aa kk ab", True),
        # A global inline flag, first or later.
        ([("(?x) h a", "$HA$"), ("b", "$B$")], "ha b h a", False),
        ([("b", "$B$"), ("(?x) h a", "$HA$")], "ha b h a", False),
        # A rule whose first node can repeat zero times: its matches may
        # start before the repeated characters.
        ([("x*b", "$X$")], "axxb", True),
        ([("q", "$Q$"), ("x*c", "$X$")], "abc", True),
        ([("x*a", "$X$"), ("b", "$B$")], "abxx", True),
    ],
)
def test_union_gate_on_groups_inline_flags_and_empty_matches(pairs, text, joinable):
    t = table(*pairs)
    assert normalize(text, t) == normalize_loops(text, t)


class CountingSearches:
    """A compiled rule that counts its ``search`` calls."""

    def __init__(self, regex):
        self.regex = regex
        self.searches = 0

    def search(self, *args):
        self.searches += 1
        return self.regex.search(*args)


def test_a_rule_without_a_match_is_searched_once():
    # The shipped rules plus one with a group after rule 0, which never
    # matches here, over a text the shipped rules rewrite 6,000 times.
    t = table(*((rule.pattern, rule.token) for rule in default_normalization_table().rules), (r"(x)yz\1", "$X$"))
    quiet, laughs = CountingSearches(t.rules[-1].regex), CountingSearches(t.rules[0].regex)
    object.__setattr__(t.rules[-1], "regex", quiet)
    object.__setattr__(t.rules[0], "regex", laughs)
    assert normalize("haha ok kkkk. rsrs yes " * 2000, t) == "$LAUGH$ ok $LAUGH$. $LAUGH$ yes " * 2000
    assert quiet.searches == 1
    # A rule that matches is searched once more for each of its own matches.
    assert laughs.searches == 2001


def test_build_documents_normalizes_each_post_of_a_synth_corpus():
    # A table that is not word-level sends every author through normalize
    # per post, join and tokenize.
    spec = SynthSpec(seed=5, authors=60)
    records = generate_records(spec, make_word_tables(spec.seed), make_latents(spec), default_scoring_key())
    shipped = default_normalization_table()
    t = NormalizationTable(rules=(*shipped.rules, NormRule(r"(\w)(\w)\1\2", "$TWICE$")))
    assert not t.word_level
    docs = build_documents(records, t)
    assert docs == build_documents_loops(records, t)
    every = [tok for _, tokens in docs for tok in tokens]
    assert len(docs) == 60 and "$LAUGH$" in every and "$TWICE$" in every


# --- documents -------------------------------------------------------------


def test_build_documents_joins_posts_with_single_space():
    t = default_normalization_table()
    docs = build_documents([rec("u1", ["kk", "kk"]), rec("u2", ["kkkk"])], t)
    assert docs[0] == ("u1", ("kk", "kk"))
    assert docs[1] == ("u2", ("$LAUGH$",))


def test_build_documents_shares_one_string_per_distinct_token():
    # Seeded posts mixing ASCII and non-ASCII words, mixed case and
    # laughter the default table rewrites to $LAUGH$.
    rng = random.Random(3)
    words = ["Straße", "café", "İSTANBUL", "naïve", "hahaha", "KKKK", "rsrs", "Word", "word", "the", "ok!", "a"]
    records = [rec(f"u{i}", [" ".join(rng.choices(words, k=rng.randint(1, 12))) for _ in range(rng.randint(1, 4))])
               for i in range(40)]
    t = default_normalization_table()
    docs = build_documents(records, t)
    assert [aid for aid, _ in docs] == [r.author_id for r in records]
    for (_, tokens), r in zip(docs, records):
        assert list(tokens) == tokenize(" ".join(normalize(post, t) for post in r.posts))
    every = [tok for _, tokens in docs for tok in tokens]
    assert "$LAUGH$" in every and "straße" in every
    assert len({id(tok) for tok in every}) == len(set(every))


def test_build_documents_shares_a_word_token_with_the_same_word():
    # "laugh" is a rule's token and a word of the posts: in ASCII text, in
    # non-ASCII text, in text with a "$" (normalized per post), first met
    # as either. Every occurrence is one str.
    t = table((r"\bhaha\b", "laugh"), (r"\bk{3,}\b", "$K$"))
    assert t.word_level
    records = [rec("a", ["haha kkk"]), rec("b", ["laugh Laugh"]), rec("c", ["LAUGH \u00e9 haha"]),
               rec("d", ["$ laugh", "kkk"]), rec("e", ["laugh"]), rec("f", ["\u00e9 lol"]), rec("g", ["lol"])]
    docs = build_documents(records, t)
    assert docs == build_documents_loops(records, t)
    every = [tok for _, tokens in docs for tok in tokens]
    assert len({id(tok) for tok in every}) == len(set(every)) == 4


def test_build_documents_excludes_zero_token_authors(caplog):
    t = default_normalization_table()
    with caplog.at_level(logging.WARNING):
        docs = build_documents([rec("u1", ["!!!"]), rec("u2", ["fine"])], t)
    assert [aid for aid, _ in docs] == ["u2"]
    assert any("u1" in m for m in caplog.messages)


def test_labeled_document_validation():
    labels = {f: 0 for f in FACET_NAMES}
    with pytest.raises(ValidationError, match="no tokens"):
        LabeledDocument(author_id="a", tokens=(), labels=labels)
    with pytest.raises(ValidationError, match="10 facets"):
        LabeledDocument(author_id="a", tokens=("x",), labels={"Anxiety": 1})


# --- labeling --------------------------------------------------------------


def test_assign_labels_strictly_above_mean():
    docs = [("a", ("x",)), ("b", ("x",)), ("c", ("x",))]
    scores = {"a": fs(3.0), "b": fs(4.0), "c": fs(5.0)}
    corpus = assign_labels(docs, scores)
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 0, 1]
        assert corpus.label_thresholds[facet] == 4.0
    assert corpus.degenerate == ()


def test_assign_labels_tie_at_mean_is_negative():
    docs = [("a", ("x",)), ("b", ("x",)), ("c", ("x",))]
    corpus = assign_labels(docs, {"a": fs(1.0), "b": fs(2.0), "c": fs(3.0)})
    assert corpus.labels("Anxiety").tolist() == [0, 0, 1]


def test_assign_labels_two_points():
    docs = [("a", ("x",)), ("b", ("x",))]
    corpus = assign_labels(docs, {"a": fs(1.0), "b": fs(5.0)})
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 1]


def test_assign_labels_identical_scores_degenerate(caplog):
    docs = [("a", ("x",)), ("b", ("x",))]
    with caplog.at_level(logging.WARNING):
        corpus = assign_labels(docs, {"a": fs(3.0), "b": fs(3.0)})
    assert corpus.degenerate == FACET_NAMES
    assert corpus.active_facets == ()
    for facet in FACET_NAMES:
        assert corpus.labels(facet).tolist() == [0, 0]
    assert any("single-class" in m for m in caplog.messages)


def test_assign_labels_per_facet_independence():
    docs = [("a", ("x",)), ("b", ("x",)), ("c", ("x",))]
    scores = {
        "a": fs(3.0, Anxiety=5.0),
        "b": fs(4.0, Anxiety=1.0),
        "c": fs(5.0, Anxiety=1.0),
    }
    corpus = assign_labels(docs, scores)
    assert corpus.labels("Anxiety").tolist() == [1, 0, 0]
    assert corpus.labels("Order").tolist() == [0, 0, 1]


def test_assign_labels_missing_scores_is_an_error():
    docs = [("a", ("x",)), ("b", ("x",))]
    with pytest.raises(ValidationError, match="missing facet scores.*b"):
        assign_labels(docs, {"a": fs(3.0)})
    with pytest.raises(ValidationError, match="no documents"):
        assign_labels([], {})


@given(
    st.lists(st.integers(0, 10), min_size=2, max_size=8),
    st.integers(1, 5),
    st.integers(-20, 20),
)
def test_assign_labels_invariant_under_positive_affine_maps(vals, m, t):
    docs = [(f"a{i}", ("x",)) for i in range(len(vals))]
    raw = {f"a{i}": fs(v) for i, v in enumerate(vals)}
    mapped = {f"a{i}": fs(m * v + t) for i, v in enumerate(vals)}
    la = assign_labels(docs, raw)
    lb = assign_labels(docs, mapped)
    for facet in FACET_NAMES:
        assert la.labels(facet).tolist() == lb.labels(facet).tolist()


def test_labels_rejects_unknown_facet():
    corpus = assign_labels([("a", ("x",)), ("b", ("x",))], {"a": fs(1.0), "b": fs(2.0)})
    with pytest.raises(ValidationError, match="unknown facet"):
        corpus.labels("Wit")


def test_active_facets_keeps_canonical_order():
    corpus = LabeledCorpus(
        documents=(
            LabeledDocument(author_id="a", tokens=("x",), labels={f: 0 for f in FACET_NAMES}),
        ),
        label_thresholds={f: 0.0 for f in FACET_NAMES},
        degenerate=("Activity", "Ideas"),
    )
    assert corpus.active_facets == tuple(
        f for f in FACET_NAMES if f not in ("Activity", "Ideas")
    )


# --- corpus file loading ---------------------------------------------------


def _write(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _line(aid="u1", posts=("hi",), items=None):
    import json

    return json.dumps(
        {"author_id": aid, "posts": list(posts), "bfi44": list(items or [3] * 44)}
    )


def test_load_corpus_round_trip(tmp_path):
    path = _write(tmp_path, [_line("u1"), "", _line("u2", posts=("a", "b"))])
    records = load_corpus(path)
    assert [r.author_id for r in records] == ["u1", "u2"]
    assert records[1].posts == ("a", "b")
    assert records[0].inventory.items == (3,) * 44


def test_load_corpus_reports_line_numbers(tmp_path):
    path = _write(tmp_path, [_line("u1"), "{not json"])
    with pytest.raises(ValidationError, match=r":2: invalid JSON"):
        load_corpus(path)


def test_load_corpus_rejects_non_objects(tmp_path):
    path = _write(tmp_path, ["[1, 2]"])
    with pytest.raises(ValidationError, match=r":1: expected a JSON object"):
        load_corpus(path)


def test_load_corpus_rejects_missing_or_empty_author(tmp_path):
    path = _write(tmp_path, ['{"posts": [], "bfi44": []}'])
    with pytest.raises(ValidationError, match="author_id"):
        load_corpus(path)
    path = _write(tmp_path, [_line(aid="")])
    with pytest.raises(ValidationError, match="author_id"):
        load_corpus(path)


def test_load_corpus_rejects_duplicate_author(tmp_path):
    path = _write(tmp_path, [_line("u1"), _line("u1")])
    with pytest.raises(ValidationError, match=r":2: duplicate author_id"):
        load_corpus(path)


def test_load_corpus_rejects_bad_posts(tmp_path):
    path = _write(tmp_path, ['{"author_id": "u1", "posts": "hi", "bfi44": []}'])
    with pytest.raises(ValidationError, match="posts"):
        load_corpus(path)
    path = _write(tmp_path, ['{"author_id": "u1", "posts": [1], "bfi44": []}'])
    with pytest.raises(ValidationError, match="posts"):
        load_corpus(path)


def test_load_corpus_rejects_bad_inventory(tmp_path):
    path = _write(tmp_path, [_line(items=[3] * 43)])
    with pytest.raises(ValidationError, match="44"):
        load_corpus(path)
    path = _write(tmp_path, [_line(items=[3] * 43 + ["3"])])
    with pytest.raises(ValidationError, match=r":1: .*not an integer"):
        load_corpus(path)


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_corpus(tmp_path / "absent.jsonl")


# --- normalization table loading -------------------------------------------


def test_load_normalization_table(tmp_path):
    path = tmp_path / "norm.yaml"
    path.write_text("rules:\n  - pattern: 'x+'\n    token: $X$\n", encoding="utf-8")
    t = load_normalization_table(path)
    assert normalize("xxx y", t) == "$X$ y"


def test_load_normalization_table_errors(tmp_path):
    path = tmp_path / "norm.yaml"
    path.write_text("nope: 1\n")
    with pytest.raises(ConfigError, match="rules"):
        load_normalization_table(path)
    path.write_text("rules:\n  - pattern: 'x'\n")
    with pytest.raises(ConfigError):
        load_normalization_table(path)
    path.write_text("rules:\n  - pattern: '('\n    token: $X$\n")
    with pytest.raises(ConfigError, match="pattern"):
        load_normalization_table(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("rule:\n  - pattern: 'x+'\n    token: $X$\n", "unknown table keys: rule; the table takes rules"),
        ("rules:\n  - pattern: 'x+'\n    token: $X$\n    flags: i\n",
         "rule 0: unknown rule keys: flags; a rule takes pattern, token"),
    ],
    ids=["table", "rule"],
)
def test_load_normalization_table_rejects_an_unknown_key(tmp_path, text, message):
    # A misspelt key would be ignored; the error lists the keys the part takes.
    path = tmp_path / "norm.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_normalization_table(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "rule, message",
    [
        ("pattern: 123\n    token: $X$", "pattern and token must be strings, got 123 and '$X$'"),
        ("pattern: 'x+'\n    token: 7", "pattern and token must be strings, got 'x+' and 7"),
    ],
    ids=["pattern", "token"],
)
def test_load_normalization_table_rejects_a_rule_that_is_not_text(tmp_path, rule, message):
    # YAML reads both as integers; a rule takes them as written, not as str() of them.
    path = tmp_path / "norm.yaml"
    path.write_text(f"rules:\n  - pattern: 'k+'\n    token: $K$\n  - {rule}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_normalization_table(path)
    assert str(err.value) == f"{path}: rule 1: {message}"


@pytest.mark.parametrize("pattern", [r"(?a)\bha\b", "a{99999999999}"])
def test_load_normalization_table_names_a_rule_the_engine_rejects(tmp_path, pattern):
    # (?a) clashes with the rules' UNICODE flag (ValueError), and the repeat
    # count overflows the engine (OverflowError); both are the file's fault.
    path = tmp_path / "norm.yaml"
    path.write_text(f"rules:\n  - pattern: 'k+'\n    token: $K$\n  - pattern: '{pattern}'\n    token: $X$\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=r"rule 1: invalid pattern") as err:
        load_normalization_table(path)
    assert repr(pattern) in str(err.value)

