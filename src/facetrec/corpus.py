"""Corpus ingestion, normalization, tokenization and above-mean labeling.

One classification document per author: all posts are normalized,
concatenated and tokenized. Each document then receives ten independent
binary labels, one per facet, positive iff the author's facet score lies
strictly above the mean over all labeled authors (ties label negative).
"""

from __future__ import annotations

import heapq
import json
import logging
import re
import sys
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import yamlio
from .errors import ConfigError, ValidationError, config_fields, read_config
from .inventory import FACET_NAMES, N_ITEMS, FacetScores, InventoryResponse

log = logging.getLogger(__name__)

# Placeholder tokens like $LAUGH$ survive tokenization as single tokens.
_TOKEN_RE = re.compile(r"\$[A-Z][A-Z0-9_]*\$|\w+", re.UNICODE)
_PLACEHOLDER_SPLIT_RE = re.compile(r"(\$[A-Z][A-Z0-9_]*\$)")
_WORD_RE = re.compile(r"\w+")
# For ASCII text only: A-Z to a-z and every other character outside \w to a
# space, so that str.split() yields the lowercased \w+ runs.
_ASCII_WORDS = str.maketrans({c: c.lower() if c.isalnum() or c == "_" else " " for c in map(chr, range(128))})
# Normalization rules match case-insensitively by contract.
_RULE_FLAGS = re.IGNORECASE | re.UNICODE


@dataclass(frozen=True)
class AuthorRecord:
    """One corpus author: identifier, raw posts and inventory responses
    (None when the corpus was read without them)."""

    author_id: str
    posts: tuple[str, ...]
    inventory: InventoryResponse | None

    def __post_init__(self):
        object.__setattr__(self, "posts", tuple(self.posts))
        if not isinstance(self.author_id, str) or not self.author_id:
            raise ValidationError(f"author_id must be a non-empty string, got {self.author_id!r}")


@dataclass(frozen=True)
class NormRule:
    pattern: str
    token: str
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.pattern, str) or not isinstance(self.token, str):
            raise ConfigError(f"pattern and token must be strings, got {self.pattern!r} and {self.token!r}")
        try:
            compiled = re.compile(self.pattern, _RULE_FLAGS)
        except (re.error, ValueError, OverflowError) as e:
            # ValueError: an inline flag the rules' flags exclude, such as (?a);
            # OverflowError: a repeat count past the engine's limit.
            raise ConfigError(f"invalid pattern {self.pattern!r}: {e}") from e
        # A rule that can match empty would match at every position; its
        # parse tree's minimum width says whether it can.
        if _regex_parser().parse(self.pattern, _RULE_FLAGS).getwidth()[0] == 0:
            raise ConfigError(f"pattern {self.pattern!r} can match the empty string")
        if tokenize(self.token) != [self.token]:
            raise ConfigError(
                f"replacement {self.token!r} would not survive tokenization as a single token"
            )
        object.__setattr__(self, "regex", compiled)


@dataclass(frozen=True)
class NormalizationTable:
    """Ordered substitution rules applied before tokenization."""

    rules: tuple[NormRule, ...] = ()
    # Whether every match of every rule is one whole \w+ run, so
    # that a text normalizes word by word (see _is_word_level).
    word_level: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "word_level", all(map(_is_word_level, self.rules)))


# Code points of the ASCII word characters [0-9A-Za-z_].
_ASCII_WORD_CODES = frozenset(map(ord, "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"))


def _regex_parser():
    """The module that parses ``re`` patterns into trees."""
    try:
        from re import _parser as parser  # Python 3.11 on
    except ImportError:
        import sre_parse as parser
    return parser


def _is_word_level(rule: NormRule) -> bool:
    """Whether every match of ``rule`` is one whole ``\\w+`` run.

    That holds when the rule is compiled with the table's own flags, its
    parse tree begins and ends with ``\\b``, holds nothing but what
    ``_consumed`` allows, and consumes only characters of classes within
    ASCII ``[0-9A-Za-z_]``. Such a rule consumes word characters alone
    (case folding adds ``K``, ``ſ``, ``İ`` and ``ı``, which are word
    characters too), at least one of them (``NormRule`` rejects a pattern
    that can match empty), between two word boundaries, so each of its
    matches is one whole ``\\w+`` run, and whether it matches a run depends
    on that run alone. A text under a table of such rules (an empty table
    included) normalizes run by run, each run as it would on its own: to
    the earliest rule's token among the rules matching it, or left as it
    is.
    """
    if rule.regex.flags != _RULE_FLAGS:
        return False
    p = _regex_parser()
    tree = p.parse(rule.pattern, _RULE_FLAGS)
    ranges = []
    return (
        all(op is p.AT and av is p.AT_BOUNDARY for op, av in (tree[0], tree[-1]))
        and _consumed(tree, p, ranges)
        and all(hi < 128 and _ASCII_WORD_CODES.issuperset(range(lo, hi + 1)) for lo, hi in ranges)
    )


def _consumed(items, p, ranges: list[tuple[int, int]]) -> bool:
    """Add to ``ranges`` the (first, last) code points of every literal and
    class range the parsed sequence can consume. False when it holds
    anything but literals, classes of literals and ranges, branches, groups
    without flags, repeats, ``\\b`` and ``\\B``."""
    for op, av in items:
        if op is p.AT:
            if av not in (p.AT_BOUNDARY, p.AT_NON_BOUNDARY):
                return False
        elif op is p.LITERAL:
            ranges.append((av, av))
        elif op is p.IN:
            for item, arg in av:
                if item is p.LITERAL:
                    ranges.append((arg, arg))
                elif item is p.RANGE:
                    ranges.append(arg)
                else:
                    return False
        elif op is p.BRANCH:
            if not all(_consumed(alt, p, ranges) for alt in av[1]):
                return False
        elif op is p.SUBPATTERN:
            if av[1] or av[2] or not _consumed(av[3], p, ranges):
                return False
        elif op in (p.MAX_REPEAT, p.MIN_REPEAT, getattr(p, "POSSESSIVE_REPEAT", None)):
            if not _consumed(av[2], p, ranges):
                return False
        elif op is not getattr(p, "ATOMIC_GROUP", None) or not _consumed(av, p, ranges):
            return False
    return True


@dataclass(frozen=True)
class LabeledDocument:
    author_id: str
    tokens: tuple[str, ...]
    labels: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValidationError(f"author {self.author_id}: document has no tokens")
        if set(self.labels) != set(FACET_NAMES):
            raise ValidationError(f"author {self.author_id}: labels must cover the 10 facets")


@dataclass(frozen=True)
class LabeledCorpus:
    """Labeled documents plus the per-facet thresholds used for labeling.

    ``degenerate`` lists facets whose labels came out single-class; they are
    excluded from training and evaluation downstream.
    """

    documents: tuple[LabeledDocument, ...]
    label_thresholds: dict[str, float]
    degenerate: tuple[str, ...] = ()

    @property
    def active_facets(self) -> tuple[str, ...]:
        return tuple(f for f in FACET_NAMES if f not in self.degenerate)

    def labels(self, facet: str) -> np.ndarray:
        """Binary label vector for one facet, in document order."""
        if facet not in FACET_NAMES:
            raise ValidationError(f"unknown facet {facet!r}")
        return np.array([doc.labels[facet] for doc in self.documents], dtype=np.int64)


def normalize(text: str, table: NormalizationTable) -> str:
    """Apply substitution rules in one left-to-right pass.

    Each step replaces the rule match that starts earliest after the last
    replacement; among the rules matching there, the longest of their
    matches (each the one its own regex finds there) wins, then the earlier
    rule. Replacements are inserted verbatim and never rescanned. No rule
    matches the empty string: ``NormRule`` rejects a pattern that can.
    ``_replacements`` finds the steps, searching a rule again only when a
    replacement ends past the match it holds.
    """
    parts = []
    pos = 0
    for start, end, token in _replacements(text, table):
        parts += (text[pos:start], token)
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


def _replacements(text: str, table: NormalizationTable) -> list[tuple[int, int, str]]:
    """(start, end, token) of each replacement ``normalize`` makes, in order.

    A heap holds each rule's first match at or after the current position
    as (start, -end, rule index), so its top is the earliest match, then
    the longest, then the earlier rule's. A rule is searched again only
    when a replacement ends past its match's start, and leaves the heap
    when it has no match left. The match a rule finds at a start does not
    depend on where its search began (``pos`` moves neither ``^``, ``\\A``,
    ``\\b`` nor a lookbehind), so a kept match is the one a search from the
    current position would find.
    """
    hits = []
    rules = table.rules
    heap = [(m.start(), -m.end(), i) for i, rule in enumerate(rules) if (m := rule.regex.search(text))]
    heapq.heapify(heap)
    while heap:
        start, neg_end, i = heap[0]
        pos = -neg_end
        hits.append((start, pos, rules[i].token))
        while heap and heap[0][0] < pos:
            i = heap[0][2]
            m = rules[i].regex.search(text, pos)
            if m is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (m.start(), -m.end(), i))
    return hits


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; $NAME$ placeholders kept intact.

    ASCII text between placeholders goes through one translate table and
    ``str.split``, which keeps word boundaries. Other text is lowercased
    token by token, because ``str.lower`` can change its length
    (``"İ".lower()`` has two characters).
    """
    if not text.isascii():
        return [tok if tok.startswith("$") else tok.lower() for tok in _TOKEN_RE.findall(text)]
    out = []
    for i, piece in enumerate(_PLACEHOLDER_SPLIT_RE.split(text)):
        if i % 2:
            out.append(piece)
        else:
            out += piece.translate(_ASCII_WORDS).split()
    return out


def build_documents(
    records, table: NormalizationTable
) -> list[tuple[str, tuple[str, ...]]]:
    """One (author_id, tokens) document per author.

    Posts are normalized, joined with single spaces in order, then tokenized.
    Authors with no surviving tokens are excluded with a warning. Every
    token is interned (``sys.intern``), so equal tokens share one ``str``
    object and a document holds an 8-byte reference per occurrence, not a
    new string of ~64 bytes.

    Under a word-level table (``NormalizationTable.word_level``) a text
    without a ``$`` normalizes and tokenizes word by word: each ``\\w+``
    run becomes the token of the earliest rule that matches it, or else its
    lowercase form, and no placeholder can form across a run's edge. One
    memo from word to token serves the whole corpus. An author's words are
    the runs of the joined posts, lowercased by the ASCII translate table
    in ASCII text and as they stand in other text; the words the memo
    lacks are labelled by one ``_replacements`` pass over them joined by
    spaces. Authors whose posts hold a ``$``, and every author under any
    other table, take the normalize-join-tokenize path.
    """
    docs = []
    memo = {}  # word -> its token, under a word-level table

    def label(words, lowercase):
        # Each match is one whole run of the text, and an unmatched word of
        # ASCII text (``lowercase``) is its own token.
        text = " ".join(words)
        memo.update(zip(words, map(sys.intern, words if lowercase else map(str.lower, words))))
        memo.update((text[start:end], sys.intern(token)) for start, end, token in _replacements(text, table))

    for rec in records:
        text = " ".join(rec.posts)
        if not table.word_level or "$" in text:
            tokens = tuple(map(sys.intern, tokenize(" ".join(normalize(post, table) for post in rec.posts))))
        else:
            ascii_text = text.isascii()
            words = text.translate(_ASCII_WORDS).split() if ascii_text else _WORD_RE.findall(text)
            try:
                tokens = _gather(memo, words)
            except KeyError:
                label(set(words).difference(memo), ascii_text)
                tokens = _gather(memo, words)
        if not tokens:
            log.warning("author %s: no tokens after normalization, excluded", rec.author_id)
            continue
        docs.append((rec.author_id, tokens))
    return docs


def _gather(mapping: dict, keys: list) -> tuple:
    """``tuple(map(mapping.__getitem__, keys))``, in one ``itemgetter`` call
    when there are two keys or more."""
    return itemgetter(*keys)(mapping) if len(keys) > 1 else tuple(map(mapping.__getitem__, keys))


def assign_labels(docs, scores: dict[str, FacetScores]) -> LabeledCorpus:
    """Label every document per facet by the strict above-mean rule.

    The threshold for facet f is the arithmetic mean of f-scores over the
    documents' authors. Facets whose labels come out single-class are
    flagged degenerate.
    """
    missing = [aid for aid, _ in docs if aid not in scores]
    if missing:
        raise ValidationError("missing facet scores for authors: " + ", ".join(missing))
    if not docs:
        raise ValidationError("no documents to label")

    thresholds = {}
    for facet in FACET_NAMES:
        vals = np.array([scores[aid].facets[facet] for aid, _ in docs], dtype=np.float64)
        thresholds[facet] = float(np.mean(vals))

    documents = []
    for aid, tokens in docs:
        labels = {
            facet: int(scores[aid].facets[facet] > thresholds[facet]) for facet in FACET_NAMES
        }
        documents.append(LabeledDocument(author_id=aid, tokens=tokens, labels=labels))

    degenerate = []
    for facet in FACET_NAMES:
        positives = sum(doc.labels[facet] for doc in documents)
        if positives == 0 or positives == len(documents):
            degenerate.append(facet)
            log.warning("facet %s: single-class labels, excluded from evaluation", facet)

    return LabeledCorpus(
        documents=tuple(documents),
        label_thresholds=thresholds,
        degenerate=tuple(degenerate),
    )


def _field(obj, name, where):
    if name not in obj:
        raise ValidationError(f"{where}: missing field {name!r}")
    return obj[name]


def load_corpus(path, inventories: bool = True) -> list[AuthorRecord]:
    """Read line-delimited author records (JSON object per line, UTF-8).

    Required fields: author_id (string), posts (array of strings),
    bfi44 (array of 44 integers), unless ``inventories`` is False: then
    bfi44 is not read, and every record's inventory is None. Blank lines
    are skipped. Malformed lines raise with their line number; duplicate
    author ids are a hard error.
    """
    records = []
    seen = set()
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read corpus: {e}") from e
    with fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{ln}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{where}: invalid JSON: {e.msg}") from e
            if not isinstance(obj, dict):
                raise ValidationError(f"{where}: expected a JSON object")
            aid = _field(obj, "author_id", where)
            if not isinstance(aid, str) or not aid:
                raise ValidationError(f"{where}: author_id must be a non-empty string")
            if aid in seen:
                raise ValidationError(f"{where}: duplicate author_id {aid!r}")
            seen.add(aid)
            posts = _field(obj, "posts", where)
            if not isinstance(posts, list) or not all(map(isinstance, posts, repeat(str))):
                raise ValidationError(f"{where}: posts must be an array of strings")
            inv = None
            if inventories:
                bfi = _field(obj, "bfi44", where)
                if not isinstance(bfi, list) or len(bfi) != N_ITEMS:
                    raise ValidationError(f"{where}: bfi44 must be an array of {N_ITEMS} integers")
                try:
                    inv = InventoryResponse(items=tuple(bfi))
                except ValidationError as e:
                    raise ValidationError(f"{where}: {e}") from e
            records.append(AuthorRecord(author_id=aid, posts=tuple(posts), inventory=inv))
    return records


def _table_from_mapping(data, origin: str) -> NormalizationTable:
    # The table of a parsed mapping; an error names ``origin`` and the rule.
    where, rules = origin, []
    try:
        raw = read_config(data, config_fields(NormalizationTable, required=True), "table keys", "the table")["rules"]
        if not isinstance(raw, list):
            raise ConfigError(f"rules must be a list, got {raw!r}")
        for i, entry in enumerate(raw):
            where = f"{origin}: rule {i}"
            rules.append(NormRule(**read_config(entry, config_fields(NormRule), "rule keys", "a rule")))
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from e
    return NormalizationTable(rules=tuple(rules))


def load_normalization_table(path) -> NormalizationTable:
    """Load an ordered substitution table (YAML: rules of pattern/token)."""
    return _table_from_mapping(yamlio.load_file(path, "normalization table"), str(path))


def default_normalization_table() -> NormalizationTable:
    """The table shipped with the package (laugh variants to $LAUGH$)."""
    text = (Path(__file__).with_name("data") / "normalization.yaml").read_text("utf-8")
    return _table_from_mapping(yamlio.load(text), "builtin normalization table")
