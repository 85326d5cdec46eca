"""Corpus ingestion, normalization, tokenization and above-mean labeling.

One classification document per author: all posts are normalized,
concatenated and tokenized. Each document then receives ten independent
binary labels, one per facet, positive iff the author's facet score lies
strictly above the mean over all labeled authors (ties label negative).
"""

from __future__ import annotations

import importlib.resources
import json
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from . import yamlio
from .errors import ConfigError, ValidationError
from .inventory import FACET_NAMES, N_ITEMS, FacetScores, InventoryResponse

log = logging.getLogger(__name__)

# Placeholder tokens like $LAUGH$ survive tokenization as single tokens.
_TOKEN_RE = re.compile(r"\$[A-Z][A-Z0-9_]*\$|\w+", re.UNICODE)
_PLACEHOLDER_SPLIT_RE = re.compile(r"(\$[A-Z][A-Z0-9_]*\$)")
# For ASCII text only: A-Z to a-z and every other character outside \w to a
# space, so that str.split() yields the lowercased \w+ runs.
_ASCII_WORDS = str.maketrans({c: c.lower() if c.isalnum() or c == "_" else " " for c in map(chr, range(128))})
# Normalization rules match case-insensitively by contract.
_RULE_FLAGS = re.IGNORECASE | re.UNICODE


@dataclass(frozen=True)
class AuthorRecord:
    """One corpus author: identifier, raw posts and inventory responses."""

    author_id: str
    posts: tuple[str, ...]
    inventory: InventoryResponse

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
        try:
            compiled = re.compile(self.pattern, _RULE_FLAGS)
        except re.error as e:
            raise ConfigError(f"invalid pattern {self.pattern!r}: {e}") from e
        if tokenize(self.token) != [self.token]:
            raise ConfigError(
                f"replacement {self.token!r} would not survive tokenization as a single token"
            )
        object.__setattr__(self, "regex", compiled)


@dataclass(frozen=True)
class NormalizationTable:
    """Ordered substitution rules applied before tokenization."""

    rules: tuple[NormRule, ...] = ()
    # One regex over all rules; a text it cannot match is left as it is.
    # None when the rules cannot be joined (see _union).
    union: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "union", _union(self.rules))


def _union(rules) -> re.Pattern | None:
    """``(?:r0)|(?:r1)|...`` with the rules' flags, or None if not exact.

    It matches at a position exactly when some rule does, so its search
    finds where the first rule match begins, and fails exactly when every
    rule's search fails. Numbered groups after the first rule would shift,
    which breaks a rule's own backreferences. A global inline flag such as
    ``(?x)`` would reach the other rules (Python 3.10) or fail to compile
    inside a group (3.11 on; also ``(?i)``, which leaves the flags as they
    are). Such tables get no union.
    """
    if (
        not rules
        or any(rule.regex.groups for rule in rules[1:])
        or any(rule.regex.flags != _RULE_FLAGS for rule in rules)
    ):
        return None
    try:
        return re.compile("|".join(f"(?:{rule.pattern})" for rule in rules), _RULE_FLAGS)
    except re.error:
        return None


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
    """Apply substitution rules: leftmost-longest, single pass, in rule order.

    At each position the earliest match across all rules wins; ties go to
    the longer match, then to the earlier rule. Replacements are inserted
    verbatim and never rescanned.

    With a union (see ``_union``) each step searches it once. No rule
    matches before the union's match does, so the step replaces the
    longest non-empty rule match at that start, and a text the union
    cannot match is returned as it is. Only where every rule matching
    there matches empty, and for tables without a union, does a step
    search each rule.
    """
    if not table.rules or not text:
        return text
    union = table.union
    parts = []
    pos = 0
    n = len(text)
    while pos < n:
        hit = None
        if union is not None:
            m = union.search(text, pos)
            if m is None:
                break
            hit = _longest_at(text, m.start(), table.rules)
        if hit is None:
            hit = _leftmost_longest(text, pos, table.rules)
            if hit is None:
                break
        start, end, token = hit
        parts += (text[pos:start], token)
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


def _longest_at(text: str, start: int, rules) -> tuple[int, int, str] | None:
    """The longest non-empty rule match at ``start``, the earlier rule on ties."""
    end, token = start, None
    for rule in rules:
        m = rule.regex.match(text, start)
        if m is not None and m.end() > end:
            end, token = m.end(), rule.token
    return None if token is None else (start, end, token)


def _leftmost_longest(text: str, pos: int, rules) -> tuple[int, int, str] | None:
    """Among each rule's first match from ``pos``, skipping empty ones, the
    earliest, then the longest, then the earlier rule's."""
    best = None
    best_rule = None
    for ridx, rule in enumerate(rules):
        m = rule.regex.search(text, pos)
        if m is None or m.end() == m.start():
            continue
        cand = (m.start(), -(m.end() - m.start()), ridx)
        if best is None or cand < best:
            best = cand
            best_rule = (m.start(), m.end(), rule.token)
    return best_rule


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
    Authors with no surviving tokens are excluded with a warning. Equal
    tokens share one ``str`` object across the corpus, so a document holds
    an 8-byte reference per occurrence, not a new string of ~64 bytes.
    """
    docs = []
    shared = {}
    for rec in records:
        joined = " ".join(normalize(post, table) for post in rec.posts)
        tokens = tokenize(joined)
        if not tokens:
            log.warning("author %s: no tokens after normalization, excluded", rec.author_id)
            continue
        docs.append((rec.author_id, tuple(map(shared.setdefault, tokens, tokens))))
    return docs


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


def load_corpus(path) -> list[AuthorRecord]:
    """Read line-delimited author records (JSON object per line, UTF-8).

    Required fields: author_id (string), posts (array of strings),
    bfi44 (array of 44 integers). Blank lines are skipped. Malformed lines
    raise with their line number; duplicate author ids are a hard error.
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
            if not isinstance(posts, list) or not all(isinstance(p, str) for p in posts):
                raise ValidationError(f"{where}: posts must be an array of strings")
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
    if not isinstance(data, dict) or "rules" not in data:
        raise ConfigError(f"{origin}: expected a mapping with a 'rules' list")
    raw = data["rules"]
    if not isinstance(raw, list):
        raise ConfigError(f"{origin}: 'rules' must be a list")
    rules = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "pattern" not in entry or "token" not in entry:
            raise ConfigError(f"{origin}: rule {i}: expected fields 'pattern' and 'token'")
        try:
            rules.append(NormRule(pattern=str(entry["pattern"]), token=str(entry["token"])))
        except ConfigError as e:
            raise ConfigError(f"{origin}: rule {i}: {e}") from e
    return NormalizationTable(rules=tuple(rules))


def load_normalization_table(path) -> NormalizationTable:
    """Load an ordered substitution table (YAML: rules of pattern/token)."""
    return _table_from_mapping(yamlio.load_file(path, "normalization table"), str(path))


def default_normalization_table() -> NormalizationTable:
    """The table shipped with the package (laugh variants to $LAUGH$)."""
    text = importlib.resources.files("facetrec").joinpath("data/normalization.yaml").read_text("utf-8")
    return _table_from_mapping(yamlio.load(text), "builtin normalization table")
