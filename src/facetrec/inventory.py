"""BFI-44 inventory scoring against a configurable key.

A scoring key maps five personality domains and ten fixed facets onto the 44
inventory items; ``score_inventories`` scores every response in one
integer product, reverse-keyed items reflected about the scale midpoint.
Facet names and the sibling structure (which facet pairs share a domain)
are fixed; item assignments, scale bounds and domain names are
configuration and come from the key file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import yamlio
from .errors import ConfigError, ValidationError, config_fields, is_int, read_config

N_ITEMS = 44

FACET_NAMES = (
    "Assertiveness",
    "Activity",
    "Altruism",
    "Compliance",
    "Order",
    "SelfDiscipline",
    "Anxiety",
    "Depression",
    "Aesthetics",
    "Ideas",
)

# Facet pairs that must share a parent domain.
FACET_SIBLINGS = (
    ("Assertiveness", "Activity"),
    ("Altruism", "Compliance"),
    ("Order", "SelfDiscipline"),
    ("Anxiety", "Depression"),
    ("Aesthetics", "Ideas"),
)

# (item_index, reversed); item_index is 0-based internally.
Item = tuple[int, bool]


def _validate_entry(owner: str, entry: tuple[Item, ...]) -> None:
    if not entry:
        raise ConfigError(f"{owner}: empty item list")
    seen = set()
    for idx, rev in entry:
        if not is_int(idx):
            raise ConfigError(f"{owner}: item index {idx!r} is not an integer")
        if not 0 <= idx < N_ITEMS:
            raise ConfigError(f"{owner}: item {idx + 1} out of range 1..{N_ITEMS}")
        if idx in seen:
            raise ConfigError(f"{owner}: item {idx + 1} listed twice")
        seen.add(idx)
        if not isinstance(rev, bool):
            raise ConfigError(f"{owner}: reversed flag for item {idx + 1} is not a boolean")


@dataclass(frozen=True)
class ScoringKey:
    """Validated mapping of domains and facets to inventory items.

    ``domains`` has exactly five named entries; ``facets`` covers the ten
    fixed facet names, two per domain, each facet's items a subset of its
    parent domain's. ``facet_domains`` (derived) names each facet's parent.
    """

    scale_min: int
    scale_max: int
    domains: dict[str, tuple[Item, ...]]
    facets: dict[str, tuple[Item, ...]]
    facet_domains: dict[str, str] = field(init=False, repr=False)

    def __post_init__(self):
        for name, val in (("scale_min", self.scale_min), ("scale_max", self.scale_max)):
            if not is_int(val):
                raise ConfigError(f"{name} must be an integer, got {val!r}")
        if self.scale_min >= self.scale_max:
            raise ConfigError(
                f"scale_min must be below scale_max, got {self.scale_min}..{self.scale_max}"
            )
        if len(self.domains) != 5:
            raise ConfigError(f"expected exactly 5 domains, got {len(self.domains)}")
        for dom in self.domains:
            if not isinstance(dom, str) or not dom:
                raise ConfigError(f"domain name {dom!r} is not a non-empty string")
        if set(self.facets) != set(FACET_NAMES):
            missing = sorted(set(FACET_NAMES) - set(self.facets))
            extra = sorted(map(str, set(self.facets) - set(FACET_NAMES)))
            parts = [f"{what} facets: {', '.join(names)}" for what, names in (("missing", missing), ("unknown", extra))
                     if names]
            raise ConfigError("; ".join(parts))
        for dom, entry in self.domains.items():
            _validate_entry(f"domain {dom}", entry)
        for fac, entry in self.facets.items():
            _validate_entry(f"facet {fac}", entry)

        # Resolve each facet's parent domain by item-set containment; the
        # reversed flags must match as well.
        candidates: dict[str, set[str]] = {}
        for fac in FACET_NAMES:
            fset = set(self.facets[fac])
            cands = {dom for dom, entry in self.domains.items() if fset <= set(entry)}
            if not cands:
                raise ConfigError(f"facet {fac}: items are not a subset of any domain")
            candidates[fac] = cands
        parents: dict[str, str] = {}
        for a, b in FACET_SIBLINGS:
            common = candidates[a] & candidates[b]
            if not common:
                raise ConfigError(f"facets {a} and {b} must share a parent domain")
            if len(common) > 1:
                raise ConfigError(
                    f"facets {a} and {b}: parent domain ambiguous ({', '.join(sorted(common))})"
                )
            dom = next(iter(common))
            parents[a] = dom
            parents[b] = dom
        if len(set(parents.values())) != 5:
            raise ConfigError("facet pairs must map onto 5 distinct domains")
        object.__setattr__(self, "facet_domains", parents)


@dataclass(frozen=True)
class InventoryResponse:
    """One author's 44 Likert responses, in item order."""

    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) != N_ITEMS:
            raise ValidationError(
                f"inventory must have exactly {N_ITEMS} items, got {len(self.items)}"
            )
        if set(map(type, self.items)) <= {int}:  # the common case, checked at C speed
            return
        for pos, val in enumerate(self.items, start=1):
            if not is_int(val):
                raise ValidationError(f"item {pos}: response {val!r} is not an integer")


@dataclass(frozen=True)
class FacetScores:
    """Mean-scored domains and facets for one inventory."""

    domains: dict[str, float]
    facets: dict[str, float]


def score_inventory(resp: InventoryResponse, key: ScoringKey) -> FacetScores:
    """Mean of reverse-corrected member items, per domain and per facet."""
    return score_inventories([resp], key)[0]


def score_inventories(responses, key: ScoringKey, authors=None) -> list[FacetScores]:
    """``score_inventory`` of each response, from one responses x items matrix.

    The range is checked once over the matrix. Each domain or facet total
    is an integer product with +1 / -1 item weights, plus scale_min +
    scale_max per reversed item, so that a reversed response r counts as
    scale_min + scale_max - r. Its mean is that total over the item count:
    the same float as a running float sum, because every partial sum is an
    integer below 2**53. The first out-of-scale response, in row then item
    order, raises with its 1-based item number, prefixed with ``author
    <id>:`` when ``authors`` names the rows.
    """
    R = np.array([resp.items for resp in responses]).reshape(len(responses), N_ITEMS)
    lo, hi = key.scale_min, key.scale_max
    # Whatever dtype R took: an integer past int64 makes it float or object.
    bad = np.argwhere((R < lo) | (R > hi))
    if len(bad):
        row, pos = bad[0]
        where = f"author {authors[row]}: " if authors is not None else ""
        raise ValidationError(f"{where}item {pos + 1}: response {responses[row].items[pos]} outside scale {lo}..{hi}")
    entries = [*key.domains.values(), *(key.facets[fac] for fac in FACET_NAMES)]
    weights = np.zeros((N_ITEMS, len(entries)), dtype=np.int64)
    reversed_total = np.zeros(len(entries), dtype=np.int64)
    for j, entry in enumerate(entries):
        for idx, rev in entry:
            weights[idx, j] = -1 if rev else 1
            reversed_total[j] += (lo + hi) * rev
    means = ((R @ weights + reversed_total) / [len(entry) for entry in entries]).tolist()
    n_domains = len(key.domains)
    return [
        FacetScores(
            domains=dict(zip(key.domains, row[:n_domains])),
            facets=dict(zip(FACET_NAMES, row[n_domains:])),
        )
        for row in means
    ]


def _parse_signed_items(kind: str, raw) -> dict[str, tuple[Item, ...]]:
    # File format: each name's list of signed 1-based item numbers, a
    # negative number marking a reversed item.
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind}s must be a mapping, got {raw!r}")
    for name, entry in raw.items():
        bad = [v for v in entry if not is_int(v) or v == 0] if isinstance(entry, list) else [entry]
        if bad:
            raise ConfigError(f"{kind} {name}: {bad[0]!r} is not a signed item number (numbering is 1-based)")
    return {name: tuple((abs(v) - 1, v < 0) for v in entry) for name, entry in raw.items()}


def _key_from_mapping(data) -> ScoringKey:
    # The key of a parsed YAML mapping; load_scoring_key names the file in an error.
    data = read_config(data, config_fields(ScoringKey), "scoring key fields", "a scoring key")
    return ScoringKey(**{**data, "domains": _parse_signed_items("domain", data["domains"]),
                         "facets": _parse_signed_items("facet", data["facets"])})


def load_scoring_key(path) -> ScoringKey:
    """Load and validate a scoring key file (YAML, signed 1-based items)."""
    data = yamlio.load_file(path, "scoring key")
    try:
        return _key_from_mapping(data)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def default_scoring_key() -> ScoringKey:
    """The key shipped with the package (1-5 scale, editable copy in data/)."""
    text = (Path(__file__).with_name("data") / "scoring_key.yaml").read_text("utf-8")
    return _key_from_mapping(yamlio.load(text))
