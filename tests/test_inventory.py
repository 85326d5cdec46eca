from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from facetrec import inventory
from facetrec.errors import ConfigError, ValidationError
from facetrec.inventory import (
    FACET_NAMES,
    FACET_SIBLINGS,
    InventoryResponse,
    ScoringKey,
    default_scoring_key,
    load_scoring_key,
    score_inventories,
    score_inventory,
)
from facetrec.synth import SynthSpec, generate_records, make_latents, make_word_tables
from loop_oracles import score_inventory_loops

# Synthetic key: domain Dk owns items 8k..8k+7 (0-based), with the second
# item of each domain reverse-keyed. Facet pairs sit inside one domain each.
_DOMAINS = {f"D{k}": tuple((8 * k + j, j == 1) for j in range(8)) for k in range(5)}
_FACETS = {
    "Assertiveness": ((0, False), (1, True)),
    "Activity": ((2, False), (3, False)),
    "Altruism": ((8, False), (9, True)),
    "Compliance": ((10, False), (11, False)),
    "Order": ((16, False), (17, True)),
    "SelfDiscipline": ((18, False), (19, False)),
    "Anxiety": ((24, False), (25, True)),
    "Depression": ((26, False), (27, False)),
    "Aesthetics": ((32, False), (33, True)),
    "Ideas": ((34, False), (35, False)),
}


def make_key(scale_min=1, scale_max=5, domains=None, facets=None):
    return ScoringKey(
        scale_min=scale_min,
        scale_max=scale_max,
        domains=domains or dict(_DOMAINS),
        facets=facets or dict(_FACETS),
    )


def make_response(fill=3, **at):
    items = [fill] * 44
    for pos, val in at.items():
        items[int(pos.lstrip("i"))] = val
    return InventoryResponse(items=tuple(items))


def _reflected(r, key):
    # A reverse-keyed response r as scored: Assertiveness averages item 1,
    # here at scale_min, and item 2, reverse-keyed.
    score = score_inventory(make_response(fill=key.scale_min, i1=r), key).facets["Assertiveness"]
    return 2 * score - key.scale_min


def test_reverse_item_endpoints_on_1_to_5():
    key = make_key()
    assert [_reflected(r, key) for r in (5, 1, 2, 4, 3)] == [1, 5, 4, 2, 3]


def test_reverse_item_on_0_to_5_scale():
    key = make_key(scale_min=0, scale_max=5)
    assert [_reflected(r, key) for r in (2, 0, 5)] == [3, 5, 0]


@given(st.integers(1, 5))
def test_reverse_is_an_involution(r):
    key = make_key()
    assert _reflected(int(_reflected(r, key)), key) == r


def test_reverse_item_rejects_out_of_scale():
    key = make_key()
    with pytest.raises(ValidationError, match=r"^item 2: response 6 outside scale 1\.\.5$"):
        score_inventory(make_response(i1=6), key)
    with pytest.raises(ValidationError, match=r"^item 2: response 0 outside scale 1\.\.5$"):
        score_inventory(make_response(i1=0), key)


def test_score_inventory_means_and_reversal():
    key = make_key()
    # Assertiveness = items 1 and 2 (1-based), item 2 reversed.
    resp = make_response(i0=5, i1=1)
    sc = score_inventory(resp, key)
    assert sc.facets["Assertiveness"] == 5.0  # (5 + reverse(1)=5) / 2
    resp = make_response(i0=4, i1=2)
    sc = score_inventory(resp, key)
    assert sc.facets["Assertiveness"] == 4.0  # (4 + 4) / 2
    assert sc.facets["Activity"] == 3.0


def test_score_inventory_domain_scores():
    key = make_key()
    sc = score_inventory(make_response(fill=3), key)
    assert set(sc.domains) == set(_DOMAINS)
    assert all(v == 3.0 for v in sc.domains.values())
    assert all(v == 3.0 for v in sc.facets.values())


def test_score_depends_only_on_member_items():
    key = make_key()
    a = score_inventory(make_response(fill=2, i0=5, i1=1), key)
    b = score_inventory(make_response(fill=4, i0=5, i1=1), key)
    assert a.facets["Assertiveness"] == b.facets["Assertiveness"]


@given(st.integers(1, 4))
def test_score_monotone_in_member_items(r):
    key = make_key()
    lo = score_inventory(make_response(i2=r), key).facets["Activity"]
    hi = score_inventory(make_response(i2=r + 1), key).facets["Activity"]
    assert hi > lo
    # Reversed member: raising the raw response lowers the score.
    lo = score_inventory(make_response(i1=r), key).facets["Assertiveness"]
    hi = score_inventory(make_response(i1=r + 1), key).facets["Assertiveness"]
    assert hi < lo


def test_score_rejects_out_of_scale_response():
    key = make_key()
    with pytest.raises(ValidationError, match="outside"):
        score_inventory(make_response(i2=6), key)


def _bits(scores):
    """Every mean of a FacetScores list as exact float bits, in order."""
    return [
        [v.hex() for v in (*sc.domains.values(), *sc.facets.values())] + [*sc.domains, *sc.facets]
        for sc in scores
    ]


def _oracle_bits(items_rows, key):
    out = []
    for items in items_rows:
        domains, facets = score_inventory_loops(items, key)
        out.append([v.hex() for v in (*domains.values(), *facets.values())] + [*domains, *facets])
    return out


def test_matrix_scores_equal_the_loop_on_the_600_author_corpus():
    # The shape of the smote-nb benchmark corpus, scored with the shipped key.
    key = default_scoring_key()
    spec = SynthSpec(seed=7, authors=600, tokens_per_author=10, pos_rate=0.2)
    records = generate_records(spec, make_word_tables(spec.seed), make_latents(spec), key)
    responses = [r.inventory for r in records]
    matrix = score_inventories(responses, key)
    assert _bits(matrix) == _bits([score_inventory(resp, key) for resp in responses])
    assert _bits(matrix) == _oracle_bits([resp.items for resp in responses], key)


@pytest.mark.parametrize("scale", [(1, 5), (0, 5), (-3, 3), (1, 7)])
def test_matrix_scores_equal_the_loop_on_random_responses(scale):
    rng = np.random.default_rng(sum(scale) + 11)
    lo, hi = scale
    key = make_key(scale_min=lo, scale_max=hi)
    rows = [tuple(int(v) for v in rng.integers(lo, hi + 1, size=44)) for _ in range(300)]
    matrix = score_inventories([InventoryResponse(items=row) for row in rows], key)
    assert _bits(matrix) == _oracle_bits(rows, key)
    assert _bits(matrix) == _bits([score_inventory(InventoryResponse(items=row), key) for row in rows])
    assert score_inventories([], key) == []


def test_matrix_scores_name_the_first_out_of_scale_author_and_item():
    key = make_key()
    responses = [make_response(), make_response(i4=9), make_response(i1=0)]
    with pytest.raises(ValidationError, match=r"^author b: item 5: response 9 outside scale 1\.\.5$"):
        score_inventories(responses, key, ["a", "b", "c"])
    with pytest.raises(ValidationError, match=r"^item 5: response 9 outside"):
        score_inventories(responses, key)
    # Too large for an int64 matrix, which is then float or object: the same
    # check and the same message, with the response as given.
    for big in (2**63, 2**70, -(2**70)):
        with pytest.raises(ValidationError, match=rf"^author c: item 4: response {big} outside scale 1\.\.5$"):
            score_inventories([make_response(), make_response(), make_response(i3=big)], key, "abc")


def test_response_requires_44_integer_items():
    with pytest.raises(ValidationError, match="44"):
        InventoryResponse(items=tuple([3] * 43))
    with pytest.raises(ValidationError, match="not an integer"):
        InventoryResponse(items=tuple([3] * 43 + ["3"]))
    with pytest.raises(ValidationError, match="not an integer"):
        InventoryResponse(items=tuple([3] * 43 + [True]))


def test_key_rejects_bad_scale():
    with pytest.raises(ConfigError):
        make_key(scale_min=5, scale_max=5)
    with pytest.raises(ConfigError):
        make_key(scale_min=2, scale_max=1)
    with pytest.raises(ConfigError):
        make_key(scale_min="1")


def test_key_requires_exactly_5_domains():
    domains = dict(_DOMAINS)
    domains.pop("D4")
    with pytest.raises(ConfigError, match="5 domains"):
        make_key(domains=domains)


def test_key_requires_the_10_facet_names():
    facets = dict(_FACETS)
    items = facets.pop("Ideas")
    facets["Wit"] = items
    with pytest.raises(ConfigError, match="Ideas|Wit"):
        make_key(facets=facets)


def test_key_rejects_facet_outside_every_domain():
    facets = dict(_FACETS)
    facets["Activity"] = ((2, False), (9, False))  # items straddle D0 and D1
    with pytest.raises(ConfigError, match="not a subset"):
        make_key(facets=facets)


def test_key_rejects_reversed_flag_mismatch():
    facets = dict(_FACETS)
    facets["Activity"] = ((2, True), (3, False))  # item 3 is not reverse-keyed in D0
    with pytest.raises(ConfigError, match="not a subset"):
        make_key(facets=facets)


def test_key_rejects_siblings_in_different_domains():
    facets = dict(_FACETS)
    facets["Activity"] = ((12, False), (13, False))  # D1 items, sibling is in D0
    with pytest.raises(ConfigError, match="share a parent"):
        make_key(facets=facets)


def test_key_rejects_single_shared_parent_for_all_pairs():
    # Every facet drawn from D0, so all pairs resolve to one parent.
    facets = {name: ((0, False), (2, False)) for name in FACET_NAMES}
    with pytest.raises(ConfigError, match="5 distinct domains"):
        make_key(facets=facets)


def test_key_rejects_ambiguous_parent():
    # D1 also contains the D0 items used by the first sibling pair, so the
    # pair is a subset of two domains at once.
    domains = dict(_DOMAINS)
    domains["D1"] = _DOMAINS["D1"] + ((0, False), (1, True), (2, False), (3, False))
    with pytest.raises(ConfigError, match="ambiguous"):
        make_key(domains=domains, facets=dict(_FACETS))


def test_key_rejects_duplicate_and_out_of_range_items():
    domains = dict(_DOMAINS)
    domains["D0"] = ((0, False), (0, False)) + _DOMAINS["D0"][2:]
    with pytest.raises(ConfigError, match="twice"):
        make_key(domains=domains)
    domains = dict(_DOMAINS)
    domains["D0"] = ((44, False),) + _DOMAINS["D0"][1:]
    with pytest.raises(ConfigError, match="out of range"):
        make_key(domains=domains)


def test_key_rejects_empty_facet_entry():
    facets = dict(_FACETS)
    facets["Ideas"] = ()
    with pytest.raises(ConfigError, match="empty"):
        make_key(facets=facets)


def test_default_key_loads_and_covers_all_items():
    key = default_scoring_key()
    sizes = {d: len(items) for d, items in key.domains.items()}
    assert sizes == {
        "Extraversion": 8,
        "Agreeableness": 9,
        "Conscientiousness": 9,
        "Neuroticism": 8,
        "Openness": 10,
    }
    all_items = [idx for items in key.domains.values() for idx, _ in items]
    assert sorted(all_items) == list(range(44))
    assert set(key.facets) == set(FACET_NAMES)
    assert all(len(v) == 2 for v in key.facets.values())
    # Signed 1-based file format: -31 parses to 0-based index 30, reversed.
    assert key.facets["Assertiveness"] == ((25, False), (30, True))
    for a, b in FACET_SIBLINGS:
        assert key.facet_domains[a] == key.facet_domains[b]


def test_load_scoring_key_parses_signed_items(tmp_path):
    path = tmp_path / "key.yaml"
    path.write_text(
        """
scale_min: 1
scale_max: 5
domains:
  D0: [1, -2, 3, 4, 5, 6, 7, 8]
  D1: [9, -10, 11, 12, 13, 14, 15, 16]
  D2: [17, -18, 19, 20, 21, 22, 23, 24]
  D3: [25, -26, 27, 28, 29, 30, 31, 32]
  D4: [33, -34, 35, 36, 37, 38, 39, 40]
facets:
  Assertiveness: [1, -2]
  Activity: [3, 4]
  Altruism: [9, -10]
  Compliance: [11, 12]
  Order: [17, -18]
  SelfDiscipline: [19, 20]
  Anxiety: [25, -26]
  Depression: [27, 28]
  Aesthetics: [33, -34]
  Ideas: [35, 36]
""",
        encoding="utf-8",
    )
    key = load_scoring_key(path)
    assert key.facets["Assertiveness"] == ((0, False), (1, True))
    assert key.domains["D0"][1] == (1, True)


def test_load_scoring_key_rejects_an_unknown_field(tmp_path):
    # A misspelt field in an otherwise valid key would be ignored; the
    # error names the file and lists the fields a key takes.
    shipped = (Path(inventory.__file__).with_name("data") / "scoring_key.yaml").read_text(encoding="utf-8")
    path = tmp_path / "key.yaml"
    path.write_text(shipped + "scale_mid: 3\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_scoring_key(path)
    assert str(err.value) == (
        f"{path}: unknown scoring key fields: scale_mid; a scoring key takes scale_min, scale_max, domains, facets"
    )


def test_load_scoring_key_rejects_zero_item(tmp_path):
    path = tmp_path / "key.yaml"
    path.write_text("scale_min: 1\nscale_max: 5\ndomains:\n  D0: [0]\nfacets: {}\n")
    with pytest.raises(ConfigError, match="1-based"):
        load_scoring_key(path)


def test_load_scoring_key_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scoring_key(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("scale_min: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_scoring_key(bad)
    # The scale is two top-level fields, and the error names the file once
    # and the fields a key takes.
    nested = tmp_path / "nested.yaml"
    nested.write_text("scale: {min: 1, max: 5}\ndomains: {}\nfacets: {}\n")
    with pytest.raises(ConfigError) as err:
        load_scoring_key(nested)
    assert str(err.value) == (
        f"{nested}: unknown scoring key fields: scale; a scoring key takes scale_min, scale_max, domains, facets"
    )
    nested.write_text("scale_max: 5\ndomains: {}\nfacets: {}\n")
    with pytest.raises(ConfigError) as err:
        load_scoring_key(nested)
    assert str(err.value) == f"{nested}: a scoring key lacks 'scale_min'"


def test_facet_names_are_pinned():
    assert FACET_NAMES == (
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
    assert len(FACET_SIBLINGS) == 5


def test_scores_are_plain_floats():
    sc = score_inventory(make_response(fill=4), make_key())
    assert all(isinstance(v, float) for v in sc.facets.values())
    assert all(isinstance(v, float) for v in sc.domains.values())
    assert not any(isinstance(v, np.floating) for v in sc.facets.values())
