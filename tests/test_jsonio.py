import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vcbundle import GoodsUniverse, InvalidInputError, run_vc
from vcbundle.jsonio import (
    dumps,
    flatten_csv,
    fraction_repr,
    outcome_payload,
    parse_family,
    parse_instance,
    parse_single_valuation,
    profile_payload,
)


def test_parse_instance_dense_and_atoms():
    doc = {
        "goods": ["a", "b"],
        "valuations": [
            {"kind": "dense", "values": {"a": 1, "ab": 2}},
            {"kind": "atoms", "atoms": [{"bundle": "b", "weight": "1/2"}]},
        ],
    }
    profile = parse_instance(doc)
    assert profile.n == 2
    dense, atoms = profile.valuations
    assert dense.value(0b01) == 1
    assert dense.value(0b10) == 0  # omitted bundles default to zero
    assert dense.value(0b11) == 2
    assert atoms.value(0b10) == Fraction(1, 2)


def test_exact_value_parsing():
    doc = {
        "goods": ["a"],
        "valuations": [{"kind": "dense", "values": {"a": 0.1}}],
    }
    profile = parse_instance(doc)
    assert profile.valuations[0].value(1) == Fraction(1, 10)


def test_invalid_dense_table_rejected():
    doc = {
        "goods": ["a", "b"],
        "valuations": [{"kind": "dense", "values": {"a": 1}}],
    }
    # v(a)=1 but v(ab) omitted (0) violates free disposal
    with pytest.raises(InvalidInputError, match="monotonicity"):
        parse_instance(doc)


def test_duplicate_dense_keys_rejected():
    doc = {
        "goods": ["a", "b"],
        "valuations": [{"kind": "dense", "values": {"ab": 2, "a": 1, "ba": 3}}],
    }
    # "ab" and "ba" name one bundle; neither value may silently win
    with pytest.raises(InvalidInputError, match="'ab' and 'ba'"):
        parse_instance(doc)


_LABEL_SETS = [("a", "b", "c"), ("b", "a", "c", "d"), ("a", "b", "ab"), ("x", "yz", "y")]
_RAW_VALUES = st.sampled_from([0, 1, 2, 3, "1/2", "3", 1.5, True, "x", -1, None])


@given(data=st.data())
@settings(max_examples=300)
def test_dense_keys_from_the_name_table_parse_as_the_per_key_loop(data):
    # Keys in drawn label orders ("ba"), so pairs like "ab"/"ba" name one
    # bundle, plus unknown labels, over one-character, multi-character and
    # ambiguous ("a", "b", "ab") label sets.  The table, or the error
    # message, equals the parse with the name table switched off.
    labels = data.draw(st.sampled_from(_LABEL_SETS))
    values = {}
    if data.draw(st.booleans()):
        for size in range(len(labels) + 1):
            for combo in itertools.combinations(labels, size):
                values["".join(data.draw(st.permutations(combo)))] = size
    extra = st.lists(st.sampled_from(labels + ("q",)), max_size=4).map("".join)
    for key in data.draw(st.lists(extra, max_size=4)):
        values[key] = data.draw(_RAW_VALUES)
    doc = {"goods": list(labels), "valuations": [{"kind": "dense", "values": values}]}

    def parse():
        try:
            return [(type(x), x) for x in parse_instance(doc).valuations[0].table]
        except InvalidInputError as exc:
            return str(exc)

    with mock.patch.object(GoodsUniverse, "bundle_names", None):
        expected = parse()
    assert parse() == expected


def _atoms(*atoms):
    return {"goods": ["a", "b"], "valuations": [{"kind": "atoms", "atoms": list(atoms)}]}


@pytest.mark.parametrize("doc, message", [
    ({"goods": [], "valuations": []}, "universe needs at least one good"),
    ({"goods": ["a", "a"], "valuations": []}, "good labels must be distinct"),
    ({"goods": ["a", ""], "valuations": []}, "good labels must be nonempty strings"),
    ({"goods": ["a", 2], "valuations": []}, '"goods" must be a list of label strings'),
    ({"goods": ["a"], "valuations": [["a"]]}, "valuation entries must be objects"),
    ({"goods": ["a"], "valuations": [{"kind": "xor"}]},
     'valuation "kind" must be "dense" or "atoms", got \'xor\''),
    ({"goods": ["a"], "valuations": [{"kind": "atoms", "atoms": {}}]}, 'atom valuation needs an "atoms" list'),
    (_atoms(["a", 1]), 'atoms need "bundle" and "weight"'),
    (_atoms({"weight": 1}), 'atoms need "bundle" and "weight"'),
    (_atoms({"bundle": "a"}), 'atoms need "bundle" and "weight"'),
    (_atoms({"bundle": 1, "weight": 1}), "atom bundles must be strings"),
    (_atoms({"bundle": "a", "weight": True}), "boolean is not a value"),
    (_atoms({"bundle": "a", "weight": 1}, {"bundle": "b", "weight": -1}), "atom weights must be nonnegative"),
    (_atoms({"bundle": "ac", "weight": 1}), "cannot parse bundle string 'ac'"),
    (_atoms({"bundle": "aba", "weight": 1}), "bundle string 'aba' names 'a' twice"),
])
def test_front_end_error_messages(doc, message):
    with pytest.raises(InvalidInputError) as exc:
        parse_instance(doc)
    assert str(exc.value) == message


def test_unknown_kind_rejected():
    doc = {"goods": ["a"], "valuations": [{"kind": "xor", "bids": []}]}
    with pytest.raises(InvalidInputError):
        parse_instance(doc)


def test_oversized_dense_instance_hits_budget_before_allocating():
    from vcbundle import BudgetExceededError

    doc = {
        "goods": [f"g{i}" for i in range(30)],
        "valuations": [{"kind": "dense", "values": {}}],
    }
    with pytest.raises(BudgetExceededError):
        parse_instance(doc)


def test_family_roundtrip():
    doc = {"goods": ["a", "b", "c", "d"], "bundles": ["", "a", "bcd", "abcd"]}
    family = parse_family(doc)
    assert len(family) == 4
    assert family.universe.parse_bundle("bcd") in family.bundles


def test_single_valuation_document():
    doc = {
        "goods": ["a", "b"],
        "valuation": {"kind": "atoms", "atoms": [{"bundle": "ab", "weight": 3}]},
    }
    v = parse_single_valuation(doc)
    assert v.value(0b11) == 3


def test_profile_payload_roundtrips():
    doc = {
        "goods": ["a", "b", "c"],
        "valuations": [
            {"kind": "atoms", "atoms": [{"bundle": "ab", "weight": 2}]},
            {"kind": "dense", "values": {"c": 1, "ac": 1, "bc": 1, "abc": 1}},
        ],
    }
    profile = parse_instance(doc)
    again = parse_instance(profile_payload(profile))
    for v1, v2 in zip(profile.valuations, again.valuations):
        for mask in profile.universe.all_bundles():
            assert v1.value(mask) == v2.value(mask)


def test_outcome_payload_shape():
    doc = {
        "goods": ["a", "b"],
        "valuations": [
            {"kind": "atoms", "atoms": [{"bundle": "a", "weight": 1}]},
            {"kind": "atoms", "atoms": [{"bundle": "b", "weight": 1}]},
        ],
    }
    payload = outcome_payload(run_vc(parse_instance(doc)))
    assert payload["allocation"] == {"1": "a", "2": "b", "seller": ""}
    assert payload["surplus"] == 2 and payload["revenue"] == 0


def test_fraction_repr():
    assert fraction_repr(Fraction(4, 2)) == 2
    assert fraction_repr(7) == 7
    assert fraction_repr(Fraction(7, 3)) == "7/3"


def test_dumps_is_stable():
    assert dumps({"b": 1, "a": [1, 2]}) == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_flatten_csv_escapes():
    out = flatten_csv({"x": 'a,"b"', "y": [True, None]})
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    assert 'x,"a,""b"""' in lines
    assert "y[0],true" in lines
    assert "y[1]," in lines
