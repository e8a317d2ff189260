"""JSON (de)serialization for instances, families, and results.

Bundle strings are concatenated good labels ("abc"); the empty string is the
empty bundle.  Values may be JSON integers, "p/q" or decimal strings, or
floats (converted exactly through their shortest decimal representation).
Serialized values are integers when integral and "p/q" strings otherwise, so
output stays exact and byte-deterministic.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .core import (
    Allocation,
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    Profile,
    Valuation,
    Value,
    as_value,
    validate_valuation,
)
from .auction import AuctionOutcome
from .sigma import FamilyClassification


def fraction_repr(value: Value) -> int | str:
    if type(value) is int:
        return value
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInputError(message)


def parse_universe(doc: Any) -> GoodsUniverse:
    _require(isinstance(doc, dict), "top-level JSON must be an object")
    goods = doc.get("goods")
    _require(isinstance(goods, list) and all(isinstance(g, str) for g in goods),
             '"goods" must be a list of label strings')
    return GoodsUniverse(tuple(goods))


def _parse_valuation(universe: GoodsUniverse, doc: Any) -> Valuation:
    _require(isinstance(doc, dict), "valuation entries must be objects")
    kind = doc.get("kind")
    if kind == "dense":
        values = doc.get("values")
        _require(isinstance(values, dict), 'dense valuation needs a "values" object')
        table = [0] * len(universe.all_bundles())
        names = universe.bundle_names
        if names is not None and all(map(names.__contains__, values)):
            # Distinct canonical keys: each names its own bundle.
            for bundle_str, raw in values.items():
                table[names[bundle_str]] = raw if type(raw) is int else as_value(raw)
        else:
            keys: dict[int, str] = {}
            for bundle_str, raw in values.items():
                _require(isinstance(bundle_str, str), "bundle keys must be strings")
                mask = universe.parse_bundle(bundle_str)
                first = keys.setdefault(mask, bundle_str)
                if first != bundle_str:
                    raise InvalidInputError(f"dense keys {first!r} and {bundle_str!r} name one bundle")
                table[mask] = as_value(raw)
        v = Valuation(universe, table=tuple(table))
    elif kind == "atoms":
        atoms_doc = doc.get("atoms")
        _require(isinstance(atoms_doc, list), 'atom valuation needs an "atoms" list')
        parse = universe.parse_bundle
        atoms = []
        for entry in atoms_doc:
            if not (isinstance(entry, dict) and "bundle" in entry and "weight" in entry):
                raise InvalidInputError('atoms need "bundle" and "weight"')
            bundle_str = entry["bundle"]
            if not isinstance(bundle_str, str):
                raise InvalidInputError("atom bundles must be strings")
            weight = entry["weight"]
            atoms.append((parse(bundle_str), weight if type(weight) is int else as_value(weight)))
        v = Valuation(universe, atoms=tuple(sorted(atoms)))
    else:
        raise InvalidInputError(f'valuation "kind" must be "dense" or "atoms", got {kind!r}')
    report = validate_valuation(v)
    if not report.ok:
        witness = ""
        if report.witness is not None:
            b, c = report.witness
            witness = f" (witness {universe.format_bundle(b)!r} vs {universe.format_bundle(c)!r})"
        raise InvalidInputError(f"invalid valuation: {report.reason}{witness}")
    return v


def parse_instance(doc: Any) -> Profile:
    universe = parse_universe(doc)
    vals = doc.get("valuations")
    _require(isinstance(vals, list) and vals, '"valuations" must be a nonempty list')
    return Profile(universe, tuple(_parse_valuation(universe, v) for v in vals))


def parse_single_valuation(doc: Any) -> Valuation:
    universe = parse_universe(doc)
    _require("valuation" in doc, 'expected a "valuation" object')
    return _parse_valuation(universe, doc["valuation"])


def parse_family(doc: Any) -> BundleFamily:
    universe = parse_universe(doc)
    bundles = doc.get("bundles")
    _require(isinstance(bundles, list) and all(isinstance(b, str) for b in bundles),
             '"bundles" must be a list of bundle strings')
    return BundleFamily.of(universe, (universe.parse_bundle(b) for b in bundles))


def profile_payload(profile: Profile) -> dict:
    universe = profile.universe
    vals = []
    for v in profile.valuations:
        if v.atoms is not None:
            vals.append(
                {
                    "kind": "atoms",
                    "atoms": [
                        {"bundle": universe.format_bundle(mask), "weight": fraction_repr(w)}
                        for mask, w in v.atoms
                    ],
                }
            )
        else:
            vals.append(
                {
                    "kind": "dense",
                    "values": {
                        universe.format_bundle(mask): fraction_repr(v.table[mask])
                        for mask in universe.all_bundles()
                        if v.table[mask] != 0
                    },
                }
            )
    return {"goods": list(universe.labels), "valuations": vals}


def family_payload(family: BundleFamily) -> dict:
    universe = family.universe
    return {
        "goods": list(universe.labels),
        "bundles": [universe.format_bundle(b) for b in family.sorted_bundles],
    }


def valuation_payload(universe: GoodsUniverse, v: Valuation) -> dict:
    values = [
        {"bundle": universe.format_bundle(mask), "value": fraction_repr(v.value(mask))}
        for mask in universe.all_bundles()
    ]
    return {"goods": list(universe.labels), "values": values}


def allocation_payload(allocation: Allocation) -> dict:
    universe = allocation.universe
    payload = {
        str(i + 1): universe.format_bundle(mask)
        for i, mask in enumerate(allocation.buyer_bundles)
    }
    payload["seller"] = universe.format_bundle(allocation.seller_bundle)
    return payload


def outcome_payload(outcome: AuctionOutcome) -> dict:
    return {
        "allocation": allocation_payload(outcome.allocation),
        "payments": [fraction_repr(p) for p in outcome.payments],
        "surplus": fraction_repr(outcome.surplus),
        "revenue": fraction_repr(outcome.revenue),
        "utilities": [fraction_repr(u) for u in outcome.utilities],
    }


def classification_payload(universe: GoodsUniverse, cls: FamilyClassification) -> dict:
    witness = None
    if cls.missing_complement is not None:
        b = cls.missing_complement
        witness = {
            "kind": "missing_complement",
            "bundle": universe.format_bundle(b),
            "missing": universe.format_bundle(universe.full_mask ^ b),
        }
    elif cls.missing_union is not None:
        b, c = cls.missing_union
        witness = {
            "kind": "missing_disjoint_union",
            "bundles": [universe.format_bundle(b), universe.format_bundle(c)],
            "missing": universe.format_bundle(b | c),
        }
    return {
        "is_quasi_field": cls.is_quasi_field,
        "is_field": cls.is_field,
        "witness": witness,
    }


def flatten_csv(payload: Any) -> str:
    """Dotted-key/value rows mirroring the JSON fields, for spreadsheets."""
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, node: Any) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}.{key}" if prefix else str(key), node[key])
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(f"{prefix}[{i}]", item)
        else:
            if node is None:
                text = ""
            elif isinstance(node, bool):
                text = "true" if node else "false"
            else:
                text = str(node)
            rows.append((prefix, text))

    walk("", payload)
    lines = ["key,value"]
    for key, value in rows:
        if "," in value or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"
