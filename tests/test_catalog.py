import gc
import hashlib
import itertools
import json
import math

import pytest

from psolv.battery import run_catalog
from psolv.catalog import (
    DEFAULT_CATALOG,
    MAX_DEGREE,
    REPORT_SCHEMA,
    TOOL_VERSION,
    Report,
    _KINDS,
    build_group,
    canonical_recipe,
    emit_group,
    emit_report,
    parse_group,
    parse_recipe,
)
from psolv.errors import GroupParseError, InternalMismatch
from psolv.group import PermutationGroup
from psolv.series import exponent, is_p_group

from oracles import elements_of


EXPECTED_ORDERS = {
    "cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "cyclic:8": 8,
    "cyclic:9": 9, "cyclic:15": 15, "cyclic:16": 16, "cyclic:27": 27,
    "elementary_abelian:2:2": 4, "elementary_abelian:2:3": 8,
    "elementary_abelian:2:4": 16, "elementary_abelian:3:2": 9,
    "elementary_abelian:3:3": 27,
    "dihedral:3": 6, "dihedral:4": 8, "dihedral:6": 12, "dihedral:8": 16,
    "symmetric:3": 6, "symmetric:4": 24, "symmetric:5": 120,
    "symmetric:6": 720,
    "alternating:4": 12, "alternating:5": 60,
    "sl2:2": 6, "sl2:3": 24, "gl2:3": 48,
    "affine:5": 20, "affine:7": 42,
    "extraspecial:2:plus": 8, "extraspecial:2:minus": 8,
    "extraspecial:3:plus": 27, "extraspecial:3:minus": 27,
    "extraspecial:5:plus": 125,
    "wreath_cyclic:2:3": 24, "wreath_cyclic:2:4": 64,
    "wreath_cyclic:2:5": 160, "wreath_cyclic:3:3": 81,
    "product(cyclic:9,cyclic:3)": 27,
    "product(symmetric:3,cyclic:3)": 18,
    "product(extraspecial:3:plus,cyclic:2)": 54,
}


def test_catalog_ids_are_exactly_the_expected_ones():
    assert list(DEFAULT_CATALOG) == list(EXPECTED_ORDERS)


@pytest.mark.parametrize("gid", list(EXPECTED_ORDERS))
def test_catalog_orders(gid):
    G = build_group(gid)
    assert G.order() == EXPECTED_ORDERS[gid]


def test_closure_of_small_entries_matches():
    for gid in ("dihedral:4", "symmetric:4", "sl2:3",
                "extraspecial:2:minus", "wreath_cyclic:2:3"):
        G = build_group(gid)
        assert len(elements_of(G)) == G.order()


def test_extraspecial_shapes():
    plus = build_group("extraspecial:2:plus")
    minus = build_group("extraspecial:2:minus")
    # D8 has five involutions, Q8 exactly one
    assert sum(1 for x in plus.elements() if x.order() == 2) == 5
    assert sum(1 for x in minus.elements() if x.order() == 2) == 1
    for gid, p in (("extraspecial:3:plus", 3), ("extraspecial:3:minus", 3),
                   ("extraspecial:5:plus", 5)):
        G = build_group(gid)
        assert is_p_group(G, p)
    assert exponent(build_group("extraspecial:3:plus")) == 3
    assert exponent(build_group("extraspecial:3:minus")) == 9


def test_recipe_parsing_and_canonical_form():
    assert canonical_recipe(" dihedral:4 ") == "dihedral:4"
    assert canonical_recipe("product( cyclic:9 , cyclic:3 )") == \
        "product(cyclic:9,cyclic:3)"
    kind, args = parse_recipe("elementary_abelian:3:2")
    assert kind == "elementary_abelian"
    assert args == [3, 2]


def test_nested_product():
    G = build_group("product(product(cyclic:2,cyclic:3),cyclic:5)")
    assert G.order() == 30


def test_building_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        G = build_group("product(symmetric:3,cyclic:3)")
        assert G.order() == 18
        del G
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [
    "nosuch:4",
    "cyclic",
    "cyclic:x",
    "cyclic:0",
    "dihedral:2",
    "sl2:4",
    "symmetric:-1",
    "extraspecial:2:zero",
    "product(cyclic:2)",
    "product(cyclic:2,cyclic:3",
    "elementary_abelian:4:2",
    "affine:9",
])
def test_bad_recipes(bad):
    with pytest.raises(GroupParseError):
        build_group(bad)


@pytest.mark.parametrize("recipe, degree", [
    ("cyclic:100000", 100000),
    ("symmetric:257", 257),
    ("extraspecial:7:plus", 343),
    # a product counts the sum of its factors' degrees
    ("product(cyclic:200,dihedral:100)", 300),
    ("product(cyclic:2,product(cyclic:128,cyclic:127))", 257),
])
def test_recipe_degree_ceiling_before_building(recipe, degree, monkeypatch):
    import psolv.catalog

    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(psolv.catalog, "PermutationGroup", refuse)
    with pytest.raises(GroupParseError) as e:
        build_group(recipe)
    assert str(degree) in str(e.value)


def test_product_is_not_a_colon_kind():
    with pytest.raises(GroupParseError) as e:
        build_group("product:2")
    assert "unknown recipe kind 'product'" in str(e.value)


@pytest.mark.parametrize("recipe, order", [
    ("symmetric:64", math.factorial(64)),
    ("symmetric:9", math.factorial(9)),
    ("elementary_abelian:2:18", 2 ** 18),
    # a product counts the product of its factors' orders
    ("product(symmetric:8,product(symmetric:8,cyclic:2))", 2 * 40320 ** 2),
])
def test_recipe_order_ceiling_before_any_chain(recipe, order, monkeypatch):
    import psolv.group

    def refuse(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(psolv.group, "StabilizerChain", refuse)
    with pytest.raises(GroupParseError) as e:
        build_group(recipe)
    assert str(order) in str(e.value)


def test_wreath_product_has_no_degree_cap_of_its_own():
    G = build_group("wreath_cyclic:37:2")
    assert (G.degree, G.order()) == (74, 37 ** 2 * 2)


def _recipe_grid():
    values = {int: [str(i) for i in range(-1, 10)],
              str: ["plus", "minus", "x"]}
    for kind, record in _KINDS.items():
        for args in itertools.product(*(values[t] for t in record.arg_types)):
            yield ":".join((kind,) + args)


def test_recipe_grid_builds_the_table_or_refuses():
    # every kind over small arguments: a recipe either builds the degree and
    # order the table gives, or is refused with GroupParseError
    built = refused = 0
    for recipe in _recipe_grid():
        try:
            G = build_group(recipe)
        except GroupParseError:
            refused += 1
            continue
        kind, args = parse_recipe(recipe)
        record = _KINDS[kind]
        assert (G.degree, G.order()) == \
            (record.degree(*args), record.order(*args)), recipe
        built += 1
    assert (built, refused) == (98, 254)


@pytest.mark.parametrize("recipe, kind", [
    ("dihedral:4", "dihedral"),
    ("extraspecial:3:plus", "extraspecial"),
    ("product(cyclic:2,cyclic:3)", "product"),
    # a wrong factor is named, not only the product it spoils
    ("product(dihedral:4,cyclic:2)", "dihedral"),
])
def test_a_builder_of_the_wrong_order_is_caught(recipe, kind, monkeypatch):
    import psolv.catalog

    def trivial(degree):
        # the degree the table expects, but only one element
        return PermutationGroup(degree, ())

    if kind == "product":
        monkeypatch.setattr(psolv.catalog, "_product",
                            lambda A, B: trivial(A.degree + B.degree))
    else:
        record = _KINDS[kind]
        monkeypatch.setitem(_KINDS, kind, record._replace(
            build=lambda *a: trivial(record.degree(*a))))
    with pytest.raises(InternalMismatch) as e:
        build_group(recipe)
    assert str(e.value).startswith(kind)


def test_degree_ceiling_admits_the_catalog():
    assert build_group("extraspecial:5:plus").degree == 125
    assert build_group("product(cyclic:128,cyclic:128)").degree == MAX_DEGREE


def test_group_document_degree_ceiling():
    with pytest.raises(GroupParseError) as e:
        parse_group(json.dumps({"degree": 100000, "generators": []}))
    assert e.value.location == "degree"
    assert parse_group(json.dumps({"degree": MAX_DEGREE,
                                   "generators": []})).degree == MAX_DEGREE


def test_group_document_round_trip():
    G = build_group("symmetric:4")
    doc = emit_group(G)
    H = parse_group(doc)
    assert H.degree == G.degree
    assert H.order() == G.order()


@pytest.mark.parametrize("text, where", [
    ("[]", "$"),
    ("{}", "degree"),
    ('{"degree": 0, "generators": []}', "degree"),
    ('{"degree": 2, "generators": 3}', "generators"),
    ('{"degree": 2, "generators": [[0]]}', "generators[0]"),
    ('{"degree": 2, "generators": [[1, 1]]}', "generators[0]"),
])
def test_group_document_errors_carry_location(text, where):
    with pytest.raises(GroupParseError) as e:
        parse_group(text)
    assert e.value.location == where


def test_group_document_json_error_has_line():
    with pytest.raises(GroupParseError) as e:
        parse_group('{"degree": 2,\n "generators": }')
    assert e.value.line == 2


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_group_document_nested_too_deeply(depth):
    # how deep json.loads goes before it gives up depends on the Python
    # version; past that, the document is refused as nested too deeply
    text = ('{"degree": 2, "generators": ' + "[" * depth + "]" * depth
            + "}")
    with pytest.raises(GroupParseError) as e:
        parse_group(text)
    if depth == 100_000:
        assert "nested too deeply" in str(e.value)


def test_report_text_format():
    rep = Report("cyclic:4", "analyze",
                 {"statement": "analyze", "hypothesis_holds": True,
                  "conclusion_holds": None, "parameters": {"p": 2},
                  "witnesses": [], "notes": [], "report_only": True,
                  "is_finding": False})
    text = emit_report([rep], "text")
    assert "cyclic:4 | analyze: report" in text
    assert text.endswith("1 report(s), 0 finding(s)\n")


def test_report_structured_round_trip():
    rep = Report("cyclic:4", "analyze",
                 {"statement": "analyze", "hypothesis_holds": True,
                  "conclusion_holds": True, "parameters": {"p": 2},
                  "witnesses": [], "notes": [], "report_only": False,
                  "is_finding": False})
    blob = emit_report([rep], "structured")
    doc = json.loads(blob)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["reports"] == [{
        "tool_version": TOOL_VERSION,
        "group_id": "cyclic:4",
        "statement_id": "analyze",
        "verdict": rep.verdict,
        "timing": None,
    }]


def test_report_finding_is_flagged_in_text():
    rep = Report("cyclic:4", "prop3",
                 {"statement": "prop3", "hypothesis_holds": True,
                  "conclusion_holds": False, "parameters": {},
                  "witnesses": [], "notes": [], "report_only": False,
                  "is_finding": True})
    text = emit_report([rep], "text")
    assert "FINDING" in text
    assert "1 finding(s)" in text


def test_structured_output_is_deterministic():
    reports = [Report("cyclic:4", "analyze",
                      {"statement": "analyze", "hypothesis_holds": True,
                       "conclusion_holds": None,
                       "parameters": {"b": 2, "a": 1},
                       "witnesses": [], "notes": [], "report_only": True,
                       "is_finding": False})]
    assert emit_report(reports, "structured") == \
        emit_report(reports, "structured")


# sha256 of `catalog run --p <p> --seed 7 --format structured`; the reports
# are fixed, so an engine change that moves a byte of them is a bug
REPORT_SHA256 = {
    2: "ade4b6ee11aefd4173970020e26773c718c6e3a7cf57c89903e089337595ec03",
    3: "3a5151583aad5aa4513e5daa51cdc8cc679600cab8d23745abd2799db32f5022",
    5: "52c9b2ac3a59851bba674e806bad3c9a55b1302e98eca5f6d2f02345e68df7e6",
    # the smallest prime at which Hall-Higman's sharp bound l_p <= e holds
    7: "1c9fe36b781562fd2ad7d2dd01965d5de2e865543610d83455e03d371574db29",
}


@pytest.mark.parametrize("p", sorted(REPORT_SHA256))
def test_catalog_report_bytes_are_pinned(p):
    blob = emit_report(run_catalog(p, 7), "structured")
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_SHA256[p]


def test_run_catalog_reaches_each_group_through_the_module_global(
        monkeypatch):
    # per-group timing replaces psolv.battery.battery_for_group before the
    # run; a name bound at import would silently time the whole run instead
    import psolv.battery
    seen = []

    def recorded(G, gid, p, seed):
        seen.append((gid, G.order(), p, seed))
        return []

    monkeypatch.setattr(psolv.battery, "battery_for_group", recorded)
    assert run_catalog(3, 7) == []
    assert seen == [(gid, build_group(gid).order(), 3, 7)
                    for gid in DEFAULT_CATALOG]


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")
