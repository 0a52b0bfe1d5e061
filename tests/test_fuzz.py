"""Malformed input never escapes the command line as an exception.

Group documents, recipe text and subgroup tokens are drawn from small
grammars, then cut and mangled, and run through psolv.cli.main in-process
on `analyze` and `pf verify`. Every run must end with exit code 0 or 1:
an exception that escapes, or a finding (2) on these tiny groups, fails.
The draws are derandomized, and recipes are bounded by order so nothing
large gets built. Drawn groups also check that the conjugate-product
refusal in the class-closure cores changes no core, that the cached
power subgroups keep the generators of the product-built route, and that
the hoisted conjugators of the normality test and the normal closure
keep the answers of conjugation one pair at a time, and that a subgroup
built from its rows gets span's generators. Drawn generator lists check
that a chain shared between groups is the chain a fresh build gives.
Drawn F_p matrices check the packed rows of psolv.linear against FpMatrix
arithmetic. Drawn Sylow subgroups check that the PF search table, read
from the normal-subgroup lattice's own masks, is the table built from each
subgroup's element rows.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import contextlib
import io
import json
import os
import tempfile
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

import psolv.cli as cli
import psolv.series
from psolv.catalog import _KINDS, _read, parse_recipe
from psolv.errors import GroupParseError
from psolv.filtrations import _search_table
from psolv.group import (PermutationGroup, StabilizerChain, _grow, _subgroup_of_rows, span,
                         trivial_group)
from psolv.linear import FpMatrix, _Lanes
from psolv.perm import Permutation
from psolv.subgroups import (_conjugation_action, _member, _normalizes, _positions, commutator,
                             iterated_commutator, normal_closure, normal_subgroups,
                             power_subgroup, same_subgroup)

from oracles import power_by_products, search_table_by_rows

# the largest group a drawn recipe may name; S5 and the order-125 groups fit
ORDER_LIMIT = 200

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("psolv: error:"), err.getvalue()
    return code


def _nested_product(depth):
    recipe = "cyclic:1"
    for _ in range(depth):
        recipe = f"product({recipe},cyclic:1)"
    return recipe


def _mangled(text, draw):
    # keep the text (half the time), cut it short, or splice in a few
    # grammar characters
    how = draw(st.sampled_from(("keep", "keep", "cut", "splice")))
    if how == "keep" or not text:
        return text
    i = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:i]
    return text[:i] + draw(st.text('[]{}(),:;"-0123456789 ', max_size=4)) + text[i:]


# --- group documents -------------------------------------------------------

_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-2, 7),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.text("ab1", max_size=3))


@st.composite
def group_documents(draw):
    # a valid document, then at most one fault in its structure, then
    # possibly a fault in its text
    degree = draw(st.integers(1, 6))
    perms = st.permutations(range(degree)).map(list)
    doc = {"degree": degree, "generators": draw(st.lists(perms, max_size=3))}
    fault = draw(st.sampled_from((None, None, "degree", "generators",
                                  "generator", "drop", "top")))
    if fault in ("degree", "generators"):
        doc[fault] = draw(_json_scalar)
    elif fault == "generator":
        doc["generators"].append(draw(st.one_of(
            st.lists(st.integers(-1, 7), max_size=7), _json_scalar)))
    elif fault == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "top":
        doc = draw(st.one_of(st.lists(_json_scalar, max_size=2), _json_scalar))
    return _mangled(json.dumps(doc), draw)


def _write(path, content):
    if isinstance(content, str):
        content = content.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(content)


@SETTINGS
@given(content=st.one_of(group_documents(), st.binary(max_size=48)),
       p=st.sampled_from(("2", "3", "5", "4")))
# hypothesis runs a test with about 2,000 free stack frames, so the nesting
# in these examples goes well past that
@example(content='{"degree": 2, "generators": ' + "[" * 100_000 + "]" * 100_000
         + "}", p="2")
@example(content=b"\xff\xfe{", p="2")
def test_group_documents_exit_0_or_1(content, p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        _write(path, content)
        _main("analyze", f"--file={path}", f"--p={p}")
        _main("pf", "verify", f"--file={path}", f"--p={p}", "--ell=1",
              "--term=full")


# --- recipe text -----------------------------------------------------------

_ARGS = {int: st.one_of(st.integers(1, 7), st.integers(-1, 9)),
         str: st.sampled_from(("plus", "minus", "x"))}


def _order(node):
    # the order the table gives, 1 when the arguments are not its kind's
    try:
        return _read(node, "order")
    except (KeyError, TypeError, ValueError):
        return 1


@st.composite
def _leaf(draw):
    kind = draw(st.sampled_from(sorted(_KINDS) + ["bogus"]))
    types = _KINDS[kind].arg_types if kind in _KINDS else (int,)
    if not draw(st.integers(0, 5)):  # the wrong number of arguments
        types = types + (int,) if draw(st.booleans()) else types[1:]
    args = [draw(_ARGS[t]) for t in types]
    node = (kind, args)
    if kind in _KINDS and len(args) == len(_KINDS[kind].arg_types) \
            and _order(node) > ORDER_LIMIT:
        node = ("cyclic", [draw(st.integers(1, 9))])
    return node


@st.composite
def _tree(draw, depth):
    if depth == 0 or draw(st.booleans()):
        return draw(_leaf())
    a, b = draw(_tree(depth - 1)), draw(_tree(depth - 1))
    # a product past the limit keeps only its first factor
    if _order(a) * _order(b) > ORDER_LIMIT:
        return a
    return ("product", [a, b])


def _render(node):
    kind, args = node
    if kind == "product":
        return f"product({_render(args[0])},{_render(args[1])})"
    return ":".join([kind] + [str(a) for a in args])


@st.composite
def recipes(draw):
    return _mangled(_render(draw(_tree(3))), draw)


def _small(recipe):
    # a recipe that parses must name a small group, so nothing large runs
    try:
        node = parse_recipe(recipe)
    except GroupParseError:
        return True
    return _order(node) <= ORDER_LIMIT


@SETTINGS
@given(recipe=st.one_of(recipes(), st.text("product(),:cyli 0123456789",
                                           max_size=16)),
       p=st.sampled_from(("2", "3", "5", "1")))
@example(recipe=_nested_product(2100), p="2")
@example(recipe=_nested_product(256), p="2")
def test_recipes_exit_0_or_1(recipe, p):
    hypothesis.assume(_small(recipe))
    _main("analyze", f"--recipe={recipe}", f"--p={p}")
    _main("pf", "verify", f"--recipe={recipe}", f"--p={p}", "--ell=1",
          "--term=sylow")


# --- subgroup tokens -------------------------------------------------------

_index = st.integers(-2, 6).map(str)
_cycles = st.lists(st.lists(st.integers(0, 9).map(str), max_size=4)
                   .map(lambda xs: "(" + " ".join(xs) + ")"),
                   max_size=3).map("".join)

tokens = st.one_of(
    st.sampled_from(("trivial", "full", "V4", "sylow", "op", "opprime")),
    st.builds("gamma:{}".format, _index),
    st.builds("ekr:{}:{}".format, _index, _index),
    st.builds("ekr:{}".format, _index),
    st.builds("gens:{}".format, st.lists(_cycles, max_size=3).map(";".join)),
    st.text("gamekrsn:;()0123 -", max_size=10),
)


@SETTINGS
@given(recipe=st.sampled_from(("dihedral:4", "symmetric:4", "cyclic:8",
                               "extraspecial:2:plus", "symmetric:3")),
       terms=st.lists(tokens, min_size=1, max_size=3),
       ell=st.integers(-1, 2))
def test_subgroup_tokens_exit_0_or_1(recipe, terms, ell):
    _main("pf", "verify", f"--recipe={recipe}", "--p=2", f"--ell={ell}",
          *(f"--term={t}" for t in terms))


# --- class-closure cores ----------------------------------------------------

@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return PermutationGroup(degree, [Permutation(g) for g in gens])


@SETTINGS
@given(G=permutation_groups(), p=st.sampled_from((2, 3)))
def test_conjugate_products_change_no_core(G, p):
    # over 1 and over O_p'(G), both kinds of core have the same generators
    # whether or not closures are refused by a conjugate product
    def cores():
        return [psolv.series._core_by_class_closures(G, p, want_p_group, N).generators
                for N in (trivial_group(G.degree), psolv.series.o_pprime(G, p))
                for want_p_group in (False, True)]

    with_products = cores()
    real = psolv.series._refused_by_a_conjugate_product
    psolv.series._refused_by_a_conjugate_product = lambda *args: False
    try:
        assert cores() == with_products
    finally:
        psolv.series._refused_by_a_conjugate_product = real


# --- power subgroups --------------------------------------------------------

@SETTINGS
@given(G=permutation_groups(), q=st.sampled_from((2, 3, 4, 6, 9, 12)))
def test_power_subgroups_keep_the_product_route(G, q):
    # the route before the power kernel: every element raised by __mul__,
    # the distinct powers sorted by their images and sifted in that order
    powers = sorted(set(power_by_products(x, q) for x in G.elements()),
                    key=lambda x: x.images)
    want = _grow(trivial_group(G.degree), powers)
    got = power_subgroup(G, q)
    assert got.generators == want.generators
    assert power_subgroup(G, q) is got
    assert power_subgroup(G, 1) is G


# --- subgroups from rows ---------------------------------------------------

@st.composite
def subgroup_pairs(draw):
    # G, and H spanned from up to three drawn elements of G
    G = draw(permutation_groups())
    els = G.elements()
    picks = draw(st.lists(st.integers(0, len(els) - 1), max_size=3))
    return G, span(G.degree, [els[i] for i in picks])


@SETTINGS
@given(pair=subgroup_pairs())
def test_subgroups_from_rows_keep_the_span(pair):
    # the rows of a subgroup, in any order and with repeats, give the
    # generators and the order of span over its elements: what lets the
    # stabilizers, the normal core and intersect skip span
    G, H = pair
    want = span(G.degree, H.elements())
    rows = H.element_rows()
    listed = list(rows)
    for given_rows in (rows, listed[::-1] + listed):
        got = _subgroup_of_rows(G.degree, given_rows)
        assert got.generators == want.generators
        assert got.order() == want.order() == len(rows)


# --- shared chains -----------------------------------------------------------

@st.composite
def generator_lists(draw):
    # a degree and a list of image lists, with repeats and the identity
    degree = draw(st.integers(1, 7))
    pool = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    pool.append(list(range(degree)))
    return degree, draw(st.lists(st.sampled_from(pool), max_size=5))


@SETTINGS
@given(case=generator_lists())
def test_a_shared_chain_is_a_fresh_build(case):
    # a second group on the same list gets the first group's chain, and
    # that chain has the base, the transversals and the element table of a
    # chain built afresh
    degree, images = case
    first = PermutationGroup(degree, [Permutation(x) for x in images])
    rows = first.element_rows()
    second = PermutationGroup(degree, [Permutation(x) for x in images])
    assert second.chain is first.chain and second.element_rows() is rows
    fresh = StabilizerChain(degree, second.generators)
    assert second.chain.base == fresh.base
    assert len(second.chain.levels) == len(fresh.levels)
    for lv, want in zip(second.chain.levels, fresh.levels):
        assert sorted(lv.transversal.items()) == sorted(want.transversal.items())
    assert rows.table == fresh.element_table()


# --- conjugation kernels ----------------------------------------------------

@st.composite
def group_pairs(draw):
    # G, and N generated by elements of G or by any permutations of its
    # points, so N is sometimes normal in G and sometimes not even inside
    G = draw(permutation_groups())
    els = G.elements()
    gens = draw(st.lists(st.one_of(
        st.permutations(range(G.degree)),
        st.integers(0, len(els) - 1).map(lambda i: list(els[i].images))),
        max_size=3))
    return G, PermutationGroup(G.degree, [Permutation(x) for x in gens])


@SETTINGS
@given(G=permutation_groups())
def test_conjugation_action_is_a_scan_for_each_conjugate(G):
    # each entry of the action, looked up through the packed base-image
    # keys, is the position a scan of the elements finds for the conjugate
    # made by Permutation.conjugate
    els = G.elements()
    scan = {x.images: i for i, x in enumerate(els)}
    maps = _conjugation_action(G)
    assert len(maps) == len(G.generators)
    for g, action in zip(G.generators, maps):
        assert action == [scan[x.conjugate(g).images] for x in els]
    for i, x in enumerate(els):
        assert list(_positions(G, [x.images])) == [i]


@SETTINGS
@given(G=permutation_groups(), p=st.sampled_from((2, 3)), ell=st.integers(0, 2))
def test_search_table_reads_the_lattice_masks(G, p, ell):
    # the table from the lattice's masks, with [N, P], the folded
    # commutator and N^p placed by _member, is the table of masks built
    # from each subgroup's rows; and _member finds each group's own member
    P = psolv.series.sylow(G, p)
    normals = normal_subgroups(P)
    assert _search_table(P, p, ell) == search_table_by_rows(P, p, ell, normals)
    for N in normals:
        folded = N if ell == 0 else iterated_commutator(N, P, ell)
        for H in (N, commutator(N, P), folded, power_subgroup(N, p)):
            assert same_subgroup(normals[_member(P, H)], H)


def _normalizes_by_conjugate(H, N):
    return all(N.contains(n.conjugate(h)) for h in H.generators for n in N.generators)


def _normal_closure_by_conjugate(G, S):
    # the closure with every conjugate made by Permutation.conjugate
    gens = [x for x in S.generators if not x.is_identity()]
    K = PermutationGroup(G.degree, gens)
    queue = deque(gens)
    while queue:
        x = queue.popleft()
        for g in G.generators:
            y = x.conjugate(g)
            grown = _grow(K, [y])
            if grown is not K:
                K = grown
                queue.append(y)
    return K


@SETTINGS
@given(pair=group_pairs())
def test_hoisted_conjugators_keep_the_conjugate_route(pair):
    G, N = pair
    assert _normalizes(G, N) == _normalizes_by_conjugate(G, N)
    assert _normalizes(N, G) == _normalizes_by_conjugate(N, G)
    assert (normal_closure(G, N).generators
            == _normal_closure_by_conjugate(G, N).generators)


# --- packed F_p rows -------------------------------------------------------

# every (p, d) with p^d <= 500, the largest kernel LINEAR_GROUP_LIMIT admits
PACKED_SHAPES = [(p, d) for p in (2, 3, 5, 7) for d in range(9) if p ** d <= 500]


@st.composite
def fp_cases(draw):
    # (p, A, B, v): two d x d matrices and a row vector over F_p
    p, d = draw(st.sampled_from(PACKED_SHAPES))
    entries = st.integers(0, p - 1)
    square = st.lists(st.lists(entries, min_size=d, max_size=d).map(tuple),
                      min_size=d, max_size=d).map(tuple)
    v = draw(st.lists(entries, min_size=d, max_size=d).map(tuple))
    return p, draw(square), draw(square), v


def _with_full_matrices(test):
    # every entry p - 1, the largest lane sums, at every shape
    for p, d in PACKED_SHAPES:
        full = ((p - 1,) * d,) * d
        test = example(case=(p, full, full, (p - 1,) * d))(test)
    return test


@SETTINGS
@_with_full_matrices
@given(case=fp_cases())
def test_packed_rows_match_fp_matrices(case):
    p, a, b, v = case
    A, B = FpMatrix(p, a), FpMatrix(p, b)
    lanes = _Lanes(p, len(v))
    pA, pB = (tuple(lanes.multiples(lanes.pack(row)) for row in M)
              for M in (a, b))
    assert tuple(map(lanes.unpack, lanes.product(pA, pB))) == (A * B).rows
    assert lanes.unpack(lanes.times(lanes.pack(v), pB)) == B.row_apply(v)
    assert (lanes.unpack_matrix(lanes.minus_identity(pA))
            == A - FpMatrix.identity(p, len(v)))
