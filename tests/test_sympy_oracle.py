"""psolv checked against sympy, on groups nobody picked by hand.

psolv finds each p-core by two routes of its own and cross-checks them.
The upper p-series oracle here shares no code with either: it reads cores
off normal closures computed by sympy.combinatorics, using only its
normal_closure, order and contains. Every x of G lies in the normal subgroup
<N, x>^G, so for N normal in G the K >= N with K/N = O_p(G/N) is the join
of the closures <N, x>^G whose index over N is a power of p, and O_p'(G/N)
is the same join with the index prime to p.

Centralizers, class sizes, the lower central series and normal closures
are compared with sympy's own. sympy has no normalizer, normal core or
normal-subgroup lattice, so those are compared with the brute-force sets
of tests/oracles.py.
Both comparisons run on the catalog groups of order at most 200 and on
derandomized hypothesis groups on at most 6 points.
"""

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import hypothesis
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.group import PermutationGroup, span
from psolv.perm import Permutation
from psolv.series import lower_central_series, sylow, upper_p_series
from psolv.subgroups import (centralizer, conjugacy_classes, normal_closure,
                             normal_core, normal_subgroups, normalizer)

from oracles import (elements_of, normal_subgroup_sets, normalizer_set,
                     sylow_core_set)


def _to_sympy(G):
    gens = [SympyPermutation(list(g.images)) for g in G.generators]
    identity = SympyPermutation(list(range(G.degree)))
    return SympyGroup(gens or [identity]), identity


def _elements(gens, identity):
    # breadth-first closure under right multiplication by the generators
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = {x * s for x in frontier for s in gens} - seen
        seen |= frontier
    return sorted(seen, key=lambda x: x.array_form)


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _coset_order(x, N):
    m, y = 1, x
    while not N.contains(y):
        m, y = m + 1, y * x
    return m


def _core_over(G, elements, N, p, want_p_group):
    # the coset xN lies in the closure, so its order must already have
    # the right type; only then is the closure computed
    K = N
    for x in elements:
        if K.contains(x):
            continue
        o = _coset_order(x, N)
        if (not _is_power_of(o, p)) if want_p_group else o % p == 0:
            continue
        closure = G.normal_closure(SympyGroup(list(N.generators) + [x]))
        index = closure.order() // N.order()
        if _is_power_of(index, p) if want_p_group else index % p:
            K = SympyGroup(list(K.generators) + list(closure.generators))
    return K


def oracle_upper_p_series_orders(G, p):
    """Orders of the upper p-series 1, O_p', O_p'p, ... under psolv's
    convention: it ends at G, or after a p'/p round that grows nothing."""
    S, identity = _to_sympy(G)
    elements = _elements(S.generators, identity)
    current = SympyGroup([identity])
    orders = [1]
    while True:
        grew = False
        for want_p_group in (False, True):
            nxt = _core_over(S, elements, current, p, want_p_group)
            grew = grew or nxt.order() > current.order()
            orders.append(nxt.order())
            current = nxt
            if current.order() == G.order():
                return orders
        if not grew:
            return orders


SMALL_CATALOG = [gid for gid in DEFAULT_CATALOG
                 if build_group(gid).order() <= 200]


@pytest.mark.parametrize("gid", SMALL_CATALOG)
def test_upper_p_series_of_catalog_groups_against_sympy(gid):
    G = build_group(gid)
    for p in (2, 3, 5):
        assert upper_p_series(G, p).orders() == \
            oracle_upper_p_series_orders(G, p), (gid, p)


@st.composite
def small_groups(draw):
    # up to three generators on at most 6 points; a generator that would
    # take the order past 200 is left out, so nothing is filtered away
    degree = draw(st.integers(1, 6))
    gens = []
    for images in draw(st.lists(st.permutations(range(degree)),
                                min_size=1, max_size=3)):
        candidate = gens + [Permutation(tuple(images))]
        if PermutationGroup(degree, candidate).order() <= 200:
            gens = candidate
    return PermutationGroup(degree, gens)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                     database=None)
@hypothesis.given(G=small_groups(), p=st.sampled_from((2, 3, 5)))
def test_upper_p_series_of_small_groups_against_sympy(G, p):
    assert upper_p_series(G, p).orders() == oracle_upper_p_series_orders(G, p)


def _distinct(orders):
    # psolv keeps a repeated nontrivial last term, sympy does not
    return [n for i, n in enumerate(orders) if i == 0 or n != orders[i - 1]]


def _subgroups_to_check(G):
    # Sylow subgroups, the cyclic subgroups of a few class representatives,
    # and the stabilizer of the first point
    els = G.elements()
    out = [sylow(G, p) for p in (2, 3, 5) if G.order() % p == 0]
    out += [span(G.degree, [els[cls[0]]]) for cls in conjugacy_classes(G)[1:4]]
    out.append(span(G.degree, [x for x in els if x.images[0] == 0]))
    return out


def _outside(G):
    # a transposition or a full cycle that does not lie in G, if there is one
    n = G.degree
    for images in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0]):
        if n > 1 and not G.contains(Permutation(tuple(images))):
            return PermutationGroup(n, [Permutation(tuple(images))])
    return None


def _check_against_references(G):
    S, _ = _to_sympy(G)
    assert sorted(len(c) for c in conjugacy_classes(G)) == \
        sorted(len(c) for c in S.conjugacy_classes())
    assert _distinct(lower_central_series(G).orders()) == \
        _distinct([H.order() for H in S.lower_central_series()])
    for cls in conjugacy_classes(G):
        x = G.elements()[cls[0]]
        assert normal_closure(G, PermutationGroup(G.degree, [x])).order() == \
            S.normal_closure(SympyPermutation(list(x.images))).order()
    els = elements_of(G)
    lattice = [frozenset(N.elements()) for N in normal_subgroups(G)]
    want = normal_subgroup_sets(els, G.degree)
    assert len(lattice) == len(want) and set(lattice) == set(want)
    subgroups = _subgroups_to_check(G)
    outside = _outside(G)
    for H in subgroups + ([outside] if outside is not None else []):
        assert centralizer(G, H).order() == S.centralizer(_to_sympy(H)[0]).order()
    for H in subgroups:
        h_els = elements_of(H)
        assert frozenset(normalizer(G, H).elements()) == \
            normalizer_set(G.degree, els, h_els)
        assert frozenset(normal_core(G, H).elements()) == \
            sylow_core_set(els, h_els)


@pytest.mark.parametrize("gid", SMALL_CATALOG)
def test_catalog_groups_against_references(gid):
    _check_against_references(build_group(gid))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                     database=None)
@hypothesis.given(G=small_groups())
def test_small_groups_against_references(G):
    _check_against_references(G)
