"""The upper p-series checked against an oracle built on sympy.

psolv finds each p-core by two routes of its own and cross-checks them.
The oracle here shares no code with either: it reads cores off normal
closures computed by sympy.combinatorics, using only its normal_closure,
order and contains. Every x of G lies in the normal subgroup
<N, x>^G, so for N normal in G the K >= N with K/N = O_p(G/N) is the join
of the closures <N, x>^G whose index over N is a power of p, and O_p'(G/N)
is the same join with the index prime to p.
"""

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import hypothesis
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.group import PermutationGroup
from psolv.perm import Permutation
from psolv.series import upper_p_series


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
