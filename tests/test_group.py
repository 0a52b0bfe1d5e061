import gc
import weakref

import pytest

from psolv.errors import CapExceeded, DegreeMismatch
from psolv.group import (MAX_DEGREE, PermutationGroup, StabilizerChain, group_fact,
                         span, trivial_group)
from psolv.perm import identity, parse_cycles

from oracles import elements_of


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


@pytest.mark.parametrize("G, expected", [
    (g(4, "(1 2 3 4)", "(1 3)"), 8),
    (g(4, "(1 2)", "(1 2 3 4)"), 24),
    (g(5, "(1 2 3)", "(3 4 5)"), 60),
    (g(3, "(1 2 3)"), 3),
    (g(6, "(1 2 3 4 5 6)"), 6),
])
def test_order_matches_exhaustive_closure(G, expected):
    assert G.order() == expected
    assert len(elements_of(G)) == expected


def test_contains():
    S4 = g(4, "(1 2)", "(1 2 3 4)")
    assert S4.contains(parse_cycles("(1 3)(2 4)", 4))
    A4 = g(4, "(1 2 3)", "(2 3 4)")
    assert not A4.contains(parse_cycles("(1 2)", 4))


def test_contains_rejects_wrong_degree():
    S4 = g(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(DegreeMismatch):
        S4.contains(identity(5))


def test_elements_cached_and_complete():
    # the rows are cached as one sequence over the element table; the
    # Permutations are wrapped afresh on each call, each around a row
    # read from the table, so no row tuple is kept between reads
    D8 = g(4, "(1 2 3 4)", "(1 3)")
    els = D8.elements()
    assert len(els) == 8
    assert set(els) == set(elements_of(D8))
    again = D8.elements()
    assert again == els and again is not els
    rows = D8.element_rows()
    assert D8.element_rows() is rows
    assert [x.images for x in again] == list(rows)
    assert rows[1] == rows[1] and rows[1] is not rows[1]


def test_enumeration_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        S5 = g(5, "(1 2)", "(1 2 3 4 5)")
        assert len(S5.elements()) == 120
        del S5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_groups_on_one_generator_list_share_chain_and_table():
    a = g(5, "(1 2 3 4 5)", "(2 5)(3 4)")
    b = g(5, "(1 2 3 4 5)", "(2 5)(3 4)")
    assert b.chain is a.chain
    assert b.element_rows().table is a.element_rows().table
    # the same points and generators in another order: a chain of its own
    c = g(5, "(2 5)(3 4)", "(1 2 3 4 5)")
    assert c.chain is not a.chain
    assert c.order() == a.order() == 10


def test_a_shared_chain_goes_with_its_last_group():
    import psolv.group
    gc.collect()
    gc.disable()
    try:
        a = g(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)")
        b = g(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)")
        assert len(a.elements()) == len(b.elements()) == 21
        key = (7, *(x.images for x in a.generators))
        del a
        assert psolv.group._CHAINS[key] is b.chain
        del b
        assert key not in psolv.group._CHAINS
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_elements_cap(monkeypatch):
    import psolv.group
    monkeypatch.setattr(psolv.group, "DEFAULT_ENUM_CAP", 23)
    S4 = g(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(CapExceeded):
        S4.elements()


def test_trivial_group():
    T = trivial_group(5)
    assert T.order() == 1
    assert T.is_trivial()
    assert T.contains(identity(5))


def test_span():
    H = span(4, [parse_cycles("(1 2)(3 4)", 4),
                 parse_cycles("(1 3)(2 4)", 4)])
    assert H.order() == 4


def test_a_fact_equal_to_its_group_leaves_no_reference_cycle():
    class Watched(PermutationGroup):
        pass  # a subclass without __slots__ can be weakly referenced

    @group_fact
    def itself(G):
        return G

    gc.disable()
    try:
        G = Watched(3, [parse_cycles("(1 2 3)", 3)])
        assert itself(G) is G
        assert itself(G) is G
        ref = weakref.ref(G)
        del G
        # freed by reference counting alone, with the collector off
        assert ref() is None
    finally:
        gc.enable()


def test_degree_ceiling():
    assert PermutationGroup(MAX_DEGREE, []).order() == 1
    with pytest.raises(ValueError, match="more than the limit of 256 points"):
        PermutationGroup(MAX_DEGREE + 1, [])


def test_no_generators_is_trivial():
    assert PermutationGroup(3, []).order() == 1


def test_identity_generators_dropped():
    G = PermutationGroup(3, [identity(3), parse_cycles("(1 2)", 3)])
    assert G.order() == 2


def test_order_deterministic_across_builds():
    # a live group on the same list would share a's chain, so the second
    # build is made directly
    a = g(4, "(1 2 3 4)", "(1 3)")
    b = StabilizerChain(4, a.generators)
    assert a.order() == b.order()
    assert [x.images for x in a.elements()] == list(b.iter_elements())
