"""The whole-group gather kernels against the plain Permutation arithmetic.

StabilizerChain.iter_elements and the conjugation action build their
elements through perm._gather, not Permutation.__mul__; these tests
rebuild both with products and conjugates, on fixed groups from degree 1
up and on small groups drawn at random, and check that the order of the
elements, the action and the centralizer built on it all agree.
"""

import random

import pytest

from psolv.catalog import build_group
from psolv.group import PermutationGroup, span
from psolv.perm import Permutation, _gather, identity
from psolv.subgroups import (_conjugation_action, _element_positions,
                             centralizer, same_subgroup)

from oracles import centralizer_set


def _drawn(seed):
    # a group in the style of tests/test_fuzz.py: at most 6 points and at
    # most 3 generators, any of them possibly the identity
    rng = random.Random(seed)
    degree = rng.randint(1, 6)
    gens = [Permutation(rng.sample(range(degree), degree))
            for _ in range(rng.randint(0, 3))]
    return PermutationGroup(degree, gens)


GROUPS = {
    "degree-1": PermutationGroup(1, [identity(1)]),
    "degree-2": build_group("symmetric:2"),
    "S4": build_group("symmetric:4"),
    "D8": build_group("dihedral:4"),
    "wreath_cyclic:2:3": build_group("wreath_cyclic:2:3"),
    **{f"drawn-{seed}": _drawn(seed) for seed in range(8)},
}


@pytest.fixture(params=sorted(GROUPS))
def G(request):
    return GROUPS[request.param]


def _products(chain):
    # the enumeration order iter_elements documents, built with __mul__
    out = [identity(chain.degree)]
    for lv in reversed(chain.levels):
        ts = [lv.transversal[beta] for beta in sorted(lv.transversal)]
        out = [h * t for t in ts for h in out]
    return out


def test_gather_is_a_tuple_at_every_length():
    t = ("a", "b", "c")
    assert _gather((2,))(t) == ("c",)
    assert _gather((2, 0))(t) == ("c", "a")
    assert _gather((1, 1, 0))(t) == ("b", "b", "a")


def test_elements_are_the_chain_products_in_order(G):
    els = G.elements()
    assert [x.images for x in els] == [x.images for x in _products(G.chain)]
    assert len(els) == G.order()


def test_conjugation_action_matches_conjugate(G):
    els = G.elements()
    positions = _element_positions(G)
    maps = _conjugation_action(G)
    assert len(maps) == len(G.generators)
    for g, action in zip(G.generators, maps):
        assert list(action) == [positions[x.conjugate(g).images] for x in els]


def test_centralizer_matches_a_scan_of_the_elements(G):
    els = G.elements()
    rng = random.Random(G.order())
    outside = Permutation(rng.sample(range(G.degree), G.degree))
    for S in (G, span(G.degree, rng.sample(els, min(2, len(els)))),
              PermutationGroup(G.degree, [outside])):
        want = centralizer_set(els, S.generators)
        C = centralizer(G, S)
        assert same_subgroup(C, span(G.degree, want)), S
        assert C.order() == len(want)
