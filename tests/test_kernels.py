"""The gather kernels against the plain Permutation arithmetic.

The orbit walk group._orbit, StabilizerChain (its orbits, sift and Schreier
test), its element table, the conjugation action and subgroups._stabilizer
build their elements through perm._gather or bytes.translate, powers go
through perm._power, and conjugates and commutators are gather chains, not
Permutation.__mul__, and element positions are keyed by packed base
images (group._pack). These tests rebuild each of them with products and
inverses, on fixed groups from degree 1 up and on small groups drawn at
random, and check that the walks, the chains, the order of the elements,
the positions, the action and the normalizer and centralizer built on it
all agree.
"""

import random
from functools import partial

import pytest

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.errors import DegreeMismatch
from psolv.group import ElementRows, PermutationGroup, _orbit, _pack, span, trivial_group
from psolv.perm import Permutation, _conjugator, _gather, _make, _power, from_cycles, identity
from psolv.subgroups import (_conjugation_action, _element_index, _positions, centralizer,
                             normalizer, same_subgroup)

from oracles import centralizer_set, normalizer_set


def _drawn(seed):
    # a group in the style of tests/test_fuzz.py: at most 6 points and at
    # most 3 generators, any of them possibly the identity
    rng = random.Random(seed)
    degree = rng.randint(1, 6)
    gens = [Permutation(rng.sample(range(degree), degree))
            for _ in range(rng.randint(0, 3))]
    return PermutationGroup(degree, gens)


# each group is built inside its test, so a broken chain fails the test
# rather than the collection
GROUPS = {
    "degree-1": lambda: PermutationGroup(1, [identity(1)]),
    "degree-2": partial(build_group, "symmetric:2"),
    "S4": partial(build_group, "symmetric:4"),
    "D8": partial(build_group, "dihedral:4"),
    "wreath_cyclic:2:3": partial(build_group, "wreath_cyclic:2:3"),
    **{f"drawn-{seed}": partial(_drawn, seed) for seed in range(8)},
}


@pytest.fixture(params=sorted(GROUPS))
def G(request):
    return GROUPS[request.param]()


def _products(chain):
    # the enumeration order iter_elements documents, built with __mul__
    out = [identity(chain.degree)]
    for lv in reversed(chain.levels):
        ts = [_make(lv.transversal[beta][0]) for beta in sorted(lv.transversal)]
        out = [h * t for t in ts for h in out]
    return out


def test_gather_is_a_tuple_at_every_length():
    t = ("a", "b", "c")
    assert _gather((2,))(t) == ("c",)
    assert _gather((2, 0))(t) == ("c", "a")
    assert _gather((1, 1, 0))(t) == ("b", "b", "a")


@pytest.mark.parametrize("degree", range(1, 10))
def test_power_is_the_repeated_product(degree):
    rng = random.Random(degree)
    for _ in range(3):
        x = Permutation(rng.sample(range(degree), degree))
        order = x.order()
        product = identity(degree)
        for k in range(2 * order + 2):
            assert _power(x.images, k) == product.images, (x, k)
            assert x ** k == product
            product = product * x
        assert _power(x.images, 2 ** 65) == _power(x.images, 2 ** 65 % order)
        assert x ** -3 == x.inverse() * x.inverse() * x.inverse()
        assert x ** -order == identity(degree)


@pytest.mark.parametrize("degree", range(1, 10))
def test_conjugate_and_commutator_are_the_products(degree):
    rng = random.Random(100 + degree)
    for _ in range(5):
        x = Permutation(rng.sample(range(degree), degree))
        g = Permutation(rng.sample(range(degree), degree))
        assert x.conjugate(g) == g.inverse() * x * g, (x, g)
        assert x.commutator(g) == x.inverse() * g.inverse() * x * g, (x, g)


@pytest.mark.parametrize("a, b", [(3, 4), (4, 3), (1, 2)])
def test_conjugate_and_commutator_refuse_other_degrees(a, b):
    # a gather of the longer images through the shorter would not fail
    x, g = Permutation(reversed(range(a))), Permutation(reversed(range(b)))
    with pytest.raises(DegreeMismatch):
        x.conjugate(g)
    with pytest.raises(DegreeMismatch):
        x.commutator(g)


def test_elements_are_the_chain_products_in_order(G):
    els = G.elements()
    assert [x.images for x in els] == [x.images for x in _products(G.chain)]
    assert len(els) == G.order()


def _check_element_table(chain):
    # the table joins the chain products' images in order, so its column
    # b, every degree-th byte from b, holds x[b] for each product x
    products = [x.images for x in _products(chain)]
    table = chain.element_table()
    assert table == bytes(i for row in products for i in row)
    assert [table[b::chain.degree] for b in range(chain.degree)] == \
        [bytes(col) for col in zip(*products)]


def test_element_columns_are_the_elements_by_point(G):
    _check_element_table(G.chain)


@pytest.mark.parametrize("recipe", [*DEFAULT_CATALOG, "product(cyclic:128,cyclic:128)"])
def test_element_columns_of_catalog_groups(recipe):
    # the product acts on 256 points, every byte value a translate can hold
    _check_element_table(build_group(recipe).chain)


def _scan_positions(G):
    # each element's position, found by a scan of G.elements() rather than
    # through the packed index
    return {x.images: i for i, x in enumerate(G.elements())}


@pytest.mark.parametrize("recipe", DEFAULT_CATALOG)
def test_elements_wrap_the_rows_themselves(recipe):
    # the rows are read from the table, so each read builds a new tuple:
    # an element's images equal its row, as a tuple of ints
    G = build_group(recipe)
    rows = G.element_rows()
    assert rows is G.element_rows()
    assert [x.images for x in G.elements()] == list(rows)
    assert all(type(x.images) is tuple and x.images == row
               and all(type(i) is int for i in row)
               for x, row in zip(G.elements(), rows))


def test_element_rows_are_a_sequence_over_the_table(G):
    rows = G.element_rows()
    assert type(rows) is ElementRows and rows is G.element_rows()
    assert rows.table == G.chain.element_table()
    want = [x.images for x in _products(G.chain)]
    assert len(rows) == len(want) == G.order()
    assert list(rows) == list(G.chain.iter_elements()) == want
    assert [rows[i] for i in range(len(rows))] == want
    assert [rows[-i] for i in range(1, len(rows) + 1)] == want[::-1]
    for i in (len(rows), len(rows) + 5, -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert list(reversed(rows)) == want[::-1]
    assert want[-1] in rows
    # random.choice draws an index from len, so the draws are those of
    # the same rows in a list
    for seed in range(5):
        drawn, listed = random.Random(seed), random.Random(seed)
        assert [drawn.choice(rows) for _ in range(20)] == \
            [listed.choice(want) for _ in range(20)]


def _check_index(G):
    # every element keyed to its position, and every conjugate's position
    # in the action, against scans of G.elements()
    positions = _scan_positions(G)
    assert sorted(_element_index(G).values()) == list(range(G.order()))
    assert sorted(_positions(G, G.element_rows())) == list(range(G.order()))
    for row, i in positions.items():
        assert list(_positions(G, [row])) == [i]
    els = G.elements()
    for g, action in zip(G.generators, _conjugation_action(G)):
        assert action == [positions[x.conjugate(g).images] for x in els]


def test_conjugation_action_matches_conjugate(G):
    assert len(_conjugation_action(G)) == len(G.generators)
    _check_index(G)


def test_keys_past_one_lane():
    # C2 wr C9 on 18 points: nine base points, so each key is a tuple of
    # two 8-byte lanes
    pairs = from_cycles(18, [tuple(range(0, 18, 2)), tuple(range(1, 18, 2))])
    G = PermutationGroup(18, [from_cycles(18, [(0, 1)]), pairs])
    assert G.order() == 2 ** 9 * 9
    assert len(G.chain.base) > 8
    keys = _pack([G.element_rows().table[b::18] for b in G.chain.base], G.order())
    assert all(type(k) is tuple and len(k) == 2 for k in keys)
    assert len(set(keys)) == G.order()
    _check_index(G)


@pytest.mark.parametrize("degree", [1, 5])
def test_keys_of_an_empty_base(degree):
    # the trivial group has no base point: its one element keys to 0
    for G in (trivial_group(degree), PermutationGroup(degree, [identity(degree)])):
        assert G.chain.base == ()
        assert list(_pack([], 1)) == [0]
        assert _element_index(G) == {0: 0}
        assert _conjugation_action(G) == tuple([0] for _ in G.generators)
        assert list(_positions(G, [tuple(range(degree))])) == [0]


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


class _ReferenceChain:
    """The deterministic Schreier-Sims chain written with *, inverse() and
    is_identity(): the arithmetic StabilizerChain replaced by gathers."""

    class Level:
        def __init__(self, point):
            self.point = point
            self.gens = []
            self.transversal = {}

    def __init__(self, degree, generators):
        self.degree = degree
        self.levels = []
        for g in generators:
            residue, j = _reference_strip(self.levels, g, 0)
            if not residue.is_identity():
                self._add_generator(j, residue)
        self._close()

    def _gens_at(self, i):
        return [s for lv in self.levels[i:] for s in lv.gens]

    def _rebuild_orbit(self, i):
        lv = self.levels[i]
        gens = self._gens_at(i)
        lv.transversal = {lv.point: identity(self.degree)}
        queue = [lv.point]
        for a in queue:
            t = lv.transversal[a]
            for s in gens:
                b = s.images[a]
                if b not in lv.transversal:
                    lv.transversal[b] = t * s
                    queue.append(b)

    def _add_generator(self, j, h):
        if j == len(self.levels):
            self.levels.append(self.Level(h.min_moved()))
        self.levels[j].gens.append(h)
        for i in range(j + 1):
            self._rebuild_orbit(i)

    def _close(self):
        i = len(self.levels) - 1
        while i >= 0:
            lv = self.levels[i]
            gens = self._gens_at(i)
            restart = False
            for beta in sorted(lv.transversal):
                u = lv.transversal[beta]
                for s in gens:
                    target = lv.transversal[s.images[beta]]
                    schreier = u * s * target.inverse()
                    if schreier.is_identity():
                        continue
                    residue, j = _reference_strip(self.levels, schreier, i + 1)
                    if not residue.is_identity():
                        self._add_generator(j, residue)
                        i = j
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1


def _reference_strip(levels, g, start):
    # sift g through levels whose transversal holds Permutations
    for i in range(start, len(levels)):
        lv = levels[i]
        t = lv.transversal.get(g.images[lv.point])
        if t is None:
            return g, i
        g = g * t.inverse()
    return g, len(levels)


CHAIN_GROUPS = {
    **GROUPS,
    "one-point": partial(trivial_group, 1),
    "S8": partial(build_group, "symmetric:8"),
    "extraspecial:5:plus": partial(build_group, "extraspecial:5:plus"),
}


@pytest.fixture(params=sorted(CHAIN_GROUPS))
def chained(request):
    return CHAIN_GROUPS[request.param]()


def test_chain_matches_the_reference_level_by_level(chained):
    chain = chained.chain
    want = _ReferenceChain(chained.degree, chained.generators)
    assert [lv.point for lv in chain.levels] == [lv.point for lv in want.levels]
    one = identity(chained.degree)
    for lv, ref in zip(chain.levels, want.levels):
        assert [s for s, _ in lv.gens] == [s.images for s in ref.gens]
        for s, s_inv in lv.gens:
            assert _make(s) * _make(s_inv) == one
        # the same orbit points in the same discovery order
        assert list(lv.transversal) == list(ref.transversal)
        for beta, u in ref.transversal.items():
            u_images, u_inv = lv.transversal[beta]
            assert u_images == u.images
            assert _make(u_inv) * u == one
    assert chain.order() == chained.order()


def test_strip_matches_the_reference_sift(chained):
    chain = chained.chain
    want_levels = _ReferenceChain(chained.degree, chained.generators).levels
    rng = random.Random(chained.degree * 1000 + chained.order())
    els = chained.elements()
    members = set(els)
    inside = [rng.choice(els) for _ in range(10)]
    drawn = [Permutation(rng.sample(range(chained.degree), chained.degree))
             for _ in range(10)]
    for g in inside + drawn:
        for start in range(len(chain.levels) + 1):
            residue, level = chain._strip(g.images, start)
            want, want_level = _reference_strip(want_levels, g, start)
            assert (residue, level) == (want.images, want_level)
        assert chain.contains(g) == (g in members)


def test_normalizer_matches_a_scan_of_the_elements(G):
    els = G.elements()
    rng = random.Random(G.order() + 1)
    for H in (G, trivial_group(G.degree),
              span(G.degree, rng.sample(els, min(1, len(els)))),
              span(G.degree, rng.sample(els, min(2, len(els))))):
        want = normalizer_set(G.degree, els, set(H.elements()))
        N = normalizer(G, H)
        assert same_subgroup(N, span(G.degree, want)), H
        assert N.order() == len(want)


def _conjugate_keys(G):
    # normalizer's action: a conjugate H^x keyed by the sorted positions of
    # its elements in G.elements(), with H generated by G's last generator
    H = PermutationGroup(G.degree, G.generators[-1:])
    positions = _scan_positions(G)
    maps = _conjugation_action(G)

    def key(x):
        return tuple(sorted(positions[h.conjugate(x).images] for h in H.elements()))
    return key(identity(G.degree)), lambda k, i: tuple(sorted([maps[i][j] for j in k])), key


def _generator_tuples(G):
    # centralizer's action: the images of S's generators conjugated by x,
    # with S generated by two drawn elements of G
    rng = random.Random(G.order() + 3)
    S = [rng.choice(G.elements()) for _ in range(2)]
    conjs = [_conjugator(g) for g in G.generators]

    def tup(x):
        return tuple((x.inverse() * s * x).images for s in S)
    return tup(identity(G.degree)), lambda t, i: tuple(map(conjs[i], t)), tup


@pytest.mark.parametrize("action", [_conjugate_keys, _generator_tuples])
@pytest.mark.parametrize("name", ["S4", "D8", "drawn-5"])
def test_orbit_walk_against_permutation_arithmetic(name, action):
    G = GROUPS[name]()
    point, act, image = action(G)
    one = identity(G.degree)
    transversal, steps = _orbit(
        one.images, [(g.images, g.inverse().images) for g in G.generators], point, act)
    assert next(iter(transversal)) == point
    for y, (u, u_inv) in transversal.items():
        assert image(_make(u)) == y
        assert _make(u) * _make(u_inv) == one
    assert len(steps) + len(transversal) - 1 == len(transversal) * len(G.generators)
    for u, g, y in steps:
        schreier = _make(u) * _make(g) * _make(transversal[y][0]).inverse()
        if schreier != one:
            assert image(schreier) == point
    stabilizer = [x for x in G.elements() if image(x) == point]
    assert len(transversal) * len(stabilizer) == G.order()
