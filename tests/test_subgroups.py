import pytest

from psolv.catalog import build_group
from psolv.errors import CapExceeded, DegreeMismatch, InternalMismatch
from psolv.group import PermutationGroup, StabilizerChain, trivial_group
from psolv.perm import Permutation, parse_cycles
from psolv.subgroups import (
    _conjugation_action,
    _lattice,
    _member,
    _normalizes,
    _positions,
    centralizer,
    commutator,
    conjugacy_classes,
    intersect,
    is_normal,
    is_subgroup,
    iterated_commutator,
    join,
    normal_closure,
    normal_core,
    normal_subgroups,
    normalizer,
    power_subgroup,
    same_subgroup,
)

from oracles import (
    centralizer_set,
    commutator_set,
    conjugacy_class_of,
    elements_of,
    g,
    normal_subgroup_sets,
    normalizer_set,
    power_set,
    sylow_core_set,
)
from psolv.group import span


S4 = g(4, "(1 2)", "(1 2 3 4)")
A4 = g(4, "(1 2 3)", "(2 3 4)")
S3 = g(3, "(1 2)", "(1 2 3)")
D8 = g(4, "(1 2 3 4)", "(1 3)")
V4 = g(4, "(1 2)(3 4)", "(1 3)(2 4)")
C4 = g(4, "(1 2 3 4)")
Q8 = g(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")


def as_set(H):
    return frozenset(H.elements())


def test_normal_closure_spec_instance():
    S = g(4, "(1 2)(3 4)")
    N = normal_closure(S4, S)
    assert N.order() == 4
    assert same_subgroup(N, V4)


def test_normal_closure_of_whole_group():
    assert same_subgroup(normal_closure(S4, S4), S4)


def test_normal_closure_in_abelian_is_identity_map():
    H = g(4, "(1 3)(2 4)")
    assert same_subgroup(normal_closure(C4, H), H)


def test_commutator_s3():
    C = commutator(S3, S3)
    assert C.order() == 3
    assert as_set(C) == commutator_set(3, elements_of(S3), elements_of(S3))


def test_commutator_d8_is_center():
    C = commutator(D8, D8)
    assert C.order() == 2
    assert C.contains(parse_cycles("(1 3)(2 4)", 4))


def test_commutator_symmetric():
    a = g(4, "(1 2 3)")
    assert same_subgroup(commutator(a, S4), commutator(S4, a))


def test_commutator_abelian_trivial():
    a = g(4, "(1 2 3 4)")
    b = g(4, "(1 3)(2 4)")
    assert commutator(a, b).is_trivial()


def test_iterated_commutator():
    assert same_subgroup(iterated_commutator(V4, A4, 1), V4)
    assert iterated_commutator(D8, D8, 2).is_trivial()
    assert iterated_commutator(S4, trivial_group(4), 3).is_trivial()
    with pytest.raises(ValueError):
        iterated_commutator(S4, S4, 0)


def test_pair_facts_are_computed_once(monkeypatch):
    # both routes of a commutator conjugate permutations: the normal
    # closure and the generator commutators
    calls = 0
    real = Permutation.conjugate

    def counted(x, h):
        nonlocal calls
        calls += 1
        return real(x, h)

    monkeypatch.setattr(Permutation, "conjugate", counted)
    A = g(4, "(1 2)", "(1 2 3 4)")
    B = g(4, "(1 2 3)")
    C = commutator(A, B)
    K = iterated_commutator(A, B, 3)
    assert calls > 0
    calls = 0
    # a repeat call returns the very same object; an iterated commutator
    # is not cached itself, but each of its steps is a cached commutator
    assert commutator(A, B) is C
    assert iterated_commutator(A, B, 3) is K
    # a new B with the same generators is the same group, and hits too
    again = PermutationGroup(4, B.generators)
    assert again is not B
    assert commutator(A, again) is C
    assert iterated_commutator(A, again, 3) is K
    assert calls == 0
    # other arguments are other facts
    assert commutator(A, A) is not C
    assert iterated_commutator(A, B, 2) is not K
    assert calls > 0


def test_pair_fact_keys_keep_the_degree():
    # trivial groups of degree 3 and 5 have the same empty generator list
    C3 = g(3, "(1 2 3)")
    assert commutator(C3, trivial_group(3)).is_trivial()
    assert iterated_commutator(C3, trivial_group(3), 1).is_trivial()
    with pytest.raises(DegreeMismatch):
        commutator(C3, trivial_group(5))
    with pytest.raises(DegreeMismatch):
        iterated_commutator(C3, trivial_group(5), 1)
    # a call that raised stored nothing
    with pytest.raises(DegreeMismatch):
        commutator(C3, trivial_group(5))


def test_power_subgroup():
    assert power_subgroup(C4, 2).order() == 2
    sq = power_subgroup(D8, 2)
    assert sq.order() == 2
    assert sq.contains(parse_cycles("(1 3)(2 4)", 4))
    assert same_subgroup(power_subgroup(S4, 1), S4)
    with pytest.raises(ValueError):
        power_subgroup(C4, 0)


def test_power_subgroup_uses_all_elements_not_generators():
    # generated by squares of generators would miss elements here
    W = g(6, "(1 2)", "(3 4)", "(5 6)", "(1 3)(2 4)")
    got = as_set(power_subgroup(W, 2))
    assert got == power_set(6, elements_of(W), 2)


def test_power_subgroup_descends_and_keeps_normality():
    for G, N, q in [(S4, V4, 2), (D8, C4, 2), (S4, A4, 3)]:
        Nq = power_subgroup(N, q)
        assert is_subgroup(Nq, N)
        assert is_normal(G, Nq)


def test_centralizer_spec_instance():
    assert same_subgroup(centralizer(S4, V4), V4)


def test_centralizer_against_enumeration():
    for G, S in [(S4, C4), (D8, g(4, "(1 3)")), (A4, V4)]:
        got = as_set(centralizer(G, S))
        want = centralizer_set(elements_of(G), elements_of(S))
        assert got == want


def test_centralizer_of_a_subgroup_outside_the_group():
    # S need not lie in G: C_G(S) is still every g of G commuting with S
    D10 = build_group("dihedral:5")
    for G, S in [(A4, g(4, "(1 2)")), (D8, g(4, "(1 2 3)")),
                 (D10, g(5, "(1 2)")), (C4, g(4, "(1 3)"))]:
        assert not is_subgroup(S, G)
        got = as_set(centralizer(G, S))
        assert got == centralizer_set(elements_of(G), elements_of(S))
    assert as_set(centralizer(A4, trivial_group(4))) == elements_of(A4)


def test_centralizer_in_a_group_past_the_cap_grows_nothing(monkeypatch):
    # C_G((1 2)) in S12 has order 2 * 10! = 7,257,600; CapExceeded comes
    # before a single coset of it is adjoined
    import psolv.group

    def adjoin(*args):
        raise AssertionError("a stabilizer past the cap was grown")

    monkeypatch.setattr(psolv.group, "_adjoin", adjoin)
    S12 = g(12, "(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12)")
    with pytest.raises(CapExceeded):
        centralizer(S12, g(12, "(1 2)"))


def test_stabilizer_order_is_checked_against_the_cap(monkeypatch):
    # C_S6((1 2)) = <(1 2)> x S4 has order 48: grown at a cap of 48,
    # refused at 47 before anything is adjoined
    import psolv.group
    S6 = build_group("symmetric:6")
    S6.order()
    monkeypatch.setattr(psolv.group, "DEFAULT_ENUM_CAP", 48)
    C = centralizer(S6, g(6, "(1 2)"))
    assert as_set(C) == centralizer_set(elements_of(S6), elements_of(g(6, "(1 2)")))
    monkeypatch.setattr(psolv.group, "DEFAULT_ENUM_CAP", 47)
    with pytest.raises(CapExceeded):
        centralizer(S6, g(6, "(1 2)"))


def test_stabilizer_just_under_the_cap_is_grown():
    # S8 x C4 on 12 points, order 161,280, centralizes its C4 factor
    G = g(12, "(1 2)", "(1 2 3 4 5 6 7 8)", "(9 10 11 12)")
    C = centralizer(G, g(12, "(9 10 11 12)"))
    assert C.order() == G.order() == 161_280
    assert all(C.contains(x) for x in G.generators)


def _point_stabilizer(G, point):
    return span(G.degree, [x for x in G.elements() if x.images[point] == point])


@pytest.mark.parametrize("gid", ["symmetric:4", "symmetric:5", "alternating:5",
                                 "dihedral:6", "gl2:3", "affine:7",
                                 "wreath_cyclic:2:3", "product(symmetric:3,cyclic:3)"])
def test_normal_core_of_point_stabilizers(gid):
    G = build_group(gid)
    els = elements_of(G)
    for point in (0, G.degree - 1):
        H = _point_stabilizer(G, point)
        got = normal_core(G, H)
        assert as_set(got) == sylow_core_set(els, elements_of(H)), (gid, point)
        assert is_normal(G, got)


def test_normal_core_of_subgroups_that_are_not_sylow():
    # D8 in S4 has core V4, <(1 2)> has core 1, A4 and V4 are normal
    cases = [(S4, D8, 4), (S4, g(4, "(1 2)"), 1), (S4, g(4, "(1 2 3)"), 1),
             (S4, A4, 12), (S4, V4, 4), (D8, g(4, "(1 3)"), 1),
             (D8, V4, 4), (S3, g(3, "(1 2)"), 1)]
    for G, H, order in cases:
        got = normal_core(G, H)
        assert got.order() == order
        assert as_set(got) == sylow_core_set(elements_of(G), elements_of(H))
    with pytest.raises(ValueError):
        normal_core(build_group("dihedral:5"), g(5, "(1 2)"))


def test_normal_core_of_a_normal_subgroup_enumerates_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError("a group was enumerated")

    # S4, A4 and D8 with their generators in the other order than the
    # module's groups, so that no live group shares their chains and tables
    G, H = g(4, "(1 2 3 4)", "(1 2)"), g(4, "(2 3 4)", "(1 2 3)")
    rows = S4.element_rows()
    # the chain's enumeration is the one route to a group's rows, and so
    # to its elements, its positions and its conjugation action
    monkeypatch.setattr(StabilizerChain, "iter_elements", refuse)
    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    assert normal_core(G, H) is H
    with pytest.raises(AssertionError):
        normal_core(G, g(4, "(1 3)", "(1 2 3 4)"))
    # a second group on S4's generator list reads S4's table
    assert g(4, "(1 2)", "(1 2 3 4)").element_rows() is rows


def test_sylow_of_s8_stops_its_stabilizers_at_the_target_order(monkeypatch):
    # the Schreier generators stop once the stabilizer reaches
    # |G| / |orbit|: 60 of the orbit walks' 1,398 steps are read here
    import psolv.series
    import psolv.subgroups
    G = build_group("symmetric:8")
    G.elements()
    steps, read = [], []
    orbit = psolv.subgroups._orbit

    def counted(*args):
        transversal, walked = orbit(*args)
        steps.extend(walked)
        return transversal, (read.append(s) or s for s in walked)

    monkeypatch.setattr(psolv.subgroups, "_orbit", counted)
    assert psolv.series.sylow(G, 2).order() == 128
    assert len(steps) > 1000
    assert len(read) <= 200


def test_normalizer_against_enumeration(monkeypatch):
    cases = [(S4, g(4, "(1 2 3)")), (S4, D8), (A4, g(4, "(1 2)(3 4)")),
             (S4, trivial_group(4)), (D8, trivial_group(4)),
             (S4, S4), (D8, D8)]
    # the subgroups that Sylow subgroups of S5 and S6 grow through: none
    # is normal
    import psolv.series
    grown = []

    def recorded(G, H):
        grown.append(H)
        return normalizer(G, H)

    monkeypatch.setattr(psolv.series, "normalizer", recorded)
    S5 = build_group("symmetric:5")
    S6 = build_group("symmetric:6")
    for G, p, order, steps in [(S5, 2, 8, [2, 4]), (S6, 2, 16, [2, 8]),
                               (S6, 3, 9, [3])]:
        grown.clear()
        assert psolv.series.sylow(G, p).order() == order
        assert [H.order() for H in grown] == steps
        assert not any(is_normal(G, H) for H in grown)
        cases += [(G, H) for H in grown]
    oracle_elements = {}
    for G, H in cases:
        if G not in oracle_elements:
            oracle_elements[G] = elements_of(G)
        got = as_set(normalizer(G, H))
        want = normalizer_set(G.degree, oracle_elements[G], elements_of(H))
        assert got == want
    assert same_subgroup(normalizer(S4, S4), S4)


def test_normalizer_needs_a_subgroup():
    # equal degrees, so the error is about containment, not DegreeMismatch
    D10 = build_group("dihedral:5")
    with pytest.raises(ValueError):
        normalizer(D10, g(5, "(1 2)"))


def test_normalizes_refuses_other_degrees():
    # the conjugators are built once per acting generator, before any
    # conjugate is taken, so the degrees are compared first, also when
    # one side has no generators
    for H, N in ((S4, g(5, "(1 2)")), (g(5, "(1 2)"), S4),
                 (S4, trivial_group(3)), (trivial_group(3), S4)):
        with pytest.raises(DegreeMismatch):
            _normalizes(H, N)


def test_normalizer_checks_orbit_times_stabilizer(monkeypatch):
    # an orbit walk that yields no Schreier steps leaves the stabilizer at
    # H, of order 3, while the orbit of <(1 2 3)> in S4 has 4 members:
    # 3 * 4 != 24
    import psolv.subgroups
    orbit = psolv.subgroups._orbit
    monkeypatch.setattr(psolv.subgroups, "_orbit",
                        lambda *args: (orbit(*args)[0], []))
    with pytest.raises(InternalMismatch):
        normalizer(S4, g(4, "(1 2 3)"))


def test_intersect():
    assert same_subgroup(intersect(D8, A4), V4)
    assert same_subgroup(intersect(S4, S4), S4)
    assert as_set(intersect(D8, C4)) == (elements_of(D8) & elements_of(C4))


def test_intersect_stops_sifting_once_the_common_order_is_reached(monkeypatch):
    # the common elements already form a subgroup, so its span stops once
    # their number is reached; sifting all of them would take one
    # membership test per element of the smaller group and one per
    # nonidentity common element
    G = build_group("symmetric:5")
    common = G.elements()
    calls = [0]
    contains = PermutationGroup.contains

    def counted(self, x):
        calls[0] += 1
        return contains(self, x)

    monkeypatch.setattr(PermutationGroup, "contains", counted)
    K = intersect(G, G)
    assert calls[0] < len(common) + len(common) - 1
    assert K.generators == span(5, common).generators


def test_join():
    J = join(g(4, "(1 2)"), g(4, "(3 4)"))
    assert J.order() == 4
    assert same_subgroup(join(V4, C4), D8)


def test_is_subgroup_and_normal():
    assert is_subgroup(V4, S4)
    assert not is_subgroup(S4, V4)
    assert is_normal(S4, V4)
    assert is_normal(S4, A4)
    assert not is_normal(S4, C4)
    assert not is_normal(S4, g(4, "(1 2)"))


def test_conjugacy_classes_partition():
    classes = conjugacy_classes(S4)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 3, 6, 6, 8]


@pytest.mark.parametrize("G", [S4, D8])
def test_conjugacy_classes_are_the_group_elements(G):
    classes = conjugacy_classes(G)
    assert classes is conjugacy_classes(G)
    assert type(classes) is tuple
    assert all(type(cls) is tuple for cls in classes)
    # members are positions in G.elements(), each exactly once, and each
    # class is headed by its first element in enumeration order
    assert all(type(i) is int for cls in classes for i in cls)
    assert sorted(i for cls in classes for i in cls) == list(range(G.order()))
    heads = [cls[0] for cls in classes]
    assert heads == sorted(heads)
    assert all(cls[0] < i for cls in classes for i in cls[1:])
    els = elements_of(G)
    members = G.elements()
    for cls in classes:
        assert frozenset(members[i] for i in cls) == \
            conjugacy_class_of(els, members[cls[0]])


@pytest.mark.parametrize("G", [S4, D8, build_group("wreath_cyclic:2:3")])
def test_conjugation_action_on_positions(G):
    els = G.elements()
    oracle_els = elements_of(G)
    assert frozenset(els) == oracle_els
    maps = _conjugation_action(G)
    assert maps is _conjugation_action(G)
    assert len(maps) == len(G.generators)
    for g_, c in zip(G.generators, maps):
        # a permutation of the positions, sending x to g^-1 * x * g
        assert sorted(c) == list(range(len(els)))
        assert all(els[c[i]] == x.conjugate(g_) for i, x in enumerate(els))
    # the orbits of the maps are the conjugacy classes
    for cls in conjugacy_classes(G):
        assert frozenset(els[i] for i in cls) == \
            conjugacy_class_of(oracle_els, els[cls[0]])


@pytest.mark.parametrize("G", [S4, D8, build_group("wreath_cyclic:2:3")])
def test_conjugation_action_is_a_list_of_conjugate_positions(G):
    els = G.elements()
    for g_, c in zip(G.generators, _conjugation_action(G)):
        assert type(c) is list
        assert c == [els.index(x.conjugate(g_)) for x in els]


@pytest.mark.parametrize("G, count", [
    (S4, 4),     # 1, V4, A4, S4
    (A4, 3),
    (S3, 3),
    (D8, 6),     # 1, Z, C4, two Klein subgroups, D8
    (Q8, 6),
    (build_group("elementary_abelian:2:3"), 16),
    (build_group("elementary_abelian:2:4"), 67),
    (build_group("extraspecial:3:plus"), 7),
    (build_group("product(symmetric:3,cyclic:3)"), 6),
])
def test_normal_subgroups_against_class_union_oracle(G, count):
    got = sorted(H.order() for H in normal_subgroups(G))
    want_sets = normal_subgroup_sets(elements_of(G), G.degree)
    want = sorted(len(s) for s in want_sets)
    assert got == want
    assert len(got) == count
    assert {as_set(H) for H in normal_subgroups(G)} == set(want_sets)
    for H in normal_subgroups(G):
        assert is_normal(G, H)


def test_positions_and_lattice_masks():
    rows = S4.element_rows()
    assert sorted(_positions(S4, rows)) == list(range(24))
    assert list(_positions(S4, [rows[5], rows[2], rows[5]])) == [5, 2, 5]
    members, masks = _lattice(S4)
    # the lattice fact is the one normal_subgroups returns, with one mask
    # per member: the positions of its elements
    assert normal_subgroups(S4) is members
    assert masks == tuple(sum(1 << i for i in _positions(S4, H.element_rows()))
                          for H in members)
    v = masks[_member(S4, V4)]
    a = masks[_member(S4, A4)]
    assert v.bit_count() == 4
    assert v & ~a == 0 and a & ~v != 0


def test_normal_subgroups_sorted_and_bounded(monkeypatch):
    ns = normal_subgroups(S4)
    orders = [H.order() for H in ns]
    assert orders == sorted(orders)
    import psolv.subgroups
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 40)
    # a fresh object: the lattice cached on S4 would be returned as it is
    with pytest.raises(CapExceeded):
        normal_subgroups(g(4, "(1 2)", "(1 2 3 4)"))


def test_a_lattice_past_the_limit_builds_no_class_mask(monkeypatch):
    # C2^3 has 7 nontrivial classes, each closing the trivial group at 8
    # units, so 56 units are certain before any mask is built; a mask is
    # built from its class's positions, so no class may be walked member
    # by member before the refusal (its head may be read)
    import psolv.subgroups

    class Unwalked(tuple):
        def __iter__(self):
            raise AssertionError("a class mask was built")

    real = psolv.subgroups.conjugacy_classes
    monkeypatch.setattr(psolv.subgroups, "conjugacy_classes",
                        lambda G: tuple(map(Unwalked, real(G))))
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 55)
    with pytest.raises(CapExceeded):
        normal_subgroups(g(6, "(1 2)", "(3 4)", "(5 6)"))
    # the guard is live: with room for the lattice, the masks are built
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 10 ** 6)
    with pytest.raises(AssertionError, match="class mask"):
        normal_subgroups(g(6, "(1 2)", "(3 4)", "(5 6)"))


def test_lattice_checks_each_span_against_its_mask(monkeypatch):
    import psolv.subgroups
    monkeypatch.setattr(psolv.subgroups, "span",
                        lambda degree, elements: trivial_group(degree))
    with pytest.raises(InternalMismatch):
        normal_subgroups(g(4, "(1 2)", "(1 2 3 4)"))


def test_power_of_cyclic_matches_enumeration():
    C12 = g(12, "(1 2 3 4 5 6 7 8 9 10 11 12)")
    for q in (2, 3, 4, 6):
        got = as_set(power_subgroup(C12, q))
        assert got == power_set(12, elements_of(C12), q)
