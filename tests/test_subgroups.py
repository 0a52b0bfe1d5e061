import pytest

from psolv.catalog import build_group
from psolv.errors import CapExceeded, DegreeMismatch, InternalMismatch, NotNormal
from psolv.group import PermutationGroup, trivial_group
from psolv.perm import parse_cycles
from psolv.subgroups import (
    centralizer,
    commutator,
    conjugacy_classes,
    element_mask,
    intersect,
    is_normal,
    is_subgroup,
    iterated_commutator,
    join,
    normal_closure,
    normal_subgroups,
    normalizer,
    power_subgroup,
    quotient,
    same_subgroup,
)

from oracles import (
    centralizer_set,
    commutator_set,
    conjugacy_class_of,
    elements_of,
    normal_subgroup_sets,
    normalizer_set,
    power_set,
)


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


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


def test_normalizer_checks_orbit_times_stabilizer(monkeypatch):
    # a stabilizer that drops its Schreier generators stays at H, of order
    # 3, while the orbit of <(1 2 3)> in S4 has 4 members: 3 * 4 != 24
    monkeypatch.setattr(PermutationGroup, "contains", lambda self, x: True)
    with pytest.raises(InternalMismatch):
        normalizer(S4, g(4, "(1 2 3)"))


def test_intersect():
    assert same_subgroup(intersect(D8, A4), V4)
    assert same_subgroup(intersect(S4, S4), S4)
    assert as_set(intersect(D8, C4)) == (elements_of(D8) & elements_of(C4))


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


def test_quotient_s4_mod_v4():
    Q = quotient(S4, V4)
    assert Q.base is S4
    assert Q.kernel is V4


def test_quotient_extremes():
    Q = quotient(S4, trivial_group(4))
    assert Q.base is S4 and Q.kernel.is_trivial()
    Q = quotient(S4, S4)
    assert Q.base is S4 and Q.kernel is S4


def test_quotient_rejects_non_normal():
    with pytest.raises(NotNormal):
        quotient(S4, C4)


def test_quotient_rejects_another_degree():
    with pytest.raises(DegreeMismatch):
        quotient(S4, trivial_group(5))


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
    # members are G's own element objects, each exactly once, and each
    # class is headed by its first element in enumeration order
    pos = {id(x): i for i, x in enumerate(G.elements())}
    assert sorted(pos[id(x)] for cls in classes for x in cls) == \
        list(range(G.order()))
    heads = [pos[id(cls[0])] for cls in classes]
    assert heads == sorted(heads)
    assert all(pos[id(cls[0])] < pos[id(x)] for cls in classes for x in cls[1:])
    els = elements_of(G)
    for cls in classes:
        assert frozenset(cls) == conjugacy_class_of(els, cls[0])


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


def test_element_mask():
    els = S4.elements()
    assert element_mask(S4, els) == (1 << 24) - 1
    assert element_mask(S4, [els[5], els[2], els[5]]) == (1 << 5) | (1 << 2)
    v = element_mask(S4, V4.elements())
    a = element_mask(S4, A4.elements())
    assert v.bit_count() == 4
    assert v & ~a == 0 and a & ~v != 0


def test_normal_subgroups_sorted_and_bounded(monkeypatch):
    ns = normal_subgroups(S4)
    orders = [H.order() for H in ns]
    assert orders == sorted(orders)
    import psolv.subgroups
    monkeypatch.setattr(psolv.subgroups, "NORMAL_SUBGROUP_LIMIT", 2)
    # a fresh object: the lattice cached on S4 would be returned as it is
    with pytest.raises(CapExceeded):
        normal_subgroups(g(4, "(1 2)", "(1 2 3 4)"))


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
