import pytest

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.errors import (
    CapExceeded,
    InternalMismatch,
    NotPSolvable,
    UnsupportedParameters,
)
from psolv.group import PermutationGroup, trivial_group
from psolv.perm import parse_cycles
from psolv.series import (
    _core_by_class_closures,
    _sylow_conjugates_intersection,
    derived_series,
    exponent,
    gamma,
    is_p_group,
    is_p_solvable,
    is_prime,
    lower_central_series,
    nilpotency_class,
    o_p,
    o_pprime,
    o_pprime_p,
    p_length,
    sylow,
    upper_p_series,
)
from psolv.subgroups import normal_subgroups, same_subgroup

from oracles import (
    elements_of,
    exponent_of,
    generated,
    sylow_core_set,
    upper_p_series_sets,
)


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


S4 = g(4, "(1 2)", "(1 2 3 4)")
A4 = g(4, "(1 2 3)", "(2 3 4)")
S3 = g(3, "(1 2)", "(1 2 3)")
D8 = g(4, "(1 2 3 4)", "(1 3)")
A5 = g(5, "(1 2 3)", "(3 4 5)")
C9 = g(9, "(1 2 3 4 5 6 7 8 9)")
SL23 = g(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)",
         "(2 5 6)(4 7 8)")
E9 = g(6, "(1 2 3)", "(4 5 6)")


def test_sl23_is_the_intended_group():
    assert SL23.order() == 24
    assert sylow(SL23, 2).order() == 8


def test_lower_central_series():
    assert lower_central_series(D8).orders() == [8, 2, 1]
    assert lower_central_series(C9).orders() == [9, 1]
    assert lower_central_series(S3).orders() == [6, 3, 3]


def test_derived_series():
    assert derived_series(S4).orders() == [24, 12, 4, 1]
    assert derived_series(A5).orders() == [60, 60]
    assert derived_series(C9).orders() == [9, 1]


def test_nilpotency_class():
    assert nilpotency_class(C9) == 1
    assert nilpotency_class(D8) == 2
    assert nilpotency_class(g(4, "(1 2)", "(3 4)")) == 1
    assert nilpotency_class(S3) is None


def test_exponent():
    assert exponent(S3) == 6
    assert exponent(D8) == 4
    assert exponent(E9) == 3
    for G in (S4, A4, C9):
        assert exponent(G) == exponent_of(elements_of(G))


def test_sylow_orders():
    assert sylow(S4, 2).order() == 8
    assert sylow(S4, 3).order() == 3
    assert sylow(S3, 3).order() == 3
    assert sylow(A5, 2).order() == 4
    assert sylow(A5, 5).order() == 5
    assert same_subgroup(sylow(D8, 2), D8)
    assert sylow(S3, 5).is_trivial()


def test_sylow_is_a_subgroup_of_full_p_part():
    for G, p in [(S4, 2), (S4, 3), (A5, 2), (A5, 3), (A5, 5), (SL23, 2)]:
        P = sylow(G, p)
        n = G.order()
        part = 1
        while n % p == 0:
            part, n = part * p, n // p
        assert P.order() == part
        assert all(G.contains(x) for x in P.generators)


def test_o_p():
    V = o_p(S4, 2)
    assert V.order() == 4
    assert o_p(S3, 2).is_trivial()
    assert same_subgroup(o_p(D8, 2), D8)
    assert o_p(A5, 2).is_trivial()
    assert o_p(SL23, 2).order() == 8


@pytest.mark.parametrize("gid", [*DEFAULT_CATALOG, "symmetric:7"])
def test_core_by_intersection_against_definition(gid):
    # every catalog group (none is above order 720) at each of 2, 3, 5 that
    # divides its order, plus S7 at 2
    G = build_group(gid)
    primes = (2,) if gid == "symmetric:7" else (2, 3, 5)
    for p in primes:
        if G.order() % p:
            continue
        got = _sylow_conjugates_intersection(G, p, trivial_group(G.degree))
        want = sylow_core_set(G.elements(), elements_of(sylow(G, p)))
        assert frozenset(got.elements()) == want, (gid, p)


def test_core_by_intersection_runs_to_the_fixpoint():
    # S3 wr C3 on these generators: the Sylow 2-subgroup's intersections
    # with its conjugates fall 8 -> 4 -> 2 -> 1, one round is not enough
    G = g(9, "(1 3)", "(1 2 3)", "(1 5 7)(2 4 8)(3 6 9)")
    got = _sylow_conjugates_intersection(G, 2, trivial_group(G.degree))
    assert got.is_trivial()
    assert frozenset(got.elements()) == sylow_core_set(
        G.elements(), elements_of(sylow(G, 2)))


def _p_steps_over_nontrivial(G, p):
    # the terms N != 1 that the upper p-series lifts a p-step over
    terms = upper_p_series(G, p).terms
    return [below for (_, below), (kind, _) in zip(terms, terms[1:])
            if kind == "p" and not below.is_trivial()]


def test_relative_p_core_against_definition():
    # over N, both routes must give the intersection of the conjugates of
    # PN, which is the K >= N with K/N = O_p(G/N)
    checked = 0
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        for p in (2, 3, 5):
            if G.order() % p:
                continue
            for N in _p_steps_over_nontrivial(G, p):
                PN = generated(G.degree, elements_of(sylow(G, p)) | elements_of(N))
                want = sylow_core_set(G.elements(), PN)
                by_intersection = _sylow_conjugates_intersection(G, p, N)
                by_closures = _core_by_class_closures(G, p, True, N)
                assert elements_of(by_intersection) == want, (gid, p, N.order())
                assert elements_of(by_closures) == want, (gid, p, N.order())
                checked += 1
    assert checked >= 20


def test_relative_p_core_routes_are_cross_checked(monkeypatch):
    import psolv.series
    real = psolv.series._sylow_conjugates_intersection
    seen = []

    def wrong_over_nontrivial(G, p, N):
        seen.append(N.order())
        return N if N.order() > 1 else real(G, p, N)

    monkeypatch.setattr(psolv.series, "_sylow_conjugates_intersection",
                        wrong_over_nontrivial)
    # a fresh S4 at p = 2: the p-step over 1 agrees, the one over A4 does not
    G = g(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(InternalMismatch):
        upper_p_series(G, 2)
    assert seen == [1, 12]


def test_o_pprime():
    assert o_pprime(S3, 2).order() == 3
    assert o_pprime(D8, 2).is_trivial()
    assert o_pprime(S4, 2).is_trivial()
    assert o_pprime(g(15, "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)"),
                    5).order() == 3


def test_is_p_group():
    assert is_p_group(D8, 2)
    assert is_p_group(C9, 3)
    assert not is_p_group(S3, 2)
    assert not is_p_group(S3, 3)


def test_primality_helpers():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(UnsupportedParameters):
        p_length(S4, 4)


@pytest.mark.parametrize("G, p", [
    (S4, 2), (S4, 3), (SL23, 2), (SL23, 3), (S3, 2), (S3, 3),
    (A4, 2), (A4, 3), (D8, 2), (A5, 2), (A5, 3), (A5, 5),
])
def test_upper_series_against_normal_lattice_oracle(G, p):
    want_terms, want_len, want_top = upper_p_series_sets(
        elements_of(G), G.degree, p)
    rep = upper_p_series(G, p)
    assert rep.orders() == [len(t) for t in want_terms]
    assert rep.is_p_solvable == want_top
    if want_top:
        assert rep.p_length == want_len


def test_p_length_facts():
    assert p_length(S4, 2) == 2
    assert p_length(SL23, 2) == 1
    assert p_length(S3, 3) == 1
    assert p_length(D8, 2) == 1
    assert p_length(C9, 3) == 1


def test_a5_not_p_solvable():
    assert not is_p_solvable(A5, 2)
    assert not is_p_solvable(A5, 3)
    with pytest.raises(NotPSolvable):
        p_length(A5, 2)


def test_p_solvable_positive():
    assert is_p_solvable(S4, 2)
    assert is_p_solvable(S4, 3)
    assert is_p_solvable(A5, 7)   # 7 does not divide 60


def test_o_pprime_p():
    assert o_pprime_p(S4, 2).order() == 4
    assert o_pprime_p(S3, 2).order() == 6
    assert o_pprime_p(S3, 3).order() == 3
    assert o_pprime_p(SL23, 2).order() == 8
    # 5 does not divide 6: the series ends at its first p' step
    assert o_pprime_p(S3, 5).order() == 6
    assert o_pprime_p(S4, 2) is upper_p_series(S4, 2).subgroups()[2]


def test_gamma_terms():
    assert gamma(D8, 1) is D8
    assert gamma(D8, 2).order() == 2
    assert gamma(D8, 5).is_trivial()
    assert gamma(S3, 5).order() == 3   # the series stalls at A3
    with pytest.raises(UnsupportedParameters):
        gamma(D8, 0)


def test_facts_are_computed_once_per_group():
    G = g(4, "(1 2)", "(1 2 3 4)")
    assert sylow(G, 2) is sylow(G, 2)
    assert upper_p_series(G, 2) is upper_p_series(G, 2)
    # a fresh object for the same group computes its own facts
    H = g(4, "(1 2)", "(1 2 3 4)")
    assert sylow(H, 2) is not sylow(G, 2)
    assert same_subgroup(sylow(H, 2), sylow(G, 2))


def test_classes_are_computed_once_per_group(monkeypatch):
    import psolv.series
    real = psolv.series.conjugacy_classes
    values = []

    def counted(G):
        values.append(real(G))
        return values[-1]

    monkeypatch.setattr(psolv.series, "conjugacy_classes", counted)
    G = g(4, "(1 2)", "(1 2 3 4)")
    assert exponent(G) == 12
    assert o_p(G, 2).order() == 4
    assert o_pprime(G, 2).is_trivial()
    # exponent, o_p and o_pprime each ask once; every answer is one value
    assert len(values) == 3
    assert all(v is values[0] for v in values)
    H = g(4, "(1 2)", "(1 2 3 4)")
    assert counted(H) is not values[0]


def test_s8_sylow_generators_are_pinned():
    # the S8 report holds only invariants of P, so a different but
    # conjugate Sylow subgroup shows only here
    P = sylow(build_group("symmetric:8"), 2)
    assert [x.images for x in P.generators] == [
        (0, 1, 2, 3, 4, 7, 6, 5),
        (0, 2, 1, 3, 4, 5, 6, 7),
        (0, 5, 7, 3, 4, 1, 6, 2),
        (3, 5, 7, 0, 6, 1, 4, 2),
        (3, 5, 7, 6, 0, 1, 4, 2),
        (5, 3, 4, 1, 2, 0, 7, 6),
    ]


def test_sylow_of_a_p_group_is_the_group():
    G = build_group("extraspecial:5:plus")
    assert sylow(G, 5) is G
    assert normal_subgroups(sylow(G, 5)) is normal_subgroups(G)


def test_cached_elements_keep_their_cap():
    G = g(4, "(1 2)", "(1 2 3 4)")
    assert len(G.elements()) == 24
    with pytest.raises(CapExceeded):
        G.elements(cap=23)
