import hashlib
import math

import pytest

from psolv.battery import battery_for_group
from psolv.catalog import DEFAULT_CATALOG, build_group, emit_report
from psolv.errors import (
    CapExceeded,
    InternalMismatch,
    NotPSolvable,
    UnsupportedParameters,
)
from psolv.group import PermutationGroup, trivial_group
from psolv.perm import Permutation
from psolv.series import (
    _core_by_class_closures,
    _core_modulo,
    _sylow_conjugates_intersection,
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
from psolv.subgroups import is_subgroup, normal_subgroups, same_subgroup
from psolv.theorems import analyze_group

from oracles import (
    elements_of,
    exponent_of,
    g,
    generated,
    sylow_core_set,
    upper_p_series_sets,
)


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
    assert [label for label, _ in lower_central_series(S3).terms] == \
        ["gamma_1", "gamma_2", "gamma_3"]
    assert lower_central_series(trivial_group(3)).orders() == [1]


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


def test_core_by_intersection_returns_a_normal_pn_unenumerated(monkeypatch):
    # S4 at p = 2 over A4: PN is S4 itself, which every generator
    # normalizes, so it is returned before any element is listed
    G = g(4, "(1 2)", "(1 2 3 4)")
    N = g(4, "(1 2 3)", "(2 3 4)")
    P = sylow(G, 2)

    def refuse(self):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    got = _sylow_conjugates_intersection(G, 2, N)
    assert got.order() == 24
    assert is_subgroup(P, got) and is_subgroup(N, got)


def _affine_on_doubled_points():
    # 2^8:AGL(2,3) on 18 points: AGL(2,3) acts on F_3^2 with (x, y) at
    # 3x + y, each point i is doubled into {2i, 2i + 1}, and (0 1)(2 3)
    # swaps inside the first two pairs; its normal closure is the
    # even-weight module 2^8
    def doubled(f):
        images = [3 * a + b for a, b in (f(x, y) for x in range(3)
                                         for y in range(3))]
        return Permutation(tuple(2 * images[i // 2] + i % 2
                                 for i in range(18)))

    def row_times(m):
        (a, b), (c, d) = m
        return lambda x, y: ((x * a + y * c) % 3, (x * b + y * d) % 3)

    gens = [doubled(lambda x, y: ((x + 1) % 3, y))]
    gens += [doubled(row_times(m)) for m in (((1, 1), (0, 1)),
                                             ((1, 0), (1, 1)),
                                             ((2, 0), (0, 1)))]
    gens.append(Permutation((1, 0, 3, 2) + tuple(range(4, 18))))
    return PermutationGroup(18, gens)


def test_a_group_of_2_length_3():
    # no catalog group has a p-length above 2; O_2(AGL(2,3)) = 1 and
    # AGL(2,3) has 2-length 2, so the module 2^8 below it adds a third
    G = _affine_on_doubled_points()
    assert G.order() == 110_592
    rep = upper_p_series(G, 2)
    assert rep.orders() == [1, 1, 256, 2304, 18432, 55296, 110592]
    assert rep.is_p_solvable and rep.p_length == 3
    assert p_length(G, 3) == 2


# sha256 of the structured battery report of 2^8:AGL(2,3) with seed 7; no
# catalog group raises as many elements to powers, so an engine change
# that moves one byte of it is a bug
AFFINE_REPORT_SHA256 = {
    2: "10e8eda4a1a1bda8265bab29e8b7e38f67d833ff6cb4810aa1cec8eade50d19d",
    3: "153fef8c184546092fd5d70da43b5ad60ad4c2b6bea7505bd3b6c415b2e52fa5",
}


@pytest.mark.parametrize("p", sorted(AFFINE_REPORT_SHA256))
def test_affine_battery_report_bytes_are_pinned(p):
    reports = battery_for_group(_affine_on_doubled_points(), "2^8:AGL(2,3)", p, 7)
    blob = emit_report(reports, "structured")
    assert hashlib.sha256(blob.encode()).hexdigest() == AFFINE_REPORT_SHA256[p]


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


def test_class_closures_stop_at_the_first_wrong_prime(monkeypatch):
    # on S6 at p = 2 the class closures for O_2' and O_2 grow towards A6
    # and S6 and are rejected; dropping each at the first subgroup whose
    # index has the wrong type builds fewer stabilizer chains than running
    # it to the end, and gives the same cores with the same generators.
    # The conjugate-product test is off in both runs: it refuses the same
    # closures in each before anything is built, so it would hide the saving
    import psolv.group
    import psolv.series
    from psolv.subgroups import normal_closure
    builds = []

    class CountedChain(psolv.group.StabilizerChain):
        def __init__(self, degree, generators):
            builds.append(degree)
            super().__init__(degree, generators)

    monkeypatch.setattr(psolv.group, "StabilizerChain", CountedChain)
    monkeypatch.setattr(psolv.series, "_refused_by_a_conjugate_product",
                        lambda *args: False)

    def cores():
        G = build_group("symmetric:6")
        G.elements()
        out = []
        for core in (o_pprime, o_p):
            builds.clear()
            out.append((core(G, 2).generators, len(builds)))
        return out

    early = cores()
    monkeypatch.setattr(psolv.series, "_normal_closure_steps",
                        lambda G, S: iter([normal_closure(G, S)]))
    full = cores()
    for (gens, n), (full_gens, full_n) in zip(early, full):
        assert gens == full_gens
        assert n < full_n


def test_conjugate_products_refuse_closures_before_any_build(monkeypatch):
    # on S6 at p = 2 some representatives pass the order test but have a
    # product x * x^g of the wrong coset order; they are refused without a
    # chain build, and their closures are never grown
    import psolv.group
    import psolv.series
    builds, refused, grown = [], [], []
    real_refused = psolv.series._refused_by_a_conjugate_product
    real_steps = psolv.series._normal_closure_steps

    class CountedChain(psolv.group.StabilizerChain):
        def __init__(self, degree, generators):
            builds.append(degree)
            super().__init__(degree, generators)

    def counted_refused(G, x, p, want_p_group, N):
        before = len(builds)
        out = real_refused(G, x, p, want_p_group, N)
        if out:
            assert len(builds) == before
            refused.append(x)
        return out

    def recorded_steps(G, S):
        grown.append(S.generators[-1])
        return real_steps(G, S)

    monkeypatch.setattr(psolv.group, "StabilizerChain", CountedChain)
    monkeypatch.setattr(psolv.series, "_refused_by_a_conjugate_product", counted_refused)
    monkeypatch.setattr(psolv.series, "_normal_closure_steps", recorded_steps)
    G = build_group("symmetric:6")
    o_pprime(G, 2)
    o_p(G, 2)
    assert refused
    assert not set(refused) & set(grown)


@pytest.mark.parametrize("name, p", [("symmetric:6", 2), ("symmetric:6", 3),
                                     ("symmetric:8", 2), ("symmetric:8", 3),
                                     ("affine", 3)])
def test_conjugate_products_leave_every_core_unchanged(monkeypatch, name, p):
    # every term of the upper p-series, and so every core over 1 and over
    # the term below, has the same generators with and without the test
    import psolv.series

    def terms():
        G = _affine_on_doubled_points() if name == "affine" else build_group(name)
        cores = [o_pprime(G, p), o_p(G, p), *upper_p_series(G, p).subgroups()]
        return [K.generators for K in cores]

    with_products = terms()
    monkeypatch.setattr(psolv.series, "_refused_by_a_conjugate_product",
                        lambda *args: False)
    assert terms() == with_products


def test_core_modulo_over_one_is_the_cached_core():
    G = g(4, "(1 2)", "(1 2 3 4)")
    one = trivial_group(G.degree)
    for p in (2, 3):
        assert _core_modulo(G, p, "p", one) is o_p(G, p)
        assert _core_modulo(G, p, "p'", one) is o_pprime(G, p)


def test_a_relative_core_is_cached_under_the_generators_of_n():
    # S4 over V4 at p = 2: S4/V4 is S3, whose 2'-core is A3 and whose
    # 2-core is 1; a new object on V4's generators finds the same values
    G = g(4, "(1 2)", "(1 2 3 4)")
    N = g(4, "(1 2)(3 4)", "(1 3)(2 4)")
    again = PermutationGroup(N.degree, N.generators)
    for kind, order in (("p'", 12), ("p", 4)):
        K = _core_modulo(G, 2, kind, N)
        assert K.order() == order
        assert _core_modulo(G, 2, kind, again) is K


def test_upper_series_rejects_a_term_missing_the_one_below(monkeypatch):
    import psolv.series
    real = psolv.series._core_by_class_closures
    wrong = []

    def once_wrong(G, p, want_p_group, N):
        # the first p'-step over N != 1 forgets N; every later call is right
        if not want_p_group and not N.is_trivial() and not wrong:
            wrong.append(N.order())
            return trivial_group(G.degree)
        return real(G, p, want_p_group, N)

    monkeypatch.setattr(psolv.series, "_core_by_class_closures", once_wrong)
    # a fresh S4 at p = 2: 1, 1, V4, then the p'-step over V4 is wrong
    G = g(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(InternalMismatch):
        upper_p_series(G, 2)
    assert wrong == [4]


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


@pytest.mark.parametrize("p", [1, 4])
def test_is_p_group_needs_a_prime(p):
    # the trivial group too: it is a p-group for every prime, none other
    for G in (trivial_group(4), D8):
        with pytest.raises(UnsupportedParameters):
            is_p_group(G, p)


def test_miller_rabin_agrees_with_trial_division():
    assert ([n for n in range(5000) if is_prime(n)]
            == [n for n in range(2, 5000)
                if all(n % d for d in range(2, math.isqrt(n) + 1))])
    # strong pseudoprimes to the bases up to 7 and up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 64 - 59)  # the largest prime below 2**64
    with pytest.raises(UnsupportedParameters):
        is_prime(2 ** 64 + 13)


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


def test_sylow_of_a_pprime_group_is_trivial_without_a_normalizer(monkeypatch):
    import psolv.series
    calls = []
    real = psolv.series.normalizer

    def counted(G, S):
        calls.append(S.order())
        return real(G, S)

    monkeypatch.setattr(psolv.series, "normalizer", counted)
    for G, p in ((g(9, "(1 2 3 4 5 6 7 8 9)"), 2), (g(3, "(1 2)", "(1 2 3)"), 5)):
        assert sylow(G, p).is_trivial()
    assert calls == []
    # a growing S asks for its normalizer from the second pass on
    assert sylow(g(4, "(1 2)", "(1 2 3 4)"), 2).order() == 8
    assert calls and 1 not in calls


def test_sylow_of_a_p_group_is_the_group():
    G = build_group("extraspecial:5:plus")
    assert sylow(G, 5) is G
    assert normal_subgroups(sylow(G, 5)) is normal_subgroups(G)


def test_analyzing_s8_wraps_none_of_its_elements(monkeypatch):
    # S8's classes, action, Sylow seed and cores are read from its rows;
    # only subgroups are ever enumerated as Permutations
    real = PermutationGroup.elements

    def guarded(self):
        if self.order() == 40320:
            raise AssertionError("S8 was enumerated as Permutations")
        return real(self)

    monkeypatch.setattr(PermutationGroup, "elements", guarded)
    G = build_group("symmetric:8")
    analyze_group(G, 2)
    assert len(G.element_rows()) == 40320


def test_cached_elements_keep_their_cap(monkeypatch):
    import psolv.group
    G = g(4, "(1 2)", "(1 2 3 4)")
    assert len(G.elements()) == 24
    monkeypatch.setattr(psolv.group, "DEFAULT_ENUM_CAP", 23)
    with pytest.raises(CapExceeded):
        G.elements()
    with pytest.raises(CapExceeded):
        G.element_rows()
