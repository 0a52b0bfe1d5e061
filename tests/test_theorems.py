import math

import pytest

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.errors import (NotNormal, NotPSolvable, PreconditionViolated,
                          UnsupportedParameters)
from psolv.filtrations import Filtration, compute_ekr
from psolv.group import PermutationGroup, trivial_group
from psolv.perm import parse_cycles
from psolv.series import (
    _exponent_modulo,
    _order_modulo,
    gamma,
    o_p,
    o_pprime,
    o_pprime_p,
    sylow,
    upper_p_series,
)
from psolv.subgroups import power_subgroup, same_subgroup
from psolv.theorems import (
    analyze_group,
    check_main_hypothesis,
    check_O24_inclusion,
    check_thm6_hypothesis,
    hall_higman_bound,
    question7_scan,
    verify_lemma8,
    verify_main,
    verify_prop3,
    verify_prop4,
    verify_thm6,
)


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


S4 = g(4, "(1 2)", "(1 2 3 4)")
S3 = g(3, "(1 2)", "(1 2 3)")
A5 = g(5, "(1 2 3)", "(3 4 5)")
D8 = g(4, "(1 2 3 4)", "(1 3)")
C9 = g(9, "(1 2 3 4 5 6 7 8 9)")
V4 = g(4, "(1 2)(3 4)", "(1 3)(2 4)")
Q8 = g(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
SL23 = g(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)",
         "(2 5 6)(4 7 8)")


def test_main_hypothesis_trivial_lhs():
    v = check_main_hypothesis(C9, 3, 2)
    assert v.statement == "main-hypothesis"
    assert v.hypothesis_holds
    assert v.conclusion_holds is None
    assert v.parameters["trivial_lhs"]


def test_main_hypothesis_q8_first_holds_at_3():
    assert not check_main_hypothesis(Q8, 2, 1).hypothesis_holds
    assert not check_main_hypothesis(Q8, 2, 2).hypothesis_holds
    v = check_main_hypothesis(Q8, 2, 3)
    assert v.hypothesis_holds
    assert v.parameters["first_hit"] == [3, 1]


def test_main_hypothesis_records_every_hit():
    v = check_main_hypothesis(Q8, 2, 3)
    hits = v.parameters["hits"]
    assert [3, 1] in hits
    assert all(r + s > 3 for r, s in hits)


def test_thm6_hypothesis():
    assert check_thm6_hypothesis(C9, 3, 1).hypothesis_holds
    assert not check_thm6_hypothesis(D8, 2, 1).hypothesis_holds
    assert check_thm6_hypothesis(D8, 2, 3).hypothesis_holds


def test_main_implies_thm6_on_small_p_groups():
    for P, p in [(D8, 2), (Q8, 2), (C9, 3),
                 (g(6, "(1 2 3)", "(4 5 6)"), 3)]:
        for ell in range(1, 5):
            if check_main_hypothesis(P, p, ell).hypothesis_holds:
                assert check_thm6_hypothesis(P, p, ell).hypothesis_holds


def test_verify_main_s4():
    v = verify_main(S4, 2)
    assert v.statement == "main"
    assert v.hypothesis_holds and v.conclusion_holds
    assert not v.is_finding
    assert v.parameters["ell"] == 3
    assert v.parameters["p_length"] == 2
    assert v.parameters["core_order"] == 4
    assert v.parameters["ekr_order"] == 2
    assert v.parameters["exponent_of_image"] == 2
    assert v.parameters["link_core"]
    assert v.parameters["link_exponent"]
    assert v.parameters["link_restriction"]
    assert v.parameters["link_composed"]


def test_verify_main_explicit_ell():
    v = verify_main(S4, 2, ell=3)
    assert v.hypothesis_holds and v.conclusion_holds
    assert "ell_was_scanned" not in v.parameters or \
        not v.parameters["ell_was_scanned"]


def test_verify_main_hypothesis_can_fail_at_small_ell():
    v = verify_main(S4, 2, ell=1)
    assert not v.hypothesis_holds
    assert v.conclusion_holds is None
    assert not v.is_finding


def test_verify_thm6_sl23():
    v = verify_thm6(SL23, 2)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.parameters["p_length"] == 1
    assert v.parameters["core_order"] == 8
    assert v.parameters["exponent_of_quotient"] == 4
    assert v.parameters["exponent_of_image"] == 1


def _least_power_in(x, N_elems):
    m, y = 1, x
    while y not in N_elems:
        y, m = y * x, m + 1
    return m


def test_exponent_modulo_against_power_scan():
    # the order of xN is the least m with x^m in N, and the exponent of
    # HN/N is their lcm over every element x of H; H = G mixes primes in
    # the element orders
    checked = 0
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        one = trivial_group(G.degree)
        for p in (2, 3, 5):
            if G.order() % p:
                continue
            P = sylow(G, p)
            pairs = [(P, N) for N in (one, power_subgroup(P, p),
                                      power_subgroup(P, p * p), gamma(P, 2),
                                      o_pprime_p(G, p))]
            pairs += [(G, N) for N in (one, o_pprime(G, p), o_pprime_p(G, p))]
            for H, N in pairs:
                N_elems = frozenset(N.elements())
                want = [_least_power_in(x, N_elems) for x in H.elements()]
                where = (gid, p, H.order(), N.order())
                assert [_order_modulo(x, N) for x in H.elements()] == want, where
                assert _exponent_modulo(H, N) == math.lcm(*want), where
                checked += 1
    assert checked >= 200


def test_exponent_modulo_needs_a_normalized_kernel():
    with pytest.raises(NotNormal):
        _exponent_modulo(S4, g(4, "(1 2)"))
    with pytest.raises(NotNormal):
        _exponent_modulo(D8, g(4, "(1 3)"))
    # N need not lie in H, only be normalized by it
    assert _exponent_modulo(g(4, "(1 2)"), V4) == 2


@pytest.mark.parametrize("p, orders, length, exponents", [
    (2, [1, 1, 64, 576, 1152], 2, (4, 2)),
    (3, [1, 64, 576, 1152], 1, (3, 1)),
])
def test_two_length_two_tower_is_pinned(p, orders, length, exponents):
    # (C2 wr C3) wr C2 on 12 points, order 1152: its 2-length is 2, so the
    # upper 2-series lifts a p-step over a nontrivial term
    G = g(12, "(1 2)", "(1 3 5)(2 4 6)",
          "(1 7)(2 8)(3 9)(4 10)(5 11)(6 12)")
    assert G.order() == 1152
    rep = upper_p_series(G, p)
    assert rep.orders() == orders
    assert rep.is_p_solvable and rep.p_length == length
    v = verify_main(G, p)
    assert v.hypothesis_holds and v.conclusion_holds
    assert (v.parameters["exponent_of_quotient"],
            v.parameters["exponent_of_image"]) == exponents


def test_verify_main_s3_at_p3():
    v = verify_main(S3, 3)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.parameters["ell"] == 1


def test_verify_main_rejects_non_solvable():
    with pytest.raises(NotPSolvable):
        verify_main(A5, 2)


def test_verify_main_rejects_non_prime():
    with pytest.raises(UnsupportedParameters):
        verify_main(S4, 6)


def _sylow_chain(G, p, ell):
    P = sylow(G, p)
    return Filtration(P, p, ell, (P, trivial_group(G.degree)))


def test_prop3_on_s3():
    P = sylow(S3, 3)
    F = Filtration(P, 3, 1, (P, trivial_group(3)))
    v = verify_prop3(S3, 3, P, F)
    assert v.statement == "prop3"
    assert v.hypothesis_holds and v.conclusion_holds
    assert not v.is_finding


def test_prop3_rejects_p2():
    F = _sylow_chain(S4, 2, 0)
    with pytest.raises(PreconditionViolated):
        verify_prop3(S4, 2, F.terms[0], F)


def test_prop3_rejects_wrong_type():
    P = sylow(S3, 3)
    F = Filtration(P, 3, 2, (P, trivial_group(3)))
    with pytest.raises(PreconditionViolated):
        verify_prop3(S3, 3, P, F)


def test_prop4_invalid_chain_means_no_hypothesis():
    C4 = g(4, "(1 2 3 4)")
    Z2 = g(4, "(1 3)(2 4)")
    F = Filtration(D8, 2, 1, (D8, C4, Z2, trivial_group(4)))
    v = verify_prop4(S4, 2, D8, F)
    assert not v.hypothesis_holds
    assert v.conclusion_holds is None
    assert not v.is_finding
    assert v.parameters["chain_verdict"]["failed_condition"] == 4


def test_prop4_s3_tests_cube_of_cubes():
    P = sylow(S3, 3)
    F = Filtration(P, 3, 2, (P, trivial_group(3)))
    v = verify_prop4(S3, 3, P, F)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.parameters["tested_subgroup"] == "N^(p^2)"


def test_prop4_p2_tests_n_itself():
    Z2 = g(4, "(1 3)(2 4)")
    F = Filtration(D8, 2, 1, (Z2, trivial_group(4)))
    v = verify_prop4(S4, 2, Z2, F)
    assert v.hypothesis_holds
    assert v.parameters["tested_subgroup"] == "N"
    assert v.conclusion_holds


def test_prop4_p5_tests_fifth_powers():
    C5 = g(5, "(1 2 3 4 5)")
    F20 = g(5, "(1 2 3 4 5)", "(2 3 5 4)")
    F = Filtration(C5, 5, 4, (C5, trivial_group(5)))
    v = verify_prop4(F20, 5, C5, F)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.parameters["tested_subgroup"] == "N^p"


def test_prop_chain_must_start_at_n():
    P = sylow(S3, 3)
    F = Filtration(P, 3, 1, (P, trivial_group(3)))
    with pytest.raises(PreconditionViolated):
        verify_prop3(S3, 3, trivial_group(3), F)


def test_lemma8_s4_instance():
    v = verify_lemma8(S4, 2, V4, 1)
    assert v.statement == "lemma8"
    assert v.hypothesis_holds and v.conclusion_holds
    assert not v.is_finding
    assert v.parameters["p_core_order"] == 4


def test_lemma8_hypothesis_fails_when_commutators_persist():
    # [O_2(S4), A4] = V4 is nontrivial, so depth 1 does not qualify
    A4 = g(4, "(1 2 3)", "(2 3 4)")
    v = verify_lemma8(S4, 2, A4, 1)
    assert not v.hypothesis_holds
    assert v.conclusion_holds is None


def test_lemma8_preconditions():
    with pytest.raises(PreconditionViolated):
        verify_lemma8(S4, 2, V4, 0)
    with pytest.raises(PreconditionViolated):
        verify_lemma8(S4, 2, g(4, "(1 2)"), 1)
    with pytest.raises(PreconditionViolated):
        verify_lemma8(S3, 2, g(3, "(1 2 3)"), 1)
    with pytest.raises(NotPSolvable):
        verify_lemma8(A5, 2, trivial_group(5), 1)


def test_o24_inclusion_s4():
    P = sylow(S4, 2)
    v = check_O24_inclusion(S4, V4, P, 2, 1, 1)
    assert v.statement == "o24"
    assert v.hypothesis_holds and v.conclusion_holds
    assert not v.is_finding
    assert v.parameters["pieces"][0][0] == "[V,M]"
    assert len(v.parameters["pieces"]) == 3


def test_o24_inclusion_various_instances():
    P = sylow(S4, 2)
    for (r, l) in [(1, 1), (1, 2), (2, 1)]:
        v = check_O24_inclusion(S4, V4, P, 2, r, l)
        assert v.hypothesis_holds and v.conclusion_holds
    v = check_O24_inclusion(SL23, sylow(SL23, 2), sylow(SL23, 2), 2, 1, 1)
    assert v.hypothesis_holds and v.conclusion_holds


def test_a_repeated_o24_check_builds_no_commutator(monkeypatch):
    import psolv.subgroups
    calls = 0
    real = psolv.subgroups.normal_closure

    def counted(G, S):
        nonlocal calls
        calls += 1
        return real(G, S)

    monkeypatch.setattr(psolv.subgroups, "normal_closure", counted)
    # groups of its own, so no other test has filled their caches
    G = g(4, "(1 2)", "(1 2 3 4)")
    V, M = g(4, "(1 2)(3 4)", "(1 3)(2 4)"), sylow(G, 2)
    first = check_O24_inclusion(G, V, M, 2, 1, 2)
    assert calls > 0
    calls = 0
    # the commutators are cached on V and the powers on their groups
    again = check_O24_inclusion(G, V, M, 2, 1, 2)
    assert calls == 0
    assert again.to_payload() == first.to_payload()


def test_o24_rejects_bad_parameters():
    with pytest.raises(PreconditionViolated):
        check_O24_inclusion(S4, V4, sylow(S4, 2), 2, -1, 1)
    with pytest.raises(PreconditionViolated):
        check_O24_inclusion(S4, V4, sylow(S4, 2), 2, 0, 0)
    with pytest.raises(PreconditionViolated):
        check_O24_inclusion(S4, g(5, "(1 2)"), sylow(S4, 2), 2, 1, 1)


def test_question7_s4():
    out = question7_scan(S4, 2)
    assert len(out) == 2
    for v in out:
        assert v.statement == "question7"
        assert v.report_only
        assert not v.is_finding
    assert sorted(v.parameters["n_order"] for v in out) == [1, 2]
    assert all(v.parameters["in_core"] for v in out)
    assert all(v.parameters["in_swapped_core"] for v in out)


def test_question7_reuses_the_cached_cores(monkeypatch):
    # O_2(S3) = 1, so the swapped core is the cached O_2'(S3): once the
    # upper series and O_2 are known, the scan needs no new normal closure
    # (series grows every class closure through _normal_closure_steps)
    import psolv.series
    real = psolv.series._normal_closure_steps
    calls = []

    def counted(G, S):
        calls.append(S.order())
        return real(G, S)

    G = g(3, "(1 2)", "(1 2 3)")
    upper_p_series(G, 2)
    assert o_p(G, 2).is_trivial()
    monkeypatch.setattr(psolv.series, "_normal_closure_steps", counted)
    out = question7_scan(G, 2)
    assert out
    assert calls == []


def test_question7_skips_non_solvable():
    out = question7_scan(A5, 2)
    assert len(out) == 1
    assert out[0].report_only
    assert "not p-solvable" in out[0].notes[0]


def test_question7_skips_oversized_sylow():
    big = PermutationGroup(20, [parse_cycles(f"({2 * i + 1} {2 * i + 2})", 20)
                                for i in range(10)])
    skip, = question7_scan(big, 2)
    assert skip.notes == ("skipped: the Sylow subgroup's normal subgroup "
                          "enumeration overflowed its cap",)


def test_lattice_overflow_is_a_skip_for_every_search(monkeypatch):
    # one gate decides for the battery, the PF search and question 7; a
    # fresh D8 passes the Frattini bound, (5 - 1) * 8 = 32 units, and its
    # lattice needs more work than the patched limit
    import psolv.subgroups
    from psolv.battery import battery_for_group
    from psolv.filtrations import SearchOutcome, pf_embedded_search
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 40)
    D8 = g(4, "(1 2 3 4)", "(1 3)")
    out = pf_embedded_search(D8, 2, D8, 1)
    assert out.status == SearchOutcome.EXHAUSTED
    assert out.notes == ("normal subgroup enumeration overflowed its cap",)
    skip, = question7_scan(D8, 2)
    assert skip.report_only and not skip.hypothesis_holds
    assert skip.notes[0].startswith("skipped:")
    assert "overflowed" in skip.notes[0]
    reports = battery_for_group(D8, "dihedral:4", 2, 7)
    q7 = [r.verdict for r in reports if r.statement_id == "question7"]
    assert q7 == [skip.to_payload()]


def test_hall_higman_bound():
    v = hall_higman_bound(S3, 3)
    assert v.statement == "hall-higman"
    assert v.hypothesis_holds and v.conclusion_holds
    assert not v.report_only
    assert v.parameters["p_length"] == 1
    assert v.parameters["exponent_valuation"] == 1


def test_hall_higman_p2_is_report_only():
    v = hall_higman_bound(S4, 2)
    assert v.report_only
    assert not v.is_finding


def test_hall_higman_non_solvable():
    with pytest.raises(NotPSolvable):
        hall_higman_bound(A5, 3)


def test_analyze_is_report_only():
    v = analyze_group(S4, 2)
    assert v.statement == "analyze"
    assert v.report_only
    assert v.parameters["p_length"] == 2
    assert v.parameters["group_order"] == 24
    assert v.parameters["sylow_order"] == 8
    v = analyze_group(A5, 2)
    assert v.parameters["is_p_solvable"] is False


def test_verdict_payload_shape():
    v = verify_main(S4, 2)
    payload = v.to_payload()
    assert payload["statement"] == "main"
    assert payload["is_finding"] is False
    assert isinstance(payload["parameters"], dict)
