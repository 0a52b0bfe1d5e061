import gc

import pytest

from psolv.catalog import DEFAULT_CATALOG, build_group
from psolv.errors import (InternalMismatch, LengthCapExceeded, NotAPGroup, NotNormal,
                          PreconditionViolated, UnsupportedParameters)
from psolv.filtrations import (
    ELL_ZERO_NOTE,
    Filtration,
    SearchOutcome,
    compute_ekr,
    ekr_pf_candidates,
    _ekr_pieces,
    _frattini_subspaces,
    exhaustive_lattice,
    pf_embedded_search,
    verify_potent_filtration,
)
from psolv.group import PermutationGroup, trivial_group
from psolv.perm import parse_cycles
from psolv.series import gamma, lower_central_series, sylow
from psolv.theorems import question7_scan
from psolv.subgroups import (commutator, conjugacy_classes, is_normal,
                             iterated_commutator, join, normal_closure,
                             normal_subgroups, power_subgroup, same_subgroup)


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


D8 = g(4, "(1 2 3 4)", "(1 3)")
C4 = g(4, "(1 2 3 4)")
Z2 = g(4, "(1 3)(2 4)")
C9 = g(9, "(1 2 3 4 5 6 7 8 9)")
E9 = g(6, "(1 2 3)", "(4 5 6)")
Q8 = g(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
T4 = trivial_group(4)


def test_abelian_group_with_trivial_tail_is_valid():
    for P, p in [(C4, 2), (C9, 3), (E9, 3)]:
        F = Filtration(P, p, 1, (P, trivial_group(P.degree)))
        assert verify_potent_filtration(F).valid


def test_d8_chain_fails_condition_4_at_second_term():
    # [C4, D8] = <r^2> is not inside <r^2>^2 = 1
    F = Filtration(D8, 2, 1, (D8, C4, Z2, T4))
    v = verify_potent_filtration(F)
    assert not v.valid
    assert v.failed_condition == 4
    assert v.failed_index == 2
    assert v.witness == parse_cycles("(1 3)(2 4)", 4)


def test_conditions_checked_in_order():
    # the same chain out of order breaks condition 1 before anything else
    F = Filtration(D8, 2, 1, (C4, D8, T4))
    v = verify_potent_filtration(F)
    assert v.failed_condition == 1
    assert v.failed_index == 2
    F = Filtration(D8, 2, 1, (D8, C4))
    v = verify_potent_filtration(F)
    assert v.failed_condition == 2
    F = Filtration(D8, 2, 0, (D8, T4))
    v = verify_potent_filtration(F)
    assert v.failed_condition == 3
    assert v.failed_index == 1
    assert v.witness is not None


def test_non_normal_term_is_an_error():
    refl = g(4, "(1 3)")
    with pytest.raises(NotNormal):
        verify_potent_filtration(Filtration(D8, 2, 1, (D8, refl, T4)))


def test_type_zero_reads_literally_and_says_so():
    # condition 4 with no commutator step: N_i itself inside N_{i+1}^p
    F = Filtration(C4, 2, 0, (C4, Z2, T4))
    v = verify_potent_filtration(F)
    assert not v.valid
    assert v.failed_condition == 4
    assert ELL_ZERO_NOTE in v.notes
    F = Filtration(E9, 3, 0, (E9, trivial_group(6)))
    v = verify_potent_filtration(F)
    assert not v.valid


def test_single_term_chain():
    F = Filtration(D8, 2, 1, (T4,))
    assert verify_potent_filtration(F).valid


def test_verifier_rejects_bad_parameters():
    with pytest.raises(PreconditionViolated):
        verify_potent_filtration(Filtration(D8, 2, -1, (D8, T4)))
    with pytest.raises(PreconditionViolated):
        verify_potent_filtration(Filtration(D8, 2, 1, ()))
    S4 = g(4, "(1 2)", "(1 2 3 4)")
    with pytest.raises(NotAPGroup):
        verify_potent_filtration(Filtration(S4, 2, 1, (S4, T4)))
    with pytest.raises(PreconditionViolated):
        verify_potent_filtration(Filtration(D8, 2, 1, (D8, g(4, "(1 2)"),
                                                       T4)))


def test_ekr_frozen_values():
    assert same_subgroup(compute_ekr(D8, 2, 1, 1), D8)
    E = compute_ekr(D8, 2, 2, 1)
    assert E.order() == 2
    assert E.contains(parse_cycles("(1 3)(2 4)", 4))
    assert compute_ekr(C9, 3, 2, 1).order() == 3
    assert compute_ekr(C9, 3, 3, 1).order() == 3
    assert compute_ekr(C9, 3, 2, 2).is_trivial()
    assert compute_ekr(E9, 3, 2, 1).is_trivial()


def test_ekr_k_zero_and_negative_threshold_give_whole_group():
    assert same_subgroup(compute_ekr(D8, 2, 0, 1), D8)
    assert same_subgroup(compute_ekr(C9, 3, 0, 1), C9)


def test_ekr_rejects_bad_indices():
    with pytest.raises(UnsupportedParameters):
        compute_ekr(D8, 2, -1, 1)
    with pytest.raises(UnsupportedParameters):
        compute_ekr(D8, 2, 1, 0)


def test_ekr_terms_use_minimal_power():
    # for each i the smallest power exponent j already gives the containment
    _, pieces = _ekr_pieces(D8, 2, 2, 1)
    assert [(i, j) for i, j, _ in pieces] == [(1, 1), (2, 0)]
    # trivial gamma_i contribute nothing and are dropped outright
    _, pieces = _ekr_pieces(C9, 3, 3, 1)
    assert [(i, j) for i, j, _ in pieces] == [(1, 1)]


def test_ekr_monotone_in_k():
    for k in range(1, 5):
        big = compute_ekr(D8, 2, k, 1)
        small = compute_ekr(D8, 2, k + 1, 1)
        assert small.order() <= big.order()


def test_ekr_pf_candidates_on_c9():
    cands = ekr_pf_candidates(C9, 3, 2, 1)
    assert len(cands) == 3
    for F, verdict in cands:
        assert F.orders() == [3, 1]
        assert verdict.valid


def test_ekr_pf_candidates_skip_consecutive_repeats():
    for F, verdict in ekr_pf_candidates(D8, 2, 2, 1):
        orders = F.orders()
        assert all(a > b for a, b in zip(orders, orders[1:]))


def test_ekr_pf_candidates_length_cap(monkeypatch):
    import psolv.filtrations
    monkeypatch.setattr(psolv.filtrations, "DEFAULT_LENGTH_CAP", 1)
    with pytest.raises(LengthCapExceeded):
        ekr_pf_candidates(D8, 2, 1, 1)


def test_search_trivial_start_needs_no_nodes():
    out = pf_embedded_search(D8, 2, T4, 1)
    assert out.status == SearchOutcome.FOUND
    assert out.nodes == 0
    assert out.filtration.orders() == [1]


def test_search_d8_itself_is_not_embeddable_at_type_1():
    out = pf_embedded_search(D8, 2, D8, 1)
    assert out.status == SearchOutcome.NOT_PF_EMBEDDED
    assert out.filtration is None
    assert out.nodes == 2


def test_search_agrees_with_verifier_on_found_chains():
    for P, p in [(D8, 2), (Q8, 2), (C9, 3), (E9, 3)]:
        for N in normal_subgroups(P):
            out = pf_embedded_search(P, p, N, p - 1)
            if out.status == SearchOutcome.FOUND:
                assert verify_potent_filtration(out.filtration).valid
                assert same_subgroup(out.filtration.terms[0], N)


def test_search_within_abelian_always_succeeds():
    for N in normal_subgroups(C9):
        out = pf_embedded_search(C9, 3, N, 1)
        assert out.status == SearchOutcome.FOUND


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_lattice_gate_bounds_every_search(p):
    # a search visits each lattice member at most once, so on any Sylow
    # subgroup the gate accepts it is decided within one node per member
    sizes = {}
    for gid in DEFAULT_CATALOG:
        P = sylow(build_group(gid), p)
        normals = exhaustive_lattice(P, p)
        if normals is None:
            continue
        sizes[gid] = len(normals)
        for N in normals:
            for ell in (0, 1, 2):
                out = pf_embedded_search(P, p, N, ell)
                assert out.status != SearchOutcome.EXHAUSTED
                assert out.nodes <= len(normals)
    if p == 2:
        assert sizes["wreath_cyclic:2:5"] == 374


def test_a_refused_lattice_is_a_status_not_an_error():
    # C2^10 has more subspaces than the work limit leaves closures for
    big = PermutationGroup(20, [parse_cycles(f"({2 * i + 1} {2 * i + 2})", 20)
                                for i in range(10)])
    assert big.order() == 1024
    out = pf_embedded_search(big, 2, big, 1)
    assert out.status == SearchOutcome.EXHAUSTED
    assert out.notes == ("normal subgroup enumeration overflowed its cap",)


@pytest.mark.parametrize("recipe, p, count", [
    ("elementary_abelian:2:4", 2, 67),
    ("dihedral:4", 2, 5),
    ("cyclic:9", 3, 2),
    ("extraspecial:3:plus", 3, 6),
    ("elementary_abelian:5:5", 5, 42_176),
])
def test_frattini_subspaces_bound_the_lattice(recipe, p, count):
    # subgroups of P containing Phi(P) are normal, and for an elementary
    # abelian P they are all of its subgroups
    P = sylow(build_group(recipe), p)
    assert _frattini_subspaces(P, p) == count
    if count < 100:
        normals = normal_subgroups(P)
        assert len(normals) >= count
        if recipe.startswith("elementary_abelian"):
            assert len(normals) == count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frattini_is_the_closure_of_generator_words(p, monkeypatch):
    # Phi(P) = [P, P]P^p is read as the normal closure of the generators'
    # p-th powers and pairwise commutators, not from every element of P
    import psolv.filtrations
    closures = []

    def recorded(G, S):
        closures.append(normal_closure(G, S))
        return closures[-1]

    monkeypatch.setattr(psolv.filtrations, "normal_closure", recorded)
    for gid in DEFAULT_CATALOG:
        P = sylow(build_group(gid), p)
        _frattini_subspaces(P, p)
        phi, = closures
        closures.clear()
        assert same_subgroup(phi, join(gamma(P, 2), power_subgroup(P, p))), gid


@pytest.mark.parametrize("recipe", [
    # P/Phi(P) has rank 17: the Frattini bound refuses it
    "elementary_abelian:2:17",
    # rank 3, (16 - 1) * 2^17 units, passes the Frattini bound, but an
    # abelian P has |P| classes, which normal_subgroups refuses at once
    "product(cyclic:64,product(cyclic:64,cyclic:32))",
])
def test_large_abelian_lattices_are_refused_without_enumerating(recipe, monkeypatch):
    def refuse(G):
        raise AssertionError("a group was enumerated")

    P = build_group(recipe)
    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    assert exhaustive_lattice(P, 2) is None


def test_lattice_overflow_is_refused_before_any_closure(monkeypatch):
    # C5^5 has 42,176 subspaces, each a normal subgroup, above the limit
    import psolv.filtrations

    def refuse(G):
        raise AssertionError("the normal-subgroup lattice was enumerated")

    monkeypatch.setattr(psolv.filtrations, "normal_subgroups", refuse)
    P = build_group("elementary_abelian:5:5")
    assert exhaustive_lattice(P, 5) is None
    out = pf_embedded_search(P, 5, P, 1)
    assert out.status == SearchOutcome.EXHAUSTED
    assert out.notes == ("normal subgroup enumeration overflowed its cap",)
    skip, = question7_scan(P, 5)
    assert skip.notes == ("skipped: the Sylow subgroup's normal subgroup "
                          "enumeration overflowed its cap",)


def test_the_work_limit_counts_the_largest_catalog_lattice(monkeypatch):
    # the C2^5 Sylow subgroup of wreath_cyclic:2:5 has the largest lattice
    # of the catalog; its 374 members cost exactly 418,438 units
    import psolv.subgroups
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 418_438)
    P = sylow(build_group("wreath_cyclic:2:5"), 2)
    assert len(exhaustive_lattice(P, 2)) == 374
    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 418_437)
    P = sylow(build_group("wreath_cyclic:2:5"), 2)
    assert exhaustive_lattice(P, 2) is None


def test_a_refusal_is_paid_once_per_group(monkeypatch):
    # D8 passes the Frattini bound, (5 - 1) * 8 = 32 units, so only the
    # enumeration finds that its lattice needs more than the patched limit
    import psolv.filtrations
    import psolv.subgroups
    calls = 0

    def counted(G):
        nonlocal calls
        calls += 1
        return normal_subgroups(G)

    monkeypatch.setattr(psolv.subgroups, "LATTICE_WORK_LIMIT", 40)
    monkeypatch.setattr(psolv.filtrations, "normal_subgroups", counted)
    P = g(4, "(1 2 3 4)", "(1 3)")
    assert pf_embedded_search(P, 2, P, 1).status == SearchOutcome.EXHAUSTED
    skip, = question7_scan(P, 2)
    assert "overflowed" in skip.notes[0]
    assert calls == 1


def test_searches_share_one_mask_table(monkeypatch):
    # the table reads the lattice's own masks, and each of [N, P], the
    # folded commutator, N^p and the start is placed from its generators,
    # so once the lattice is cached no search packs a member's element rows
    import psolv.subgroups
    packed = []
    real = psolv.subgroups._row_keys

    def counted(G, rows):
        packed.append(len(rows))
        return real(G, rows)

    P = sylow(build_group("wreath_cyclic:2:4"), 2)
    normals = normal_subgroups(P)
    assert len(normals) == 13
    monkeypatch.setattr(psolv.subgroups, "_row_keys", counted)
    for N in normals:
        pf_embedded_search(P, 2, N, 1)
    # P has order 2^6, so a reduced generator list holds at most 6 rows,
    # fewer than the elements of any member of order 8 or more
    assert packed
    assert max(packed) <= P.order().bit_length() - 1


def test_a_member_missing_from_the_lattice_is_a_mismatch(monkeypatch):
    # the lattice fact with one member and its mask dropped: every search
    # whose start is that member must raise, never report a chain or a
    # not_pf_embedded verdict
    import psolv.filtrations
    import psolv.subgroups
    real = psolv.subgroups._lattice
    for k in range(1, len(normal_subgroups(D8))):
        def lacking(G, k=k):
            members, masks = real(G)
            return members[:k] + members[k + 1:], masks[:k] + masks[k + 1:]

        with monkeypatch.context() as m:
            m.setattr(psolv.subgroups, "_lattice", lacking)
            m.setattr(psolv.filtrations, "_lattice", lacking)
            # a fresh object, so no table or lattice is cached on it
            P = g(4, "(1 2 3 4)", "(1 3)")
            N = real(P)[0][k]
            with pytest.raises(InternalMismatch, match="missing from the lattice"):
                pf_embedded_search(P, 2, N, 1)


def test_searches_wrap_no_element_list(monkeypatch):
    # the mask table reads the lattice's masks and each start is placed
    # from its generators: once the lattice is cached, no search asks a
    # group for its Permutations
    import psolv.filtrations
    P = build_group("extraspecial:5:plus")
    normals = normal_subgroups(P)

    def refuse(self):
        raise AssertionError("a group was enumerated as Permutations")

    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    for ell in (0, 1, 2):
        assert len(psolv.filtrations._search_table(P, 5, ell)) == len(normals)
    for N in normals:
        assert pf_embedded_search(P, 5, N, 1).status in (
            SearchOutcome.FOUND, SearchOutcome.NOT_PF_EMBEDDED)


def test_facts_and_searches_leave_no_reference_cycle():
    # a cycle through a group's cached facts keeps the group, its chain
    # and every fact alive until a full garbage collection
    gc.collect()
    gc.disable()
    try:
        P = g(4, "(1 2 3 4)", "(1 3)")
        ekr_pf_candidates(P, 2, 1, 1)
        lower_central_series(P)
        conjugacy_classes(P)
        # commutators are cached on P, keyed by the other group's generators
        Z = g(4, "(1 3)(2 4)")
        assert commutator(P, Z).is_trivial()
        assert iterated_commutator(P, P, 2).is_trivial()
        assert is_normal(P, Z)
        out = pf_embedded_search(P, 2, P, 1)
        assert out.status == SearchOutcome.NOT_PF_EMBEDDED
        del P, Z, out
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_power_chain_of_powerful_group_is_potent():
    # C9 is powerful: [P,P] = 1 <= P^3; its power chain is a type-1 example
    F = Filtration(C9, 3, 1, (C9, power_subgroup(C9, 3),
                              trivial_group(9)))
    assert verify_potent_filtration(F).valid


def test_sylow_helper_matches_ambient():
    P = sylow(g(4, "(1 2)", "(1 2 3 4)"), 2)
    assert P.order() == 8
    N = compute_ekr(P, 2, 2, 1)
    out = pf_embedded_search(P, 2, N, 1)
    assert out.status in (SearchOutcome.FOUND, SearchOutcome.NOT_PF_EMBEDDED)
