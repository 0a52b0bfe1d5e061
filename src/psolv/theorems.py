"""Statement-level checks tying filtrations to p-length.

Every entry point returns a Verdict. hypothesis_holds records whether the
statement's premise was established on the given instance; conclusion_holds
is only filled in when it was. A verdict with a true hypothesis, a false
conclusion and report_only unset contradicts a proved statement, which is
exactly what the test battery hunts for.
"""

from __future__ import annotations

import math

from .errors import InternalMismatch, NotNormal, NotPSolvable, PreconditionViolated
from .filtrations import (
    DEFAULT_SEARCH_BUDGET,
    Filtration,
    SearchOutcome,
    compute_ekr,
    pf_embedded_search,
    search_order_limit,
    verify_potent_filtration,
)
from .group import PermutationGroup
from .series import (
    _core_by_class_closures,
    _p_valuation,
    check_p_group,
    exponent,
    gamma,
    is_p_solvable,
    nilpotency_class,
    o_p,
    o_pprime,
    o_pprime_p,
    p_length,
    require_prime,
    sylow,
    upper_p_series,
)
from .subgroups import (
    _first_outside,
    _normalizes,
    commutator,
    conjugacy_classes,
    is_normal,
    is_subgroup,
    iterated_commutator,
    join,
    normal_subgroups,
    power_subgroup,
    same_subgroup,
)
from .verdicts import Verdict

CORE_ORDER_NOTE = ("containment is tested against the p'-core-then-p-core "
                   "term; the swapped ordering (p-core first) is recorded "
                   "alongside because the two are easy to conflate")


def check_main_hypothesis(P: PermutationGroup, p: int, ell: int) -> Verdict:
    """Does gamma_{ell(p-1)}(P) land inside some gamma_r(P)^(p^s) with
    ell(p-1) < r + s(p-1)?

    All qualifying (r, s) pairs with r <= class+1 and s <= log_p(exponent)
    are recorded; any pair outside that box forces the left side to be
    trivial, in which case the containment holds anyway and the pair
    (ell(p-1)+1, 0) is recorded as a fallback. Pairs are scanned with s
    ascending and r ascending inside each s. The containment into
    P^(p^ell) is recorded separately as a point of comparison.
    """
    require_prime(p)
    check_p_group(P, p)
    if ell < 1:
        raise PreconditionViolated("the type must be at least 1")
    m = ell * (p - 1)
    lhs = gamma(P, m)
    c = nilpotency_class(P)
    e = _p_valuation(exponent(P), p)

    hits = []
    for s in range(0, e + 1):
        for r in range(1, c + 2):
            if not m < r + s * (p - 1):
                continue
            target = power_subgroup(gamma(P, r), p ** s)
            if is_subgroup(lhs, target):
                hits.append((r, s))
    trivial_lhs = lhs.is_trivial()
    holds = bool(hits) or trivial_lhs

    params = {
        "p": p,
        "ell": ell,
        "gamma_index": m,
        "lhs_order": lhs.order(),
        "nilpotency_class": c,
        "exponent_valuation": e,
        "hits": [list(h) for h in hits],
        "first_hit": list(hits[0]) if hits else None,
        "trivial_lhs": trivial_lhs,
        "lhs_in_p_power_ell": is_subgroup(
            lhs, power_subgroup(P, p ** ell)),
    }
    notes = []
    if trivial_lhs and not hits:
        params["fallback_pair"] = [m + 1, 0]
        notes.append("the left side is trivial; no pair inside the search "
                     "box works, so the out-of-box fallback is recorded")
    elif trivial_lhs:
        notes.append("the left side is trivial, so the containment is "
                     "automatic")
    return Verdict("main-hypothesis", holds, None, params, (), tuple(notes))


def check_thm6_hypothesis(P: PermutationGroup, p: int, ell: int) -> Verdict:
    """Does gamma_{ell(p-1)}(P) land inside E_{ell(p-1)+1, 1}(P)?"""
    require_prime(p)
    check_p_group(P, p)
    if ell < 1:
        raise PreconditionViolated("the type must be at least 1")
    m = ell * (p - 1)
    lhs = gamma(P, m)
    E = compute_ekr(P, p, m + 1, 1)
    holds = is_subgroup(lhs, E)
    params = {
        "p": p,
        "ell": ell,
        "gamma_index": m,
        "lhs_order": lhs.order(),
        "ekr_order": E.order(),
    }
    witnesses = ()
    if not holds:
        witnesses = (("generator of the left side outside the product "
                      "subgroup", _first_outside(lhs, E)),)
    return Verdict("thm6-hypothesis", holds, None, params, witnesses)


def _minimal_ell(P: PermutationGroup, p: int, thm6_only: bool):
    """Least ell whose hypothesis holds; terminates because the left side
    is trivial once ell(p-1) exceeds the nilpotency class."""
    c = nilpotency_class(P)
    for ell in range(1, c + 3):
        thm6_v = check_thm6_hypothesis(P, p, ell)
        main_v = None if thm6_only else check_main_hypothesis(P, p, ell)
        if thm6_v.hypothesis_holds or (main_v is not None
                                       and main_v.hypothesis_holds):
            return ell, main_v, thm6_v
    raise InternalMismatch("the minimal-type scan passed the bound at which "
                           "the hypothesis must hold")


def _exponent_modulo(H: PermutationGroup, N: PermutationGroup) -> int:
    """Exponent of HN/N, computed inside H: the lcm over H's class
    representatives x of the least m with x^m in N. The order of xN divides
    o(x), so each prime q is stripped from o(x) while x^(m/q) stays in N.
    Raises NotNormal unless H normalizes N."""
    if not _normalizes(H, N):
        raise NotNormal("the group does not normalize the kernel")
    exp = 1
    for cls in conjugacy_classes(H):
        x = cls[0]
        m = rest = x.order()
        q = 2
        while rest > 1:
            if rest % q == 0:
                while rest % q == 0:
                    rest //= q
                while m % q == 0 and N.contains(x ** (m // q)):
                    m //= q
            q += 1
        exp = math.lcm(exp, m)
    return exp


def _verify_length_links(G, p, P, ell, params, witnesses):
    """The chain of containments that turns the filtration hypothesis into
    a p-length bound, each verified directly:

      (a) E^(p^2) lies inside the p'-then-p core, with E = E_{(ell-1)(p-1),1}
          of the Sylow subgroup;
      (b) the exponent of P / E^(p^2) divides p^(ell+1), cross-checked
          against the equivalent containment P^(p^(ell+1)) <= E^(p^2);
      (c) the image of P in G over the p'-then-p core has exponent dividing
          the exponent of P / E^(p^2), hence dividing p^(ell+1).
    """
    k = max(0, (ell - 1) * (p - 1))
    E = compute_ekr(P, p, k, 1)
    Ep2 = power_subgroup(E, p * p)
    core = o_pprime_p(G, p)

    link_core = is_subgroup(Ep2, core)
    if not link_core:
        witnesses.append(("generator of E^(p^2) outside the p'-then-p core",
                          _first_outside(Ep2, core)))

    bound = p ** (ell + 1)
    exp_quot = _exponent_modulo(P, Ep2)
    by_exponent = bound % exp_quot == 0
    by_powers = is_subgroup(power_subgroup(P, bound), Ep2)
    if by_exponent != by_powers:
        raise InternalMismatch("the exponent route and the power-subgroup "
                               "route disagree on the quotient bound")
    link_exponent = by_exponent
    if not link_exponent:
        witnesses.append(("P^(p^(ell+1)) escapes E^(p^2)",
                          _first_outside(power_subgroup(P, bound), Ep2)))

    exp_image = _exponent_modulo(P, core)
    link_restriction = exp_quot % exp_image == 0
    link_composed = bound % exp_image == 0

    params.update({
        "ekr_order": E.order(),
        "ekr_p2_order": Ep2.order(),
        "core_order": core.order(),
        "exponent_of_quotient": exp_quot,
        "exponent_of_image": exp_image,
        "exponent_bound": bound,
        "link_core": link_core,
        "link_exponent": link_exponent,
        "link_restriction": link_restriction,
        "link_composed": link_composed,
        "p_length": p_length(G, p),
    })
    return link_core and link_exponent and link_restriction and link_composed


def _verify_length_statement(statement, G, p, ell, thm6_only):
    require_prime(p)
    if not is_p_solvable(G, p):
        raise NotPSolvable(f"the group is not {p}-solvable")
    if ell is not None and ell < 1:
        raise PreconditionViolated("the type must be at least 1")
    P = sylow(G, p)
    scanned = ell is None
    if scanned:
        ell, main_v, thm6_v = _minimal_ell(P, p, thm6_only)
    else:
        thm6_v = check_thm6_hypothesis(P, p, ell)
        main_v = None if thm6_only else check_main_hypothesis(P, p, ell)

    hyp_main = main_v.hypothesis_holds if main_v is not None else False
    hyp = thm6_v.hypothesis_holds or hyp_main
    params = {
        "p": p,
        "ell": ell,
        "ell_was_scanned": scanned,
        "group_order": G.order(),
        "sylow_order": P.order(),
        "hypothesis_thm6": thm6_v.hypothesis_holds,
        "thm6_hypothesis": thm6_v.to_payload(),
    }
    if main_v is not None:
        params["hypothesis_main"] = hyp_main
        params["main_hypothesis"] = main_v.to_payload()
    notes = []
    if scanned:
        notes.append("no type was supplied; the least type whose hypothesis "
                     "holds was used")
    if not hyp:
        return Verdict(statement, False, None, params, (), tuple(notes))
    witnesses = []
    concl = _verify_length_links(G, p, P, ell, params, witnesses)
    return Verdict(statement, True, concl, params, tuple(witnesses),
                   tuple(notes))


def verify_main(G: PermutationGroup, p: int, ell: int | None = None) -> Verdict:
    """Bounded p-length from a lower-central containment.

    Hypothesis: gamma_{ell(p-1)}(P) <= gamma_r(P)^(p^s) for some r, s with
    ell(p-1) < r + s(p-1), P a Sylow p-subgroup; the weaker product-subgroup
    hypothesis is accepted too since the first implies it. With ell omitted
    the least type whose hypothesis holds is used (the scan terminates: the
    left side is eventually trivial). Conclusion: the verified containment
    links bounding the exponent of the Sylow image over the p'-then-p core.
    """
    return _verify_length_statement("main", G, p, ell, thm6_only=False)


def verify_thm6(G: PermutationGroup, p: int, ell: int | None = None) -> Verdict:
    """Same length links as verify_main, but the hypothesis is only the
    product-subgroup containment gamma_{ell(p-1)}(P) <= E_{ell(p-1)+1,1}(P)."""
    return _verify_length_statement("thm6", G, p, ell, thm6_only=True)


def _require_sylow_filtration(G, p, N, F, expected_type):
    P = F.ambient
    if P.degree != G.degree or not is_subgroup(P, G):
        raise PreconditionViolated(
            "the chain's ambient group must be a subgroup of the group")
    check_p_group(P, p)
    if P.order() != sylow(G, p).order():
        raise PreconditionViolated(
            "the chain's ambient group must be a full Sylow p-subgroup")
    if F.prime != p:
        raise PreconditionViolated("the chain's prime differs from p")
    if F.type_ell != expected_type:
        raise PreconditionViolated(
            f"the chain must have type {expected_type} for p = {p}")
    if not F.terms or not same_subgroup(F.terms[0], N):
        raise PreconditionViolated("the chain must start at the given "
                                   "subgroup")


def verify_prop3(G: PermutationGroup, p: int, N: PermutationGroup,
                 F: Filtration) -> Verdict:
    """A subgroup of a Sylow p-subgroup starting a potent filtration of
    type p-2 (p odd) lies inside the p'-then-p core."""
    require_prime(p)
    if p < 3:
        raise PreconditionViolated("an odd prime is required")
    if not is_p_solvable(G, p):
        raise NotPSolvable(f"the group is not {p}-solvable")
    _require_sylow_filtration(G, p, N, F, p - 2)
    pf = verify_potent_filtration(F)
    core = o_pprime_p(G, p)
    params = {
        "p": p,
        "type_ell": F.type_ell,
        "n_order": N.order(),
        "sylow_order": F.ambient.order(),
        "core_order": core.order(),
        "chain_orders": F.orders(),
        "chain_verdict": pf.to_payload(),
    }
    if not pf.valid:
        return Verdict("prop3", False, None, params)
    concl = is_subgroup(N, core)
    witnesses = ()
    if not concl:
        witnesses = (("generator of the subgroup outside the core",
                      _first_outside(N, core)),)
    return Verdict("prop3", True, concl, params, witnesses)


def verify_prop4(G: PermutationGroup, p: int, N: PermutationGroup,
                 F: Filtration) -> Verdict:
    """A subgroup starting a potent filtration of type p-1 lands in the
    p'-then-p core after raising to a power that depends on p: the p-th
    power for p >= 5, the p^2-th for p = 3, and no power at all for p = 2."""
    require_prime(p)
    if not is_p_solvable(G, p):
        raise NotPSolvable(f"the group is not {p}-solvable")
    _require_sylow_filtration(G, p, N, F, p - 1)
    pf = verify_potent_filtration(F)
    core = o_pprime_p(G, p)
    if p >= 5:
        tested, label = power_subgroup(N, p), "N^p"
    elif p == 3:
        tested, label = power_subgroup(N, p * p), "N^(p^2)"
    else:
        tested, label = N, "N"
    params = {
        "p": p,
        "type_ell": F.type_ell,
        "n_order": N.order(),
        "tested_subgroup": label,
        "tested_order": tested.order(),
        "sylow_order": F.ambient.order(),
        "core_order": core.order(),
        "chain_orders": F.orders(),
        "chain_verdict": pf.to_payload(),
    }
    if not pf.valid:
        return Verdict("prop4", False, None, params)
    concl = is_subgroup(tested, core)
    witnesses = ()
    if not concl:
        witnesses = ((f"generator of {label} outside the core",
                      _first_outside(tested, core)),)
    return Verdict("prop4", True, concl, params, witnesses)


def verify_lemma8(G: PermutationGroup, p: int, N: PermutationGroup,
                  l: int) -> Verdict:
    """With trivial p'-core, a normal subgroup that the p-core eventually
    centralizes under iterated commutators lies inside the p-core."""
    require_prime(p)
    if l < 1:
        raise PreconditionViolated("the commutator depth must be at least 1")
    if N.degree != G.degree or not is_subgroup(N, G) or not is_normal(G, N):
        raise PreconditionViolated("N must be a normal subgroup of the group")
    if not is_p_solvable(G, p):
        raise NotPSolvable(f"the group is not {p}-solvable")
    core_pprime = o_pprime(G, p)
    if not core_pprime.is_trivial():
        raise PreconditionViolated("the p'-core must be trivial")
    P0 = o_p(G, p)
    folded = iterated_commutator(P0, N, l)
    hyp = folded.is_trivial()
    params = {
        "p": p,
        "l": l,
        "n_order": N.order(),
        "p_core_order": P0.order(),
        "folded_order": folded.order(),
    }
    if not hyp:
        return Verdict("lemma8", False, None, params)
    concl = is_subgroup(N, P0)
    witnesses = ()
    if not concl:
        witnesses = (("generator of N outside the p-core",
                      _first_outside(N, P0)),)
    return Verdict("lemma8", True, concl, params, witnesses)


def check_O24_inclusion(G: PermutationGroup, V: PermutationGroup,
                        M: PermutationGroup, p: int, r: int, l: int) -> Verdict:
    """[V, M^(p^(r+l))] sits inside the product of [V, M]^(p^(r+l)) and
    the pieces [V, M, ..., M]^(p^(r+l-i)) with p^i commutator steps, for
    i = 1 .. r+l. The statement has no side hypothesis, so every instance
    is a conclusion check."""
    require_prime(p)
    if r < 0 or l < 0:
        raise PreconditionViolated("the exponents must be nonnegative")
    if r + l < 1:
        raise PreconditionViolated("at least one of the exponents must be "
                                   "positive")
    for name, H in (("V", V), ("M", M)):
        if H.degree != G.degree or not is_subgroup(H, G):
            raise PreconditionViolated(f"{name} must be a subgroup of the "
                                       "group")
    t = r + l
    q = p ** t
    lhs = commutator(V, power_subgroup(M, q))
    base = power_subgroup(commutator(V, M), q)
    piece_orders = [("[V,M]", t, base.order())]
    rhs = base
    for i in range(1, t + 1):
        folded = iterated_commutator(V, M, p ** i)
        piece = power_subgroup(folded, p ** (t - i))
        piece_orders.append((f"[V,{p ** i} steps of M]", t - i, piece.order()))
        rhs = join(rhs, piece)
    concl = is_subgroup(lhs, rhs)
    params = {
        "p": p,
        "r": r,
        "l": l,
        "v_order": V.order(),
        "m_order": M.order(),
        "lhs_order": lhs.order(),
        "rhs_order": rhs.order(),
        "pieces": [[name, power, order] for name, power, order in piece_orders],
    }
    witnesses = ()
    if not concl:
        witnesses = (("generator of the left side outside the product",
                      _first_outside(lhs, rhs)),)
    return Verdict("o24", True, concl, params, witnesses)


def question7_scan(G: PermutationGroup, p: int, ell: int = 1,
                   budget: int = DEFAULT_SEARCH_BUDGET):
    """For every normal subgroup of a Sylow p-subgroup that starts a type-ell
    potent filtration, report whether it lies in the p'-then-p core.

    This explores an open question, so every verdict is report-only: a
    counterexample would be interesting, not a bug. Groups that are not
    p-solvable or whose Sylow subgroup is too large for the exhaustive
    search are skipped with a note.
    """
    require_prime(p)
    if ell < 0:
        raise PreconditionViolated("the type must be nonnegative")
    base_params = {"p": p, "ell": ell, "group_order": G.order()}
    if not is_p_solvable(G, p):
        return [Verdict("question7", False, None, dict(base_params),
                        notes=("skipped: the group is not p-solvable",),
                        report_only=True)]
    P = sylow(G, p)
    base_params["sylow_order"] = P.order()
    limit = search_order_limit(p)
    if P.order() > limit:
        return [Verdict("question7", False, None, dict(base_params),
                        notes=(f"skipped: the Sylow subgroup order "
                               f"{P.order()} exceeds the exhaustive "
                               f"search limit {limit}",),
                        report_only=True)]
    normals = normal_subgroups(P)
    core = o_pprime_p(G, p)
    swapped = _core_by_class_closures(G, p, False, o_p(G, p))

    out = []
    for N in normals:
        res = pf_embedded_search(P, p, N, ell, budget)
        params = dict(base_params)
        params["n_order"] = N.order()
        params["search_nodes"] = res.nodes
        if res.status == SearchOutcome.EXHAUSTED:
            out.append(Verdict("question7", False, None, params,
                               notes=("undecided: " + "; ".join(res.notes),),
                               report_only=True))
            continue
        if res.status != SearchOutcome.FOUND:
            continue
        in_core = is_subgroup(N, core)
        params["in_core"] = in_core
        params["in_swapped_core"] = is_subgroup(N, swapped)
        params["chain_orders"] = res.filtration.orders()
        witnesses = ()
        if not in_core:
            witnesses = (("embedded subgroup escapes the core",
                          _first_outside(N, core)),)
        out.append(Verdict("question7", True, in_core, params, witnesses,
                           (CORE_ORDER_NOTE,), report_only=True))
    return out


def hall_higman_bound(G: PermutationGroup, p: int) -> Verdict:
    """p-length at most the exponent valuation of a Sylow p-subgroup.

    Proved for odd p; for p = 2 the inequality can genuinely fail, so that
    case is reported without being asserted.
    """
    require_prime(p)
    if not is_p_solvable(G, p):
        raise NotPSolvable(f"the group is not {p}-solvable")
    P = sylow(G, p)
    e = _p_valuation(exponent(P), p)
    length = p_length(G, p)
    params = {
        "p": p,
        "p_length": length,
        "exponent_valuation": e,
        "sylow_order": P.order(),
    }
    notes = ()
    if p == 2:
        notes = ("the bound is not a theorem at p = 2, so this verdict only "
                 "reports",)
    return Verdict("hall-higman", True, length <= e, params, (), notes,
                   report_only=(p == 2))


def analyze_group(G: PermutationGroup, p: int) -> Verdict:
    """Descriptive profile of a group at a prime: solvability, length,
    series orders, cores, Sylow structure. Never asserts anything."""
    require_prime(p)
    rep = upper_p_series(G, p)
    P = sylow(G, p)
    params = {
        "p": p,
        "degree": G.degree,
        "group_order": G.order(),
        "is_p_solvable": rep.is_p_solvable,
        "p_length": rep.p_length if rep.is_p_solvable else None,
        "upper_series_orders": rep.orders(),
        "p_core_order": o_p(G, p).order(),
        "pprime_core_order": o_pprime(G, p).order(),
        "sylow_order": P.order(),
        "sylow_class": nilpotency_class(P),
        "sylow_exponent": exponent(P),
        "group_exponent": exponent(G),
    }
    notes = ()
    if not rep.is_p_solvable:
        notes = ("the upper series stalls below the whole group, so no "
                 "p-length is defined",)
    return Verdict("analyze", True, None, params, (), notes,
                   report_only=True)
