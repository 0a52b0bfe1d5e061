"""Run every applicable statement check over the built-in catalog.

The battery is what `catalog run` executes and what the acceptance tests
sweep for findings. Output is fully deterministic for a fixed (p, seed):
iteration orders are fixed, random sampling is seeded per group, and no
wall-clock data enters the reports.
"""

from __future__ import annotations

import random

from .catalog import DEFAULT_CATALOG, Report, build_group
from .errors import CapExceeded, KernelNotElementaryAbelian
from .filtrations import (
    SearchOutcome,
    check_prop1,
    ekr_pf_candidates,
    exhaustive_lattice,
    pf_embedded_search,
)
from .linear import LinearAction, sample_identities, unipotency_degree
from .series import is_p_solvable, o_p, o_pprime, require_prime, sylow
from .subgroups import normal_subgroups, same_subgroup
from .theorems import (
    analyze_group,
    check_O24_inclusion,
    hall_higman_bound,
    question7_scan,
    verify_lemma8,
    verify_main,
    verify_prop3,
    verify_prop4,
    verify_thm6,
)
from .verdicts import Verdict

# gates that keep a full catalog sweep fast; statements are skipped, never
# weakened, when a group is beyond them
LATTICE_GROUP_LIMIT = 200
SEARCH_INSTANCE_CAP = 8
PROP1_INSTANCE_CAP = 12
SAMPLE_PAIRS = 200
LINEAR_GROUP_LIMIT = 500


def _search_starts(normals):
    """Smallest few plus the largest two; ascending, no duplicates."""
    head = SEARCH_INSTANCE_CAP - 2
    return normals[:head] + normals[max(head, len(normals) - 2):]


def _same_chain(F1, F2):
    return (F1.type_ell == F2.type_ell and len(F1.terms) == len(F2.terms)
            and all(same_subgroup(A, B) for A, B in zip(F1.terms, F2.terms)))


def battery_for_group(G, gid: str, p: int, seed: int):
    """All statement verdicts for one group at one prime, as Reports."""
    require_prime(p)
    verdicts = [analyze_group(G, p)]
    if not is_p_solvable(G, p):
        for statement in ("main", "thm6", "hall-higman"):
            verdicts.append(Verdict.skip(
                statement, {"p": p, "group_order": G.order()},
                "the group is not p-solvable"))
        return [Report.of(gid, v) for v in verdicts]

    verdicts.append(verify_main(G, p))
    verdicts.append(verify_thm6(G, p))
    verdicts.append(hall_higman_bound(G, p))

    P = sylow(G, p)
    normals_P = exhaustive_lattice(P, p)

    # collect verified chains from the canonical candidates and the searches,
    # then re-derive each one's consequences
    found_chains = []

    def remember(F):
        if not any(_same_chain(F, other) for other in found_chains):
            found_chains.append(F)

    for F, pf in ekr_pf_candidates(P, p, p - 1, 1):
        if pf.valid:
            remember(F)

    # Proposition 3 needs an odd prime; its chains are searched first
    instances = []
    if normals_P is not None:
        starts = _search_starts(normals_P)
        for ell, checker in [(p - 2, verify_prop3),
                             (p - 1, verify_prop4)][p == 2:]:
            for N in starts:
                out = pf_embedded_search(P, p, N, ell)
                if out.status == SearchOutcome.FOUND:
                    remember(out.filtration)
                    instances.append((checker, N, out.filtration))

    for F in found_chains[:PROP1_INSTANCE_CAP]:
        verdicts.append(check_prop1(F))
    for checker, N, F in instances:
        verdicts.append(checker(G, p, N, F))

    if G.order() <= LATTICE_GROUP_LIMIT:
        try:
            normals_G = normal_subgroups(G)
        except CapExceeded:
            normals_G = None
        if normals_G is not None:
            if o_pprime(G, p).is_trivial():
                for N in _search_starts(normals_G):
                    for depth in (1, 2):
                        verdicts.append(verify_lemma8(G, p, N, depth))
            for V in _search_starts(normals_G)[:4]:
                for r, l in ((1, 0), (0, 1), (1, 1)):
                    verdicts.append(check_O24_inclusion(G, V, P, p, r, l))

    if G.order() <= LINEAR_GROUP_LIMIT:
        v = _linear_action_verdict(G, gid, p, seed)
        if v is not None:
            verdicts.append(v)

    verdicts.extend(question7_scan(G, p, 1))

    return [Report.of(gid, v) for v in verdicts]


def _linear_action_verdict(G, gid, p, seed):
    """Sample-check that conjugation on an elementary abelian p-core is a
    matrix representation: multiplicativity, the commutator identity, and
    unipotency of the Sylow generators' images. These are all proved facts,
    so a failed conclusion means a bug worth reporting loudly.

    The SAMPLE_PAIRS samples are drawn from the element rows of G and of
    the core and checked by linear.sample_identities, on packed F_p rows
    and image tuples; the unipotency degrees are computed on the kept
    T(g) of each Sylow generator, an FpMatrix of the same packed rows."""
    V = o_p(G, p)
    if V.is_trivial():
        return None
    try:
        action = LinearAction(G, V, p)
    except KernelNotElementaryAbelian:
        return None
    rng = random.Random(f"{seed}:{gid}:{p}:linear")
    hom_ok, comm_ok = sample_identities(action, rng, SAMPLE_PAIRS)
    P = sylow(G, p)
    degrees = [unipotency_degree(action.matrix(g)) for g in P.generators]
    unipotent_ok = all(d is not None for d in degrees)
    params = {
        "p": p,
        "dimension": action.dimension,
        "kernel_order": V.order(),
        "sample_pairs": SAMPLE_PAIRS,
        "multiplicative": hom_ok,
        "commutator_identity": comm_ok,
        "sylow_generator_unipotency": degrees,
    }
    return Verdict("linear-action", True, hom_ok and comm_ok and unipotent_ok,
                   params)


def run_catalog(p: int, seed: int, only: str | None = None):
    """Battery over the whole built-in catalog; `only` filters group ids by
    substring."""
    require_prime(p)
    reports = []
    for gid in DEFAULT_CATALOG:
        if only is not None and only not in gid:
            continue
        G = build_group(gid)
        reports.extend(battery_for_group(G, gid, p, seed))
    return reports
