"""The acceptance gate: ten checks, one test function each.

Each test is a complete pass/fail statement of one guarantee the package
makes, from engine soundness up to byte-identical report emission. The
three full catalog sweeps (p = 2, 3, 5, seed 7) are computed once and
shared; everything else recomputes what it checks so a test failure
always points at the responsible layer.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from oracles import (
    centralizer_set,
    commutator_set,
    elements_of,
    generated,
    normalizer_set,
    power_set,
    upper_p_series_sets,
)
from psolv.catalog import DEFAULT_CATALOG, REPORT_SCHEMA, build_group
from psolv.battery import run_catalog
from psolv.errors import KernelNotElementaryAbelian
from psolv.filtrations import (
    Filtration,
    SearchOutcome,
    pf_embedded_search,
    verify_potent_filtration,
)
from psolv.group import PermutationGroup, trivial_group
from psolv.linear import FpMatrix, LinearAction, unipotency_degree
from psolv.perm import from_cycles, parse_cycles
from psolv.series import (
    is_p_solvable,
    nilpotency_class,
    o_p,
    p_length,
    sylow,
    upper_p_series,
)
from psolv.subgroups import (
    centralizer,
    commutator,
    intersect,
    join,
    normal_closure,
    normal_subgroups,
    normalizer,
    power_subgroup,
    same_subgroup,
)
from psolv.theorems import (
    check_main_hypothesis,
    check_thm6_hypothesis,
    verify_lemma8,
)

SEED = 7
SWEEP_PRIMES = (2, 3, 5)

# exhaustive-search size boxes for the agreement sweep in criterion 3
TINY_SYLOW = {2: 32, 3: 27}


@pytest.fixture(scope="module")
def sweeps():
    return {p: run_catalog(p, SEED) for p in SWEEP_PRIMES}


def checked(sweeps, statement):
    """(p, group id, verdict payload) for every asserting verdict of one
    statement across the sweeps; report-only rows (skips, p=2 length
    bounds, open-question scans) are excluded."""
    rows = []
    for p, reports in sweeps.items():
        for r in reports:
            if r.statement_id == statement and not r.verdict["report_only"]:
                rows.append((p, r.group_id, r.verdict))
    return rows


def p_group_prime(n):
    for p in (2, 3, 5, 7):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def same_set(H, expected):
    return frozenset(H.elements()) == frozenset(expected)


def test_criterion_01_engine_soundness():
    # stabilizer-chain orders against full product closure, whole catalog
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        if G.order() <= 10_000:
            assert G.order() == len(elements_of(G)), gid

    # subgroup algebra against definitional enumeration
    for gid in ("symmetric:4", "symmetric:5", "sl2:3", "dihedral:8",
                "alternating:4", "affine:5", "extraspecial:3:plus",
                "wreath_cyclic:2:3"):
        G = build_group(gid)
        els = list(elements_of(G))
        assert len(els) <= 5000
        d = G.degree
        q = p_group_prime(G.order())  # None unless G is a p-group
        primes = [p for p in (2, 3, 5) if G.order() % p == 0]
        A = sylow(G, primes[0])
        B = PermutationGroup(d, [G.generators[0]])
        a_els = list(A.elements())

        assert same_set(commutator(G, G), commutator_set(d, els, els)), gid
        assert same_set(commutator(A, G), commutator_set(d, a_els, els)), gid
        for p in primes:
            assert same_set(power_subgroup(G, p), power_set(d, els, p)), gid
        assert same_set(centralizer(G, A), centralizer_set(els, a_els)), gid
        assert same_set(normalizer(G, A), normalizer_set(d, els, a_els)), gid
        assert same_set(join(A, B),
                        generated(d, set(a_els) | set(B.elements()))), gid
        conj = {b.conjugate(g) for b in B.elements() for g in els}
        assert same_set(normal_closure(G, B), generated(d, conj)), gid
        assert same_set(intersect(A, normal_closure(G, B)),
                        set(a_els) & generated(d, conj)), gid
        assert q is None or same_subgroup(A, G)


def test_criterion_02_series_facts():
    named = (("symmetric:4", 2, 2), ("sl2:3", 2, 1), ("symmetric:3", 3, 1))
    for gid, p, expected in named:
        G = build_group(gid)
        assert p_length(G, p) == expected, gid
        terms, plen, reaches = upper_p_series_sets(elements_of(G),
                                                   G.degree, p)
        assert reaches and plen == expected, gid
        assert upper_p_series(G, p).orders() == [len(t) for t in terms], gid

    A5 = build_group("alternating:5")
    assert is_p_solvable(A5, 2) is False
    terms, _, reaches = upper_p_series_sets(elements_of(A5), 5, 2)
    assert not reaches
    assert upper_p_series(A5, 2).orders() == [len(t) for t in terms]

    p_groups = 0
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        p = p_group_prime(G.order())
        if p is not None:
            assert p_length(G, p) == 1, gid
            p_groups += 1
    assert p_groups >= 15


def test_criterion_03_potent_chain_definitions():
    # (P, 1) is always a chain of type 1 when P is abelian
    for gid in ("cyclic:4", "cyclic:8", "cyclic:9", "cyclic:27",
                "elementary_abelian:2:3", "elementary_abelian:3:2"):
        P = build_group(gid)
        p = p_group_prime(P.order())
        F = Filtration(P, p, 1, (P, trivial_group(P.degree)))
        assert verify_potent_filtration(F).valid, gid

    # the order-8 dihedral chain through its rotations breaks the potency
    # condition at the second term, with the half-turn as witness
    D8 = build_group("dihedral:4")
    r = from_cycles(4, [(0, 1, 2, 3)])
    C4 = PermutationGroup(4, [r])
    Z2 = PermutationGroup(4, [r * r])
    v = verify_potent_filtration(
        Filtration(D8, 2, 1, (D8, C4, Z2, trivial_group(4))))
    assert not v.valid
    assert v.failed_condition == 4
    assert v.failed_index == 2
    assert v.witness == parse_cycles("(1 3)(2 4)", 4)

    # every chain the search returns must satisfy the verifier
    found = 0
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        for p in (2, 3):
            if G.order() % p:
                continue
            P = sylow(G, p)
            if P.order() > TINY_SYLOW[p]:
                continue
            normals = normal_subgroups(P)
            for N in normals:
                for ell in sorted({1, p - 1, p}):
                    out = pf_embedded_search(P, p, N, ell)
                    if out.status != SearchOutcome.FOUND:
                        continue
                    found += 1
                    F = out.filtration
                    assert same_subgroup(F.terms[0], N)
                    assert F.type_ell == ell
                    assert verify_potent_filtration(F).valid, (gid, p, ell)
    assert found >= 50

    out = pf_embedded_search(D8, 2, D8, 1)
    assert out.status == SearchOutcome.NOT_PF_EMBEDDED


def test_criterion_04_power_commutator_identity(sweeps):
    rows = checked(sweeps, "prop1")
    assert len(rows) >= 10
    for p, gid, v in rows:
        assert v["hypothesis_holds"], (p, gid)
        assert v["conclusion_holds"], (p, gid, v["witnesses"])
        pr = v["parameters"]
        assert pr["identity_holds"], (p, gid)
        assert pr["power_chain_valid"] and pr["bracket_chain_valid"], (p, gid)


def test_criterion_05_embedded_subgroup_containments(sweeps):
    rows3 = checked(sweeps, "prop3")
    rows4 = checked(sweeps, "prop4")
    assert any(p == 3 for p, _, _ in rows3)
    assert any(p == 5 for p, _, _ in rows3)
    assert any(p == 2 for p, _, _ in rows4)
    for p, gid, v in rows3 + rows4:
        assert v["hypothesis_holds"], (p, gid)
        assert v["conclusion_holds"], (p, gid, v["witnesses"])


def test_criterion_06_length_bound_links(sweeps):
    rows = [row for statement in ("main", "thm6")
            for row in checked(sweeps, statement)]
    assert len(rows) >= 60
    seen = set()
    for p, gid, v in rows:
        seen.add((p, gid))
        assert v["hypothesis_holds"], (p, gid)
        assert v["conclusion_holds"], (p, gid, v["witnesses"])
        pr = v["parameters"]
        assert pr["ell_was_scanned"] is True
        assert pr["link_core"], (p, gid)
        assert pr["link_exponent"], (p, gid)
        assert pr["link_restriction"] and pr["link_composed"], (p, gid)
        assert pr["exponent_bound"] == p ** (pr["ell"] + 1)

    # both statements ran on every p-solvable catalog group
    expected = {(p, gid) for p in SWEEP_PRIMES for gid in DEFAULT_CATALOG
                if is_p_solvable(build_group(gid), p)}
    assert seen == expected

    # the stronger hypothesis implies the weaker one on every catalog p-group
    for gid in DEFAULT_CATALOG:
        P = build_group(gid)
        p = p_group_prime(P.order())
        if p is None:
            continue
        for ell in range(1, nilpotency_class(P) + 3):
            if check_main_hypothesis(P, p, ell).hypothesis_holds:
                assert check_thm6_hypothesis(P, p, ell).hypothesis_holds, \
                    (gid, ell)


def test_criterion_07_core_descent_and_power_inclusion(sweeps):
    rows = checked(sweeps, "lemma8")
    qualifying = [(p, gid, v) for p, gid, v in rows if v["hypothesis_holds"]]
    assert qualifying
    for p, gid, v in qualifying:
        assert v["conclusion_holds"], (p, gid, v["witnesses"])
    hits = [v for p, gid, v in qualifying
            if p == 2 and gid == "symmetric:4"
            and v["parameters"]["n_order"] == 4 and v["parameters"]["l"] == 1]
    assert len(hits) == 1

    S4 = build_group("symmetric:4")
    v = verify_lemma8(S4, 2, o_p(S4, 2), 1)
    assert v.hypothesis_holds and v.conclusion_holds

    rows = checked(sweeps, "o24")
    assert len(rows) >= 20
    for p, gid, v in rows:
        assert v["conclusion_holds"], (p, gid, v["witnesses"])


def test_criterion_08_linear_action():
    instances = 0
    for gid in DEFAULT_CATALOG:
        G = build_group(gid)
        for p in SWEEP_PRIMES:
            if G.order() % p:
                continue
            V = o_p(G, p)
            if V.is_trivial():
                continue
            try:
                action = LinearAction(G, V, p)
            except KernelNotElementaryAbelian:
                continue
            instances += 1
            els = G.elements()
            I = FpMatrix.identity(p, action.dimension)
            rng = random.Random(f"{SEED}:{gid}:{p}")
            for _ in range(1000):
                g, h = rng.choice(els), rng.choice(els)
                assert action.matrix(g * h) == \
                    action.matrix(g) * action.matrix(h), (gid, p)
            for w in V.elements():
                cw = action.coords(w)
                for g in G.generators:
                    assert action.coords(w.commutator(g)) == \
                        (action.matrix(g) - I).row_apply(cw), (gid, p)
    assert instances >= 15

    S4 = build_group("symmetric:4")
    A = LinearAction(S4, o_p(S4, 2), 2)
    M = A.matrix(from_cycles(4, [(0, 1, 2)]))
    I = FpMatrix.identity(2, A.dimension)
    assert M != I and M * M != I and M * M * M == I
    assert unipotency_degree(M) is None


def test_criterion_09_length_at_most_exponent_valuation(sweeps):
    rows = checked(sweeps, "hall-higman")
    assert len(rows) >= 60
    assert all(p != 2 for p, _, _ in rows)
    for p, gid, v in rows:
        assert v["hypothesis_holds"] and v["conclusion_holds"], (p, gid)
        pr = v["parameters"]
        assert pr["p_length"] <= pr["exponent_valuation"], (p, gid)
    # at p = 2 the inequality is not a theorem: every row only reports
    p2 = [r for r in sweeps[2] if r.statement_id == "hall-higman"]
    assert p2
    for r in p2:
        assert r.verdict["report_only"] is True
        assert r.verdict["is_finding"] is False


def test_criterion_10_byte_identical_reports():
    cmd = [sys.executable, "-m", "psolv.cli", "catalog", "run",
           "--p", "2", "--seed", "7", "--format", "structured"]

    def run_once(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(cmd, capture_output=True, env=env)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    first = run_once("1")
    second = run_once("2")
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == REPORT_SCHEMA
    assert len(doc["reports"]) > len(DEFAULT_CATALOG)
