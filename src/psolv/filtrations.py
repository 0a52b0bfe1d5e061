"""Potent filtrations over a finite p-group.

A chain N_1 >= N_2 >= ... >= N_k = 1 of normal subgroups of a p-group P is
a potent filtration of type ell when every step satisfies [N_i, P] <= N_{i+1}
and the ell-fold commutator [N_i, P, ..., P] lands inside N_{i+1}^p. A
subgroup is PF-embedded of type ell when some such chain starts at it.

This module verifies candidate chains, builds the subgroup family
E_{k,r}(P) (products of p-th power subgroups of the lower central terms),
derives canonical candidate chains from it, and decides PF-embeddedness by
exhaustive backtracking over the normal subgroup lattice for tiny P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapExceeded,
    InternalMismatch,
    LengthCapExceeded,
    NotNormal,
    PreconditionViolated,
    UnsupportedParameters,
)
from . import subgroups
from .group import PermutationGroup, group_fact, trivial_group
from .perm import Permutation
from .series import (
    _p_valuation,
    check_p_group,
    exponent,
    gamma,
    nilpotency_class,
    require_prime,
)
from .subgroups import (
    _first_outside,
    _lattice,
    _member,
    _normalizes,
    commutator,
    is_normal,
    is_subgroup,
    iterated_commutator,
    join,
    normal_closure,
    normal_subgroups,
    power_subgroup,
    same_subgroup,
)
from .verdicts import Verdict

# the most construction steps a chain may take; also the ceiling on the
# type ell of verify main and verify thm6, and on r + l in verify o24
DEFAULT_LENGTH_CAP = 64

ELL_ZERO_NOTE = ("type 0 uses the literal reading: the potency condition "
                 "degenerates to N_i <= N_{i+1}^p")


@group_fact
def _frattini(P: PermutationGroup, p: int) -> PermutationGroup:
    """Phi(P) = [P, P]P^p for the p-group P, as the normal closure in P of
    the generators' p-th powers and pairwise commutators: modulo that
    closure the generators commute and have order p, so the quotient is
    elementary abelian, and each seed lies in Phi(P). Nothing of P is
    enumerated."""
    gens = P.generators
    seeds = [g ** p for g in gens] + [a.commutator(b) for i, a in enumerate(gens)
                                      for b in gens[i + 1:]]
    return normal_closure(P, PermutationGroup(P.degree, seeds))


@group_fact
def _frattini_subspaces(P: PermutationGroup, p: int) -> int:
    """Number of subspaces of P/Phi(P) for the p-group P: the sum over k of
    the Gaussian binomials [d k]_p, d the rank of P/Phi(P). Every subgroup
    of P that contains Phi(P) is normal, so P has at least this many normal
    subgroups, and exactly this many contain Phi(P)."""
    d = _p_valuation(P.order() // _frattini(P, p).order(), p)
    row = [1]  # [n k]_p for k = 0 .. n, by the q-Pascal rule
    for n in range(1, d + 1):
        row = [1] + [row[k - 1] + p ** k * row[k] for k in range(1, n)] + [1]
    return sum(row)


@group_fact
def exhaustive_lattice(P: PermutationGroup, p: int):
    """The gate of every exhaustive PF search over P: normal_subgroups(P)
    when a search may run, else None, when the lattice needs more than
    subgroups.LATTICE_WORK_LIMIT units of work. Each member after the
    trivial group costs at least one closure of |P| units, so a P whose
    quotient P/Phi(P) has F subspaces is refused before any closure when
    (F - 1) * |P| is above the limit. Cached on P, so a refusal found
    while the lattice is enumerated is paid once per group object.

    A lattice that is let through must hold exactly F members that contain
    Phi(P), counted on their masks, or InternalMismatch is raised: a member
    missing above Phi(P) is caught here, one below it is not."""
    try:
        count = _frattini_subspaces(P, p)
        if (count - 1) * P.order() <= subgroups.LATTICE_WORK_LIMIT:
            normals = normal_subgroups(P)
            masks = _lattice(P)[1]
            phi = masks[_member(P, _frattini(P, p))]
            if sum(m & phi == phi for m in masks) != count:
                raise InternalMismatch("a normal subgroup above the Frattini subgroup "
                                       "is missing from the lattice enumeration")
            return normals
    except CapExceeded:
        pass
    return None


@dataclass(frozen=True)
class Filtration:
    """A candidate potent filtration: ambient p-group, type, ordered terms."""

    ambient: PermutationGroup
    prime: int
    type_ell: int
    terms: tuple

    def orders(self):
        return [N.order() for N in self.terms]

    def to_payload(self):
        return {
            "prime": self.prime,
            "type_ell": self.type_ell,
            "ambient_order": self.ambient.order(),
            "term_orders": self.orders(),
            "terms": [[list(g.images) for g in N.generators] for N in self.terms],
        }


@dataclass(frozen=True)
class PFVerdict:
    """Outcome of chain verification.

    failed_condition is 1 (chain not descending), 2 (last term not trivial),
    3 (commutator step leaves the next term) or 4 (potency step leaves the
    p-th power of the next term); failed_index is the 1-based term the
    failure was detected at, witness a concrete element outside the target.
    """

    valid: bool
    failed_condition: int | None = None
    failed_index: int | None = None
    witness: Permutation | None = None
    notes: tuple = ()

    def to_payload(self):
        return {
            "valid": self.valid,
            "failed_condition": self.failed_condition,
            "failed_index": self.failed_index,
            "witness": None if self.witness is None else list(self.witness.images),
            "notes": list(self.notes),
        }


def _validate_filtration_input(F: Filtration):
    require_prime(F.prime)
    check_p_group(F.ambient, F.prime)
    if F.type_ell < 0:
        raise PreconditionViolated("filtration type must be nonnegative")
    if not F.terms:
        raise PreconditionViolated("a filtration needs at least one term")
    for idx, N in enumerate(F.terms, start=1):
        if N.degree != F.ambient.degree or not is_subgroup(N, F.ambient):
            raise PreconditionViolated(
                f"term {idx} is not a subgroup of the ambient group")
        if not _normalizes(F.ambient, N):
            raise NotNormal(f"term {idx} is not normal in the ambient group")


def verify_potent_filtration(F: Filtration) -> PFVerdict:
    """Check the four chain conditions in order, stopping at the first failure.

    Terms must already be normal subgroups of the p-group ambient; that is
    an input-shape requirement (NotNormal / PreconditionViolated), not a
    numbered condition.
    """
    _validate_filtration_input(F)
    P = F.ambient
    p = F.prime
    ell = F.type_ell
    terms = F.terms
    k = len(terms)
    notes = (ELL_ZERO_NOTE,) if ell == 0 else ()

    for i in range(1, k):
        w = _first_outside(terms[i], terms[i - 1])
        if w is not None:
            return PFVerdict(False, 1, i + 1, w, notes)

    if not terms[-1].is_trivial():
        w = next(g for g in terms[-1].generators if not g.is_identity())
        return PFVerdict(False, 2, k, w, notes)

    for i in range(k - 1):
        step = commutator(terms[i], P)
        w = _first_outside(step, terms[i + 1])
        if w is not None:
            return PFVerdict(False, 3, i + 1, w, notes)

    for i in range(k - 1):
        folded = terms[i] if ell == 0 else iterated_commutator(terms[i], P, ell)
        target = power_subgroup(terms[i + 1], p)
        w = _first_outside(folded, target)
        if w is not None:
            return PFVerdict(False, 4, i + 1, w, notes)

    return PFVerdict(True, notes=notes)


def check_prop1(F: Filtration) -> Verdict:
    """For a verified chain, check the power-commutator identity and both
    derived chains.

    Hypothesis: the given chain verifies. Conclusion: [N_i^p, P] equals
    [N_i, P]^p for every term, and the chains (N_i^p) and ([N_i, P]) verify
    at the same type. All three are proved facts, so any false conclusion
    here is a finding.
    """
    base = verify_potent_filtration(F)
    params = {
        "p": F.prime,
        "type_ell": F.type_ell,
        "term_orders": F.orders(),
    }
    notes = base.notes
    if not base.valid:
        params["input_failure"] = base.to_payload()
        return Verdict("prop1", False, None, params, (),
                       notes + ("input chain does not verify",))

    P = F.ambient
    p = F.prime
    powers = tuple(power_subgroup(N, p) for N in F.terms)
    brackets = tuple(commutator(N, P) for N in F.terms)

    witnesses = []
    identity_ok = True
    for i in range(len(F.terms)):
        lhs = commutator(powers[i], P)
        rhs = power_subgroup(brackets[i], p)
        if not same_subgroup(lhs, rhs):
            identity_ok = False
            witnesses.append((f"power-commutator identity fails at term {i + 1}",
                              {"lhs_order": lhs.order(), "rhs_order": rhs.order()}))

    v_pow = verify_potent_filtration(Filtration(P, p, F.type_ell, powers))
    v_brk = verify_potent_filtration(Filtration(P, p, F.type_ell, brackets))
    if not v_pow.valid:
        witnesses.append(("p-th power chain fails verification", v_pow.to_payload()))
    if not v_brk.valid:
        witnesses.append(("commutator chain fails verification", v_brk.to_payload()))

    params["identity_holds"] = identity_ok
    params["power_chain_valid"] = v_pow.valid
    params["bracket_chain_valid"] = v_brk.valid
    params["power_chain_orders"] = [H.order() for H in powers]
    params["bracket_chain_orders"] = [H.order() for H in brackets]
    conclusion = identity_ok and v_pow.valid and v_brk.valid
    return Verdict("prop1", True, conclusion, params, tuple(witnesses), notes)


def _ekr_pieces(P: PermutationGroup, p: int, k: int, r: int):
    require_prime(p)
    check_p_group(P, p)
    if r < 1:
        raise UnsupportedParameters("the lower index r must be at least 1")
    if k < 0:
        raise UnsupportedParameters("the threshold k must be nonnegative")
    c = nilpotency_class(P)
    e = _p_valuation(exponent(P), p)

    # For fixed i only the least admissible j matters: raising j by one maps
    # each generator x^(p^j) to its p-th power, so the subgroups shrink.
    pieces = []
    E = trivial_group(P.degree)
    for i in range(r, c + 1):
        need = k - i
        j = 0 if need <= 0 else -(-need // (p - 1))
        if j > e:
            continue
        piece = power_subgroup(gamma(P, i), p ** j)
        if piece.is_trivial():
            continue
        pieces.append((i, j, piece))
        E = join(E, piece)
    return E, pieces


def compute_ekr(P: PermutationGroup, p: int, k: int, r: int) -> PermutationGroup:
    """E_{k,r}(P): the product of gamma_i(P)^(p^j) over i >= r, j >= 0 with
    i + j(p-1) >= k.

    The index set is truncated to i <= class+1 and j <= log_p(exponent);
    every term beyond is trivial or contained in a kept one. The result is
    normal in P (a join of power subgroups of characteristic subgroups).
    """
    E, _ = _ekr_pieces(P, p, k, r)
    return E


def _descend(first, step):
    """Build a weakly descending chain from `first` via `step(i)` for
    i = 2, 3, ..., skipping repeats, until a trivial term is appended."""
    terms = [first]
    i = 2
    while not terms[-1].is_trivial():
        if i > DEFAULT_LENGTH_CAP + 1:
            raise LengthCapExceeded(f"candidate chain exceeded "
                                    f"{DEFAULT_LENGTH_CAP} construction steps")
        nxt = step(i, terms[-1])
        if not same_subgroup(nxt, terms[-1]):
            terms.append(nxt)
        i += 1
    return tuple(terms)


def ekr_pf_candidates(P: PermutationGroup, p: int, k: int, r: int):
    """Three candidate type-(p-1) chains starting at E_{k,r}(P), each
    verified.

    In order: (a) shift both indices, N_i = E_{k+i-1, r+i-1}; (b) shift only
    the threshold, N_i = E_{k+i-1, r}; (c) repeated commutator steps,
    N_{i+1} = [N_i, P]. No single construction is singled out as canonical;
    callers record which, if any, verifies. Consecutive repeats are skipped
    (dropping a duplicate term only weakens the chain conditions) and each
    chain is truncated at its first trivial term; a chain still going after
    DEFAULT_LENGTH_CAP steps raises LengthCapExceeded.
    """
    E = compute_ekr(P, p, k, r)
    ell = p - 1

    def shifted_both(i, _prev):
        return compute_ekr(P, p, k + i - 1, r + i - 1)

    def shifted_threshold(i, _prev):
        return compute_ekr(P, p, k + i - 1, r)

    def bracket_step(_i, prev):
        return commutator(prev, P)

    out = []
    for step in (shifted_both, shifted_threshold, bracket_step):
        F = Filtration(P, p, ell, _descend(E, step))
        out.append((F, verify_potent_filtration(F)))
    return out


@dataclass(frozen=True)
class SearchOutcome:
    """Result of pf_embedded_search: found / not_pf_embedded / exhausted."""

    status: str
    filtration: Filtration | None = None
    nodes: int = 0
    notes: tuple = ()

    FOUND = "found"
    NOT_PF_EMBEDDED = "not_pf_embedded"
    EXHAUSTED = "exhausted"

    def to_payload(self):
        return {
            "status": self.status,
            "nodes": self.nodes,
            "notes": list(self.notes),
            "filtration": None if self.filtration is None
            else self.filtration.to_payload(),
        }


@group_fact
def _search_table(P: PermutationGroup, p: int, ell: int):
    """One row per member N of normal_subgroups(P), in its order: the
    lattice's own element masks over P (_lattice) of N, [N, P], the ell-fold
    [N, P, ..., P] (N itself when ell = 0) and N^p. _member places the last
    three, all normal in P, from their generators; no element table is read."""
    members, masks = _lattice(P)
    rows = []
    for N, n in zip(members, masks):
        B = commutator(N, P)
        b = masks[_member(P, B)]
        folded = (n if ell == 0 else b if ell == 1
                  else masks[_member(P, iterated_commutator(B, P, ell - 1))])
        rows.append((n, b, folded, masks[_member(P, power_subgroup(N, p))]))
    return tuple(rows)


def _extend(table, memo, x):
    """A strictly descending chain of table indices from x to the trivial
    member, or None. Every index visited is one search node with one memo
    entry, so a search visits each lattice member at most once."""
    if x in memo:
        return memo[x]
    n, bracket, folded, _ = table[x]
    if n.bit_count() == 1:
        memo[x] = [x]
        return memo[x]
    memo[x] = None
    # normals come sorted ascending by order, so candidates are tried
    # smallest first; the lattice is tiny, completeness comes from memo
    for m, (sub, _, _, power) in enumerate(table):
        if n & ~sub == 0:
            continue
        # the next term lies in N, contains [N, P], and its p-th power
        # contains the ell-fold commutator
        if sub & ~n or bracket & ~sub or folded & ~power:
            continue
        tail = _extend(table, memo, m)
        if tail is not None:
            memo[x] = [x] + tail
            return memo[x]
    return None


def pf_embedded_search(P: PermutationGroup, p: int, N: PermutationGroup,
                       ell: int) -> SearchOutcome:
    """Decide whether N starts a type-ell potent filtration of P.

    Exact backtracking over strictly descending chains of normal subgroups;
    repeating a term never helps, so strict descent loses nothing. The
    lattice always comes from exhaustive_lattice(P, p), so it is enumerated
    once per group object and only within subgroups.LATTICE_WORK_LIMIT
    units of work; a P the gate refuses (by the count of subspaces of
    P/Phi(P), or once the enumeration passes the limit) reports "exhausted"
    rather than guessing. The search visits each lattice member at most
    once, so the lattice bounds its nodes.
    "not_pf_embedded" is only returned after the full space is searched.
    Lattice members, their commutators with P and their p-th powers are
    compared as the lattice's own element masks over P, in one table per
    prime and type that every search on P shares; N is placed among the
    members by subgroups._member, from its generators.
    """
    require_prime(p)
    check_p_group(P, p)
    if ell < 0:
        raise PreconditionViolated("filtration type must be nonnegative")
    notes = [ELL_ZERO_NOTE] if ell == 0 else []
    if N.degree != P.degree or not is_normal(P, N):
        raise PreconditionViolated(
            "the starting subgroup must be normal in the ambient group")

    if N.is_trivial():
        F = Filtration(P, p, ell, (N,))
        return SearchOutcome(SearchOutcome.FOUND, F, 0, tuple(notes))

    normals = exhaustive_lattice(P, p)
    if normals is None:
        notes.append("normal subgroup enumeration overflowed its cap")
        return SearchOutcome(SearchOutcome.EXHAUSTED, None, 0, tuple(notes))

    table = _search_table(P, p, ell)
    memo: dict[int, list | None] = {}
    chain = _extend(table, memo, _member(P, N))
    nodes = len(memo)

    if chain is None:
        return SearchOutcome(SearchOutcome.NOT_PF_EMBEDDED, None, nodes,
                             tuple(notes))

    F = Filtration(P, p, ell, tuple(normals[i] for i in chain))
    if not verify_potent_filtration(F).valid:
        raise InternalMismatch("search returned a chain its own verifier rejects")
    return SearchOutcome(SearchOutcome.FOUND, F, nodes, tuple(notes))
