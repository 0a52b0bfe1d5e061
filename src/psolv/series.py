"""Characteristic series, Sylow subgroups, cores and the upper p-series.

Every p-core, over 1 or relative to a normal subgroup N, is computed by
two independent routes and cross-checked; a disagreement raises
InternalMismatch and is always a bug here, never a mathematical finding.
Functions marked @group_fact are computed once per group object and
argument values, so the cross-check runs once per group, prime and N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InternalMismatch,
    NotAPGroup,
    NotNormal,
    NotPSolvable,
    UnsupportedParameters,
)
from .group import PermutationGroup, group_fact, span, trivial_group
from .perm import Permutation, _make
from .subgroups import (
    _normal_closure_steps,
    _normalizes,
    commutator,
    conjugacy_classes,
    is_subgroup,
    join,
    normal_core,
    normalizer,
    same_subgroup,
)


@dataclass(frozen=True)
class SeriesReport:
    """A labeled subgroup series.

    kind is "lower_central" or "upper_p". For upper_p the
    labels after the leading "1" alternate "p'", "p", and p_length counts
    the strictly growing p-labeled steps; the top term equals the whole
    group exactly when is_p_solvable.
    """

    kind: str
    terms: tuple  # of (label, PermutationGroup)
    prime: int | None = None
    p_length: int | None = None
    is_p_solvable: bool | None = None

    def subgroups(self):
        return [t for _, t in self.terms]

    def orders(self):
        return [t.order() for _, t in self.terms]


# only the terms below G are cached: a value on G that held G would be a
# reference cycle, keeping G and its facts alive until a full collection
@group_fact
def _lower_central_tail(G: PermutationGroup) -> tuple:
    # the series ends at 1, or at its first repeat: a series that stalls
    # above 1 keeps the repeated term, so the stall stays visible
    terms = []
    current = G
    while not current.is_trivial():
        nxt = commutator(current, G)
        terms.append((f"gamma_{len(terms) + 2}", nxt))
        if same_subgroup(nxt, current):
            break
        current = nxt
    return tuple(terms)


def lower_central_series(G: PermutationGroup) -> SeriesReport:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G], truncated at the first repeat."""
    return SeriesReport(kind="lower_central",
                        terms=(("gamma_1", G),) + _lower_central_tail(G))


def gamma(P: PermutationGroup, i: int) -> PermutationGroup:
    """gamma_i(P), counting P itself as gamma_1. Past the end of the lower
    central series the last term repeats: 1 for a nilpotent group."""
    if i < 1:
        raise UnsupportedParameters("the series index must be at least 1")
    terms = lower_central_series(P).subgroups()
    return terms[min(i, len(terms)) - 1]


def nilpotency_class(G: PermutationGroup) -> int | None:
    """Class of a nilpotent group, None when the series stalls above 1."""
    rep = lower_central_series(G)
    subs = rep.subgroups()
    if not subs[-1].is_trivial():
        return None
    return len(subs) - 1 if len(subs) > 1 else 0


@group_fact
def exponent(G: PermutationGroup) -> int:
    """Least common multiple of the element orders: the exponent of G
    modulo the trivial group."""
    return _exponent_modulo(G, trivial_group(G.degree))


def _order_modulo(x: Permutation, N: PermutationGroup) -> int:
    # the order of the coset xN, for x normalizing N: it divides o(x), so
    # each prime q is stripped from o(x) while x^(m/q) stays in N
    m = rest = x.order()
    q = 2
    while rest > 1:
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while m % q == 0 and N.contains(x ** (m // q)):
                m //= q
        q += 1
    return m


def _exponent_modulo(H: PermutationGroup, N: PermutationGroup) -> int:
    """Exponent of HN/N, computed inside H without building the quotient:
    the lcm of the orders of xN over H's class representatives x, each
    wrapped from its row. Raises NotNormal unless H normalizes N; N need
    not lie in H."""
    if not _normalizes(H, N):
        raise NotNormal("the group does not normalize the kernel")
    rows = H.element_rows()
    return math.lcm(*(_order_modulo(_make(rows[cls[0]]), N)
                      for cls in conjugacy_classes(H)))


# Miller-Rabin over these bases decides primality exactly below 2**64
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Exact primality for p below 2**64, by Miller-Rabin over the prime
    bases 2 to 37; a larger p raises UnsupportedParameters."""
    if p >= 1 << 64:
        raise UnsupportedParameters(f"p must be below 2**64, got {p}")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int):
    if not is_prime(p):
        raise UnsupportedParameters(f"p must be a prime, got {p}")


def is_p_group(G: PermutationGroup, p: int) -> bool:
    """Whether the order of G is a power of the prime p; the trivial group
    is a p-group for every prime. Raises UnsupportedParameters unless p is
    a prime."""
    require_prime(p)
    n = G.order()
    return _p_part(n, p) == n


def check_p_group(G: PermutationGroup, p: int):
    if not is_p_group(G, p):
        raise NotAPGroup(f"group of order {G.order()} is not a {p}-group")


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _p_part(n: int, p: int) -> int:
    return p ** _p_valuation(n, p)


def element_p_part(x: Permutation, p: int) -> Permutation:
    """The p-part of an element: x^m where m is the p'-part of its order."""
    o = x.order()
    return x ** (o // _p_part(o, p))


@group_fact
def sylow(G: PermutationGroup, p: int) -> PermutationGroup:
    """A Sylow p-subgroup, grown through normalizers from the trivial group.

    Each pass adjoins to S the first p-part, in N's row order, of an element
    of N outside S, where N is G while S is trivial and N_G(S) after; the
    trivial group is returned for a p'-group without any normalizer. A
    p-group is its own Sylow subgroup: G itself is returned, so the two
    share one set of cached facts and one normal-subgroup lattice.
    """
    if is_p_group(G, p):
        return G
    # a p-subgroup S below full size always has a p-element of N_G(S)
    # outside S (any x with x^p in S is one), so each pass over the
    # normalizer extends S and the loop is deterministic with no restarts
    target = _p_part(G.order(), p)
    S = trivial_group(G.degree)
    while S.order() < target:
        N = G if S.is_trivial() else normalizer(G, S)
        # rows are wrapped one at a time, up to the first one adjoined
        for row in N.element_rows():
            y = element_p_part(_make(row), p)
            if not y.is_identity() and not S.contains(y):
                S = span(G.degree, list(S.generators) + [y])
                break
        else:
            raise InternalMismatch("sylow growth stalled below full p-part")
    return S


def _wrong_type(n, p, want_p_group):
    # n is not a power of p (for the p-core) or is divisible by p (p'-core)
    part = _p_part(n, p)
    return n != part if want_p_group else part != 1


def _refused_by_a_conjugate_product(G, x, p, want_p_group, N):
    # x * x^g lies in the closure N<x>^G for each generator g of G, so when
    # its coset has an order of the wrong type, so has the closure's index
    return any(_wrong_type(_order_modulo(x * x.conjugate(g), N), p, want_p_group)
               for g in G.generators)


def _core_by_class_closures(G, p, want_p_group, N):
    # the K >= N with K/N the p- or p'-core of G/N, N normal in G, found
    # inside G: the join of the closures N<x>^G over class representatives
    # x whose coset xN, and whose index |N<x>^G : N|, have the right order
    # type (a power of p, or prime to p); conjugate elements give the same
    # closure, so one representative per class suffices, and N = 1 gives
    # O_p(G) or O_p'(G). Two cheap tests refuse x before any subgroup is
    # built: the order of xN, then the orders of the cosets of x * x^g, g
    # a generator of G, which lie in the closure. The second runs only when
    # |G : N| itself has the wrong type, since otherwise no order in G/N
    # has. The index of each subgroup the closure grows through divides the
    # final index, so a closure is dropped at the first one whose index
    # already has the wrong type; an accepted closure runs to the end
    K = N
    rows = G.element_rows()
    check_products = _wrong_type(G.order() // N.order(), p, want_p_group)
    for cls in conjugacy_classes(G):
        x = _make(rows[cls[0]])
        if K.contains(x) or _wrong_type(_order_modulo(x, N), p, want_p_group):
            continue
        if check_products and _refused_by_a_conjugate_product(G, x, p, want_p_group, N):
            continue
        for closure in _normal_closure_steps(
                G, PermutationGroup(G.degree, N.generators + (x,))):
            if _wrong_type(closure.order() // N.order(), p, want_p_group):
                break
        else:
            K = join(K, closure)
    return K


def _sylow_conjugates_intersection(G, p, N):
    # the K >= N with K/N = O_p(G/N) is the normal core of PN, P a Sylow
    # subgroup: PN/N is a Sylow subgroup of G/N, and O_p lies in all of them
    K = sylow(G, p) if N.is_trivial() else join(sylow(G, p), N)
    return K if K.order() == N.order() else normal_core(G, K)


@group_fact
def _core_modulo(G: PermutationGroup, p: int, kind: str,
                 N: PermutationGroup) -> PermutationGroup:
    """The K >= N with K/N the p'-core (kind "p'") or the p-core (kind "p")
    of G/N, N normal in G, found inside G without building G/N.

    The p'-core joins the class closures whose index over N is prime to
    p. The p-core is computed by two routes and cross-checked: the normal
    core of PN, P a Sylow p-subgroup, and the join of the class closures
    whose index over N is a power of p; disagreement raises
    InternalMismatch. Cached on G under p, kind and N's generators.
    """
    require_prime(p)
    if kind == "p'":
        return _core_by_class_closures(G, p, False, N)
    by_intersection = _sylow_conjugates_intersection(G, p, N)
    by_closures = _core_by_class_closures(G, p, True, N)
    if not same_subgroup(by_intersection, by_closures):
        raise InternalMismatch(
            f"p-core routes disagree: orders {by_intersection.order()} vs {by_closures.order()}")
    return by_closures


def o_p(G: PermutationGroup, p: int) -> PermutationGroup:
    """Largest normal p-subgroup O_p(G): the relative p-core over N = 1,
    so it is computed by both routes of _core_modulo, cross-checked, and
    cached there."""
    return _core_modulo(G, p, "p", trivial_group(G.degree))


def o_pprime(G: PermutationGroup, p: int) -> PermutationGroup:
    """Largest normal p'-subgroup O_p'(G): the relative p'-core over
    N = 1, the join of the class closures of order prime to p, cached by
    _core_modulo."""
    return _core_modulo(G, p, "p'", trivial_group(G.degree))


@group_fact
def upper_p_series(G: PermutationGroup, p: int) -> SeriesReport:
    """Alternating p'-core / p-core series, computed inside G.

    Starts at 1; each term K over the term N below has K/N the p'- or
    p-core of G/N, found from G's conjugacy classes without building G/N
    (every p-step cross-checks its two routes, as o_p does). Each term must
    contain the one below it, or InternalMismatch is raised, so the terms
    grow strictly until they stop. The series ends when the whole group is
    reached (p-solvable) or a full p'/p round makes no progress (not
    p-solvable; legal input, not an error).
    """
    require_prime(p)
    current = trivial_group(G.degree)
    terms = [("1", current)]
    p_steps_grown = 0
    solvable = None
    whole = G.order()
    while solvable is None:
        grew_round = False
        for kind in ("p'", "p"):
            nxt = _core_modulo(G, p, kind, current)
            if not is_subgroup(current, nxt):
                raise InternalMismatch(
                    f"the {kind}-term does not contain the term below it")
            grew = nxt.order() > current.order()
            grew_round = grew_round or grew
            if kind == "p" and grew:
                p_steps_grown += 1
            terms.append((kind, nxt))
            current = nxt
            if current.order() == whole:
                solvable = True
                break
        else:
            if not grew_round:
                solvable = False
    return SeriesReport(kind="upper_p", terms=tuple(terms), prime=p,
                        p_length=p_steps_grown, is_p_solvable=solvable)


def is_p_solvable(G: PermutationGroup, p: int) -> bool:
    return upper_p_series(G, p).is_p_solvable


def p_length(G: PermutationGroup, p: int) -> int:
    """Number of p-steps in the upper p-series. Raises NotPSolvable when
    the series stalls below G, since the count would be meaningless."""
    rep = upper_p_series(G, p)
    if not rep.is_p_solvable:
        raise NotPSolvable(f"group is not {p}-solvable")
    return rep.p_length


def o_pprime_p(G: PermutationGroup, p: int) -> PermutationGroup:
    """The second upper-series term: the subgroup K >= O_p'(G) with
    K / O_p'(G) the p-core of G / O_p'(G),
    or G when the series ends at O_p'(G) = G."""
    terms = upper_p_series(G, p).subgroups()
    return terms[min(2, len(terms) - 1)]
