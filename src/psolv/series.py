"""Characteristic series, Sylow subgroups, cores and the upper p-series.

The p-core is computed by two independent routes and cross-checked; a
disagreement raises InternalMismatch and is always a bug here, never a
mathematical finding. Functions marked @group_fact are computed once per
group object and prime, so the cross-check runs once per pair too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalMismatch, NotAPGroup, NotPSolvable, UnsupportedParameters
from .group import PermutationGroup, group_fact, span, trivial_group
from .perm import Permutation
from .subgroups import (
    _normalizes,
    commutator,
    conjugacy_classes,
    conjugate_subgroup,
    intersect,
    join,
    normal_closure,
    normalizer,
    same_subgroup,
)


@dataclass(frozen=True)
class SeriesReport:
    """A labeled subgroup series.

    kind is one of "lower_central", "derived", "upper_p". For upper_p the
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


def _descending_tail(G, step, label_fmt):
    # the terms below G; shared truncation convention: stop at the first
    # repeat; the repeated term is kept when nontrivial (visible
    # stabilization) and dropped when trivial (the series simply ends at 1)
    terms = []
    current = G
    i = 1
    while True:
        nxt = step(current)
        i += 1
        if same_subgroup(nxt, current):
            if not nxt.is_trivial():
                terms.append((label_fmt(i), nxt))
            break
        terms.append((label_fmt(i), nxt))
        if nxt.is_trivial():
            break
        current = nxt
    return tuple(terms)


# only the terms below G are cached: a value on G that held G would be a
# reference cycle, keeping G and its facts alive until a full collection
@group_fact
def _lower_central_tail(G: PermutationGroup) -> tuple:
    return _descending_tail(G, lambda H: commutator(H, G), lambda i: f"gamma_{i}")


@group_fact
def _derived_tail(G: PermutationGroup) -> tuple:
    return _descending_tail(G, lambda H: commutator(H, H), lambda i: f"derived_{i - 1}")


def lower_central_series(G: PermutationGroup) -> SeriesReport:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G], truncated at the first repeat."""
    return SeriesReport(kind="lower_central",
                        terms=(("gamma_1", G),) + _lower_central_tail(G))


def derived_series(G: PermutationGroup) -> SeriesReport:
    return SeriesReport(kind="derived",
                        terms=(("derived_0", G),) + _derived_tail(G))


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
    """Least common multiple of the element orders."""
    classes = conjugacy_classes(G)
    return math.lcm(*(cls[0].order() for cls in classes))


def _prime_power(n: int):
    # returns (p, k) when n == p**k with k >= 1, else None
    if n < 2:
        return None
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        p = m
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int):
    if not is_prime(p):
        raise UnsupportedParameters(f"p must be a prime, got {p}")


def is_p_group(G: PermutationGroup, p: int) -> bool:
    n = G.order()
    if n == 1:
        return True
    pk = _prime_power(n)
    return pk is not None and pk[0] == p


def check_p_group(G: PermutationGroup, p: int):
    if not is_p_group(G, p):
        raise NotAPGroup(f"group of order {G.order()} is not a {p}-group")


def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def element_p_part(x: Permutation, p: int) -> Permutation:
    """The p-part of an element: x^m where m is the p'-part of its order."""
    o = x.order()
    return x ** (o // _p_part(o, p))


def sylow(G: PermutationGroup, p: int) -> PermutationGroup:
    """A Sylow p-subgroup, grown through normalizers.

    A p-group is its own Sylow subgroup: G itself is returned, so the two
    share one set of cached facts and one normal-subgroup lattice. For any
    other group the value is computed once per group object and prime.
    """
    require_prime(p)
    if _p_part(G.order(), p) == G.order():
        return G
    return _grown_sylow(G, p)


# only asked of a group that is not a p-group: sylow() answers for a
# p-group itself, because a cached value equal to G would be a reference
# cycle through G._facts
@group_fact
def _grown_sylow(G: PermutationGroup, p: int) -> PermutationGroup:
    # a p-subgroup S below full size always has a p-element of N_G(S)
    # outside S (any x with x^p in S is one), so each pass over the
    # normalizer extends S and the loop is deterministic with no restarts
    target = _p_part(G.order(), p)
    if target == 1:
        return trivial_group(G.degree)
    seed = None
    for x in G.elements():
        y = element_p_part(x, p)
        if not y.is_identity():
            seed = y
            break
    S = span(G.degree, [seed])
    while S.order() < target:
        N = normalizer(G, S)
        for x in N.elements():
            y = element_p_part(x, p)
            if not y.is_identity() and not S.contains(y):
                S = span(G.degree, list(S.generators) + [y])
                break
        else:
            raise InternalMismatch("sylow growth stalled below full p-part")
    return S


def _core_by_class_closures(G, p, want_p_group, N):
    # the K >= N with K/N the p- or p'-core of G/N, N normal in G, found
    # inside G: the join of the closures N<x>^G over class representatives
    # x whose coset xN, and whose index |N<x>^G : N|, have the right order
    # type; conjugate elements give the same closure, so one representative
    # per class suffices, and N = 1 gives O_p(G) or O_p'(G)
    K = N
    for cls in conjugacy_classes(G):
        x = cls[0]
        if K.contains(x):
            continue
        o = x.order()
        part = _p_part(o, p)
        if not N.contains(x ** (part if want_p_group else o // part)):
            continue
        closure = normal_closure(G, PermutationGroup(G.degree, N.generators + (x,)))
        index = closure.order() // N.order()
        part = _p_part(index, p)
        if (index == part) if want_p_group else (part == 1):
            K = join(K, closure)
    return K


def _sylow_conjugates_intersection(G, p, N):
    # fixpoint of K -> K meet K^g over the generators g, from PN with P a
    # Sylow subgroup: the K >= N with K/N = O_p(G/N) lies in every K^g, so it
    # survives each step; K is a fixpoint exactly when every generator
    # normalizes it, which is tested without enumerating K
    K = sylow(G, p) if N.is_trivial() else join(sylow(G, p), N)
    while K.order() > N.order() and not _normalizes(G, K):
        L = K
        for g in G.generators:
            L = intersect(L, conjugate_subgroup(K, g))
        K = L
    return K


def _p_core_modulo(G, p, N):
    # the K >= N with K/N = O_p(G/N), by both routes, cross-checked
    by_intersection = _sylow_conjugates_intersection(G, p, N)
    by_closures = _core_by_class_closures(G, p, True, N)
    if not same_subgroup(by_intersection, by_closures):
        raise InternalMismatch(
            f"p-core routes disagree: orders {by_intersection.order()} vs {by_closures.order()}")
    return by_closures


@group_fact
def o_p(G: PermutationGroup, p: int) -> PermutationGroup:
    """Largest normal p-subgroup, computed two ways and cross-checked.

    Route one starts at a Sylow p-subgroup and intersects it with its
    conjugates by the generators of G until every generator normalizes it;
    route two joins the normal closures of p-elements whose closure is a
    p-group.
    Disagreement raises InternalMismatch.
    """
    require_prime(p)
    return _p_core_modulo(G, p, trivial_group(G.degree))


@group_fact
def o_pprime(G: PermutationGroup, p: int) -> PermutationGroup:
    """Largest normal p'-subgroup: join of closures of coprime-order elements
    whose normal closure has order coprime to p."""
    require_prime(p)
    return _core_by_class_closures(G, p, False, trivial_group(G.degree))


@group_fact
def upper_p_series(G: PermutationGroup, p: int) -> SeriesReport:
    """Alternating p'-core / p-core series, computed inside G.

    Starts at 1; each term K over the term N below has K/N the p'- or
    p-core of G/N, found from G's conjugacy classes without building G/N
    (every p-step cross-checks its two routes, as o_p does). It stops when
    the whole group is reached (p-solvable) or a full p'/p round makes no
    progress (not p-solvable; legal input, not an error).
    """
    require_prime(p)
    terms = [("1", trivial_group(G.degree))]
    current = terms[0][1]
    p_steps_grown = 0
    solvable = None
    whole = G.order()

    def lift(kind):
        # the core of G/current, taken back into G; over 1 it is the cached core
        if current.order() == 1:
            return (o_pprime if kind == "p'" else o_p)(G, p)
        if kind == "p'":
            return _core_by_class_closures(G, p, False, current)
        return _p_core_modulo(G, p, current)

    while True:
        grew_round = False
        for kind in ("p'", "p"):
            nxt = lift(kind)
            grew = nxt.order() > current.order()
            grew_round = grew_round or grew
            if kind == "p" and grew:
                p_steps_grown += 1
            terms.append((kind, nxt))
            current = nxt
            if current.order() == whole:
                solvable = True
                break
        if solvable is not None:
            break
        if not grew_round:
            solvable = False
            break
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
