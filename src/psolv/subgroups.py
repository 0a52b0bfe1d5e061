"""Subgroup lattice operations, normalizers and conjugacy classes.

All functions operate on PermutationGroup instances of equal degree; a
subgroup is just a group on the same points whose generators sift through
the ambient chain. Equality of subgroups always means equal order plus
mutual generator membership, never equal generator lists.
"""

from __future__ import annotations

from collections import deque

from .errors import CapExceeded, DegreeMismatch, InternalMismatch, NotNormal
from .group import PermutationGroup, group_fact, span, trivial_group
from .perm import Permutation, identity

NORMAL_SUBGROUP_LIMIT = 20_000


def _check_degrees(*groups):
    degrees = {G.degree for G in groups}
    if len(degrees) != 1:
        raise DegreeMismatch(f"groups act on different point sets: degrees {sorted(degrees)}")


@group_fact
def _element_positions(G: PermutationGroup) -> dict:
    return {x.images: i for i, x in enumerate(G.elements())}


def is_subgroup(A: PermutationGroup, B: PermutationGroup) -> bool:
    """True when A <= B."""
    _check_degrees(A, B)
    return all(B.contains(g) for g in A.generators)


def _first_outside(A: PermutationGroup, B: PermutationGroup):
    """A generator of A outside B, or None when A <= B."""
    for g in A.generators:
        if not B.contains(g):
            return g
    return None


def same_subgroup(A: PermutationGroup, B: PermutationGroup) -> bool:
    """Equality as subgroups: equal order and containment."""
    _check_degrees(A, B)
    return A.order() == B.order() and is_subgroup(A, B)


def _normalizes(H: PermutationGroup, N: PermutationGroup) -> bool:
    """True when conjugation by every generator of H fixes N."""
    return all(N.contains(n.conjugate(h)) for h in H.generators for n in N.generators)


def is_normal(G: PermutationGroup, N: PermutationGroup) -> bool:
    """True when N <= G and G normalizes N."""
    return is_subgroup(N, G) and _normalizes(G, N)


def conjugate_subgroup(H: PermutationGroup, g: Permutation) -> PermutationGroup:
    """H^g = g^-1 H g."""
    if g.degree != H.degree:
        raise DegreeMismatch("conjugating element has the wrong degree")
    return PermutationGroup(H.degree, tuple(h.conjugate(g) for h in H.generators))


def join(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """Smallest subgroup containing A and B."""
    _check_degrees(A, B)
    gens = []
    for g in A.generators + B.generators:
        if not g.is_identity() and g not in gens:
            gens.append(g)
    return PermutationGroup(A.degree, gens)


def normal_closure(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """Smallest subgroup of G containing S and normal in G.

    Conjugates of the working generators by the generators of G are added
    until nothing new appears; at the fixpoint the result is closed under
    conjugation by all of G.
    """
    _check_degrees(G, S)
    gens = [g for g in S.generators if not g.is_identity()]
    K = PermutationGroup(G.degree, gens)
    queue = deque(gens)
    while queue:
        x = queue.popleft()
        for g in G.generators:
            y = x.conjugate(g)
            if not K.contains(y):
                gens.append(y)
                K = PermutationGroup(G.degree, gens)
                queue.append(y)
    return K


def commutator(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """[A, B]: the normal closure in <A, B> of the generator commutators."""
    _check_degrees(A, B)
    J = join(A, B)
    seeds = span(A.degree, (a.commutator(b) for a in A.generators for b in B.generators))
    return normal_closure(J, seeds)


def iterated_commutator(N: PermutationGroup, M: PermutationGroup, k: int) -> PermutationGroup:
    """[N, M, M, ..., M] with k copies of M. k must be positive.

    The fold stops early once a step repeats, which cannot change the value.
    """
    if k < 1:
        raise ValueError("iterated commutator needs at least one step")
    _check_degrees(N, M)
    current = N
    for _ in range(k):
        nxt = commutator(current, M)
        if same_subgroup(nxt, current):
            return nxt
        current = nxt
    return current


def power_subgroup(N: PermutationGroup, q: int) -> PermutationGroup:
    """N^q = <n^q for every element n of N>.

    The full element set is enumerated: powers of the generators alone
    generate the wrong subgroup in general.
    """
    if q < 1:
        raise ValueError("exponent must be positive")
    if q == 1:
        return N
    return span(N.degree, (x ** q for x in N.elements()))


def _conjugate_images(y: Permutation, g: Permutation, g_inv: Permutation) -> tuple:
    """Images of g^-1 * y * g in one pass, given g_inv = g^-1."""
    gi = g.images
    yi = y.images
    return tuple(gi[yi[w]] for w in g_inv.images)


def normalizer(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """N_G(H) as the stabilizer of H in G's conjugation action. H <= G.

    The conjugates of H are walked breadth-first from H under the
    generators of G, each keyed by the sorted positions of its elements in
    G.elements() (a key that grows with |H|, not with |G|) and reached by
    a transversal element u with H^u that conjugate. A conjugate reached
    again by w, first reached by v, gives the Schreier generator
    w * v^-1 of N_G(H); it is kept only when it lies outside the group
    built so far, which starts at H (Schreier's lemma; Sims 1970). The
    result is checked by orbit-stabilizer, |N| * |orbit| == |G|, and a
    mismatch raises InternalMismatch. Raises ValueError unless H <= G.
    """
    if not is_subgroup(H, G):
        raise ValueError("subgroup is not contained in the group")
    positions = _element_positions(G)
    hels = H.elements()

    def conjugate_key(u):
        u_inv = u.inverse()
        return tuple(sorted(positions[_conjugate_images(h, u, u_inv)] for h in hels))

    ngens = list(H.generators)
    N = H
    e = identity(G.degree)
    orbit = {conjugate_key(e): e}
    queue = deque([e])
    while queue:
        u = queue.popleft()
        for g in G.generators:
            w = u * g
            key = conjugate_key(w)
            v = orbit.get(key)
            if v is None:
                orbit[key] = w
                queue.append(w)
                continue
            s = w * v.inverse()
            if not N.contains(s):
                ngens.append(s)
                N = PermutationGroup(G.degree, ngens)
    if N.order() * len(orbit) != G.order():
        raise InternalMismatch(
            f"stabilizer order {N.order()} times orbit length {len(orbit)} "
            f"disagrees with group order {G.order()}")
    return span(G.degree, N.elements())


def centralizer(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """C_G(S) by scanning every element of G."""
    _check_degrees(G, S)
    sgens = S.generators
    keep = [g for g in G.elements()
            if all((s * g) == (g * s) for s in sgens)]
    return span(G.degree, keep)


def intersect(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """A intersected with B, enumerating the smaller of the two."""
    _check_degrees(A, B)
    small, other = (A, B) if A.order() <= B.order() else (B, A)
    return span(A.degree, (x for x in small.elements() if other.contains(x)))


class QuotientGroup:
    """G/N held as the pair (base, kernel); N is normal in G.

    Nothing is built for the quotient itself: psolv computes in G/N inside
    G (cores and exponents modulo N are read from G's conjugacy classes),
    and a LinearAction reads only the base and the kernel.
    """

    __slots__ = ("base", "kernel")

    def __init__(self, base, kernel):
        self.base = base
        self.kernel = kernel


def quotient(G: PermutationGroup, N: PermutationGroup) -> QuotientGroup:
    """G/N as a QuotientGroup. N must be normal in G and of the same degree."""
    _check_degrees(G, N)
    if not is_normal(G, N):
        raise NotNormal("kernel is not a normal subgroup of the base group")
    return QuotientGroup(G, N)


@group_fact
def conjugacy_classes(G: PermutationGroup) -> tuple[tuple[Permutation, ...], ...]:
    """Conjugacy classes as a tuple of tuples of the objects in G.elements().

    Each class is headed by its first element in enumeration order and
    lists the rest in the order conjugation by the generators reaches
    them. Cached on G; the classes hold G's own element objects, so the
    cache keeps no second copy of the group.
    """
    els = G.elements()
    positions = _element_positions(G)
    gens = [(g, g.inverse()) for g in G.generators]
    seen = bytearray(len(els))
    classes = []
    for i, x in enumerate(els):
        if seen[i]:
            continue
        seen[i] = 1
        cls = [x]
        for y in cls:
            for g, g_inv in gens:
                j = positions[_conjugate_images(y, g, g_inv)]
                if not seen[j]:
                    seen[j] = 1
                    cls.append(els[j])
        classes.append(tuple(cls))
    return tuple(classes)


def element_mask(G: PermutationGroup, elements) -> int:
    """A set of elements of G as an int: bit i stands for G.elements()[i].

    Containment is `a & ~b == 0` and the set size is the popcount. Every
    element must lie in G.
    """
    positions = _element_positions(G)
    mask = 0
    for x in elements:
        mask |= 1 << positions[x.images]
    return mask


@group_fact
def normal_subgroups(G: PermutationGroup) -> tuple[PermutationGroup, ...]:
    """Every normal subgroup of G, by closing unions of conjugacy classes.

    Each normal subgroup is generated by the classes it contains, so
    growing known subgroups one class at a time reaches all of them.
    Subgroups are told apart by their element masks (element_mask): for a
    normal K and a class C outside it, K<C> is the closure of K under right
    multiplication by C, and only a mask not seen before is turned into a
    group by span. The result is sorted by order, then by sorted element
    images. Intended for small groups; raises CapExceeded past
    NORMAL_SUBGROUP_LIMIT subgroups.
    """
    els = G.elements()
    positions = _element_positions(G)
    classes = [cls for cls in conjugacy_classes(G) if not cls[0].is_identity()]
    class_masks = [element_mask(G, cls) for cls in classes]

    def close(mask, cls):
        frontier = [i for i in range(len(els)) if mask >> i & 1]
        while frontier:
            grown = []
            for i in frontier:
                x = els[i]
                for c in cls:
                    j = positions[(x * c).images]
                    if not mask >> j & 1:
                        mask |= 1 << j
                        grown.append(j)
            frontier = grown
        return mask

    one = element_mask(G, [identity(G.degree)])
    found = {one: trivial_group(G.degree)}
    queue = deque([one])
    while queue:
        k = queue.popleft()
        kgens = list(found[k].generators)
        for c, cls in zip(class_masks, classes):
            if c & k:
                continue
            m = close(k, cls)
            if m in found:
                continue
            if len(found) >= NORMAL_SUBGROUP_LIMIT:
                raise CapExceeded(
                    f"more than {NORMAL_SUBGROUP_LIMIT} normal subgroups",
                    cap=NORMAL_SUBGROUP_LIMIT)
            K2 = span(G.degree, kgens + list(cls))
            if K2.order() != m.bit_count():
                raise InternalMismatch(
                    f"span order {K2.order()} disagrees with closure size "
                    f"{m.bit_count()}")
            found[m] = K2
            queue.append(m)
    return tuple(found[m] for m in sorted(found, key=lambda m: (
        m.bit_count(),
        sorted(x.images for i, x in enumerate(els) if m >> i & 1))))
