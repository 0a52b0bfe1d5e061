"""Subgroup lattice operations, quotients and preimages.

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

DEFAULT_COSET_CAP = 100_000
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


def is_normal(G: PermutationGroup, N: PermutationGroup) -> bool:
    """True when N <= G and conjugation by every generator of G fixes N."""
    if not is_subgroup(N, G):
        return False
    return all(N.contains(n.conjugate(g)) for g in G.generators for n in N.generators)


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
    generators of G, each keyed by its element mask over G.elements() and
    reached by a transversal element u with H^u that conjugate. A conjugate
    reached again by w, first reached by v, gives the Schreier generator
    w * v^-1 of N_G(H); it is kept only when it lies outside the group
    built so far, which starts at H (Schreier's lemma; Sims 1970). The
    result is checked by orbit-stabilizer, |N| * |orbit| == |G|, and a
    mismatch raises InternalMismatch. Raises ValueError unless H <= G.
    """
    if not is_subgroup(H, G):
        raise ValueError("subgroup is not contained in the group")
    positions = _element_positions(G)
    hels = H.elements()

    def conjugate_mask(u):
        u_inv = u.inverse()
        mask = 0
        for h in hels:
            mask |= 1 << positions[_conjugate_images(h, u, u_inv)]
        return mask

    ngens = list(H.generators)
    N = H
    e = identity(G.degree)
    orbit = {conjugate_mask(e): e}
    queue = deque([e])
    while queue:
        u = queue.popleft()
        for g in G.generators:
            w = u * g
            m = conjugate_mask(w)
            v = orbit.get(m)
            if v is None:
                orbit[m] = w
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
    """G/N presented as a faithful permutation action on the right cosets of N.

    Cosets are keyed by a canonical representative computed from N's
    stabilizer chain, so coset indexing is deterministic. Coset 0 is N.
    """

    __slots__ = ("base", "kernel", "image", "_reps", "_index")

    def __init__(self, base, kernel, image, reps, index):
        self.base = base
        self.kernel = kernel
        self.image = image
        self._reps = reps
        self._index = index

    @property
    def index(self) -> int:
        return len(self._reps)

    def project(self, x: Permutation) -> Permutation:
        """Image of a base-group element in the coset action."""
        if not self.base.contains(x):
            raise ValueError("element is not in the base group")
        images = tuple(self._index[_canonical_rep(self.kernel, r * x).images]
                       for r in self._reps)
        return Permutation(images)

    def section(self, y: Permutation) -> Permutation:
        """A base-group preimage of an image element; project(section(y)) == y."""
        if not self.image.contains(y):
            raise ValueError("element is not in the quotient image")
        return self._reps[y.images[0]]


def _canonical_rep(N: PermutationGroup, x: Permutation) -> Permutation:
    """Canonical representative of the coset N*x.

    At each level of N's chain the transversal point with the smallest
    image under the running product is chosen; images are distinct, so
    the choice is unique and the result depends only on the coset.
    """
    chain = N.chain
    for lv in chain.levels:
        best = min(lv.transversal, key=lambda d: x.images[d])
        x = lv.transversal[best] * x
    return x


def quotient(G: PermutationGroup, N: PermutationGroup) -> QuotientGroup:
    """G/N via the right-coset action. N must be normal in G.

    Raises CapExceeded before building anything when the index exceeds
    DEFAULT_COSET_CAP.
    """
    _check_degrees(G, N)
    if not is_normal(G, N):
        raise NotNormal("kernel is not a normal subgroup of the base group")
    m = G.order() // N.order()
    if m > DEFAULT_COSET_CAP:
        raise CapExceeded(f"index {m} exceeds coset cap {DEFAULT_COSET_CAP}",
                          cap=DEFAULT_COSET_CAP)

    start = _canonical_rep(N, identity(G.degree))
    reps = [start]
    index = {start.images: 0}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        for g in G.generators:
            c = _canonical_rep(N, r * g)
            if c.images not in index:
                index[c.images] = len(reps)
                reps.append(c)
                queue.append(c)
    if len(reps) != m:
        raise InternalMismatch(
            f"coset count {len(reps)} disagrees with index {m}")

    imgs = []
    for g in G.generators:
        imgs.append(Permutation(tuple(index[_canonical_rep(N, r * g).images] for r in reps)))
    image = PermutationGroup(m, imgs) if m > 1 else trivial_group(1)
    if image.order() != m:
        raise InternalMismatch(
            f"coset action order {image.order()} disagrees with index {m}")
    return QuotientGroup(G, N, image, tuple(reps), index)


def preimage(Q: QuotientGroup, S: PermutationGroup) -> PermutationGroup:
    """Full preimage in the base group of a subgroup S of Q.image."""
    if S.degree != Q.image.degree:
        raise DegreeMismatch("subgroup does not live in the quotient image")
    if not is_subgroup(S, Q.image):
        raise ValueError("subgroup is not contained in the quotient image")
    gens = list(Q.kernel.generators) + [Q.section(s) for s in S.generators]
    return PermutationGroup(Q.base.degree, gens)


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
