"""Subgroup lattice operations, normalizers and conjugacy classes.

All functions operate on PermutationGroup instances of equal degree; a
subgroup is just a group on the same points whose generators sift through
the ambient chain. Equality of subgroups always means equal order plus
mutual generator membership, never equal generator lists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque

from .errors import CapExceeded, DegreeMismatch, InternalMismatch
from .group import (PermutationGroup, _adjoin_all, _grow, _orbit, _pack, _row_keys,
                    _subgroup_of_rows, group_fact, span, trivial_group)
from .perm import _conjugator, _gather, _make, _power

# the most work normal_subgroups may do, counted as in _lattice's docstring
LATTICE_WORK_LIMIT = 2_000_000


def _check_degrees(*groups):
    degrees = {G.degree for G in groups}
    if len(degrees) != 1:
        raise DegreeMismatch(f"groups act on different point sets: degrees {sorted(degrees)}")


@group_fact
def _element_index(G: PermutationGroup) -> dict:
    """Each element's position in G.element_rows(), keyed by its base
    images as group._row_keys packs them, read from the element table."""
    return dict(zip(_row_keys(G, G.element_rows()), range(G.order())))


def _positions(G: PermutationGroup, rows):
    """The positions in G.element_rows() of the given rows, each one of
    G's, in the order given, through _element_index."""
    return map(_element_index(G).__getitem__, _row_keys(G, rows))


def is_subgroup(A: PermutationGroup, B: PermutationGroup) -> bool:
    """True when A <= B."""
    _check_degrees(A, B)
    return _first_outside(A, B) is None


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
    """True when conjugation by every generator of H fixes N; one
    conjugator is built per generator of H."""
    _check_degrees(H, N)
    return all(N.contains(_make(conj(n.images)))
               for conj in map(_conjugator, H.generators) for n in N.generators)


def is_normal(G: PermutationGroup, N: PermutationGroup) -> bool:
    """True when N <= G and G normalizes N."""
    return is_subgroup(N, G) and _normalizes(G, N)


def join(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """Smallest subgroup containing A and B."""
    _check_degrees(A, B)
    gens = []
    for g in A.generators + B.generators:
        if not g.is_identity() and g not in gens:
            gens.append(g)
    return PermutationGroup(A.degree, gens)


def _normal_closure_steps(G: PermutationGroup, S: PermutationGroup):
    """Yield each subgroup the normal closure of S in G grows through.

    The first is <S>; each later one adds a conjugate, by a generator of
    G, of a working generator that the one before lacks, and the last is
    the normal closure itself. Each is a subgroup of the next, so a
    caller may stop as soon as one shows the closure will not do. One
    conjugator is built per generator of G.
    """
    _check_degrees(G, S)
    gens = [g for g in S.generators if not g.is_identity()]
    K = PermutationGroup(G.degree, gens)
    yield K
    conjs = [_conjugator(g) for g in G.generators]
    queue = deque(gens)
    while queue:
        x = queue.popleft()
        for conj in conjs:
            y = _make(conj(x.images))
            grown = _grow(K, [y])
            if grown is not K:
                K = grown
                queue.append(y)
                yield K


def normal_closure(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """Smallest subgroup of G containing S and normal in G.

    Conjugates of the working generators by the generators of G are added
    until nothing new appears (_normal_closure_steps); at the fixpoint the
    result is closed under conjugation by all of G.
    """
    for K in _normal_closure_steps(G, S):
        pass
    return K


@group_fact
def commutator(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """[A, B]: the normal closure in <A, B> of the generator commutators,
    cached on A."""
    _check_degrees(A, B)
    J = join(A, B)
    seeds = span(A.degree, (a.commutator(b) for a in A.generators for b in B.generators))
    return normal_closure(J, seeds)


def iterated_commutator(N: PermutationGroup, M: PermutationGroup, k: int) -> PermutationGroup:
    """[N, M, M, ..., M] with k copies of M. k must be positive.

    The fold stops early once a step repeats, which cannot change the value.
    Each step is the cached commutator of the step before, so a repeated
    fold returns the very same group.
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


@group_fact
def power_subgroup(N: PermutationGroup, q: int) -> PermutationGroup:
    """N^q = <n^q for every element n of N>, cached on N.

    The full element set is enumerated: powers of the generators alone
    generate the wrong subgroup in general. Each row of N is raised by
    perm._power, and _grow takes the distinct q-th powers sorted, as span.
    """
    if q < 1:
        raise ValueError("exponent must be positive")
    if q == 1:
        return N
    powers = {_power(x, q) for x in N.element_rows()}
    return _grow(trivial_group(N.degree), map(_make, sorted(powers)))


@group_fact
def _conjugation_action(G: PermutationGroup) -> tuple:
    """One list per generator g of G: entry i is the position in
    G.element_rows() of g^-1 * x * g, for x the element at position i.
    Lists, not arrays: reading an entry boxes no int.

    The conjugates' keys in _element_index are packed from their base
    columns, cut from G's element table without forming an image tuple:
    g^-1 * x * g has images g[x[g^-1[b]]], so its column b is the table
    column g^-1[b], one strided slice, translated through g's images."""
    table = G.element_rows().table
    n = G.degree
    base = G.chain.base
    lookup = _element_index(G).__getitem__
    maps = []
    for g in G.generators:
        by_g = bytes(g.images).ljust(256, b"\0")
        g_inv = g.inverse().images
        columns = [table[g_inv[b]::n].translate(by_g) for b in base]
        maps.append(list(map(lookup, _pack(columns, G.order()))))
    return tuple(maps)


def _stabilizer(G: PermutationGroup, seed: PermutationGroup, point, act) -> PermutationGroup:
    """The stabilizer in G of point, grown from seed; act(x, i) is x's image
    under the i-th generator of G. Its rows start as seed's, and the
    Schreier generators u * g * v^-1 of the orbit walk's steps
    (group._orbit) outside the rows so far are adjoined by right cosets
    (group._adjoin_all), until there are |G| / |orbit| rows; running out
    below that raises InternalMismatch, and a stabilizer order above
    DEFAULT_ENUM_CAP raises CapExceeded before anything is adjoined. The
    result is group._subgroup_of_rows of the rows, so its generators are
    the greedy choice over them in sorted order."""
    one = tuple(range(G.degree))
    gens = [(g.images, g.inverse().images) for g in G.generators]
    transversal, steps = _orbit(one, gens, point, act)
    rows = set(seed.element_rows())
    schreier = (_gather(_gather(u)(g))(transversal[y][1]) for u, g, y in steps)
    _adjoin_all(rows, [x.images for x in seed.generators], schreier,
                G.order() // len(transversal))
    if len(rows) * len(transversal) != G.order():
        raise InternalMismatch(
            f"stabilizer order {len(rows)} times orbit length {len(transversal)} "
            f"disagrees with group order {G.order()}")
    return _subgroup_of_rows(G.degree, rows)


def normalizer(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """N_G(H), the stabilizer of H under conjugation by G, grown from H. A
    conjugate is keyed by its sorted positions in G.element_rows(), the
    key of H found from H's element table by _positions; a generator
    moves a key by one gather from its list in G's cached conjugation
    action. Raises ValueError unless H <= G."""
    if not is_subgroup(H, G):
        raise ValueError("subgroup is not contained in the group")
    maps = _conjugation_action(G)
    key = tuple(sorted(_positions(G, H.element_rows())))
    return _stabilizer(G, H, key, lambda k, i: tuple(sorted(_gather(k)(maps[i]))))


def centralizer(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """C_G(S), the stabilizer of S's generators under conjugation by G.
    S need not lie in G."""
    _check_degrees(G, S)
    conjs = [_conjugator(g) for g in G.generators]
    return _stabilizer(G, trivial_group(G.degree), tuple(s.images for s in S.generators),
                       lambda t, i: tuple(map(conjs[i], t)))


def normal_core(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """The largest normal subgroup of G inside H, returned before anything is
    enumerated when G normalizes H; else the positions of H's rows in
    G.element_rows(), found from H's element table by _positions, are
    intersected with their images under G's cached conjugation action
    until every generator maps them onto themselves.
    The core is built from its rows by group._subgroup_of_rows, which wraps
    only its generators. ValueError unless H <= G."""
    if not is_subgroup(H, G):
        raise ValueError("subgroup is not contained in the group")
    if _normalizes(G, H):
        return H
    maps = _conjugation_action(G)
    k = set(_positions(G, H.element_rows()))
    last = None
    while k != last:
        last, k = k, k.intersection(*({c[i] for i in k} for c in maps))
    return _subgroup_of_rows(G.degree, map(G.element_rows().__getitem__, k))


def intersect(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """A intersected with B, enumerating the smaller of the two."""
    _check_degrees(A, B)
    small, other = (A, B) if A.order() <= B.order() else (B, A)
    common = [x for x in small.element_rows() if other.contains(_make(x))]
    return _subgroup_of_rows(A.degree, common)


@group_fact
def conjugacy_classes(G: PermutationGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as a tuple of tuples of positions in
    G.element_rows(), which G.elements() wraps in the same order.

    The classes are the orbits of G's cached conjugation action on element
    positions, walked from the first unseen position. Each class is headed
    by its first element in enumeration order and lists the rest in the
    order conjugation by the generators reaches them. Cached on G; no
    row is read and no element is wrapped as a Permutation, so a caller
    reads, by index, only the rows it needs, such as the class heads.
    """
    maps = _conjugation_action(G)
    n = G.order()
    seen = bytearray(n)
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = 1
        cls = [i]
        for j in cls:
            for c in maps:
                k = c[j]
                if not seen[k]:
                    seen[k] = 1
                    cls.append(k)
        classes.append(tuple(cls))
    return tuple(classes)


def normal_subgroups(G: PermutationGroup) -> tuple[PermutationGroup, ...]:
    """Every normal subgroup of G, sorted by order, then by sorted element
    images: the members of the cached _lattice(G), the same objects on
    every call. Raises CapExceeded past LATTICE_WORK_LIMIT units of work,
    counted as _lattice says."""
    return _lattice(G)[0]


@group_fact
def _lattice(G: PermutationGroup) -> tuple[tuple[PermutationGroup, ...], tuple[int, ...]]:
    """The members of normal_subgroups(G) and, in the same order, their
    element masks: bit i of a mask stands for G.element_rows()[i], so
    containment is `a & ~b == 0` and the popcount is the order.

    The members are found by closing unions of conjugacy classes. Each
    normal subgroup is generated by the classes it contains, so growing
    known subgroups one class at a time reaches all of them. Subgroups are
    told apart by their masks: for a normal K and a class C outside it,
    K<C> is the closure of K under right multiplication by C, and only a
    mask not seen before is turned into a group by span.

    The work is counted in units: each closure pays |G| for the scan of
    its starting mask, and each frontier round then pays |frontier| * |C|,
    one unit per product x * c. CapExceeded is raised in the round that
    takes the count past LATTICE_WORK_LIMIT, or before any closure when
    the closures of the trivial group by each nontrivial class would
    already pass it. An abelian G has |G| classes, so that refusal comes
    before anything of G is enumerated when its generators commute.
    """
    overflow = (f"the normal subgroup lattice needs more than "
                f"{LATTICE_WORK_LIMIT} units of work")
    n = G.order()
    gens = G.generators
    if ((n - 1) * n > LATTICE_WORK_LIMIT
            and all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])):
        raise CapExceeded(overflow)
    e, = _positions(G, [tuple(range(G.degree))])
    classes = [cls for cls in conjugacy_classes(G) if cls[0] != e]
    # the trivial group alone is closed by every class, at |G| units each;
    # refusing here spares the class masks, |G| bits per class
    if len(classes) * n > LATTICE_WORK_LIMIT:
        raise CapExceeded(overflow)
    # positions are distinct, so each sum of bits is their union
    class_masks = [sum(1 << i for i in cls) for cls in classes]
    # close and span take elements, so the classes are wrapped from here on,
    # and close looks its products up by their images
    els = G.elements()
    positions = {x.images: i for i, x in enumerate(els)}
    classes = [[els[i] for i in cls] for cls in classes]
    work = 0

    def close(mask, cls):
        nonlocal work
        frontier = [i for i in range(len(els)) if mask >> i & 1]
        work += len(els)
        while frontier:
            work += len(frontier) * len(cls)
            if work > LATTICE_WORK_LIMIT:
                raise CapExceeded(overflow)
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

    one = 1 << e
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
            K2 = span(G.degree, kgens + list(cls))
            if K2.order() != m.bit_count():
                raise InternalMismatch(
                    f"span order {K2.order()} disagrees with closure size "
                    f"{m.bit_count()}")
            found[m] = K2
            queue.append(m)
    masks = tuple(sorted(found, key=lambda m: (
        m.bit_count(),
        sorted(x.images for i, x in enumerate(els) if m >> i & 1))))
    return tuple(map(found.__getitem__, masks)), masks


def _member(G: PermutationGroup, H: PermutationGroup) -> int:
    """The index of H, a normal subgroup of G, in normal_subgroups(G): the
    only member of order |H| whose mask holds the positions of H's
    generators, so nothing of H is enumerated. The members are sorted by
    order, so only those of H's order are scanned. Raises InternalMismatch
    when no member matches."""
    masks = _lattice(G)[1]
    need = sum(1 << i for i in set(_positions(G, [g.images for g in H.generators])))
    n = H.order()
    lo = bisect_left(masks, n, key=int.bit_count)
    for i in range(lo, bisect_right(masks, n, lo, key=int.bit_count)):
        if need & ~masks[i] == 0:
            return i
    raise InternalMismatch("a normal subgroup is missing from the lattice enumeration")
