"""Permutation groups backed by a deterministic Schreier-Sims stabilizer chain.

The chain stores explicit transversals. No randomized variants are used:
base points, orbit traversal and generator processing all follow fixed
deterministic orders, so two runs over the same generators produce the
same chain, the same enumeration order and the same sampling.
"""

from __future__ import annotations

import functools
import weakref
from array import array

from .errors import CapExceeded, DegreeMismatch
from .perm import Permutation, _gather, _make

DEFAULT_ENUM_CAP = 200_000
# the most points a group may act on: one stabilizer-chain level stores up
# to `degree` transversal tuples of `degree` points each, and the element
# table (StabilizerChain.element_table) and the packed keys (_pack) hold
# each point in one byte
MAX_DEGREE = 256
_LANE = 8  # base images packed into one 8-byte key lane (_pack)
_SELF = object()  # kept in G._facts for a group_fact value that is G itself
# the live chains, keyed by (degree, *images of each generator)
_CHAINS = weakref.WeakValueDictionary()


def _orbit(one, gens, point, act):
    """Walk the orbit of point breadth first (Sims 1970). gens holds (g, g^-1)
    images, and act(x, i) is x's image under the i-th g. Returns a dict that
    takes each orbit point y, in the order found, to the images of (u, u^-1),
    u the first product found that carries point to y; and the steps (u, g, y)
    that reached a y already found: u * g * v^-1, v stored for y, are the
    Schreier generators. u * g is u's images gathered from g's, and its
    inverse is g^-1's gathered from u^-1's, so nothing is inverted."""
    gens = [(g, _gather(g_inv)) for g, g_inv in gens]
    transversal = {point: (one, one)}
    orbit = [point]
    steps = []
    for x in orbit:
        u, u_inv = transversal[x]
        by_u = _gather(u)
        for i, (g, by_g_inv) in enumerate(gens):
            y = act(x, i)
            if y in transversal:
                steps.append((u, g, y))
            else:
                transversal[y] = (by_u(g), by_g_inv(u_inv))
                orbit.append(y)
    return transversal, steps


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []  # (s, s^-1) images, s a strong generator first moving this point
        self.transversal = {}  # orbit point -> (u, u^-1) images, u[base point] == point


class StabilizerChain:
    """Stabilizer chain with explicit transversals.

    Level i holds base point b_i; the group at level i is generated by all
    strong generators assigned to levels >= i (those fixing b_0..b_{i-1}).
    """

    __slots__ = ("degree", "levels", "one", "base", "rows", "__weakref__")

    def __init__(self, degree, generators):
        self.degree = degree
        self.levels = []
        self.rows = None  # the ElementRows, once a group enumerates
        self.one = tuple(range(degree))
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree differs from group degree")
            residue, j = self._strip(g.images, 0)
            if residue != self.one:
                self._add_generator(j, residue)
        self._close()
        # the base points, one per level: an element is fixed by its
        # images of them (Handbook, Holt-Eick-O'Brien, 4.4)
        self.base = tuple(lv.point for lv in self.levels)

    def _gens_at(self, i):
        out = []
        for lv in self.levels[i:]:
            out.extend(lv.gens)
        return out

    def _rebuild_orbit(self, i):
        lv, gens = self.levels[i], self._gens_at(i)
        lv.transversal = _orbit(self.one, gens, lv.point, lambda a, k: gens[k][0][a])[0]

    def _add_generator(self, j, images):
        h = _make(images)
        if j == len(self.levels):
            self.levels.append(_Level(h.min_moved()))
        self.levels[j].gens.append((h.images, h.inverse().images))
        for i in range(j + 1):
            self._rebuild_orbit(i)
        # level i's transversal is an orbit of generators that fix the
        # earlier base points, so the product is already a lower bound on
        # the group order, and a group past the cap is refused mid-build
        n = self.order()
        if n > DEFAULT_ENUM_CAP:
            raise CapExceeded(f"group order is at least {n}, more than the "
                              f"cap of {DEFAULT_ENUM_CAP} elements")

    def _strip(self, x, start):
        """Sift the images x from level start down: (residue images, level
        where it left the chain, or len(levels) when it went through)."""
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            pair = lv.transversal.get(x[lv.point])
            if pair is None:
                return x, i
            x = _gather(x)(pair[1])
        return x, len(self.levels)

    def _close(self):
        # verify the Schreier condition level by level, deepest first;
        # a failed residue becomes a new strong generator and verification
        # resumes from its level
        i = len(self.levels) - 1
        while i >= 0:
            lv = self.levels[i]
            gens = self._gens_at(i)
            restart = False
            for beta in sorted(lv.transversal):
                by_u = _gather(lv.transversal[beta][0])
                for s, _ in gens:
                    # u * s * t^-1 has images t^-1[s[u[x]]]
                    schreier = _gather(by_u(s))(lv.transversal[s[beta]][1])
                    if schreier == self.one:
                        continue
                    residue, j = self._strip(schreier, i + 1)
                    if residue != self.one:
                        self._add_generator(j, residue)
                        i = j
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def contains(self, g) -> bool:
        return self._strip(g.images, 0)[0] == self.one

    def element_table(self) -> bytes:
        """The images of every element, joined in the order of
        iter_elements: byte i * degree + b is x[b], x the element at
        position i. Built level by level without forming any element. That
        order is h * t, t in a level's sorted transversal and h from the
        levels below, and h * t has images t[h[b]], so the table so far
        translated through t is the block of the products h * t, and the
        blocks are joined. A translate table has 256 entries, hence
        MAX_DEGREE."""
        table = bytes(range(self.degree))
        for lv in reversed(self.levels):
            ts = [bytes(lv.transversal[beta][0]).ljust(256, b"\0")
                  for beta in sorted(lv.transversal)]
            table = b"".join([table.translate(t) for t in ts])
        return table

    def iter_elements(self) -> ElementRows:
        """The image tuple of every element exactly once, in a fixed order
        determined by the chain: the rows of element_table, each built
        only when it is read. No Permutation is built."""
        return ElementRows(self.element_table(), self.degree)


class ElementRows:
    """A read-only sequence over an element table (element_table): row i
    is the image tuple of the element at position i, built when it is
    read, by index or by iteration; no row is kept."""

    __slots__ = ("table", "degree")

    def __init__(self, table: bytes, degree: int):
        self.table = table
        self.degree = degree

    def __len__(self):
        return len(self.table) // self.degree

    def __getitem__(self, i):
        n = len(self.table) // self.degree
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("element row index out of range")
        d = self.degree
        return tuple(self.table[i * d:i * d + d])

    def __iter__(self):
        # zip reads degree bytes at a time from one iterator
        return zip(*[iter(self.table)] * self.degree)


def _pack(columns, count):
    """One key per element of a table, from its base-point columns:
    columns[j] holds, at byte i, the image of the j-th base point under
    the i-th element, for count elements. Up to 8 columns are interleaved
    into one 8-byte lane per element by C-level slice assignment and read
    as unsigned ints, so the key is an int for a base of at most 8 points
    (0 for an empty base), and a tuple of the lanes of each 8 columns for
    a longer one. A single row packs as a table of one element."""
    if len(columns) > _LANE:
        return list(zip(*(_pack(columns[s:s + _LANE], count)
                          for s in range(0, len(columns), _LANE))))
    lane = bytearray(_LANE * count)
    for j, col in enumerate(columns):
        lane[j::_LANE] = col
    return array("Q", lane)


def _row_keys(G, rows):
    """The _pack keys of the given rows, elements of G's degree, at G's
    base: an ElementRows is read through its table, any other rows are
    joined into one first."""
    table = rows.table if isinstance(rows, ElementRows) else b"".join(map(bytes, rows))
    n = G.degree
    return _pack([table[b::n] for b in G.chain.base], len(table) // n)


class PermutationGroup:
    """A group of permutations of {0, ..., n-1}, given by generators.

    Instances are immutable by convention: every operation returns a new
    group, and the stabilizer chain is found or built lazily, once per
    group, so concurrent readers are safe. Facts computed by `group_fact`
    functions are kept in `_facts` for the life of the group.
    """

    __slots__ = ("degree", "generators", "_chain", "_facts")

    def __init__(self, degree, generators=()):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} is more than the limit of "
                             f"{MAX_DEGREE} points")
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"generator is not a Permutation: {g!r}")
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} differs from group degree {degree}"
                )
        self.degree = degree
        self.generators = generators
        self._chain = None
        self._facts = {}

    @property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain, shared by every live group of the same
        degree and generator images: the chain a fresh build would give,
        whose levels never change. The memo holds it weakly, and a chain
        refers to no group, so the memo keeps nothing alive."""
        if self._chain is None:
            key = (self.degree, *(g.images for g in self.generators))
            chain = _CHAINS.get(key)
            if chain is None:
                chain = _CHAINS[key] = StabilizerChain(self.degree, self.generators)
            self._chain = chain
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def is_trivial(self) -> bool:
        return self.order() == 1

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {g.degree} differs from group degree {self.degree}"
            )
        return self.chain.contains(g)

    def element_rows(self) -> ElementRows:
        """The image tuples of all elements in deterministic chain order,
        as one read-only sequence over the chain's element table, built
        once and kept on the chain, so every group sharing the chain reads
        the same one: the group's one stored form of its elements, which
        positions, the conjugation action and the classes are read from.
        A row tuple is built only when it is read.

        Raises CapExceeded before enumerating anything when order() >
        DEFAULT_ENUM_CAP.
        """
        n = self.order()
        if n > DEFAULT_ENUM_CAP:
            raise CapExceeded(f"group order {n} exceeds enumeration cap "
                              f"{DEFAULT_ENUM_CAP}")
        chain = self.chain
        if chain.rows is None:
            chain.rows = chain.iter_elements()
        return chain.rows

    def elements(self) -> list[Permutation]:
        """All elements as Permutations, in the order of element_rows(),
        wrapped afresh on each call, each around a row read from the
        table. Raises CapExceeded as element_rows() does. Inside the
        engine only normal_subgroups calls it, since it multiplies
        elements as it closes class unions."""
        return list(map(_make, self.element_rows()))

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return f"PermutationGroup(degree={self.degree}, gens=[{gens}{more}])"


def trivial_group(degree: int) -> PermutationGroup:
    return PermutationGroup(degree, ())


def group_fact(fn):
    """Compute fn(G, *args) once per group object and argument values.

    The value is kept in G._facts under fn and the arguments, so later
    calls return the very same object. A group among the arguments, as in
    a pair fact such as commutator(A, B), is keyed by (degree, generators),
    the data that defines it. So the key holds no group: a fact never
    keeps another group alive or closes a reference cycle through it, and
    a new group object with the same generators finds the same value.
    Arguments are positional only, with no defaults, so each value has one
    key. A call that raises stores nothing. A value that is G itself is
    kept as a marker, not as a reference to G. Only for pure functions of
    a group, and of the other groups' generators, whose value is safe to
    share.
    """

    @functools.wraps(fn)
    def cached(G, *args):
        key = (fn, *((a.degree, a.generators) if isinstance(a, PermutationGroup) else a
                     for a in args))
        try:
            value = G._facts[key]
        except KeyError:
            value = fn(G, *args)
            G._facts[key] = _SELF if value is G else value
            return value
        return G if value is _SELF else value

    return cached


def _grow(G: PermutationGroup, elements) -> PermutationGroup:
    """G with each element outside the group so far adjoined in turn, in
    the order given. The generators are G's followed by the adjoined
    elements."""
    gens = list(G.generators)
    for x in elements:
        if not G.contains(x):
            gens.append(x)
            G = PermutationGroup(G.degree, gens)
    return G


def _adjoin(rows: set, gens: list, x) -> None:
    """Grow rows, the images of every element of the group H generated by
    the images in gens, in place to those of <H, x>, and append x to gens.
    <H, x> is a union of right cosets H r (Dimino 1971): from r = 1, each
    representative r times each generator t lies in the coset H r t, which
    is new, and is added whole, when r t is outside the rows so far. No
    chain is built."""
    by_h = [_gather(h) for h in rows]
    gens.append(x)
    reps = [tuple(range(len(x)))]
    for r in reps:
        by_r = _gather(r)
        for t in gens:
            y = by_r(t)
            if y not in rows:
                rows.update([by(y) for by in by_h])
                reps.append(y)


def _adjoin_all(rows: set, gens: list, candidates, order: int) -> None:
    """Adjoin each of the candidate images outside rows in turn by _adjoin,
    stopping once rows holds order images: rows and gens are those of the
    group generated so far, grown in place. Raises CapExceeded, as
    element_rows() does, before anything is adjoined when order >
    DEFAULT_ENUM_CAP."""
    if order > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"group order {order} exceeds enumeration cap "
                          f"{DEFAULT_ENUM_CAP}")
    for x in candidates:
        if len(rows) >= order:
            break
        if x not in rows:
            _adjoin(rows, gens, x)


def span(degree: int, elements) -> PermutationGroup:
    """Group generated by the given elements, with a reduced generator list.

    Elements are taken in sorted image order and kept only when they add
    something, so the result is deterministic and its generator count stays
    logarithmic in the group order. The distinct image tuples are sorted as
    they are, and each is wrapped only when _grow reaches it.
    """
    rows = sorted({x.images for x in elements})
    return _grow(trivial_group(degree), map(_make, rows))


def _subgroup_of_rows(degree: int, rows) -> PermutationGroup:
    """The group whose elements are the given images, known to form a
    subgroup, with span's generators: the group so far is kept as its set
    of rows, grown by _adjoin_all over the sorted rows up to their number,
    so membership is a set lookup and one chain is built, for the result."""
    rows = sorted(set(rows))
    gens = []
    _adjoin_all({tuple(range(degree))}, gens, rows, len(rows))
    return PermutationGroup(degree, map(_make, gens))
