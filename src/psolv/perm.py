"""Permutations of {0, ..., n-1} stored as image tuples.

Composition is left to right: (a * b) applies a first, then b, so
(a * b)[x] == b[a[x]]. Points are 0-based everywhere in code; cycle
notation used for human input/output is 1-based.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter

from .errors import DegreeMismatch


def _make(images):
    # internal fast path, skips bijection validation
    p = object.__new__(Permutation)
    p.images = images
    return p


def _gather(idx):
    """The function t -> tuple(t[i] for i in idx), as one C-level
    itemgetter pass. A single index is wrapped, since itemgetter(i)
    returns t[i] itself rather than a 1-tuple."""
    if len(idx) == 1:
        i, = idx
        return lambda t: (t[i],)
    return itemgetter(*idx)


def _power(images, k):
    """The images of x^k, x the permutation with the given images and
    k >= 0, by square and multiply: each product is one _gather pass."""
    result = tuple(range(len(images)))
    while k:
        if k & 1:
            result = _gather(result)(images)
        k >>= 1
        if k:
            images = _gather(images)(images)
    return result


def _conjugator(g):
    """The function taking the images of y, a permutation of g's degree,
    to those of g^-1 * y * g, which are g[y[g^-1[b]]] for each point b:
    y gathers g's images, and one itemgetter over g^-1's images, built
    once per g, puts them in b's order. On one point y can only be the
    identity and is returned as it is, since itemgetter(i) yields a bare
    int."""
    if len(g.images) == 1:
        return lambda y: y
    gi = g.images
    after = itemgetter(*g.inverse().images)
    return lambda y: after(itemgetter(*y)(gi))


class Permutation:
    """An element of the symmetric group on {0, ..., n-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a bijection of 0..{n - 1}: {images!r}")
            seen[x] = True
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"cannot compose degree {len(self.images)} with degree {len(other.images)}"
            )
        b = other.images
        return _make(tuple(b[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return _make(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        return _make(_power(self.images, k))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self conjugated by g, i.e. g^-1 * self * g, by _conjugator."""
        if len(self.images) != len(g.images):
            return self * g  # raises DegreeMismatch
        return _make(_conjugator(g)(self.images))

    def commutator(self, other: "Permutation") -> "Permutation":
        """[self, other] = self^-1 * other^-1 * self * other, that is
        self^-1 times self conjugated by other: the conjugate's images
        gathered in self^-1's order."""
        return _make(_gather(self.inverse().images)(self.conjugate(other).images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def min_moved(self):
        """Smallest moved point, or None for the identity."""
        for i, x in enumerate(self.images):
            if i != x:
                return i
        return None

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.min_moved() is not None else 1

    def cycle_string(self) -> str:
        """1-based cycle notation, '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation[{len(self.images)}]{self.cycle_string()}"


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _make(tuple(range(degree)))


def from_cycles(degree: int, cycles) -> Permutation:
    """Build a permutation from 0-based cycles. Its error messages name
    points 1-based, as cycle notation writes them."""
    images = list(range(degree))
    placed = set()
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise ValueError("a point is repeated inside one cycle")
        for i, x in enumerate(cyc):
            if not 0 <= x < degree:
                raise ValueError(f"point {x + 1} out of range for degree {degree}")
            if x in placed:
                raise ValueError(f"point {x + 1} appears in two cycles")
            placed.add(x)
            images[x] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like '(1 2)(3 4)' (commas also accepted)."""
    cycles = []
    consumed = _CYCLE_RE.sub("", text)
    if consumed.strip(" ,"):
        raise ValueError(f"unparsable cycle text: {text!r}")
    for body in _CYCLE_RE.findall(text):
        points = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not points:
            continue
        cyc = []
        for p in points:
            if not p.isdigit() or int(p) < 1:
                raise ValueError(f"bad point {p!r} in cycle text {text!r}")
            cyc.append(int(p) - 1)
        cycles.append(tuple(cyc))
    needed = 1 + max((max(c) for c in cycles), default=0)
    if degree < needed:
        raise ValueError(f"cycle text {text!r} needs degree >= {needed}, got {degree}")
    return from_cycles(degree, cycles)
