"""Conjugation as a linear action.

When a normal subgroup V of G is elementary abelian of order p^d, V is a
d-dimensional vector space over F_p and conjugation by any g in G is an
invertible linear map T(g) on it. LinearAction(G, V, p) checks that V is
normal in G and builds no quotient G/V. With right action and row vectors,
coords(v^g) = coords(v) * T(g), so T(gh) = T(g) T(h), and the commutator
identity coords([v, g]) = coords(v) * (T(g) - I) holds.

Inside, an F_p vector is one int with a lane of bits per coordinate
(_Lanes), and an element is its image tuple. sample_identities checks
both identities on sampled elements in that form: a sample builds no
Permutation, no FpMatrix and no coordinate tuple, and a Permutation is
made only once per distinct element, to sift it into G or to invert a
kernel element. matrix(g) unpacks an element's packed T(g) into an
FpMatrix for every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalMismatch,
    KernelNotElementaryAbelian,
    NotNormal,
    PreconditionViolated,
    UnsupportedParameters,
)
from .group import PermutationGroup
from .perm import Permutation, _conjugator, _gather, _make, identity
from .series import require_prime
from .subgroups import is_normal


@dataclass(frozen=True)
class FpMatrix:
    """A matrix over F_p; rows is a tuple of equal-length tuples of ints
    already reduced mod p."""

    p: int
    rows: tuple

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n))
                            for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def _check_peer(self, other):
        if not isinstance(other, FpMatrix):
            raise TypeError("expected an FpMatrix")
        if self.p != other.p:
            raise UnsupportedParameters("matrices live over different primes")

    def __sub__(self, other) -> "FpMatrix":
        self._check_peer(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise UnsupportedParameters("matrix shapes do not match")
        return FpMatrix(self.p, tuple(
            tuple((a - b) % self.p for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other) -> "FpMatrix":
        self._check_peer(other)
        if self.ncols != other.nrows:
            raise UnsupportedParameters("matrix shapes do not compose")
        cols = list(zip(*other.rows)) if other.rows else []
        return FpMatrix(self.p, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % self.p for col in cols)
            for row in self.rows))

    def row_apply(self, vector) -> tuple:
        """Row vector times matrix."""
        if len(vector) != self.nrows:
            raise UnsupportedParameters("vector length does not match the matrix")
        cols = zip(*self.rows) if self.rows else ()
        return tuple(sum(a * b for a, b in zip(vector, col)) % self.p
                     for col in cols)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.rows)


class _Lanes:
    """F_p vectors of length d packed into one int: coordinate i sits in
    bits w*i to w*i + w - 1, w = p.bit_length() + 1, so a lane holds the
    sum of two reduced coordinates, at most 2p - 2 < 2^w. Two vectors add
    as one integer add, after which the lanes that reached p lose it
    together: adding 2^(w-1) - p to every lane sets a lane's top bit
    exactly when it holds at least p.

    A packed matrix is a tuple of d rows, row j given as its multiples
    c * row_j for c = 0, ..., p - 1. A row vector v times it is then the
    lane sum over j of row j's multiple v_j, d adds, and row j itself is
    its multiple 1.
    """

    __slots__ = ("p", "d", "width", "_consts")

    def __init__(self, p: int, d: int):
        w = p.bit_length() + 1
        self.p = p
        self.d = d
        self.width = w
        high = sum(1 << (w * i + w - 1) for i in range(d))
        bias = sum(((1 << (w - 1)) - p) << (w * i) for i in range(d))
        self._consts = (w, (1 << w) - 1, bias, high, w - 1, p)

    def pack(self, vector) -> int:
        w = self.width
        return sum(c << (w * i) for i, c in enumerate(vector))

    def unpack(self, x: int) -> tuple:
        w, lane = self._consts[:2]
        return tuple((x >> (w * i)) & lane for i in range(self.d))

    def add(self, a: int, b: int) -> int:
        _, _, bias, high, top, p = self._consts
        s = a + b
        return s - (((s + bias) & high) >> top) * p

    def multiples(self, row: int) -> tuple:
        out = [0, row]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], row))
        return tuple(out)

    def times(self, v: int, M: tuple) -> int:
        """The packed row vector v times the packed matrix M."""
        w, lane, bias, high, top, p = self._consts
        acc = 0
        for m in M:
            s = acc + m[v & lane]
            acc = s - (((s + bias) & high) >> top) * p
            v >>= w
        return acc

    def product(self, A: tuple, B: tuple) -> list:
        """The packed rows of the matrix A B: row i of A times B."""
        times = self.times
        return [times(a[1], B) for a in A]

    def minus_identity(self, M: tuple) -> tuple:
        """The packed matrix M - I: row i gains p - 1 in lane i."""
        p, w = self.p, self.width
        return tuple(self.multiples(self.add(m[1], (p - 1) << (w * i)))
                     for i, m in enumerate(M))

    def unpack_matrix(self, M: tuple) -> FpMatrix:
        return FpMatrix(self.p, tuple(self.unpack(m[1]) for m in M))


class LinearAction:
    """The conjugation action of a group G on an elementary abelian normal
    p-subgroup V, as F_p matrices.

    V must be normal in G (NotNormal, or DegreeMismatch for another degree)
    and elementary abelian of exponent p (KernelNotElementaryAbelian). The
    basis is the greedy independent subfamily of the kernel's generators,
    and every kernel element's exponent vector is tabulated, packed, and
    keyed by the element's images. An element g's facts are its packed
    T(g), its packed T(g) - I and its conjugator. They are built once, on
    first use, after g is sifted through G, and kept on the instance keyed
    by g's images. A refusal is not kept, so an element outside G raises
    PreconditionViolated on every call.
    """

    def __init__(self, G: PermutationGroup, V: PermutationGroup, p: int):
        if not is_normal(G, V):
            raise NotNormal("kernel is not a normal subgroup of the base group")
        require_prime(p)
        order = V.order()

        gens = [g for g in V.generators if not g.is_identity()]
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                if a * b != b * a:
                    raise KernelNotElementaryAbelian("the kernel is not abelian")
        for g in gens:
            if not (g ** p).is_identity():
                raise KernelNotElementaryAbelian(
                    f"the kernel has an element of order not dividing {p}")

        # exponent vectors keyed by images; x * g has images g[x[b]]
        basis = []
        seen = {tuple(range(V.degree)): ()}
        for g in gens:
            gi = g.images
            if gi in seen:
                continue
            basis.append(g)
            grown = {}
            for x, c in seen.items():
                for e in range(p):
                    grown[x] = c + (e,)
                    x = _gather(x)(gi)
            seen = grown
        d = len(basis)
        if p ** d != order:
            raise InternalMismatch(
                "kernel order is not the expected power of the prime")
        if len(seen) != order:
            raise InternalMismatch(
                "basis products do not cover the kernel exactly")

        self.group = G
        self.prime = p
        self.space = V
        self.basis = tuple(basis)
        self.dimension = d
        self._lanes = lanes = _Lanes(p, d)
        self._coords = {x: lanes.pack(c) for x, c in seen.items()}
        self._facts = {}
        self._matrices = {}

    def coords(self, v: Permutation) -> tuple:
        try:
            return self._lanes.unpack(self._coords[v.images])
        except KeyError:
            raise PreconditionViolated(
                "the element does not lie in the kernel") from None

    def element(self, coords) -> Permutation:
        if len(coords) != self.dimension:
            raise UnsupportedParameters("coordinate length does not match")
        x = identity(self.space.degree)
        for b, e in zip(self.basis, coords):
            x = x * b ** (e % self.prime)
        return x

    def matrix(self, g: Permutation) -> FpMatrix:
        """Row i is coords(basis_i conjugated by g). It is g's packed T(g),
        unpacked on the first call for g's images; later calls return the
        same matrix. Raises PreconditionViolated for g outside G."""
        T = self._matrices.get(g.images)
        if T is None:
            T = self._matrices[g.images] = self._lanes.unpack_matrix(
                self._element_facts(g.images)[0])
        return T

    def _element_facts(self, g: tuple) -> tuple:
        """(T(g), T(g) - I, conjugator) for the element with images g, the
        matrices packed; built on the first call for g."""
        facts = self._facts.get(g)
        if facts is None:
            x = _make(g)
            if not self.group.contains(x):
                raise PreconditionViolated(
                    "the acting element must belong to the base group")
            conj = _conjugator(x)
            lanes = self._lanes
            T = tuple(lanes.multiples(self._coords[conj(b.images)])
                      for b in self.basis)
            facts = self._facts[g] = (T, lanes.minus_identity(T), conj)
        return facts


def sample_identities(action: LinearAction, rng, pairs: int) -> tuple:
    """Sample-check that an action is a matrix representation, as
    (multiplicative, commutator_identity): T(gh) = T(g) T(h), and
    coords([v, g]) = coords(v) (T(g) - I), on `pairs` samples.

    Each sample draws g, h from the base group and then v from the kernel
    with rng.choice, from lists of their element rows, and the first
    failure ends the check. Everything is done on image tuples and packed
    rows: g h has images h[g[x]], and [v, g] is v^-1 times v conjugated by
    g, one gather each.
    """
    els = list(action.group.element_rows())
    kernel = list(action.space.element_rows())
    facts = action._element_facts
    product = action._lanes.product
    times = action._lanes.times
    coords = action._coords
    inverse_gather = {}  # v -> the gather of v^-1's images
    for _ in range(pairs):
        g = rng.choice(els)
        h = rng.choice(els)
        T, D, conj = facts(g)
        if [c[1] for c in facts(_gather(g)(h))[0]] != product(T, facts(h)[0]):
            return False, True
        v = rng.choice(kernel)
        after = inverse_gather.get(v)
        if after is None:
            after = inverse_gather[v] = _gather(_make(v).inverse().images)
        if coords[after(conj(v))] != times(coords[v], D):
            return True, False
    return True, True


def unipotency_degree(T: FpMatrix) -> int | None:
    """Least m with (T - I)^m = 0, or None when T is not unipotent.

    The identity has degree 1; the empty 0x0 matrix has degree 0. A
    unipotent map on a d-dimensional space has degree at most d, so only
    exponents up to d are tried.
    """
    if T.nrows != T.ncols:
        raise UnsupportedParameters("unipotency is defined for square matrices")
    d = T.nrows
    if d == 0:
        return 0
    nil = T - FpMatrix.identity(T.p, d)
    acc = nil
    for m in range(1, d + 1):
        if acc.is_zero():
            return m
        acc = acc * nil
    return None
