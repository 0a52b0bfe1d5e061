"""Conjugation as a linear action.

When a normal subgroup V of G is elementary abelian of order p^d, V is a
d-dimensional vector space over F_p and conjugation by any g in G is an
invertible linear map T(g) on it. LinearAction(G, V, p) checks that V is
normal in G and builds no quotient G/V. With right action and row vectors,
coords(v^g) = coords(v) * T(g), so T(gh) = T(g) T(h), and the commutator
identity coords([v, g]) = coords(v) * (T(g) - I) holds.
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
from .perm import Permutation, _conjugator, _make, identity
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


class LinearAction:
    """The conjugation action of a group G on an elementary abelian normal
    p-subgroup V, materialized as F_p matrices.

    V must be normal in G (NotNormal, or DegreeMismatch for another degree)
    and elementary abelian of exponent p (KernelNotElementaryAbelian). The
    basis is the greedy independent subfamily of the kernel's generators
    and every kernel element is tabulated by its exponent vector, so matrix
    extraction is a dictionary lookup per basis vector. Each element's
    matrix is kept on the instance, keyed by its images.
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

        basis = []
        seen = {identity(V.degree): ()}
        for g in gens:
            if g in seen:
                continue
            basis.append(g)
            grown = {}
            for v, c in seen.items():
                x = v
                for e in range(p):
                    grown[x] = c + (e,)
                    x = x * g
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
        self._coords = seen
        self._matrices = {}

    def coords(self, v: Permutation) -> tuple:
        try:
            return self._coords[v]
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
        """Row i is coords(basis_i conjugated by g). Built once per element:
        g is sifted through the base group and its conjugator made on the
        first call for its images, and later calls return the same matrix.
        A refusal is not kept, so an element outside the base group raises
        PreconditionViolated on every call."""
        T = self._matrices.get(g.images)
        if T is None:
            if not self.group.contains(g):
                raise PreconditionViolated(
                    "the acting element must belong to the base group")
            conj = _conjugator(g)
            T = self._matrices[g.images] = FpMatrix(self.prime, tuple(
                self.coords(_make(conj(b.images))) for b in self.basis))
        return T


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
