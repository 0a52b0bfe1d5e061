"""Conjugation as a linear action.

When a normal subgroup V of G is elementary abelian of order p^d, V is a
d-dimensional vector space over F_p and conjugation by any g in G is an
invertible linear map T(g) on it. The pair is passed as quotient(G, V),
which only checks that V is normal; G/V itself is never built. With right action and row vectors,
coords(v^g) = coords(v) * T(g), so T(gh) = T(g) T(h), and the commutator
identity coords([v, g]) = coords(v) * (T(g) - I) holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalMismatch,
    KernelNotElementaryAbelian,
    PreconditionViolated,
    UnsupportedParameters,
)
from .perm import Permutation, identity
from .series import _prime_power, require_prime
from .subgroups import QuotientGroup


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

    def __add__(self, other) -> "FpMatrix":
        self._check_peer(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise UnsupportedParameters("matrix shapes do not match")
        return FpMatrix(self.p, tuple(
            tuple((a + b) % self.p for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

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

    def __pow__(self, n: int) -> "FpMatrix":
        if n < 0:
            raise UnsupportedParameters("negative matrix powers are not supported")
        if self.nrows != self.ncols:
            raise UnsupportedParameters("only square matrices can be powered")
        acc = FpMatrix.identity(self.p, self.nrows)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def row_apply(self, vector) -> tuple:
        """Row vector times matrix."""
        if len(vector) != self.nrows:
            raise UnsupportedParameters("vector length does not match the matrix")
        cols = zip(*self.rows) if self.rows else ()
        return tuple(sum(a * b for a, b in zip(vector, col)) % self.p
                     for col in cols)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.rows)

    def is_identity(self) -> bool:
        return self == FpMatrix.identity(self.p, self.nrows)

    def to_payload(self):
        return {"p": self.p, "rows": [list(r) for r in self.rows]}


class LinearAction:
    """The conjugation action of a group G on an elementary abelian normal
    subgroup V, given as quotient(G, V), materialized as F_p matrices.

    The basis is the greedy independent subfamily of the kernel's generators
    and every kernel element is tabulated by its exponent vector, so matrix
    extraction is a dictionary lookup per basis vector.
    """

    def __init__(self, Q: QuotientGroup, p: int | None = None):
        V = Q.kernel
        order = V.order()
        if p is None:
            if order == 1:
                raise UnsupportedParameters(
                    "the prime cannot be inferred from a trivial kernel")
            pk = _prime_power(order)
            if pk is None:
                raise KernelNotElementaryAbelian(
                    f"the kernel order {order} is not a prime power")
            p = pk[0]
        require_prime(p)

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

        self.quotient = Q
        self.prime = p
        self.space = V
        self.basis = tuple(basis)
        self.dimension = d
        self._coords = seen

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
        """Row i is coords(basis_i conjugated by g)."""
        if not self.quotient.base.contains(g):
            raise PreconditionViolated(
                "the acting element must belong to the base group")
        return FpMatrix(self.prime, tuple(
            self.coords(b.conjugate(g)) for b in self.basis))


def action_matrix(Q: QuotientGroup, g: Permutation,
                  p: int | None = None) -> FpMatrix:
    """One-shot matrix of conjugation by g on the kernel of Q."""
    return LinearAction(Q, p).matrix(g)


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
