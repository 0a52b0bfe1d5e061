import pytest

from psolv.battery import _linear_action_verdict
from psolv.catalog import build_group
from psolv.errors import (
    DegreeMismatch,
    KernelNotElementaryAbelian,
    NotNormal,
    PreconditionViolated,
    UnsupportedParameters,
)
from psolv.group import PermutationGroup, trivial_group
from psolv.linear import (
    FpMatrix,
    LinearAction,
    unipotency_degree,
)
from psolv.perm import Permutation, parse_cycles

from oracles import action_matrix_rows


def g(degree, *cycle_texts):
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


S4 = g(4, "(1 2)", "(1 2 3 4)")
V4 = g(4, "(1 2)(3 4)", "(1 3)(2 4)")
A4 = g(4, "(1 2 3)", "(2 3 4)")


I2 = FpMatrix.identity(2, 2)


def test_matrix_arithmetic_mod_2():
    a = FpMatrix(2, ((1, 1), (0, 1)))
    b = FpMatrix(2, ((1, 0), (1, 1)))
    assert (a - b).rows == ((0, 1), (1, 0))
    assert (a * b).rows == ((0, 1), (1, 1))
    assert (a - a).is_zero()
    assert I2.rows == ((1, 0), (0, 1))


def test_matrix_power():
    t = FpMatrix(2, ((0, 1), (1, 1)))
    assert t * t != I2
    assert t * t * t == I2
    assert t * I2 == I2 * t == t


def test_matrix_row_apply():
    t = FpMatrix(3, ((0, 1), (1, 0)))
    assert t.row_apply((1, 2)) == (2, 1)


@pytest.mark.parametrize("p, rows", [
    (2, ((1, 0),)),          # not square
    (2, ((1, 0), (0,))),     # a short row
    (2, ((1, 0), (0, 2))),   # unreduced: 2 would spill into the next lane
    (3, ((-1,),)),
])
def test_a_matrix_must_be_square_and_reduced(p, rows):
    with pytest.raises(UnsupportedParameters):
        FpMatrix(p, rows)


def test_matrices_of_another_prime_or_size_do_not_combine():
    for other in (FpMatrix.identity(3, 2), FpMatrix.identity(2, 3)):
        with pytest.raises(UnsupportedParameters):
            I2 * other
        with pytest.raises(UnsupportedParameters):
            I2 - other
        assert I2 != other
    with pytest.raises(UnsupportedParameters):
        I2.row_apply((1, 0, 0))


def test_unipotency_degree():
    assert unipotency_degree(I2) == 1
    u = FpMatrix(2, ((1, 1), (0, 1)))
    assert unipotency_degree(u) == 2
    order3 = FpMatrix(2, ((0, 1), (1, 1)))
    assert unipotency_degree(order3) is None
    assert unipotency_degree(FpMatrix(2, ())) == 0


def test_action_on_s4_mod_v4():
    A = LinearAction(S4, V4, 2)
    assert A.prime == 2
    assert A.dimension == 2
    T = A.matrix(parse_cycles("(1 2 3)", 4))
    assert T != I2
    assert T * T != I2
    assert T * T * T == I2
    assert unipotency_degree(T) is None


def test_kernel_elements_act_trivially():
    A = LinearAction(S4, V4, 2)
    for v in V4.elements():
        assert A.matrix(v) == I2


def test_centralizing_elements_act_trivially():
    A = LinearAction(A4, V4, 2)
    # V4 is its own centralizer in A4, so only V4 itself acts trivially
    trivial_actors = [x for x in A4.elements()
                      if A.matrix(x) == I2]
    assert sorted(x.images for x in trivial_actors) == sorted(
        x.images for x in V4.elements())


def test_action_is_a_homomorphism():
    # over every pair, so most matrices are an element's kept T(g); each
    # one is also checked against the oracle, built afresh
    for G in (S4, A4):
        A = LinearAction(G, V4, 2)
        els = G.elements()
        for x in els:
            assert A.matrix(x).rows == action_matrix_rows(A, x)
            for y in els:
                assert A.matrix(x * y) == A.matrix(x) * A.matrix(y)


def test_matrices_are_kept_per_element():
    A = LinearAction(S4, V4, 2)
    x = parse_cycles("(1 2 3)", 4)
    T = A.matrix(x)
    assert A.matrix(Permutation(x.images)) is T


def test_an_outside_element_is_refused_on_every_call():
    A = LinearAction(A4, V4, 2)
    x = parse_cycles("(1 2)", 4)
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            A.matrix(x)


def test_action_matches_conjugation():
    # moving v by T(g) - 1 lands on the commutator [v, g]
    A = LinearAction(S4, V4, 2)
    for gperm in S4.elements():
        T = A.matrix(gperm)
        for v in V4.elements():
            moved = A.element((T - I2).row_apply(A.coords(v)))
            assert moved == v.commutator(gperm)


def test_coords_element_round_trip():
    A = LinearAction(S4, V4, 2)
    for v in V4.elements():
        assert A.element(A.coords(v)) == v


def test_p_element_images_are_unipotent():
    A = LinearAction(S4, V4, 2)
    for x in S4.elements():
        if x.order() in (1, 2, 4):
            assert unipotency_degree(A.matrix(x)) is not None


def test_rejects_non_elementary_kernel():
    D8 = g(4, "(1 2 3 4)", "(1 3)")
    C4 = g(4, "(1 2 3 4)")
    with pytest.raises(KernelNotElementaryAbelian):
        LinearAction(D8, C4, 2)
    with pytest.raises(KernelNotElementaryAbelian):
        LinearAction(S4, A4, 2)


def test_action_rejects_non_normal_kernel():
    C4 = g(4, "(1 2 3 4)")
    with pytest.raises(NotNormal):
        LinearAction(S4, C4, 2)


def test_action_rejects_another_degree():
    with pytest.raises(DegreeMismatch):
        LinearAction(S4, trivial_group(5), 2)


def test_odd_prime_action():
    C3 = g(3, "(1 2 3)")
    S3 = g(3, "(1 2)", "(1 2 3)")
    A = LinearAction(S3, C3, 3)
    assert A.prime == 3
    assert A.dimension == 1
    T = A.matrix(parse_cycles("(1 2)", 3))
    assert T.rows == ((2,),)
    assert T * T == FpMatrix.identity(3, 1)


# --- the battery's sample check can fail -----------------------------------

FAULT_GROUPS = [("symmetric:4", 2), ("symmetric:3", 3)]


def _verdict(gid, p):
    return _linear_action_verdict(build_group(gid), gid, p, 0)


@pytest.mark.parametrize("gid, p", FAULT_GROUPS)
def test_a_corrupted_matrix_breaks_multiplicativity(monkeypatch, gid, p):
    # one element's stored T(g) gains 1 in its first packed entry
    build = LinearAction._element_facts
    target = build_group(gid).element_rows()[1]

    def corrupted(self, g):
        T, D, conj = build(self, g)
        if g == target:
            lanes = self._lanes
            rows = [m[1] for m in T.packed]
            rows[0] = lanes.add(rows[0], 1)
            T = FpMatrix._of(lanes, rows)
        return T, D, conj

    monkeypatch.setattr(LinearAction, "_element_facts", corrupted)
    v = _verdict(gid, p)
    assert v.parameters["multiplicative"] is False
    assert v.parameters["commutator_identity"] is True
    assert v.conclusion_holds is False


@pytest.mark.parametrize("gid, p", FAULT_GROUPS)
def test_a_corrupted_coordinate_breaks_the_commutator_identity(
        monkeypatch, gid, p):
    # the kernel identity's coordinates become e_1; no T(g) reads them,
    # since a basis vector's conjugates are never the identity
    init = LinearAction.__init__

    def corrupted(self, G, V, p):
        init(self, G, V, p)
        self._coords[tuple(range(V.degree))] = self._lanes.pack(
            (1,) + (0,) * (self.dimension - 1))

    monkeypatch.setattr(LinearAction, "__init__", corrupted)
    v = _verdict(gid, p)
    assert v.parameters["multiplicative"] is True
    assert v.parameters["commutator_identity"] is False
    assert v.conclusion_holds is False
