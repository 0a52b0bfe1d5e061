import pytest

from psolv.errors import DegreeMismatch
from psolv.perm import Permutation, from_cycles, identity, parse_cycles


def test_composition_is_left_to_right():
    # a then b: 0 -> 1 under a, 1 -> 2 under b, so 0 -> 2
    a = Permutation((1, 0, 2))
    b = Permutation((1, 2, 0))
    assert (a * b).images == (2, 1, 0)
    assert (b * a).images == (0, 2, 1)


def test_identity_and_inverse():
    e = identity(4)
    g = parse_cycles("(1 2 3 4)", 4)
    assert g * e == g
    assert e * g == g
    assert g * g.inverse() == e
    assert g.inverse().images == parse_cycles("(1 4 3 2)", 4).images


def test_order():
    assert identity(3).order() == 1
    assert parse_cycles("(1 2 3 4)", 4).order() == 4
    assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6


def test_power():
    g = parse_cycles("(1 2 3 4)", 4)
    assert g ** 2 == parse_cycles("(1 3)(2 4)", 4)
    assert g ** 0 == identity(4)
    assert g ** -1 == g.inverse()
    assert g ** 5 == g


def test_conjugate_convention():
    # x^g = g^-1 x g
    x = parse_cycles("(1 2)", 3)
    g = parse_cycles("(1 2 3)", 3)
    assert x.conjugate(g) == g.inverse() * x * g
    assert x.conjugate(g) == parse_cycles("(2 3)", 3)


def test_commutator_definition():
    x = parse_cycles("(1 2)", 4)
    y = parse_cycles("(2 3 4)", 4)
    assert x.commutator(y) == x.inverse() * y.inverse() * x * y


def test_cycles_round_trip():
    g = parse_cycles("(1 3)(2 4)", 6)
    assert g.cycle_string() == "(1 3)(2 4)"
    assert parse_cycles(g.cycle_string(), 6) == g
    assert identity(3).cycle_string() == "()"
    assert parse_cycles("()", 3) == identity(3)


def test_from_cycles_zero_based():
    g = from_cycles(4, [(0, 1, 2)])
    assert g.images == (1, 2, 0, 3)
    assert g == parse_cycles("(1 2 3)", 4)


@pytest.mark.parametrize("cycles", [[(0, 0)], [(1, 2, 1)], [(2, 2, 2)]])
def test_from_cycles_rejects_a_point_repeated_inside_a_cycle(cycles):
    with pytest.raises(ValueError, match="inside one cycle"):
        from_cycles(3, cycles)


@pytest.mark.parametrize("build, point", [
    (lambda: from_cycles(3, [(0,), (0, 1)]), 1),
    (lambda: parse_cycles("(1)(1 2)", 3), 1),
    (lambda: parse_cycles("(1 2)(2)", 3), 2),
], ids=["from_cycles", "(1)(1 2)", "(1 2)(2)"])
def test_a_one_cycle_counts_as_a_cycle(build, point):
    # a fixed point written as (x) is placed, so a second cycle through x
    # is refused; the message names x 1-based, as cycle notation writes it
    with pytest.raises(ValueError, match=f"point {point} appears in two cycles"):
        build()


def test_degree_mismatch_on_product():
    with pytest.raises(DegreeMismatch):
        identity(3) * identity(4)


@pytest.mark.parametrize("bad", [
    "(1 2", "(0 1)", "(1 1)", "(1 2)(2 3)", "(x y)",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_cycles(bad, 4)


def test_parse_degree_too_small():
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 4)


def test_not_a_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("images", [(True, False), (False, True, 2), (0, True)])
def test_bool_images_are_refused(images):
    # True == 1 and False == 0, but a bool image would be written to a
    # report as true or false
    with pytest.raises(ValueError):
        Permutation(images)


def test_hashable_and_sortable_by_images():
    s = {identity(3), parse_cycles("(1 2)", 3), identity(3)}
    assert len(s) == 2
