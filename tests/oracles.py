"""Brute-force reference implementations the tests compare against.

Everything here works on explicit element sets, or on F_p matrices as
tuples of row tuples, and ignores the library's stabilizer chains and
packed rows, so a bug in the fast path cannot hide in the oracle;
search_table_by_rows, the one exception, rebuilds the PF search table from
each subgroup's own element rows instead of the lattice's masks. Only
suitable for small groups. g() is the tests' one way to write a group by
its generators' cycles.
"""

from math import gcd, lcm

from psolv.group import PermutationGroup
from psolv.perm import Permutation, identity, parse_cycles
from psolv.subgroups import _positions, commutator, iterated_commutator, power_subgroup


def g(degree, *cycle_texts):
    """The group on degree points generated by the given 1-based cycle
    texts: a new object on each call, with group facts of its own."""
    return PermutationGroup(degree,
                            [parse_cycles(t, degree) for t in cycle_texts])


def generated(degree, elems):
    """Full closure of a set of permutations under products."""
    current = {identity(degree)}
    frontier = set(elems)
    while frontier:
        current |= frontier
        nxt = set()
        for a in frontier:
            for b in current:
                for c in (a * b, b * a):
                    if c not in current:
                        nxt.add(c)
        frontier = nxt - current
    return frozenset(current)


def elements_of(G):
    return generated(G.degree, G.generators)


def commutator_set(degree, A, B):
    """Subgroup generated by every commutator [a, b], a in A, b in B."""
    comms = {a.commutator(b) for a in A for b in B}
    return generated(degree, comms)


def power_by_products(n, q):
    # n^q as q % o(n) copies of n multiplied with *, not with **, which
    # runs the library's power kernel
    x = identity(n.degree)
    for _ in range(q % n.order()):
        x = x * n
    return x


def power_set(degree, N, q):
    return generated(degree, {power_by_products(n, q) for n in N})


def centralizer_set(G, S):
    return frozenset(g for g in G if all(g * s == s * g for s in S))


def normalizer_set(degree, G, H):
    return frozenset(g for g in G
                     if all(h.conjugate(g) in H for h in H))


def action_matrix_rows(action, g):
    """The rows of the matrix of g in a LinearAction, built afresh: the
    coordinates of each basis vector conjugated by g with
    Permutation.conjugate, as the action's own table gives them."""
    return tuple(action.coords(b.conjugate(g)) for b in action.basis)


def fp_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def fp_difference(p, A, B):
    """A - B over F_p, for matrices as tuples of row tuples."""
    return tuple(tuple((a - b) % p for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def fp_row_apply(p, v, A):
    """The row vector v times A over F_p; A has len(v) rows."""
    return tuple(sum(c * a for c, a in zip(v, col)) % p for col in zip(*A))


def fp_product(p, A, B):
    return tuple(fp_row_apply(p, row, B) for row in A)


def fp_unipotency_degree(p, T):
    """Least m <= len(T) with (T - I)^m = 0, 0 for the empty matrix, else
    None."""
    d = len(T)
    nil = fp_difference(p, T, fp_identity(d))
    zero = fp_difference(p, nil, nil)
    acc = fp_identity(d)
    for m in range(d + 1):
        if acc == zero:
            return m
        acc = fp_product(p, acc, nil)
    return None


def exponent_of(elems):
    e = 1
    for g in elems:
        e = lcm(e, g.order())
    return e


def conjugacy_class_of(G, x):
    return frozenset(x.conjugate(g) for g in G)


def normal_subgroup_sets(G_elems, degree):
    """All normal subgroups, as element sets.

    A normal subgroup N is the union of the conjugacy classes it contains,
    so N is reached from {1} by adding those classes one at a time: for a
    normal K and a class C, the subgroup K<C> is the closure of K under
    right multiplication by C, and it is normal again. Walk every such step
    from every subgroup found. Fine for the test groups.
    """
    e = identity(degree)
    classes = []
    seen = set()
    for x in sorted(G_elems, key=lambda g: g.images):
        if x in seen or x == e:
            continue
        cls = conjugacy_class_of(G_elems, x)
        classes.append(cls)
        seen |= cls
    found = {frozenset([e])}
    todo = list(found)
    while todo:
        K = todo.pop()
        for cls in classes:
            if cls <= K:
                continue
            grown = set(K)
            frontier = grown
            while frontier:
                frontier = {x * c for x in frontier for c in cls} - grown
                grown |= frontier
            grown = frozenset(grown)
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    return list(found)


def pf_embedded_sets(P_elems, degree, p, ell):
    """Each normal subgroup N of the p-group P, as an element set, mapped
    to whether N starts a type-ell potent filtration of P: ok(N) holds when
    N = 1, or when some normal M < N has [N, P] <= M, the ell-fold
    [N, P, ..., P] <= M^p (N <= M^p when ell = 0), and ok(M)."""
    normals = sorted(normal_subgroup_sets(P_elems, degree), key=len)
    powers = {M: power_set(degree, M, p) for M in normals}
    ok = {}
    for N in normals:  # by order, so every M < N is decided before N
        bracket = commutator_set(degree, N, P_elems)
        folded = N
        for _ in range(ell):
            folded = commutator_set(degree, folded, P_elems)
        ok[N] = len(N) == 1 or any(
            M < N and bracket <= M and folded <= powers[M] and ok[M]
            for M in normals if len(M) < len(N))
    return ok


def sylow_core_set(G_elems, P_elems):
    """The intersection of the conjugates P^g over every g in G, which is
    the largest normal subgroup of G inside P."""
    core = frozenset(P_elems)
    for g in G_elems:
        core &= {x.conjugate(g) for x in P_elems}
    return core


def upper_p_series_sets(G_elems, degree, p):
    """Alternating maximal p'-then-p steps, driven purely by the normal
    subgroup list. Each attempted step is recorded, so a stalled round
    leaves a repeated final pair. Returns (terms, p_length, reaches_top)."""
    normals = normal_subgroup_sets(G_elems, degree)
    total = len(G_elems)
    terms = [frozenset({identity(degree)})]
    plen = 0
    while True:
        grew_round = False
        done = False
        for want_pprime in (True, False):
            K = terms[-1]
            if want_pprime:
                good = [N for N in normals
                        if K <= N and gcd(len(N) // len(K), p) == 1]
            else:
                good = [N for N in normals if K <= N
                        and _is_p_power(len(N) // len(K), p)]
            best = max(good, key=len)
            for N in good:
                assert N <= best, "maximal step is not unique"
            if len(best) > len(K):
                grew_round = True
                if not want_pprime:
                    plen += 1
            terms.append(best)
            if len(best) == total:
                done = True
                break
        if done or not grew_round:
            break
    return terms, plen, len(terms[-1]) == total


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def search_table_by_rows(P, p, ell, normals):
    """The PF search table over P, one row per group N in normals: the masks
    of N, [N, P], [N, P, ..., P] with ell copies of P (N when ell = 0) and
    N^p, each with bit i for each position in P.element_rows() of one of
    the subgroup's own enumerated rows."""
    def mask(H):
        return sum(1 << i for i in _positions(P, H.element_rows()))

    rows = []
    for N in normals:
        folded = N if ell == 0 else iterated_commutator(N, P, ell)
        rows.append((mask(N), mask(commutator(N, P)), mask(folded),
                     mask(power_subgroup(N, p))))
    return tuple(rows)
