import random
from collections import Counter
from itertools import combinations

import pytest
import sympy

import covjac.groupring as groupring
from covjac.errors import ResourceLimitError, RingMismatchError
from covjac.groupring import (
    R,
    RBAR,
    CayleyGroup,
    FinAbGroup,
    GroupRingElement,
    IdealLattice,
    all_characters,
    cyclic_norm,
    derivative_element,
    det_group_ring,
    element_from_coords,
    evaluate_at_character,
    gen_minus_one,
    group_element,
    integer_multiple,
    norm_element,
    nonzero_minors,
    norm_scaled_derivative,
    one,
    validate_decomposition,
    zero,
)
from covjac.intlinalg import hermite_row_basis


def random_element(rng, group, ring=R, bound=5):
    return GroupRingElement(
        group, [rng.randint(-bound, bound) for _ in range(group.size)], ring)


# ---------------------------------------------------------------------------
# group structure


def test_lex_enumeration():
    g = FinAbGroup((2, 3))
    assert g.size == 6
    assert [g.exps(i) for i in range(6)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.identity == 0
    assert g.generator(0) == 3
    assert g.generator(1) == 1


def test_group_ops():
    g = FinAbGroup((4, 2))
    for a in range(g.size):
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.power(a, g.element_order(a)) == g.identity
    assert g.element_order(g.generator(0)) == 4


def test_trivial_group():
    g = FinAbGroup(())
    assert g.size == 1
    assert g.mul(0, 0) == 0


def test_cayley_group():
    # S3 as permutation composition, identity first
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    s3 = CayleyGroup(table)
    assert s3.size == 6
    a, b = 1, 3
    assert s3.mul(a, b) != s3.mul(b, a)  # genuinely non-abelian
    for x in s3.elements():
        assert s3.mul(x, s3.inv(x)) == 0
    with pytest.raises(ValueError):
        CayleyGroup([[0, 1], [1, 1]])


# ---------------------------------------------------------------------------
# ring arithmetic


def test_ring_axioms_sampled():
    rng = random.Random(9)
    g = FinAbGroup((2, 4))
    for _ in range(20):
        a, b, c = (random_element(rng, g) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    e = one(g, R)
    assert a * e == a


def test_involution_antimorphism():
    rng = random.Random(10)
    g = FinAbGroup((6,))
    for _ in range(10):
        a, b = random_element(rng, g), random_element(rng, g)
        assert (a * b).involution() == a.involution() * b.involution()
        assert a.involution().involution() == a
        assert a.involution().augmentation() == a.augmentation()


def test_augmentation_multiplicative():
    rng = random.Random(11)
    g = FinAbGroup((3, 3))
    for _ in range(10):
        a, b = random_element(rng, g), random_element(rng, g)
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()


def test_quotient_roundtrip():
    g = FinAbGroup((2, 2))
    n = norm_element(g)
    x = element_from_coords(g, [5, -2, 7, 0], R)
    q = x.to_quotient()
    assert q.ring == RBAR
    assert q.coeffs[g.identity] == 0
    lifted = q.lift()
    # lift differs from x by a multiple of the norm
    diff = x - lifted
    assert any(diff == n * integer_multiple(g, k, R) for k in range(-10, 11))
    assert (x * n).to_quotient() == zero(g, RBAR)


def test_mixed_ring_rejected():
    g = FinAbGroup((2,))
    with pytest.raises(RingMismatchError):
        one(g, R) * one(g, RBAR)


# ---------------------------------------------------------------------------
# special elements


def test_offset_derivative_identity():
    """(sigma - 1) * (sigma + 2 sigma^2 + ... + (n-1) sigma^{n-1})
    equals n - (1 + sigma + ... + sigma^{n-1})."""
    for orders in ((5,), (2, 3), (4, 2), (2, 2, 2)):
        g = FinAbGroup(orders)
        for l, n in enumerate(orders):
            tau = gen_minus_one(g, l)
            dl = derivative_element(g, l)
            nu = cyclic_norm(g, l)
            assert tau * dl == integer_multiple(g, n, R) - nu


def test_norm_scaled_derivative_sum():
    for orders in ((4,), (2, 2), (2, 4), (3, 3)):
        g = FinAbGroup(orders)
        acc = zero(g, R)
        for l in range(len(orders)):
            acc = acc + norm_scaled_derivative(g, l) * gen_minus_one(g, l)
        assert acc == integer_multiple(g, g.size, R) - norm_element(g)


def test_norm_annihilates_offsets():
    g = FinAbGroup((3, 2))
    n = norm_element(g)
    for l in range(2):
        assert n * gen_minus_one(g, l) == zero(g, R)


# ---------------------------------------------------------------------------
# determinants and characters


def test_det_small_matrices_cofactor_oracle():
    rng = random.Random(12)
    g = FinAbGroup((6,))
    for _ in range(8):
        m = [[random_element(rng, g, bound=3) for _ in range(2)] for _ in range(2)]
        ref = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det_group_ring(m) == ref
    for _ in range(4):
        m = [[random_element(rng, g, bound=2) for _ in range(3)] for _ in range(3)]
        ref = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det_group_ring(m) == ref


def test_det_characters_diagonalize():
    """Pushing the matrix through every character turns the group ring
    determinant into a numeric one."""
    rng = random.Random(13)
    g = FinAbGroup((2, 2))
    m = [[random_element(rng, g, bound=2) for _ in range(2)] for _ in range(2)]
    d = det_group_ring(m)
    for chi in all_characters(g):
        pushed = [[evaluate_at_character(x, chi) for x in row] for row in m]
        num = pushed[0][0] * pushed[1][1] - pushed[0][1] * pushed[1][0]
        assert abs(num - evaluate_at_character(d, chi)) < 1e-9


def _cofactor_det(m, zero_elt, one_elt):
    """Laplace expansion along the first row."""
    if not m:
        return one_elt
    total = zero_elt
    for j, e in enumerate(m[0]):
        term = e * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]],
                                 zero_elt, one_elt)
        total = total + term if j % 2 == 0 else total - term
    return total


def _minors_by_cofactors(m, k, zero_elt, one_elt):
    out = Counter()
    for rsel in combinations(range(len(m)), k):
        for csel in combinations(range(len(m[0])), k):
            d = _cofactor_det([[m[r][c] for c in csel] for r in rsel],
                              zero_elt, one_elt)
            if d:
                out[d] += 1
    return out


@pytest.mark.parametrize("orders,ring", [((4,), R), ((2, 2), R), ((2, 2), RBAR),
                                         ((3,), RBAR)])
def test_minor_engine_against_cofactors(orders, ring):
    """Every nonzero k x k minor, as a multiset, for k below and equal to
    the column count; some matrices lead with a zero row or with two
    equal rows, so whole subtrees are pruned."""
    rng = random.Random(f"minors:{orders}:{ring}")
    g = FinAbGroup(orders)
    z, o = zero(g, ring), one(g, ring)
    for trial in range(6):
        nrows, ncols = rng.randint(3, 5), rng.randint(2, 3)
        m = [[random_element(rng, g, ring, bound=2) if rng.random() < 0.7 else z
              for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 1:
            m[0] = [z] * ncols
        elif trial % 3 == 2:
            m[1] = list(m[0])
        for k in range(1, ncols + 1):
            got = Counter(nonzero_minors(m, k, o))
            assert got == _minors_by_cofactors(m, k, z, o)
    # a square matrix has the one minor, its determinant
    m = [[random_element(rng, g, ring, bound=2) for _ in range(4)] for _ in range(4)]
    assert list(nonzero_minors(m, 4, o)) == [_cofactor_det(m, z, o)]
    assert list(nonzero_minors(m, 0, o)) == [o]


def test_minor_engine_state_budget(monkeypatch):
    """A dense n x n determinant holds 2^n - 1 partial minors along its
    one path: at the budget it runs, one below it raises."""
    rng = random.Random(15)
    g = FinAbGroup((3,))
    m = [[random_element(rng, g, bound=3) + 7 for _ in range(5)] for _ in range(5)]
    monkeypatch.setattr(groupring, "MINOR_STATE_BUDGET", 31)
    assert det_group_ring(m) == _cofactor_det(m, zero(g, R), one(g, R))
    monkeypatch.setattr(groupring, "MINOR_STATE_BUDGET", 30)
    with pytest.raises(ResourceLimitError):
        det_group_ring(m)


def test_berkowitz_path_triangular():
    # sizes above 10 switch determinant strategy; triangular law still exact
    rng = random.Random(14)
    g = FinAbGroup((2,))
    n = 11
    m = [[zero(g, R) for _ in range(n)] for _ in range(n)]
    expected = one(g, R)
    for i in range(n):
        m[i][i] = random_element(rng, g, bound=2) + one(g, R)
        expected = expected * m[i][i]
        for j in range(i + 1, n):
            m[i][j] = random_element(rng, g, bound=2)
    assert det_group_ring(m) == expected


# ---------------------------------------------------------------------------
# ideal lattices


@pytest.mark.parametrize("orders,ring", [((4,), R), ((2, 2), RBAR), ((6,), R)])
def test_from_generators_equals_hermite_of_all_translates(orders, ring):
    """The lattice grown one new generator at a time is the Hermite
    basis of every translate of every generator.  A multiple and a sum
    of earlier generators are members, so the skip is taken."""
    rng = random.Random(f"translates:{orders}:{ring}")
    g = FinAbGroup(orders)
    dim = g.size - 1 if ring == RBAR else g.size
    for _ in range(5):
        gens = [random_element(rng, g, ring, bound=4) for _ in range(3)]
        gens += [gens[0] * random_element(rng, g, ring, bound=2), gens[1] + gens[2]]
        gens += [random_element(rng, g, ring, bound=4) * 2, zero(g, ring)]
        rows = [x.translate(gi).coordinates() for x in gens for gi in g.elements()]
        want = tuple(hermite_row_basis(rows, dim))
        assert IdealLattice.from_generators(gens).basis == want
        lat = IdealLattice.from_generators(gens, denominator=6)
        ref = IdealLattice(g, ring, want, 6)
        assert (lat.basis, lat.denominator) == (ref.basis, ref.denominator)


def test_ideal_lattice_canonical():
    g = FinAbGroup((4,))
    s = group_element(g, g.generator(0), R)
    a = IdealLattice.from_generators([one(g, R) - s], group=g, ring=R)
    b = IdealLattice.from_generators(
        [s - s * s, one(g, R) - s, (one(g, R) - s) * s], group=g, ring=R)
    assert a == b
    assert a.contains_element(s * s - one(g, R))
    assert not a.contains_element(one(g, R))


def test_ideal_products_and_sums():
    g = FinAbGroup((2, 2))
    tau0 = gen_minus_one(g, 0)
    tau1 = gen_minus_one(g, 1)
    i0 = IdealLattice.from_generators([tau0], group=g, ring=R)
    i1 = IdealLattice.from_generators([tau1], group=g, ring=R)
    assert i0 * i1 == i1 * i0
    assert (i0 + i1).contains(i0)
    assert (i0 + i1).contains(i1)
    two = IdealLattice.from_generators([integer_multiple(g, 2, R)], group=g, ring=R)
    assert (i0 * i0).contains(two * i0)  # tau^2 = -2 tau on order-2 generators


def test_ideal_involution_and_stability():
    g = FinAbGroup((5,))
    tau = gen_minus_one(g, 0)
    ideal = IdealLattice.from_generators([tau], group=g, ring=R)
    assert ideal.involution().involution() == ideal
    assert ideal.check_gamma_stable()
    assert ideal.involution() == ideal  # augmentation ideal is symmetric


def test_ideal_index():
    g = FinAbGroup((2, 2))
    unit = IdealLattice.unit_ideal(g, RBAR)
    assert unit.index(unit) == 1
    assert unit.index(unit.scaled_by_int(2)) == 2 ** 3
    half = IdealLattice(g, RBAR, unit.basis, denominator=2)
    assert half.index(unit) == 2 ** 3
    with pytest.raises(ValueError):
        unit.scaled_by_int(2).index(unit)  # not a sub-ideal
    with pytest.raises(ValueError):
        unit.index(IdealLattice.zero_ideal(g, RBAR))  # not full rank


def test_unit_and_zero_ideals():
    g = FinAbGroup((3,))
    u = IdealLattice.unit_ideal(g, R)
    z = IdealLattice.zero_ideal(g, R)
    assert u.contains(z)
    assert u.contains_element(one(g, R))
    assert z.is_zero
    assert not u.is_zero
    assert u * z == z


def test_scaled_and_denominator():
    g = FinAbGroup((2,))
    u = IdealLattice.unit_ideal(g, R)
    half = u.scaled_by_int(1)  # no-op
    assert half == u
    tau = gen_minus_one(g, 0)
    i = IdealLattice.from_generators([tau], denominator=2, group=g, ring=R)
    assert not i.is_integral
    assert i.scaled_by_int(2).is_integral


def test_lattice_json_deterministic():
    g = FinAbGroup((2, 2))
    i = IdealLattice.from_generators(
        [gen_minus_one(g, 0), gen_minus_one(g, 1)], group=g, ring=R)
    assert i.to_json() == i.to_json()
    assert i.to_json()["ring"] == R


# ---------------------------------------------------------------------------
# decompositions


def test_validate_decomposition():
    g = FinAbGroup((6,))
    s = g.generator(0)
    # sigma^3 and sigma^2 regenerate C6 as C2 x C3
    assert validate_decomposition(g, [g.power(s, 3), g.power(s, 2)], (2, 3))
    assert not validate_decomposition(g, [g.power(s, 2), g.power(s, 3)], (3, 3))
    assert not validate_decomposition(g, [s, s], (2, 3))
    g22 = FinAbGroup((2, 2))
    a, b = g22.generator(0), g22.generator(1)
    assert validate_decomposition(g22, [b, g22.mul(a, b)], (2, 2))
