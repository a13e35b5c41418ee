import random

import pytest

from covjac.covering import VoltageGraph, jacobian_module, quotient_by_norm
from covjac.errors import ResourceLimitError, RingMismatchError
from covjac.fitting import (
    Poly,
    build_pair_matrix,
    closed_form_shift1,
    det_generic,
    fitting_ideal_group_ring,
    module_fitting_ideal,
    pair_fitting_matches_power,
    pair_graph_is_tree,
    predicted_tree_det,
    present_module,
    scaled_constant_matrix,
    shift1_via_presentation,
    subset_det,
    tree_cofactor,
    tree_law_report,
)
from covjac.graphs import build_graph
from covjac.groupring import (
    R,
    RBAR,
    FinAbGroup,
    IdealLattice,
    GroupRingElement,
    gen_minus_one,
    group_element,
    integer_multiple,
    norm_element,
    one,
    zero,
)


def test_poly_arithmetic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert not (p - p)
    assert Poly.const(2, 0) == Poly(2)
    assert (x * 3).evaluate([2, 0]) == 6
    assert p.is_homogeneous(2)
    assert not (x + x * y).is_homogeneous(1)


def test_det_generic_integer_oracle():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rows = [[Poly.const(1, c) for c in row] for row in a]
        d = det_generic(rows, Poly(1), Poly.const(1, 1))
        # cofactor expansion over plain ints
        def idet(m):
            if len(m) == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * idet(
                    [r[:j] + r[j + 1:] for r in m[1:]])
                for j in range(len(m))
            )
        assert d == Poly.const(1, idet(a))


def test_pair_matrix_shape():
    pm = build_pair_matrix(4)
    assert pm.num_rows == 6
    assert pm.num_cols == 4
    assert build_pair_matrix(1).num_rows == 0


def test_tree_recognition():
    assert pair_graph_is_tree(3, [(0, 1), (1, 2)]) == (True, [1, 2, 1])
    is_tree, _ = pair_graph_is_tree(3, [(0, 1), (0, 1)])
    assert not is_tree
    is_tree, _ = pair_graph_is_tree(4, [(0, 1), (2, 3)])
    assert not is_tree


def test_tree_law_small_sizes():
    for s in (2, 3, 4):
        assert tree_law_report(s)["ok"]


def test_subset_det_nontree_vanishes():
    # triangle 0-1-2 plus weight row would need s=4 rows; use the cycle at s=3
    d = subset_det(3, [(0, 1), (0, 2), (1, 2)])
    assert not d


def test_star_tree_det():
    subset = [(0, 1), (0, 2), "w"]
    d = subset_det(3, subset)
    p = predicted_tree_det(3, [(0, 1), (0, 2)])
    assert d == p or d == -p


def test_named_cofactors():
    """The three explicit cofactors of the degree-(3,2,1,1,1) tree."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4)]
    t = [Poly.var(10, i) for i in range(5)]
    assert tree_cofactor(5, pairs, 0) in (t[0] * t[0] * t[0] * t[1],
                                          -(t[0] * t[0] * t[0] * t[1]))
    assert tree_cofactor(5, pairs, 1) in (t[0] * t[0] * t[1] * t[1],
                                          -(t[0] * t[0] * t[1] * t[1]))
    assert tree_cofactor(5, pairs, 2) in (t[0] * t[0] * t[1] * t[2],
                                          -(t[0] * t[0] * t[1] * t[2]))


def test_pair_fitting_power_examples():
    assert pair_fitting_matches_power(2, 1)
    assert pair_fitting_matches_power(3, 1)
    assert pair_fitting_matches_power(3, 2)
    assert pair_fitting_matches_power(3, 0)
    with pytest.raises(ValueError):
        pair_fitting_matches_power(1, 0)


# ---------------------------------------------------------------------------
# group ring Fitting ideals


def test_fitting_single_relation():
    g = FinAbGroup((4,))
    tau = gen_minus_one(g, 0)
    ideal = fitting_ideal_group_ring([[tau]], 1, 0, g, R)
    assert ideal == IdealLattice.from_generators([tau], group=g, ring=R)


def test_fitting_diagonal_matrix():
    g = FinAbGroup((2,))
    two = integer_multiple(g, 2, R)
    tau = gen_minus_one(g, 0)
    ideal = fitting_ideal_group_ring(
        [[two, zero(g, R)], [zero(g, R), tau]], 2, 0, g, R)
    assert ideal == IdealLattice.from_generators([two * tau], group=g, ring=R)
    first = fitting_ideal_group_ring(
        [[two, zero(g, R)], [zero(g, R), tau]], 2, 1, g, R)
    assert first == IdealLattice.from_generators([two, tau], group=g, ring=R)


def test_fitting_unit_when_overdetermined():
    g = FinAbGroup((2,))
    ideal = fitting_ideal_group_ring([], 0, 0, g, R)
    assert ideal == IdealLattice.unit_ideal(g, R)


def test_fitting_minor_cap():
    g = FinAbGroup((2,))
    o = one(g, R)
    rows = [[o] * 8 for _ in range(8)]
    with pytest.raises(ResourceLimitError):
        fitting_ideal_group_ring(rows, 8, 4, g, R, minor_cap=3)


def _random_elementary_ops(rng, rows, group, ring, steps=8):
    """Random elementary row and column operations over the ring: add a
    multiple of one line to another, scale a line by a unit +-g, swap."""
    rows = [list(r) for r in rows]
    for _ in range(steps):
        transpose = rng.random() < 0.5
        m = [list(c) for c in zip(*rows)] if transpose else rows
        i, j = rng.sample(range(len(m)), 2)
        op = rng.randrange(3)
        if op == 0:
            a = GroupRingElement(group, [rng.randint(-2, 2) for _ in group.elements()],
                                 ring)
            m[i] = [x + a * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            u = group_element(group, rng.randrange(group.size), ring)
            u = -u if rng.random() < 0.5 else u
            m[i] = [u * x for x in m[i]]
        else:
            m[i], m[j] = m[j], m[i]
        rows = [list(r) for r in zip(*m)] if transpose else m
    return rows


THETA = build_graph(2, [(0, 1), (1, 1), (0, 1)])


@pytest.mark.parametrize("orders,volts", [((4,), (1, 1, 2)), ((2, 2), (3, 2, 0)),
                                          ((3,), (1, 2, 0))])
def test_fitting_ideal_invariant_under_elementary_operations(orders, volts):
    """Fitting ideals depend on the module, not on its presentation:
    random invertible row and column operations leave them unchanged."""
    rng = random.Random(f"elementary:{orders}")
    g = FinAbGroup(orders)
    jac = jacobian_module(VoltageGraph(THETA, g, volts))
    for module, ring in ((jac, R), (quotient_by_norm(jac), RBAR)):
        fitt = module_fitting_ideal(module, ring)
        pres = present_module(module, ring)
        first = fitting_ideal_group_ring(pres.rows, pres.num_gens, 1, g, ring)
        for _ in range(4):
            rows = _random_elementary_ops(rng, pres.rows, g, ring)
            assert fitting_ideal_group_ring(rows, pres.num_gens, 0, g, ring) == fitt
            assert fitting_ideal_group_ring(rows, pres.num_gens, 1, g, ring) == first


def test_module_fitting_rejects_free_rank_in_quotient():
    class Fake:
        group = FinAbGroup((2,))
        num_components = 1
        invariant_factors = ()
        free_rank = 1
        moduli = (0,)
        gen_actions = [[[1]]]

        def act(self, gi, vec):
            return list(vec)

    with pytest.raises(RingMismatchError):
        module_fitting_ideal(Fake(), RBAR)


def test_zero_module_has_unit_fitting():
    class Zero:
        group = FinAbGroup((3,))
        num_components = 0
        invariant_factors = ()
        free_rank = 0
        moduli = ()
        gen_actions = [[]]

        def act(self, gi, vec):
            return []

    assert module_fitting_ideal(Zero(), RBAR) == IdealLattice.unit_ideal(
        Zero.group, RBAR)
    pres = present_module(Zero(), RBAR)
    assert pres.num_gens == 0


# ---------------------------------------------------------------------------
# shifted ideal of the cyclic quotient


def test_scaled_constant_identity():
    for orders in ((2,), (6,), (2, 2), (2, 4)):
        g = FinAbGroup(orders)
        weight_row = scaled_constant_matrix(g)[-1]
        acc = zero(g, R)
        for l in range(len(orders)):
            acc = acc + weight_row[l] * gen_minus_one(g, l)
        assert acc == integer_multiple(g, g.size, R) - norm_element(g)
        # row count: one cyclic norm row per factor, one per pair, plus weights
        s = len(orders)
        assert len(scaled_constant_matrix(g)) == s + s * (s - 1) // 2 + 1


def test_shift_routes_agree_spot():
    for orders in ((2,), (3,), (4,), (2, 2), (2, 4), (2, 2, 2)):
        g = FinAbGroup(orders)
        assert shift1_via_presentation(g) == closed_form_shift1(g)


def test_shift_lattice_is_fractional_but_scaled_integral():
    g = FinAbGroup((2, 2))
    f = closed_form_shift1(g)
    assert not f.is_integral
    assert f.scaled_by_int(g.size).is_integral


def test_closed_form_alternative_decomposition():
    g = FinAbGroup((6,))
    s = g.generator(0)
    alt = closed_form_shift1(g, [g.power(s, 3), g.power(s, 2)], (2, 3))
    assert alt == closed_form_shift1(g)
    with pytest.raises(ValueError):
        closed_form_shift1(g, [s, s], (2, 3))


def test_closed_form_regrouped_pair():
    g = FinAbGroup((2, 2))
    a, b = g.generator(0), g.generator(1)
    alt = closed_form_shift1(g, [b, g.mul(a, b)], (2, 2))
    assert alt == closed_form_shift1(g)
