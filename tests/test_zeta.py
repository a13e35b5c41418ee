import pytest
import sympy

from covjac.covering import VoltageGraph, z_element
from covjac.errors import ResourceLimitError, RingMismatchError
from covjac.graphs import build_graph
from covjac.groupring import (
    CayleyGroup,
    FinAbGroup,
    GroupRingElement,
    group_element,
    one,
    zero,
)
from covjac.zeta import (
    MAX_TRUNCATION,
    GroupRingPoly,
    dart_adjacency,
    edge_matrix_zeta,
    euler_product_truncation,
    primitive_rotation_classes,
    verify_three_term,
    zeta_polynomial,
)

THETA = build_graph(2, [(0, 1), (1, 1), (0, 1)])
K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
BOUQUET1 = build_graph(1, [(0, 0)])
BOUQUET2 = build_graph(1, [(0, 0)] * 2)
BOUQUET3 = build_graph(1, [(0, 0)] * 3)


def trivial_vg(graph):
    return VoltageGraph(graph, FinAbGroup(()), [0] * graph.edge_count)


def test_poly_algebra():
    grp = FinAbGroup((3,))
    p = GroupRingPoly.from_scalars(grp, [1, 0, 2])
    q = GroupRingPoly.from_scalars(grp, [0, 1])
    assert p.degree == 2 and q.degree == 1
    assert (p + q).coefficient(1) == one(grp)
    assert (p - p) == GroupRingPoly.zero(grp)
    assert p.mul(q).degree == 3
    assert p.mul(q, trunc=1) == GroupRingPoly.from_scalars(grp, [0, 1])
    assert p.truncate(0) == GroupRingPoly.from_scalars(grp, [1])
    assert p.evaluate_at_one().coeffs == (3, 0, 0)
    # trailing zeros are trimmed on construction
    assert GroupRingPoly(grp, "R", [one(grp), zero(grp)]).degree == 0
    assert not GroupRingPoly.zero(grp)
    with pytest.raises(RingMismatchError):
        p + GroupRingPoly.from_scalars(FinAbGroup((2,)), [1])


def test_poly_involution():
    grp = FinAbGroup((4,))
    sigma = group_element(grp, 1)
    p = GroupRingPoly(grp, "R", [one(grp), sigma])
    q = p.involution()
    assert q.coefficient(1) == group_element(grp, 3)
    assert q.involution() == p


def test_bouquet_c2_polynomial():
    vg = VoltageGraph(BOUQUET1, FinAbGroup((2,)), (1,))
    zp = zeta_polynomial(vg)
    grp = vg.group
    # 1 - 2*sigma*u + u^2
    assert zp.coeffs == (
        one(grp),
        GroupRingElement(grp, [0, -2], "R"),
        one(grp),
    )
    assert zp.evaluate_at_one() == z_element(vg)


def test_bouquet_classes():
    vg = VoltageGraph(BOUQUET1, FinAbGroup((2,)), (1,))
    classes = primitive_rotation_classes(vg, 6)
    # just the two loop orientations; powers are imprimitive
    assert sorted(c[0] for c in classes) == [(0,), (1,)]
    assert all(g == 1 for _, g in classes)


def test_k4_classical_polynomial():
    zp = zeta_polynomial(trivial_vg(K4))
    got = [c.coeffs[0] for c in zp.coeffs]
    u = sympy.symbols("u")
    expanded = sympy.Poly(
        (1 - u) * (1 - 2 * u) * (1 + u + 2 * u**2) ** 3, u
    ).all_coeffs()[::-1]
    assert got == [int(c) for c in expanded]


def test_z_value_matches_determinant():
    for vg in (
        VoltageGraph(THETA, FinAbGroup((2, 2)), (3, 2, 0)),
        VoltageGraph(THETA, FinAbGroup((4,)), (1, 1, 2)),
        VoltageGraph(THETA, FinAbGroup((3,)), (1, 0, 2)),
    ):
        assert zeta_polynomial(vg).evaluate_at_one() == z_element(vg)


def test_three_term_instances():
    cases = [
        VoltageGraph(BOUQUET1, FinAbGroup((2,)), (1,)),
        VoltageGraph(THETA, FinAbGroup((3,)), (1, 0, 2)),
        VoltageGraph(THETA, FinAbGroup((2, 2)), (3, 2, 0)),
        trivial_vg(K4),
    ]
    for vg in cases:
        rep = verify_three_term(vg, L=8)
        assert rep["claim"] == "three-term-zeta-identity"
        assert rep["three_term"], rep
        assert rep["euler_vs_dart"], rep
        assert rep["dart_vs_polynomial"], rep
        assert rep["passed"]


def test_three_term_tree_degenerate():
    # a tree has no closed paths: zeta is 1 and e = -1
    path = build_graph(2, [(0, 1)])
    rep = verify_three_term(trivial_vg(path), L=6)
    assert rep["passed"]
    grp = FinAbGroup(())
    assert euler_product_truncation(trivial_vg(path), 6) == GroupRingPoly.one(grp)
    zp = zeta_polynomial(trivial_vg(path))
    assert [c.coeffs[0] for c in zp.coeffs] == [1, 0, -1]


def test_involution_equivariance():
    vg = VoltageGraph(THETA, FinAbGroup((4,)), (1, 1, 2))
    assert zeta_polynomial(vg.inverted()) == zeta_polynomial(vg).involution()
    L = 6
    assert euler_product_truncation(vg.inverted(), L) == \
        euler_product_truncation(vg, L).involution()


def test_euler_vs_edge_matrix_deep():
    vg = VoltageGraph(THETA, FinAbGroup((2, 2)), (3, 2, 0))
    L = 10
    prod = euler_product_truncation(vg, L).mul(edge_matrix_zeta(vg, L), trunc=L)
    assert prod == GroupRingPoly.one(vg.group)


def test_truncation_cap():
    vg = VoltageGraph(BOUQUET1, FinAbGroup((2,)), (1,))
    with pytest.raises(ResourceLimitError):
        euler_product_truncation(vg, MAX_TRUNCATION + 1)
    with pytest.raises(ResourceLimitError):
        edge_matrix_zeta(vg, MAX_TRUNCATION + 1)
    with pytest.raises(ValueError):
        euler_product_truncation(vg, -1)
    assert primitive_rotation_classes(vg, 0) == []
    assert euler_product_truncation(vg, 0) == GroupRingPoly.one(vg.group)


# ---------------------------------------------------------------------------
# Brute-force reference for the closed-path side


def _rotations(seq):
    n = len(seq)
    return [seq[k:] + seq[:k] for k in range(n)]


def _is_primitive(seq) -> bool:
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[d:] + seq[:d]:
            return False
    return True


def brute_force_classes(vg, L):
    """Every closed non-backtracking tailless dart sequence of length at
    most L, kept when primitive and equal to its least rotation, with
    its voltage product."""
    base = vg.base
    darts = base.darts
    grp = vg.group
    out = set()
    paths = [[d] for d in range(len(darts))]
    while paths:
        seq = paths.pop()
        last, first = darts[seq[-1]], darts[seq[0]]
        if last.dst == first.src and last.partner != first.id:
            if _is_primitive(seq) and seq == min(_rotations(seq)):
                g = grp.identity
                for did in seq:
                    g = grp.mul(g, vg.dart_voltage(did))
                out.add((tuple(seq), g))
        if len(seq) < L:
            for nid in base.out_darts(last.dst):
                if nid != last.partner:
                    paths.append(seq + [nid])
    return out


def per_class_product(vg, classes, L):
    """The Euler product with one geometric series per class."""
    grp = vg.group
    series = GroupRingPoly.one(grp)
    for seq, g in classes:
        n = len(seq)
        coeffs = [zero(grp) for _ in range(L + 1)]
        for k in range(L // n + 1):
            coeffs[k * n] = group_element(grp, grp.power(g, k))
        series = series.mul(GroupRingPoly(grp, "R", coeffs), trunc=L)
    return series


BRUTE_FORCE_CASES = [
    pytest.param(THETA, (2, 2), (3, 2, 0), 8, id="theta-c2xc2"),
    pytest.param(THETA, (4,), (1, 1, 2), 8, id="theta-c4"),
    pytest.param(K4, (2,), (1, 0, 0, 0, 1, 1), 8, id="k4-c2"),
    pytest.param(K4, (2, 2), (1, 2, 3, 0, 0, 1), 8, id="k4-c2xc2"),
    pytest.param(BOUQUET1, (4,), (1,), 8, id="bouquet1-c4"),
    pytest.param(BOUQUET2, (2,), (1, 0), 8, id="bouquet2-c2"),
    pytest.param(BOUQUET2, (2, 2), (1, 2), 8, id="bouquet2-c2xc2"),
    pytest.param(BOUQUET3, (4,), (1, 2, 3), 7, id="bouquet3-c4"),
    pytest.param(BOUQUET3, (2, 2), (1, 2, 3), 6, id="bouquet3-c2xc2"),
]


@pytest.mark.parametrize("graph,orders,voltages,L", BRUTE_FORCE_CASES)
def test_classes_match_brute_force(graph, orders, voltages, L):
    vg = VoltageGraph(graph, FinAbGroup(orders), voltages)
    expected = brute_force_classes(vg, L)
    for cap in range(1, L + 1):
        got = primitive_rotation_classes(vg, cap)
        assert len(got) == len(set(got))
        assert set(got) == {c for c in expected if len(c[0]) <= cap}
    assert euler_product_truncation(vg, L) == per_class_product(vg, expected, L)


def test_enumeration_budget(monkeypatch):
    # 8 darts with 7 continuations each blows any fixed node budget at L=12
    import covjac.zeta as zmod
    monkeypatch.setattr(zmod, "ENUM_NODE_BUDGET", 10_000)
    dense = build_graph(1, [(0, 0)] * 4)
    with pytest.raises(ResourceLimitError):
        primitive_rotation_classes(trivial_vg(dense), MAX_TRUNCATION)


def test_dart_adjacency_shape():
    vg = VoltageGraph(THETA, FinAbGroup((3,)), (1, 0, 2))
    B = dart_adjacency(vg)
    nd = len(THETA.darts)
    assert len(B) == nd and all(len(row) == nd for row in B)
    for e in THETA.darts:
        assert not B[e.id][e.partner]  # no backtracking


def test_zeta_rejects_nonabelian():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    s3 = CayleyGroup(
        [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    )
    vg = VoltageGraph(THETA, s3, (1, 0, 3))
    with pytest.raises(RingMismatchError):
        zeta_polynomial(vg)
