import random

import pytest

from covjac.covering import (
    GammaModule,
    VoltageGraph,
    connectivity_criterion,
    coinvariants,
    cycle_voltages,
    derived_graph,
    dual_module,
    equivariant_laplacian,
    jacobian_module,
    norm_image_order,
    norm_kernel,
    picard_and_jacobian,
    picard_fitting_is_principal,
    quotient_by_norm,
    rbar_pic_order,
    sequence_cardinality_check,
    z_element,
)
from covjac.errors import DisconnectedGraphError, RingMismatchError
from covjac.fitting import module_fitting_ideal
from covjac.graphs import build_graph, is_connected, jacobian, laplacian
from covjac.groupring import R, RBAR, CayleyGroup, FinAbGroup, GroupRingElement

THETA = build_graph(2, [(0, 1), (1, 1), (0, 1)])


def s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    return CayleyGroup(
        [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    )


def test_voltage_validation():
    with pytest.raises(ValueError):
        VoltageGraph(THETA, FinAbGroup((2,)), (1, 1))  # wrong count
    with pytest.raises(ValueError):
        VoltageGraph(THETA, FinAbGroup((2,)), (1, 2, 0))  # out of range


def test_dart_voltage_inverse_pairing():
    grp = FinAbGroup((4,))
    vg = VoltageGraph(THETA, grp, (3, 2, 0))
    for e in THETA.darts:
        a = vg.dart_voltage(e.id)
        assert vg.dart_voltage(e.partner) == grp.inv(a)


def test_json_roundtrip_and_inversion():
    grp = FinAbGroup((2, 3))
    vg = VoltageGraph(THETA, grp, (1, 4, 5))
    assert VoltageGraph.from_json(vg.to_json()).to_json() == vg.to_json()
    assert vg.inverted().inverted().to_json() == vg.to_json()
    with pytest.raises(ValueError):
        VoltageGraph.from_json({"graph": {"vertices": 1, "edges": []}})


def test_derived_loop_doubles():
    b1 = build_graph(1, [(0, 0)])
    vg = VoltageGraph(b1, FinAbGroup((2,)), (1,))
    cover = derived_graph(vg)
    assert cover.graph.vertex_count == 2
    assert cover.graph.edge_count == 2
    assert jacobian(cover.graph).invariant_factors == (2,)


def test_derived_triangle_c3_is_nine_cycle():
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    vg = VoltageGraph(tri, FinAbGroup((3,)), (1, 0, 0))
    cover = derived_graph(vg)
    assert cover.graph.vertex_count == 9
    assert is_connected(cover.graph)
    assert all(cover.graph.degree(v) == 2 for v in range(9))
    assert jacobian(cover.graph).invariant_factors == (9,)


def test_deck_action_permutes_fibers_freely():
    grp = FinAbGroup((2, 2))
    vg = VoltageGraph(THETA, grp, (3, 2, 0))
    cover = derived_graph(vg)
    nv = THETA.vertex_count
    for t in range(grp.size):
        perm = cover.vertex_perms[t]
        assert sorted(perm) == list(range(cover.graph.vertex_count))
        for g in range(grp.size):
            for v in range(nv):
                assert perm[g * nv + v] == grp.mul(t, g) * nv + v
        if t != grp.identity:
            assert all(perm[x] != x for x in range(len(perm)))
    # dart permutation respects incidence
    for t in range(grp.size):
        dp = cover.dart_perms[t]
        vp = cover.vertex_perms[t]
        for d in cover.graph.darts:
            image = cover.graph.darts[dp[d.id]]
            assert image.src == vp[d.src]
            assert image.dst == vp[d.dst]


def test_connectivity_criterion_matches_bfs():
    rng = random.Random(71)
    grp = FinAbGroup((2, 4))
    agree = 0
    for _ in range(40):
        edges = [(0, 1), (rng.randrange(2), rng.randrange(2)),
                 (rng.randrange(2), rng.randrange(2))]
        vg = VoltageGraph(build_graph(2, edges), grp,
                          tuple(rng.randrange(8) for _ in range(3)))
        assert connectivity_criterion(vg) == is_connected(derived_graph(vg).graph)
        agree += 1
    assert agree == 40


def test_derived_graph_builds_no_group_table():
    # layer-sized groups: the derived graph and its deck permutations go
    # through group.mul without the |G|^2 table, which a group-ring
    # product builds on first use
    grp = FinAbGroup((4, 64))
    vg = VoltageGraph(build_graph(1, [(0, 0), (0, 0)]), grp, (grp.index((1, 3)), 5))
    cover = derived_graph(vg)
    assert grp._mul_table is None
    assert len(cover.vertex_perms) == grp.size
    for t in (0, 77, grp.size - 1):
        assert cover.vertex_perms[t] == [grp.mul(t, g) for g in grp.elements()]
        assert cover.dart_perms[t][4 * 9 + 3] == grp.mul(t, 9) * 4 + 3
    with pytest.raises(IndexError):
        cover.vertex_perms[grp.size]
    assert grp._mul_table is None
    x = GroupRingElement(grp, [1, 2] + [0] * (grp.size - 2))
    table = grp.mul_table()
    assert table is not None and (x * x).coeffs[:3] == (1, 4, 4)
    assert all(table[i][j] == grp.mul(i, j)
               for i in (0, 5, 100) for j in grp.elements())
    assert x.translate(77) == GroupRingElement(
        grp, [1 if g == 77 else 2 if g == grp.mul(1, 77) else 0
              for g in grp.elements()])


def test_connectivity_nonabelian():
    s3 = s3_group()
    b2 = build_graph(1, [(0, 0), (0, 0)])
    vg = VoltageGraph(b2, s3, (1, 3))  # a 3-cycle and a transposition generate
    assert connectivity_criterion(vg)
    assert is_connected(derived_graph(vg).graph)
    vg2 = VoltageGraph(b2, s3, (1, 2))  # the rotation subgroup only
    assert not connectivity_criterion(vg2)
    assert not is_connected(derived_graph(vg2).graph)


def test_cycle_voltages_span_image():
    grp = FinAbGroup((6,))
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    vg = VoltageGraph(tri, grp, (1, 1, 0))
    cycles = cycle_voltages(vg)
    assert len(cycles) == 1  # one independent cycle
    assert cycles[0] in (2, 4)  # the triangle voltage sum, up to inversion


def test_cycle_voltages_deep_tree():
    # a 1500-vertex path with a loop at its far end: the tree potentials
    # run 1500 levels deep, past the interpreter's recursion limit
    n = 1500
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, n - 1)])
    vg = VoltageGraph(path, FinAbGroup((2,)), [1] * (n - 1) + [1])
    assert cycle_voltages(vg) == [1]
    assert connectivity_criterion(vg)


def test_equivariant_laplacian_identifies_with_cover():
    """Entry (v, w) collects the derived Laplacian row of (identity, v)
    against the fiber of w."""
    grp = FinAbGroup((4,))
    vg = VoltageGraph(THETA, grp, (1, 1, 2))
    lbar = equivariant_laplacian(vg)
    LY = laplacian(derived_graph(vg).graph)
    nv = THETA.vertex_count
    for v in range(nv):
        for w in range(nv):
            for g in range(grp.size):
                assert lbar[v][w].coeffs[g] == LY[v][g * nv + w]
    # augmentation recovers the base Laplacian
    LX = laplacian(THETA)
    for v in range(nv):
        for w in range(nv):
            assert lbar[v][w].augmentation() == LX[v][w]


def test_equivariant_laplacian_involution_transpose():
    grp = FinAbGroup((4,))
    vg = VoltageGraph(THETA, grp, (1, 1, 2))
    lbar = equivariant_laplacian(vg)
    n = len(lbar)
    for v in range(n):
        for w in range(n):
            assert lbar[v][w].involution() == lbar[w][v]


def test_equivariant_laplacian_rejects_nonabelian():
    vg = VoltageGraph(build_graph(1, [(0, 0), (0, 0)]), s3_group(), (1, 3))
    with pytest.raises(RingMismatchError):
        equivariant_laplacian(vg)


def test_z_element_frozen_bouquet():
    vg = VoltageGraph(build_graph(1, [(0, 0)]), FinAbGroup((2,)), (1,))
    z = z_element(vg)
    assert list(z.coeffs) == [2, -2]
    assert z.augmentation() == 0


def test_picard_jacobian_consistency():
    grp = FinAbGroup((2, 2))
    vg = VoltageGraph(THETA, grp, (3, 2, 0))
    pic, jac, cover = picard_and_jacobian(vg)
    assert pic.free_rank == 1
    assert jac.free_rank == 0
    assert jac.invariant_factors == jacobian(cover.graph).invariant_factors
    assert pic.validate()
    assert jac.validate()


def test_degree_character_fixed():
    grp = FinAbGroup((3,))
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    vg = VoltageGraph(tri, grp, (1, 0, 0))
    pic, _, _ = picard_and_jacobian(vg)
    # the free degree coordinate is fixed by every generator
    for mat in pic.gen_actions:
        assert mat[-1][-1] == 1
        assert all(mat[-1][j] == 0 for j in range(pic.num_components - 1))


def test_trivial_deck_action_on_small_cover():
    # bouquet over C2: deck swap fixes the Jacobian pointwise
    vg = VoltageGraph(build_graph(1, [(0, 0)]), FinAbGroup((2,)), (1,))
    jac = jacobian_module(vg)
    assert jac.invariant_factors == (2,)
    assert jac.element_matrix(1) == [[1]]


def test_norm_quotient_and_image_orders():
    grp = FinAbGroup((3,))
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    vg = VoltageGraph(tri, grp, (1, 0, 0))
    jac = jacobian_module(vg)
    m = quotient_by_norm(jac)
    assert jac.order() == 9
    assert m.order() == 3
    assert norm_image_order(jac) == 3  # matches the base triangle
    assert jacobian(tri).order == 3


def test_sequence_cardinality_check():
    grp = FinAbGroup((2, 2))
    vg = VoltageGraph(THETA, grp, (3, 2, 0))
    res = sequence_cardinality_check(vg)
    assert res["ok"]
    assert res["norm_image_matches_base"]
    assert res["jac_base"] * res["pic_quotient_ring"] == res["jac_cover"] * grp.size
    assert res["jac_cover"] == res["norm_image"] * res["jac_mod_norm"]


def test_rbar_pic_order_matches_sequence():
    grp = FinAbGroup((4,))
    vg = VoltageGraph(THETA, grp, (1, 1, 2))
    res = sequence_cardinality_check(vg)
    assert rbar_pic_order(vg) == res["pic_quotient_ring"]


def test_picard_fitting_principal():
    for orders, volts in (((2,), (1, 0, 1)), ((3,), (1, 2, 0))):
        vg = VoltageGraph(THETA, FinAbGroup(orders), volts)
        if connectivity_criterion(vg):
            assert picard_fitting_is_principal(vg)


def test_dual_module_properties():
    grp = FinAbGroup((2, 2))
    vg = VoltageGraph(THETA, grp, (3, 2, 0))
    jac = jacobian_module(vg)
    dd = dual_module(dual_module(jac))
    assert dd.invariant_factors == jac.invariant_factors
    assert module_fitting_ideal(dd, R) == module_fitting_ideal(jac, R)
    tw = dual_module(jac, twist=True)
    assert tw.invariant_factors == jac.invariant_factors
    assert tw.validate()
    # twist differs from the plain dual by composing with inversion
    plain = dual_module(jac)
    for l in range(grp.num_factors):
        gi = grp.generator(l)
        assert tw.element_matrix(gi) == plain.element_matrix(grp.inv(gi))


def test_dual_rejects_infinite():
    grp = FinAbGroup((2,))
    vg = VoltageGraph(THETA, grp, (1, 1, 0))
    pic, _, _ = picard_and_jacobian(vg)
    with pytest.raises(ValueError):
        dual_module(pic)


def test_norm_kernel_properties():
    cases = (
        ((2, 2), THETA, (3, 2, 0)),
        ((4,), THETA, (1, 1, 2)),
        ((3,), build_graph(3, [(0, 1), (1, 2), (2, 0)]), (1, 0, 0)),
    )
    for orders, base, volts in cases:
        jac = jacobian_module(VoltageGraph(base, FinAbGroup(orders), volts))
        ker = norm_kernel(jac)
        assert ker.validate()
        k = ker.num_components
        assert ker.norm_matrix() == [[0] * k for _ in range(k)]
        # for finite M, #M[N] = #M / #(N M) = #(M / N M)
        assert ker.order() == quotient_by_norm(jac).order()
    klein = jacobian_module(VoltageGraph(THETA, FinAbGroup((2, 2)), (3, 2, 0)))
    assert norm_kernel(klein).invariant_factors == (2, 4, 12)


def test_norm_kernel_rejects_infinite():
    pic, _, _ = picard_and_jacobian(VoltageGraph(THETA, FinAbGroup((2,)), (1, 1, 0)))
    with pytest.raises(ValueError):
        norm_kernel(pic)


def test_coinvariants_functorial():
    """Collapsing the subgroup of squares inside C4 matches the cover
    built from the reduced voltages."""
    grp4 = FinAbGroup((4,))
    vg4 = VoltageGraph(THETA, grp4, (1, 1, 2))
    pic4, _, _ = picard_and_jacobian(vg4)
    sub = [0, 2]
    vg2 = VoltageGraph(THETA, FinAbGroup((2,)), (1, 1, 0))
    pic2, _, _ = picard_and_jacobian(vg2)
    assert coinvariants(pic4, sub) == pic2.structure()
    # collapsing everything recovers the base Picard group
    base_pic = coinvariants(pic4, list(range(4)))
    assert base_pic == (jacobian(THETA).invariant_factors, 1)


def test_gamma_module_validate_catches_bad_action():
    grp = FinAbGroup((2,))
    bad = GammaModule(grp, (2, 4), 0, [[[1, 1], [1, 1]]])
    assert not bad.validate()


def test_disconnected_cover_rejected():
    grp = FinAbGroup((2,))
    vg = VoltageGraph(THETA, grp, (0, 0, 0))  # trivial voltages, 2 sheets
    assert not connectivity_criterion(vg)
    with pytest.raises(DisconnectedGraphError):
        picard_and_jacobian(vg)
