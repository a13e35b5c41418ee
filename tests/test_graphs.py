import random
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from covjac.covering import derived_graph
from covjac.errors import DisconnectedGraphError
from covjac.graphs import (
    Dart,
    Graph,
    build_graph,
    connected_components,
    graph_from_json,
    graph_to_json,
    is_connected,
    jacobian,
    laplacian,
    spanning_tree_count,
)
from covjac.iwasawa import ZpVoltageGraph, layer_graph


def random_connected_multigraph(rng, max_v=6, max_e=10):
    nv = rng.randint(1, max_v)
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    ne = rng.randint(len(edges), max_e)
    while len(edges) < ne:
        edges.append((rng.randrange(nv), rng.randrange(nv)))
    return build_graph(nv, edges)


def test_dart_involution_validated():
    with pytest.raises(ValueError):
        Graph(1, (Dart(0, 0, 0, 0),))  # self-paired dart
    with pytest.raises(ValueError):
        Graph(2, (Dart(0, 0, 1, 1), Dart(1, 0, 1, 0)))  # partner src/dst mismatch


def test_build_graph_layout():
    g = build_graph(2, [(0, 1), (1, 1)])
    assert g.edge_count == 2
    assert len(g.darts) == 4
    assert g.darts[1].partner == 0
    assert g.edge_of_dart(2) == (1, True)
    assert g.edge_of_dart(3) == (1, False)
    assert g.edges() == (0, 2)
    assert g.degree(1) == 3


def test_cycle_jacobian():
    for n in (2, 3, 5, 7):
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        s = jacobian(g)
        assert s.invariant_factors == (n,)
        assert s.free_rank == 0
        assert spanning_tree_count(g) == n


def test_k4():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert jacobian(g).invariant_factors == (4, 4)
    assert spanning_tree_count(g) == 16


def test_tree_and_bouquet():
    tree = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert jacobian(tree).invariant_factors == ()
    assert spanning_tree_count(tree) == 1
    bouquet = build_graph(1, [(0, 0), (0, 0)])
    assert jacobian(bouquet).invariant_factors == ()
    assert spanning_tree_count(bouquet) == 1


def test_loops_leave_laplacian_alone():
    g1 = build_graph(2, [(0, 1), (0, 1)])
    g2 = build_graph(2, [(0, 1), (0, 1), (0, 0), (1, 1)])
    assert laplacian(g1) == laplacian(g2)
    assert jacobian(g1) == jacobian(g2)


def test_laplacian_row_sums():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected_multigraph(rng)
        L = laplacian(g)
        assert all(sum(row) == 0 for row in L)


def test_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert len(connected_components(g)) == 2
    with pytest.raises(DisconnectedGraphError):
        jacobian(g)
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(g)


def test_json_roundtrip():
    g = build_graph(3, [(0, 1), (1, 2), (0, 0)])
    data = graph_to_json(g)
    h = graph_from_json(data)
    assert graph_to_json(h) == data
    with pytest.raises(ValueError):
        graph_from_json({"vertices": 2})
    with pytest.raises(ValueError):
        graph_from_json({"vertices": 1, "edges": [{"u": 0, "v": 5}]})


def test_jacobian_order_is_tree_count():
    rng = random.Random(1309)
    for _ in range(30):
        g = random_connected_multigraph(rng)
        assert jacobian(g).order == spanning_tree_count(g)


def test_invariant_factors_against_sympy():
    """Independent structure oracle: Smith form of the full Laplacian
    has the Jacobian factors plus one zero."""
    rng = random.Random(88)
    for _ in range(12):
        g = random_connected_multigraph(rng, max_v=5, max_e=8)
        sm = smith_normal_form(
            sympy.Matrix(laplacian(g)))
        diag = [int(abs(sm[i, i])) for i in range(g.vertex_count)]
        nontrivial = tuple(x for x in diag if x not in (0, 1))
        assert nontrivial == jacobian(g).invariant_factors
        assert diag.count(0) == 1


def _trees_by_enumeration(g):
    """Spanning trees counted as the acyclic (n-1)-subsets of non-loop
    edges, each tested with a union-find."""
    n = g.vertex_count
    plain = [(g.darts[d].src, g.darts[d].dst) for d in g.edges()
             if g.darts[d].src != g.darts[d].dst]
    count = 0
    for subset in combinations(plain, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        count += acyclic
    return count


def test_tree_count_against_enumeration():
    """The matrix-tree determinant against subset enumeration, on graphs
    of at most 16 edges: random multigraphs, named graphs and the small
    layers of two Z_p towers."""
    rng = random.Random(2024)
    graphs = [random_connected_multigraph(rng) for _ in range(40)]
    graphs += [
        build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        build_graph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 1)]),
        build_graph(1, [(0, 0), (0, 0)]),
    ]
    bouquet = build_graph(1, [(0, 0), (0, 0)])
    theta = build_graph(2, [(0, 1), (0, 1), (0, 1)])
    for zvg, depth in ((ZpVoltageGraph(bouquet, 2, (1, 0)), 3),
                       (ZpVoltageGraph(theta, 3, (0, 1, 2)), 1)):
        graphs += [derived_graph(layer_graph(zvg, n)).graph for n in range(depth + 1)]
    for g in graphs:
        assert g.edge_count <= 16
        assert spanning_tree_count(g) == _trees_by_enumeration(g)
