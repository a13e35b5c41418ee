import json

import pytest

from covjac.covering import derived_graph
from covjac.errors import DisconnectedGraphError
from covjac.graphs import build_graph
from covjac.groupring import FinAbGroup
from covjac.iwasawa import (
    PadicPolynomial,
    ZpVoltageGraph,
    default_window,
    iwasawa_fit,
    kida_lifted_tower,
    layer_graph,
    layer_orders,
    tower_connectivity,
    tower_cycle_voltages,
    val_p,
    verify_icnf,
    verify_kida,
    weierstrass_invariants,
    z_power_series,
)

BOUQUET2 = build_graph(1, [(0, 0), (0, 0)])


def standard_tower(p=2):
    return ZpVoltageGraph(BOUQUET2, p, (1, 0))


def test_valuations():
    assert val_p(8, 2) == 3
    assert val_p(9, 3) == 2
    assert val_p(7, 2) == 0
    assert val_p(0, 2) is None


def test_tower_validation():
    with pytest.raises(ValueError):
        ZpVoltageGraph(BOUQUET2, 4, (1, 0))  # not prime
    with pytest.raises(ValueError):
        ZpVoltageGraph(BOUQUET2, 2, (1,))  # wrong count
    with pytest.raises(ValueError):
        ZpVoltageGraph(BOUQUET2, 2, (1, 0), FinAbGroup((2,)), None)
    with pytest.raises(ValueError):
        ZpVoltageGraph(BOUQUET2, 2, (1, 0), FinAbGroup((2,)), (1, 5))


def test_connectivity_criterion():
    assert tower_connectivity(standard_tower())
    # tree base has no cycles at all
    assert not tower_connectivity(ZpVoltageGraph(build_graph(2, [(0, 1)]), 2, (1,)))
    # every cycle voltage divisible by p
    assert not tower_connectivity(ZpVoltageGraph(BOUQUET2, 2, (2, 4)))
    with pytest.raises(DisconnectedGraphError):
        layer_orders(ZpVoltageGraph(BOUQUET2, 2, (2, 4)), 3)
    assert tower_cycle_voltages(standard_tower()) == [1, 0]


def test_tower_cycle_voltages_deep_tree():
    # tree potentials 1500 levels deep, past the recursion limit
    n = 1500
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, n - 1)])
    zvg = ZpVoltageGraph(path, 2, [1] * (n - 1) + [3])
    assert tower_cycle_voltages(zvg) == [3]
    assert tower_connectivity(zvg)


def test_layer_orders_standard():
    vals, truncated = layer_orders(standard_tower(), 6)
    assert vals == [0, 1, 2, 3, 4, 5, 6]
    assert not truncated
    # small cap cuts the window and flags it
    vals, truncated = layer_orders(standard_tower(), 6, vertex_cap=5)
    assert vals == [0, 1, 2] and truncated


def test_layer_two_structure():
    Y = derived_graph(layer_graph(standard_tower(), 2)).graph
    assert Y.vertex_count == 4 and Y.edge_count == 8
    assert all(Y.degree(v) == 4 for v in range(4))
    loops = sum(1 for e in Y.edges() if Y.darts[e].src == Y.darts[e].dst)
    assert loops == 4


def test_orders_nondecreasing():
    for zvg in (standard_tower(), ZpVoltageGraph(BOUQUET2, 2, (1, 1)),
                ZpVoltageGraph(BOUQUET2, 3, (1, 2))):
        vals, _ = layer_orders(zvg, 4)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_z_series_standard():
    s = z_power_series(standard_tower())
    assert s.coeffs == (0, 0, -1)
    assert s.unit_shift == 1
    assert weierstrass_invariants(s.divided_by_variable()) == (0, 1)


def test_weierstrass_examples():
    assert weierstrass_invariants(PadicPolynomial(2, (0, 0, 1), 0)) == (0, 2)
    assert weierstrass_invariants(PadicPolynomial(2, (0, 2), 0)) == (1, 1)
    assert weierstrass_invariants(PadicPolynomial(2, (2, 0, 0, 1), 0)) == (0, 3)
    # the unit shift never enters
    assert weierstrass_invariants(PadicPolynomial(2, (0, 2), 7)) == (1, 1)
    with pytest.raises(ValueError):
        weierstrass_invariants(PadicPolynomial(2, (), 0))


def test_fit_examples():
    assert iwasawa_fit([0, 1, 2, 3, 4], 2) == (1, 0, 0, 0)
    assert iwasawa_fit([0, 2, 6, 14], 2) == (0, 2, -2, 0)
    assert iwasawa_fit([0, 2, 5, 10, 19, 36, 69], 2) == (1, 1, -1, 0)
    with pytest.raises(ValueError):
        iwasawa_fit([0, 1, 2], 2)
    with pytest.raises(ArithmeticError):
        iwasawa_fit([0, 0, 1, 3, 8], 2)  # off-scale second difference
    with pytest.raises(ArithmeticError):
        iwasawa_fit([5, 4, 3, 2], 2)  # negative slope
    with pytest.raises(ArithmeticError):
        iwasawa_fit([7, 9, 1, 2], 2)  # stabilizes too late


def test_icnf_standard_three_primes():
    for p in (2, 3, 5):
        rep = verify_icnf(standard_tower(p), 4 if p < 5 else 3)
        assert rep.passed, rep.note
        assert rep.claim == "tower-class-number-formula"
        assert rep.fitted == {"lambda": 1, "mu": 0, "nu": 0, "n0": 0}
        assert rep.weierstrass == {"mu": 0, "lambda": 1}
        assert not rep.truncated
        json.dumps(rep.to_json())


def test_icnf_positive_mu():
    rep = verify_icnf(ZpVoltageGraph(BOUQUET2, 2, (1, 1)), 6)
    assert rep.passed
    assert rep.fitted == {"lambda": 1, "mu": 1, "nu": -1, "n0": 0}
    assert rep.weierstrass == {"mu": 1, "lambda": 1}
    assert rep.layer_valuations == [0, 2, 5, 10, 19, 36, 69]


def test_icnf_short_window_rejected():
    # three layers (0..2) cannot be fitted: bad input, not a failed tower
    with pytest.raises(ValueError, match="four layers"):
        verify_icnf(standard_tower(), 2)
    with pytest.raises(ValueError, match="four layers"):
        verify_kida(ZpVoltageGraph(BOUQUET2, 2, (0, 1), FinAbGroup((2,)), (1, 0)), 2)


def test_json_roundtrip():
    zvg = ZpVoltageGraph(BOUQUET2, 2, (0, 1), FinAbGroup((2,)), (1, 0))
    again = ZpVoltageGraph.from_json(zvg.to_json())
    assert again.to_json() == zvg.to_json()
    plain = standard_tower()
    assert ZpVoltageGraph.from_json(plain.to_json()).to_json() == plain.to_json()
    with pytest.raises(ValueError):
        ZpVoltageGraph.from_json({"prime": 2})
    with pytest.raises(ValueError):
        ZpVoltageGraph.from_json({"graph": {"vertices": 1, "edges": [[0, 0]]},
                                  "prime": 2, "voltages": [1],
                                  "kida": {"orders": [2]}})


def test_default_window():
    assert default_window(standard_tower(2)) == 6
    assert default_window(standard_tower(3)) == 4
    assert default_window(standard_tower(5)) == 3


def test_kida_c2():
    zvg = ZpVoltageGraph(BOUQUET2, 2, (0, 1), FinAbGroup((2,)), (1, 0))
    d = verify_kida(zvg)
    assert d["claim"] == "lifted-tower-lambda-relation"
    assert d["passed"] and d["mu_equivalence"] and d["lambda_relation"]
    assert d["base"]["fitted"]["lambda"] == 1
    assert d["lifted"]["fitted"]["lambda"] == 3  # 3 + 1 == 2 * (1 + 1)


def test_kida_c3():
    zvg = ZpVoltageGraph(BOUQUET2, 3, (0, 1), FinAbGroup((3,)), (1, 0))
    d = verify_kida(zvg)
    assert d["passed"]
    assert d["lifted"]["fitted"]["lambda"] == 5  # 5 + 1 == 3 * (1 + 1)


def test_kida_lifted_tower_shape():
    zvg = ZpVoltageGraph(BOUQUET2, 2, (0, 1), FinAbGroup((2,)), (1, 0))
    lifted = kida_lifted_tower(zvg)
    assert lifted.kida_group is None
    assert lifted.base.vertex_count == 2
    assert lifted.base.edge_count == 4
    assert lifted.prime == 2


def test_kida_rejections():
    with pytest.raises(ValueError):
        verify_kida(standard_tower())  # no finite layer
    zvg = ZpVoltageGraph(BOUQUET2, 3, (0, 1), FinAbGroup((2,)), (1, 0))
    with pytest.raises(ValueError):
        verify_kida(zvg)  # layer is not a p-group for p = 3


def test_kida_nonzero_mu_degrades():
    zvg = ZpVoltageGraph(BOUQUET2, 2, (1, 1), FinAbGroup((2,)), (1, 0))
    d = verify_kida(zvg, n_max=6)
    assert d["passed"] and d["mu_equivalence"]
    assert d["lambda_relation"] is None
    assert "mu" in d["note"]
