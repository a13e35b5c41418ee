"""Tests of the benchmark itself: seeded inputs, span arithmetic and
failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _inputs(ops):
    out = []
    for op in ops:
        obj = op.data.get("cover") or op.data.get("tower")
        out.append((op.op_id, op.kind, obj.to_json(), op.data.get("window")))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = _inputs(workloads.build(name, 3))
    assert a == _inputs(workloads.build(name, 3))
    assert a != _inputs(workloads.build(name, 4))


# Cases 3 (the anchor of every corpus round) and 20 (the cover the traced
# run explains) of the C2xC4 slice of the tier-1 seed-7 corpus, written
# out, so the test fails if either stops being that cover.
TIER1_C2X4_JSON = {
    3: {
        "graph": {"vertices": 2, "edges": [{"u": 0, "v": 1}, {"u": 0, "v": 0},
                                           {"u": 0, "v": 1}]},
        "group": {"orders": [2, 4]},
        "voltages": [[0, 1], [1, 1], [1, 1]],
    },
    20: {
        "graph": {"vertices": 2, "edges": [{"u": 0, "v": 1}, {"u": 0, "v": 1},
                                           {"u": 1, "v": 0}, {"u": 0, "v": 1}]},
        "group": {"orders": [2, 4]},
        "voltages": [[1, 2], [1, 0], [0, 3], [1, 1]],
    },
}


def test_anchor_is_tier1_case():
    assert workloads.anchor_cover().to_json() == TIER1_C2X4_JSON[3]
    corpus = workloads.build("corpus", 1)
    assert corpus[-1].data["cover"].to_json() == TIER1_C2X4_JSON[3]
    (extra,) = workloads.traced_extra("corpus")
    assert extra.kind == "duality"
    assert extra.data["cover"].to_json() == TIER1_C2X4_JSON[20]
    assert workloads.traced_extra("zeta") == []


def _span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent, "op", attrs)


def test_self_times_subtract_direct_children_only():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_sum_self_times_and_counts():
    sp = [
        _span("theorems.verify_duality", 0.0, 10.0),
        _span("fitting.fitting_ideal_group_ring", 1.0, 9.0, 0, minors=20),
        _span("groupring.det_group_ring", 2.0, 5.0, 1),
        _span("groupring.det_group_ring", 5.0, 6.5, 1),
        _span("intlinalg.det_crt", 9.0, 9.5, 0, n=4),
        _span("intlinalg.det_crt", 9.5, 9.75, 0, n=2),
    ]
    m = spans.layer_metrics(sp)
    assert m["theorems.duality_s"] == pytest.approx(1.25)
    assert m["groupring.det_s"] == pytest.approx(4.5)
    assert m["fitting.minors"] == 20
    assert m["intlinalg.det_crt_calls"] == 2
    assert m["intlinalg.det_order_max"] == 4
    assert m["intlinalg.det_cube_sum"] == 72
    assert m["intlinalg.det_crt_s"] == pytest.approx(0.75)


def test_explain_fitting_rows_per_ideal():
    sp = [
        _span("theorems.verify_main_theorem", 0.0, 10.0),
        _span("fitting.module_fitting_ideal", 1.0, 9.0, 0, ring="Rbar"),
        _span("fitting.present_module", 1.0, 2.0, 1, generators=3, relations=5),
        _span("fitting.fitting_ideal_group_ring", 2.0, 8.0, 1, minors=10),
        _span("groupring.det_group_ring", 2.5, 4.0, 3),
        _span("groupring.det_group_ring", 4.0, 4.5, 3),
        _span("groupring.det_group_ring", 9.5, 9.75, 0),
    ]
    assert spans.explain_fitting(sp, 0) == [{
        "ideal": "Fitt_Rbar(M)", "ring": "Rbar", "seconds": 8.0,
        "det_seconds": 2.0, "generators": 3, "relations": 5, "minors": 10,
    }]


def test_tracer_records_nesting_and_restores_functions():
    import covjac.fitting as fit
    import covjac.theorems as th

    from covjac.covering import jacobian_module, quotient_by_norm

    m = quotient_by_norm(jacobian_module(_first("corpus", "main").data["cover"]))
    orig = th.module_fitting_ideal
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert th.module_fitting_ideal is not orig
        th.module_fitting_ideal(m, "Rbar")
    finally:
        tracer.uninstall()
    assert th.module_fitting_ideal is orig
    assert fit.det_group_ring.__module__ == "covjac.groupring"
    names = [s.name for s in tracer.spans]
    assert names[0] == "fitting.module_fitting_ideal"
    assert "fitting.present_module" in names
    for s in tracer.spans[1:]:
        assert s.parent is not None and s.start >= tracer.spans[s.parent].start


def _first(name, kind):
    return next(o for o in workloads.build(name, 1) if o.kind == kind)


@pytest.mark.parametrize("name,kind,corrupt", [
    ("corpus", "main", lambda r: r.details["jacobian"].append(2)),
    ("corpus", "norm", lambda r: r.details.update(jac_base=r.details["jac_base"] + 1)),
    ("corpus", "duality", lambda r: r.details.update(kernel_fitting_matches=False)),
    ("zeta", "zeta", lambda r: r["z_polynomial"]["coeffs"][0].__setitem__(0, 5)),
    ("towers", "icnf", lambda r: r.layer_valuations.__setitem__(1, 99)),
    ("towers", "standard", lambda r: r.fitted.update(nu=1)),
    ("towers", "kida", lambda d: d["lifted"]["layer_valuations"].__setitem__(0, 7)),
])
def test_corrupted_output_is_a_failed_op(name, kind, corrupt):
    op = _first(name, kind)
    out = op.run()
    checker = checks.Checker()
    assert checker.check(op, out) is None
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert checker.check(op, bad)


def test_raising_op_is_recorded_not_raised():
    def boom():
        raise ArithmeticError("broken")

    ops = [workloads.Op("x", "main", boom)]
    _, _, times, outputs = run.run_round(ops)
    assert outputs == [(None, "ArithmeticError: broken")]
    assert len(times) == 1


def test_raising_check_is_a_failed_op():
    op = _first("corpus", "main")
    out = op.run()
    bad = copy.deepcopy(out)
    del bad.details["jacobian"]
    problem = run.check_output(checks.Checker(), op, bad)
    assert problem.startswith("check raised KeyError")



def test_per_reference_divides_by_the_reference_around_each_round():
    # (wall, cpu, per-op times, outputs, span mark) per round; the
    # reference took 1 s before round 1, 1 s between, 3 s after round 2.
    rounds = [(4.0, 0.0, [1.0, 3.0], None, 0), (6.0, 0.0, [2.0, 4.0], None, 0)]
    wall, slowest = run.per_reference(rounds, [1.0, 1.0, 3.0])
    assert wall == pytest.approx((4.0 / 1.0 + 6.0 / 2.0) / 2)
    assert slowest == pytest.approx((3.0 / 1.0 + 4.0 / 2.0) / 2)
