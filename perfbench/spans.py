"""Spans around covjac's public functions, and the per-layer metrics.

``Tracer.install()`` replaces each function in ``PATCHES`` by a wrapper
in every module namespace where a caller looks the name up (covjac
modules import each other's functions by name, so patching the defining
module alone would miss most calls).  A span records its name, start,
end, parent, op id and a few size attributes, and stays in memory until
the run ends.  A span's self time is its duration minus the time its
direct children cover; the per-layer times are sums of self times, so
they never count a nested call twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import covjac.covering as cov
import covjac.fitting as fit
import covjac.graphs as gph
import covjac.groupring as gr
import covjac.intlinalg as il
import covjac.iwasawa as iw
import covjac.theorems as th
import covjac.zeta as zt


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pres_attrs(args, out):
    return {"generators": out.num_gens, "relations": len(out.rows)}


def _minor_attrs(args, out):
    rows, num_cols, i = args[0], args[1], args[2]
    size = num_cols - i
    if size <= 0 or size > len(rows):
        return {"minors": 0}
    return {"minors": math.comb(len(rows), size) * math.comb(num_cols, size)}


def _fitting_attrs(args, out):
    return {"ring": args[1]}


def _ideal_attrs(args, out):
    gens = list(args[0])
    return {"rows": len(gens) * (gens[0].group.size if gens else 0)}


def _classes_attrs(args, out):
    return {"classes": len(out), "pairs": len({(len(s), g) for s, g in out})}


def _layer_attrs(args, out):
    return {"vertices": out.group.size * out.base.vertex_count}


def _det_attrs(args, out):
    return {"n": len(args[0])}


# (span name, namespaces where callers look it up, attribute function)
PATCHES = (
    ("covering.picard_and_jacobian", (th, cov), None),
    ("covering.quotient_by_norm", (th, cov), None),
    ("covering.dual_module", (th,), None),
    ("covering.norm_kernel", (th,), None),
    ("covering.z_element", (th, cov), None),
    ("covering.sequence_cardinality_check", (th,), None),
    ("covering.rbar_pic_order", (cov,), None),
    ("covering.derived_graph", (cov, iw), None),
    ("fitting.module_fitting_ideal", (th, cov), _fitting_attrs),
    ("fitting.present_module", (fit,), _pres_attrs),
    ("fitting.fitting_ideal_group_ring", (fit,), _minor_attrs),
    ("groupring.det_group_ring", (fit, cov), None),
    ("intlinalg.hermite_row_basis", (gr, fit, il), None),
    ("intlinalg.smith_normal_form_full", (cov, gph, il), None),
    ("intlinalg.det_crt", (il,), _det_attrs),
    ("graphs.spanning_tree_count", (iw,), None),
    ("zeta.zeta_polynomial", (zt,), None),
    ("zeta.euler_product_truncation", (zt,), None),
    ("zeta.primitive_rotation_classes", (zt,), _classes_attrs),
    ("zeta.edge_matrix_zeta", (zt,), None),
    ("iwasawa.verify_icnf", (iw,), None),
    ("iwasawa.kida_lifted_tower", (iw,), None),
    ("iwasawa.z_power_series", (iw,), None),
    ("iwasawa.layer_orders", (iw,), None),
    ("iwasawa.layer_graph", (iw,), _layer_attrs),
)
# A classmethod, patched on the class itself.
IDEAL_SPAN = "groupring.IdealLattice.from_generators"

# Op kinds and the covjac function each op calls; the benchmark opens
# this span itself around the op.
OP_SPANS = {
    "main": "theorems.verify_main_theorem",
    "duality": "theorems.verify_duality",
    "norm": "theorems.verify_norm_identities",
    "zeta": "zeta.verify_three_term",
    "standard": "iwasawa.verify_icnf",
    "icnf": "iwasawa.verify_icnf",
    "kida": "iwasawa.verify_kida",
}

COVERING_MODULE = (
    "covering.picard_and_jacobian", "covering.quotient_by_norm",
    "covering.dual_module", "covering.norm_kernel", "covering.z_element",
    "covering.sequence_cardinality_check", "covering.rbar_pic_order",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self.op: str | None = None

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int, attrs=None):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if attrs:
            span.attrs.update(attrs)

    def wrap(self, fn, name, attr_fn=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, {"raised": True})
                raise
            tracer.close(idx, attr_fn(args, out) if attr_fn else None)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        for name, namespaces, attr_fn in PATCHES:
            attr = name.rsplit(".", 1)[1]
            for mod in namespaces:
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, attr_fn))
        orig = gr.IdealLattice.__dict__["from_generators"]
        self._saved.append((gr.IdealLattice, "from_generators", orig))
        gr.IdealLattice.from_generators = classmethod(
            self.wrap(orig.__func__, IDEAL_SPAN,
                      lambda args, out: _ideal_attrs(args[1:], out)))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (values only; units are in
    BENCHMARK.json)."""
    selfs = self_times(spans)
    t: dict = {}
    n: dict = {}
    for s, st in zip(spans, selfs):
        t[s.name] = t.get(s.name, 0.0) + st
        n[s.name] = n.get(s.name, 0) + 1

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans if s.name == name), default=0)

    crt = [s.attrs["n"] for s in spans if s.name == "intlinalg.det_crt"]
    return {
        "theorems.main_s": t.get("theorems.verify_main_theorem", 0.0),
        "theorems.duality_s": t.get("theorems.verify_duality", 0.0),
        "theorems.norm_s": t.get("theorems.verify_norm_identities", 0.0),
        "covering.jacobian_calls": n.get("covering.picard_and_jacobian", 0),
        "covering.module_s": sum(t.get(k, 0.0) for k in COVERING_MODULE),
        "covering.derive_s": t.get("covering.derived_graph", 0.0),
        "fitting.present_s": t.get("fitting.present_module", 0.0),
        "fitting.generators": attr_sum("fitting.present_module", "generators"),
        "fitting.relations": attr_sum("fitting.present_module", "relations"),
        "fitting.minors": attr_sum("fitting.fitting_ideal_group_ring", "minors"),
        "groupring.det_s": t.get("groupring.det_group_ring", 0.0),
        "groupring.ideal_s": t.get(IDEAL_SPAN, 0.0),
        "groupring.ideal_rows": attr_sum(IDEAL_SPAN, "rows"),
        "intlinalg.hnf_s": t.get("intlinalg.hermite_row_basis", 0.0),
        "intlinalg.snf_s": t.get("intlinalg.smith_normal_form_full", 0.0),
        "zeta.polynomial_s": t.get("zeta.zeta_polynomial", 0.0),
        "zeta.enum_s": t.get("zeta.primitive_rotation_classes", 0.0),
        "zeta.euler_s": t.get("zeta.euler_product_truncation", 0.0),
        "zeta.dart_s": t.get("zeta.edge_matrix_zeta", 0.0),
        "zeta.rotation_classes": attr_sum("zeta.primitive_rotation_classes", "classes"),
        "zeta.monodromy_pairs": attr_sum("zeta.primitive_rotation_classes", "pairs"),
        "iwasawa.series_s": t.get("iwasawa.z_power_series", 0.0),
        "iwasawa.layers_s": (t.get("iwasawa.layer_orders", 0.0)
                             + t.get("iwasawa.layer_graph", 0.0)),
        "iwasawa.layer_graphs": n.get("iwasawa.layer_graph", 0),
        "iwasawa.max_layer_vertices": attr_max("iwasawa.layer_graph", "vertices"),
        "graphs.tree_count_s": t.get("graphs.spanning_tree_count", 0.0),
        "intlinalg.det_crt_s": t.get("intlinalg.det_crt", 0.0),
        "intlinalg.det_crt_calls": len(crt),
        "intlinalg.det_order_max": max(crt, default=0),
        "intlinalg.det_cube_sum": sum(k**3 for k in crt),
    }


# The order in which verify_main_theorem and verify_duality ask for
# Fitting ideals (see covjac/theorems.py).
FITTING_LABELS = {
    "theorems.verify_main_theorem": ("Fitt_Rbar(M)",),
    "theorems.verify_duality": ("Fitt_Rbar(M)", "Fitt_Rbar(dual M)",
                                "Fitt_Rbar(Jac[N])", "Fitt_R(Jac)",
                                "Fitt_R(dual Jac)"),
}


def _subtree(spans, i) -> range:
    """Indices of span ``i`` and its descendants: spans are stored in the
    order they open, so these are the ones opened before ``i`` closed."""
    k = i + 1
    while k < len(spans) and spans[k].start < spans[i].end:
        k += 1
    return range(i, k)


def explain_fitting(spans, root: int) -> list[dict]:
    """One row per Fitting ideal computed under the op span ``root``:
    its time, presentation size, minor count and determinant time."""
    selfs = self_times(spans)
    fits = [i for i in _subtree(spans, root)
            if spans[i].name == "fitting.module_fitting_ideal"]
    labels = FITTING_LABELS.get(spans[root].name, ())
    rows = []
    for k, i in enumerate(fits):
        sub = _subtree(spans, i)
        row = {
            "ideal": labels[k] if len(labels) == len(fits) else f"#{k}",
            "ring": spans[i].attrs.get("ring"),
            "seconds": spans[i].duration,
            "det_seconds": sum(selfs[j] for j in sub
                               if spans[j].name == "groupring.det_group_ring"),
        }
        for j in sub:
            row.update({key: val for key, val in spans[j].attrs.items()
                        if key in ("generators", "relations", "minors")})
        rows.append(row)
    return rows
