"""Seeded inputs and the fixed batch of operations of each workload.

A workload is built once per run by ``build(name, seed)``; it returns a
list of ``Op`` (one timed call into covjac each) in the order a round
runs them.  Every input comes from ``random.Random`` seeded with a
string that names the workload, the seed and the slot, so one seed
always gives the same inputs.

The costs of covjac's verifiers depend far more on the shape of an input
(number of vertices, edges and loops, deck group) than on its voltages,
so each workload fixes the shapes slot by slot and lets the seed choose
edges and voltages.  That keeps the cost of a round, and of its slowest
op, nearly the same on every seed.  The README lists the make-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from covjac.covering import VoltageGraph, connectivity_criterion
from covjac.graphs import build_graph
from covjac.groupring import FinAbGroup
from covjac.iwasawa import (
    ZpVoltageGraph,
    default_window,
    kida_lifted_tower,
    tower_connectivity,
    verify_icnf,
    verify_kida,
    weierstrass_invariants,
    z_power_series,
)
from covjac.theorems import (
    main_theorem_shifts,
    random_voltage_instance,
    verify_duality,
    verify_main_theorem,
    verify_norm_identities,
)
from covjac.zeta import verify_three_term

WORKLOADS = ("corpus", "zeta", "towers")

CORPUS_GROUPS = ((2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4))
CORPUS_PER_GROUP = 20
# Covers of the C2xC4 slice of the tier-1 seed-7 corpus.  On 2- and
# 3-vertex bases a C2xC4 verification takes from 0.05 s to over 30 s
# depending on how the presentation falls, so drawing such covers at
# random would make a round's time depend on the seed.  The seeded C2xC4
# covers are bouquets, and case 3 (about 2.6 s in verify_duality) is
# verified in every round.  Case 20, the slowest cover of that corpus
# (30-47 s in verify_duality), would leave room for a single round per
# run; the traced run verifies it once, after its rounds, to explain it.
ANCHOR_SEED, ANCHOR_ORDERS = 7, (2, 4)
ANCHOR_CASE, SLOWEST_CASE = 3, 20

ZETA_GROUPS = ((), (2,), (3,), (6,))
ZETA_TRUNCATION = 6
# Base shapes (vertices, edges) of the seeded graphs of each group: those
# with two or more vertices that random_voltage_instance draws.
ZETA_SMALL_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
# Bouquet loop counts per group.  A 4-loop bouquet takes about as long
# as the rest of the round, so only the trivial group gets one.  At
# L = 7 it alone took 13-18 s (141,284 rotation classes), which left
# room for a single round per run.
ZETA_BOUQUETS = {(): (4, 3)}

# (prime, window) as in the tier-1 tower test.
TOWER_WINDOWS = ((2, 6), (3, 4))
TOWER_SHAPES = ((1, 3), (2, 3), (3, 4))  # (vertices, edges) of seeded towers
# Base shapes of the lifted towers, per prime.  At p = 3 a 2-vertex base
# lifts to layers of 486 vertices and one verify_kida takes about 13 s,
# three times the rest of the round, so p = 3 keeps the 1-vertex base.
KIDA_SHAPES = {2: ((1, 3), (2, 3)), 3: ((1, 3),)}


@dataclass
class Op:
    """One timed call: ``run()`` returns the covjac output that
    ``check`` (see checks.py) inspects."""

    op_id: str
    kind: str
    run: Callable[[], object]
    data: dict = field(default_factory=dict)


def _rng(*parts) -> random.Random:
    return random.Random("perfbench:" + ":".join(str(p) for p in parts))


def _random_base_edges(rng, nv, ne):
    """Random spanning tree on ``nv`` vertices plus random extra edges
    (loops and multi-edges allowed) up to ``ne`` edges."""
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    while len(edges) < ne:
        edges.append((rng.randrange(nv), rng.randrange(nv)))
    return edges


# ---------------------------------------------------------------------------
# corpus


def anchor_cover(case: int = ANCHOR_CASE) -> VoltageGraph:
    """Case ``case`` of the C2xC4 slice of ``run_corpus(seed=7)``,
    regenerated with the same sampler and seed string."""
    grp = FinAbGroup(ANCHOR_ORDERS)
    rng = random.Random(f"corpus:{ANCHOR_SEED}:{ANCHOR_ORDERS}")
    for _ in range(case + 1):
        vg = random_voltage_instance(rng, grp)
    return vg


def corpus_shapes(orders) -> list[tuple[int, int]]:
    """(vertices, edges) of the bases random_voltage_instance draws from
    (1-3 vertices, up to 4 edges) on which a cover with this deck group
    can be connected: the base's first Betti number must reach the
    group's rank.  C2xC4 covers are drawn on bouquets of 2 and 3 loops
    only: a 4-loop C2xC4 bouquet takes 0.1 s to 1.2 s in verify_duality
    depending on its voltages, enough to move a round's time by a quarter
    from seed to seed."""
    rank = sum(1 for n in orders if n > 1)
    max_v, max_e = (1, 3) if orders == ANCHOR_ORDERS else (3, 4)
    return [(nv, ne) for nv in range(1, max_v + 1) for ne in range(nv, max_e + 1)
            if ne - nv + 1 >= rank]


def random_cover(rng, grp, nv, ne) -> VoltageGraph:
    """random_voltage_instance on a base of the given shape: random
    edges and voltages, redrawn until the cover is connected."""
    while True:
        edges = _random_base_edges(rng, nv, ne)
        volts = [rng.randrange(grp.size) for _ in range(ne)]
        vg = VoltageGraph(build_graph(nv, edges), grp, volts)
        if connectivity_criterion(vg):
            return vg


def corpus_ops(seed: int) -> list[Op]:
    ops = []
    for orders in CORPUS_GROUPS:
        grp = FinAbGroup(orders)
        shifts = main_theorem_shifts(grp)
        rng = _rng("corpus", seed, orders)
        shapes = corpus_shapes(orders)
        covers = [
            (f"C{'x'.join(map(str, orders))}#{case}",
             random_cover(rng, grp, *shapes[case % len(shapes)]))
            for case in range(CORPUS_PER_GROUP)
        ]
        if orders == ANCHOR_ORDERS:
            covers.append((f"anchor:seed{ANCHOR_SEED}:C2x4#{ANCHOR_CASE}",
                           anchor_cover()))
        for label, vg in covers:
            ops += _cover_ops(label, vg, shifts)
    return ops


def _cover_ops(label, vg, shifts):
    data = {"cover": vg}
    return [
        Op(f"{label}/main", "main",
           lambda: verify_main_theorem(vg, shifts), data),
        Op(f"{label}/duality", "duality", lambda: verify_duality(vg), data),
        Op(f"{label}/norm", "norm", lambda: verify_norm_identities(vg), data),
    ]


# ---------------------------------------------------------------------------
# zeta


def zeta_ops(seed: int) -> list[Op]:
    ops = []
    for orders in ZETA_GROUPS:
        grp = FinAbGroup(orders)
        graphs = []
        for loops in ZETA_BOUQUETS.get(orders, (3,)):
            rng = _rng("zeta", seed, orders, "bouquet", loops)
            volts = [rng.randrange(grp.size) for _ in range(loops)]
            graphs.append((f"bouquet{loops}",
                           VoltageGraph(build_graph(1, [(0, 0)] * loops), grp, volts)))
        rng = _rng("zeta", seed, orders, "small")
        graphs += [(f"small:v{nv}e{ne}", random_cover(rng, grp, nv, ne))
                   for nv, ne in ZETA_SMALL_SHAPES]
        name = "C" + ("x".join(map(str, orders)) or "1")
        for label, vg in graphs:
            ops.append(Op(f"{name}:{label}", "zeta",
                          lambda vg=vg: verify_three_term(vg, L=ZETA_TRUNCATION),
                          {"cover": vg}))
    return ops


# ---------------------------------------------------------------------------
# towers


def standard_tower(p: int) -> ZpVoltageGraph:
    """The two-loop bouquet with voltages (1, 0): (lambda, mu, nu) = (1, 0, 0)."""
    return ZpVoltageGraph(build_graph(1, [(0, 0), (0, 0)]), p, (1, 0))


def window_reaches_formula(zvg: ZpVoltageGraph, window: int) -> bool:
    """True when the growth formula is in force on the last three of
    layers 0..window, so the layer fit can succeed.  Layer n follows the
    formula once p^(n-1)(p-1) exceeds lambda, with lambda read from the
    determinant series; a shorter window makes verify_icnf report an
    unstable fit on a valid tower."""
    p = zvg.prime
    lam = weierstrass_invariants(z_power_series(zvg).divided_by_variable())[1]
    return p ** (window - 2) * (p - 1) > lam


def random_tower(rng, p, nv, ne, window=None, kida_order=None) -> ZpVoltageGraph:
    """Connected tower on a random base of the given shape; integer
    voltages in [-p^2, p^2], redrawn until the fit window suffices.  With
    ``kida_order`` a finite cyclic layer of that order is attached; the
    lifted tower must be connected too, and both towers use
    verify_kida's default windows."""
    grp = FinAbGroup((kida_order,)) if kida_order else None
    while True:
        edges = _random_base_edges(rng, nv, ne)
        volts = [rng.randrange(-p * p, p * p + 1) for _ in range(ne)]
        kvolts = [rng.randrange(kida_order) for _ in range(ne)] if grp else None
        zvg = ZpVoltageGraph(build_graph(nv, edges), p, volts, grp, kvolts)
        if not tower_connectivity(zvg):
            continue
        if grp is None:
            if window_reaches_formula(zvg, window):
                return zvg
            continue
        base = zvg.without_finite_layer()
        lifted = kida_lifted_tower(zvg)
        if (tower_connectivity(lifted)
                and window_reaches_formula(base, default_window(base))
                and window_reaches_formula(lifted, default_window(lifted))):
            return zvg


def towers_ops(seed: int) -> list[Op]:
    ops = []
    for p, window in TOWER_WINDOWS:
        towers = [("standard", standard_tower(p))]
        for nv, ne in TOWER_SHAPES:
            towers.append((f"icnf:v{nv}e{ne}",
                           random_tower(_rng("towers", seed, p, nv, ne), p, nv, ne,
                                        window)))
        for label, zvg in towers:
            ops.append(Op(f"p{p}:{label}", label.split(":")[0],
                          lambda z=zvg, w=window: verify_icnf(z, w),
                          {"tower": zvg, "window": window}))
    for p, _ in TOWER_WINDOWS:
        for nv, ne in KIDA_SHAPES[p]:
            zvg = random_tower(_rng("kida", seed, p, nv, ne), p, nv, ne,
                               kida_order=p)
            ops.append(Op(f"p{p}:kida:v{nv}e{ne}", "kida",
                          lambda z=zvg: verify_kida(z), {"tower": zvg}))
    return ops


BUILDERS = {"corpus": corpus_ops, "zeta": zeta_ops, "towers": towers_ops}


def build(name: str, seed: int) -> list[Op]:
    return BUILDERS[name](seed)


def traced_extra(name: str) -> list[Op]:
    """Ops the traced run adds once, after its rounds, to explain them: on
    corpus, verify_duality on case 20 of the tier-1 seed-7 C2xC4 slice,
    the same on every seed."""
    if name != "corpus":
        return []
    vg = anchor_cover(SLOWEST_CASE)
    return [Op(f"tier1:seed{ANCHOR_SEED}:C2x4#{SLOWEST_CASE}/duality", "duality",
               lambda: verify_duality(vg), {"cover": vg})]
