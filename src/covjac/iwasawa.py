"""Towers of p-power cyclic covers driven by integer edge voltages.

An integer voltage a_e on each edge determines a compatible family of
cyclic covers: layer n is the derived graph over Z/p^n with voltages
reduced mod p^n.  The tower is connected exactly when some cycle voltage
is a p-adic unit.  Layer Jacobian orders grow like lambda*n + mu*p^n +
nu once stabilized; the same invariants fall out of the Weierstrass
data of the twisted Laplacian determinant as a polynomial in T, where
the tower generator acts as 1 + T.  Both routes are computed exactly
and compared; the series route is the authority.

Kida mode attaches an extra finite abelian p-group with its own
voltages.  The lifted tower lives on the derived graph of that finite
cover, each derived dart inheriting the integer voltage of the dart
under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .covering import (
    VoltageGraph,
    derived_graph,
    spanning_tree_potentials,
)
from .errors import DisconnectedGraphError, ResourceLimitError
from .fitting import Poly, det_generic
from .graphs import (
    Graph,
    graph_from_json,
    graph_to_json,
    is_connected,
    spanning_tree_count,
)
from .groupring import FinAbGroup
from .intlinalg import is_prime

VERTEX_CAP = 600


def val_p(n: int, p: int) -> int:
    """p-adic valuation; None stands in for infinity at 0."""
    if n == 0:
        return None
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class ZpVoltageGraph:
    """Base graph with one integer voltage per edge, a prime, and an
    optional finite abelian p-group layer for lifted towers."""

    __slots__ = ("base", "prime", "voltages", "kida_group", "kida_voltages")

    def __init__(self, base: Graph, prime: int, voltages,
                 kida_group: FinAbGroup | None = None, kida_voltages=None):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        voltages = tuple(int(a) for a in voltages)
        if len(voltages) != base.edge_count:
            raise ValueError("need one integer voltage per edge")
        if (kida_group is None) != (kida_voltages is None):
            raise ValueError("finite layer needs both a group and voltages")
        if kida_voltages is not None:
            kida_voltages = tuple(int(g) for g in kida_voltages)
            if len(kida_voltages) != base.edge_count:
                raise ValueError("need one group voltage per edge")
            for g in kida_voltages:
                if not 0 <= g < kida_group.size:
                    raise ValueError("group voltage out of range")
        self.base = base
        self.prime = prime
        self.voltages = voltages
        self.kida_group = kida_group
        self.kida_voltages = kida_voltages

    def dart_voltage(self, dart_id: int) -> int:
        edge_idx, canonical = self.base.edge_of_dart(dart_id)
        a = self.voltages[edge_idx]
        return a if canonical else -a

    def without_finite_layer(self) -> "ZpVoltageGraph":
        return ZpVoltageGraph(self.base, self.prime, self.voltages)

    def to_json(self) -> dict:
        out = {
            "graph": graph_to_json(self.base),
            "prime": self.prime,
            "voltages": list(self.voltages),
        }
        if self.kida_group is not None:
            out["kida"] = {
                "orders": list(self.kida_group.orders),
                "voltages": [
                    list(self.kida_group.exps(g)) for g in self.kida_voltages
                ],
            }
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ZpVoltageGraph":
        try:
            base = graph_from_json(data["graph"])
            prime = int(data["prime"])
            voltages = [int(a) for a in data["voltages"]]
            kida_group = None
            kida_voltages = None
            if "kida" in data:
                kida_group = FinAbGroup(tuple(int(n) for n in data["kida"]["orders"]))
                kida_voltages = [
                    kida_group.index(tuple(int(e) for e in exps))
                    for exps in data["kida"]["voltages"]
                ]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed tower description: {exc}") from exc
        return cls(base, prime, voltages, kida_group, kida_voltages)


def tower_cycle_voltages(zvg: ZpVoltageGraph) -> list[int]:
    """Integer voltages of a fundamental cycle basis: spanning-tree
    potential difference plus the non-tree dart voltage."""
    base = zvg.base
    order, parent_dart, non_tree = spanning_tree_potentials(base)
    beta = [0] * base.vertex_count
    for v in order[1:]:
        d = base.darts[parent_dart[v]]
        beta[v] = beta[d.src] + zvg.dart_voltage(d.id)

    out = []
    for eidx in non_tree:
        did = base.edges()[eidx]
        d = base.darts[did]
        out.append(beta[d.src] + zvg.dart_voltage(did) - beta[d.dst])
    return out


def tower_connectivity(zvg: ZpVoltageGraph) -> bool:
    """Every layer of the tower is connected exactly when the base is
    connected and some cycle voltage is a unit at p."""
    if not is_connected(zvg.base):
        return False
    for c in tower_cycle_voltages(zvg):
        if c % zvg.prime:
            return True
    return False


def layer_graph(zvg: ZpVoltageGraph, n: int) -> VoltageGraph:
    """Layer n as a voltage graph over Z/p^n (n = 0 gives the base on a
    trivial group).  In Kida mode the group is the product of the finite
    layer with Z/p^n and voltages pair up componentwise."""
    if n < 0:
        raise ValueError("layer index must be nonnegative")
    q = zvg.prime**n
    if zvg.kida_group is None:
        grp = FinAbGroup((q,))
        volts = tuple(a % q for a in zvg.voltages)
        return VoltageGraph(zvg.base, grp, volts)
    grp = FinAbGroup(zvg.kida_group.orders + (q,))
    volts = []
    for g, a in zip(zvg.kida_voltages, zvg.voltages):
        volts.append(grp.index(zvg.kida_group.exps(g) + (a % q,)))
    return VoltageGraph(zvg.base, grp, tuple(volts))


def layer_orders(zvg: ZpVoltageGraph, n_max: int,
                 vertex_cap: int = VERTEX_CAP):
    """p-adic valuations of the layer Jacobian orders for n = 0..n_max.

    Layers whose derived graph would exceed the vertex cap are skipped;
    the returned flag records the truncation.  Orders are spanning tree
    counts of the derived graphs, computed exactly.
    """
    if not tower_connectivity(zvg):
        raise DisconnectedGraphError("tower fails the unit cycle voltage test")
    mult = zvg.kida_group.size if zvg.kida_group is not None else 1
    vals = []
    truncated = False
    for n in range(n_max + 1):
        if zvg.prime**n * mult * zvg.base.vertex_count > vertex_cap:
            truncated = True
            break
        cover = derived_graph(layer_graph(zvg, n))
        order = spanning_tree_count(cover.graph)
        if order == 0:
            raise DisconnectedGraphError(f"layer {n} is disconnected")
        vals.append(val_p(order, zvg.prime))
    return vals, truncated


# ---------------------------------------------------------------------------
# The series route


@dataclass(frozen=True)
class PadicPolynomial:
    """Integer polynomial read at a prime, carried together with the
    power of the unit 1 + T that was factored out while clearing
    denominators."""

    prime: int
    coeffs: tuple
    unit_shift: int

    def __post_init__(self):
        if self.unit_shift < 0:
            raise ValueError("unit shift must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def divided_by_variable(self) -> "PadicPolynomial":
        if not self.coeffs or self.coeffs[0] != 0:
            raise ArithmeticError("constant term nonzero, division refused")
        return PadicPolynomial(self.prime, self.coeffs[1:], self.unit_shift)

    def times_one_plus_variable(self) -> "PadicPolynomial":
        c = list(self.coeffs) + [0]
        for k in range(len(c) - 1, 0, -1):
            c[k] += c[k - 1]
        return PadicPolynomial(self.prime, tuple(c), self.unit_shift)

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "coeffs": list(self.coeffs),
            "unit_shift": self.unit_shift,
        }


def _one_plus_T_power(k: int) -> Poly:
    return Poly(1, {(j,): comb(k, j) for j in range(k + 1)})


def z_power_series(zvg: ZpVoltageGraph) -> PadicPolynomial:
    """Determinant of the tower Laplacian with the generator sent to
    1 + T.  Rows are scaled by powers of the unit 1 + T to clear the
    negative exponents coming from reversed darts; the total power
    removed is recorded as the unit shift.  The result annihilates at
    T = 0, which is asserted."""
    if not tower_connectivity(zvg):
        raise DisconnectedGraphError("tower fails the unit cycle voltage test")
    base = zvg.base
    nv = base.vertex_count
    rows = []
    unit_shift = 0
    for v in range(nv):
        exps = [[] for _ in range(nv)]
        for did in base.out_darts(v):
            d = base.darts[did]
            exps[d.dst].append(zvg.dart_voltage(did))
        m = min([0] + [a for lst in exps for a in lst])
        unit_shift += -m
        row = []
        for w in range(nv):
            acc = Poly(1)
            if v == w:
                acc = acc + _one_plus_T_power(-m) * base.degree(v)
            for a in exps[w]:
                acc = acc - _one_plus_T_power(a - m)
            row.append(acc)
        rows.append(row)
    det = det_generic(rows, Poly(1), Poly.const(1, 1))
    if not det:
        raise ArithmeticError("tower determinant vanished")
    top = max(e[0] for e in det.terms)
    coeffs = [det.terms.get((k,), 0) for k in range(top + 1)]
    if coeffs[0] != 0:
        raise ArithmeticError("tower determinant must vanish at the origin")
    return PadicPolynomial(zvg.prime, tuple(coeffs), unit_shift)


def weierstrass_invariants(f: PadicPolynomial):
    """(mu, lambda): the least coefficient valuation and the first index
    attaining it."""
    if f.is_zero:
        raise ValueError("zero polynomial has no Weierstrass data")
    best = None
    best_idx = None
    for i, c in enumerate(f.coeffs):
        v = val_p(c, f.prime)
        if v is None:
            continue
        if best is None or v < best:
            best = v
            best_idx = i
    return best, best_idx


# ---------------------------------------------------------------------------
# Layer-count fit


def iwasawa_fit(orders, p: int):
    """Exact (lambda, mu, nu, n0) from a window of layer valuations.

    The tail second difference isolates mu through its p^n scale, the
    tail first difference then gives lambda, the last point gives nu.
    n0 is the least index from which the formula holds through the whole
    window; the fit is declared unstable when that index comes later
    than window length minus three or when the extracted invariants are
    not nonnegative integers.
    """
    orders = list(orders)
    L = len(orders)
    if L < 4:
        raise ValueError("need at least four layers to fit")
    k = L - 3
    d2 = orders[k + 2] - 2 * orders[k + 1] + orders[k]
    scale = p**k * (p - 1) ** 2
    if d2 < 0 or d2 % scale:
        raise ArithmeticError("unstable window: second difference off-scale")
    mu = d2 // scale
    lam = (orders[L - 1] - orders[L - 2]) - mu * p ** (L - 2) * (p - 1)
    if lam < 0:
        raise ArithmeticError("unstable window: negative linear slope")
    nu = orders[L - 1] - lam * (L - 1) - mu * p ** (L - 1)
    n0 = None
    for n in range(L - 1, -1, -1):
        if orders[n] == lam * n + mu * p**n + nu:
            n0 = n
        else:
            break
    if n0 is None or n0 > L - 3:
        raise ArithmeticError("unstable window: no stabilization index")
    return lam, mu, nu, n0


@dataclass
class IwasawaReport:
    claim: str
    prime: int
    instance: dict
    layer_valuations: list
    truncated: bool
    fitted: dict | None
    weierstrass: dict
    z_series: dict
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "prime": self.prime,
            "instance": self.instance,
            "layer_valuations": self.layer_valuations,
            "truncated": self.truncated,
            "fitted": self.fitted,
            "weierstrass": self.weierstrass,
            "z_series": self.z_series,
            "passed": self.passed,
            "note": self.note,
        }


def verify_icnf(zvg: ZpVoltageGraph, n_max: int,
                vertex_cap: int = VERTEX_CAP) -> IwasawaReport:
    """Compare the layer-count fit against the Weierstrass invariants of
    the determinant series divided by T.  The series is the authority; a
    mismatch fails the report outright.  Fit instability is reported,
    not raised; a window of fewer than four layers (0..n_max) is
    rejected as bad input, and one that the vertex cap cuts below four
    layers as a resource limit."""
    if n_max < 3:
        raise ValueError("need at least four layers to fit: n_max must be at least 3")
    if zvg.prime**3 * zvg.base.vertex_count > vertex_cap:
        raise ResourceLimitError(
            f"vertex cap {vertex_cap} leaves fewer than four layers: layer 3 "
            f"would have {zvg.prime**3 * zvg.base.vertex_count} vertices"
        )
    if zvg.kida_group is not None:
        zvg = zvg.without_finite_layer()
    series = z_power_series(zvg)
    mu_w, lam_w = weierstrass_invariants(series.divided_by_variable())
    vals, truncated = layer_orders(zvg, n_max, vertex_cap)
    fitted = None
    note = ""
    passed = False
    try:
        lam, mu, nu, n0 = iwasawa_fit(vals, zvg.prime)
    except ArithmeticError as exc:
        note = str(exc)
    except ValueError as exc:
        note = str(exc)
    else:
        fitted = {"lambda": lam, "mu": mu, "nu": nu, "n0": n0}
        formula_ok = all(
            vals[n] == lam * n + mu * zvg.prime**n + nu
            for n in range(n0, len(vals))
        )
        passed = lam == lam_w and mu == mu_w and formula_ok
        if not passed:
            note = "fit disagrees with series invariants"
    return IwasawaReport(
        claim="tower-class-number-formula",
        prime=zvg.prime,
        instance=zvg.to_json(),
        layer_valuations=vals,
        truncated=truncated,
        fitted=fitted,
        weierstrass={"mu": mu_w, "lambda": lam_w},
        z_series=series.to_json(),
        passed=passed,
        note=note,
    )


# ---------------------------------------------------------------------------
# Lifted towers


def _is_p_group(group: FinAbGroup, p: int) -> bool:
    for n in group.orders:
        while n % p == 0:
            n //= p
        if n != 1:
            return False
    return True


def kida_lifted_tower(zvg: ZpVoltageGraph) -> ZpVoltageGraph:
    """The tower on the derived graph of the finite layer.  Each derived
    dart inherits the integer voltage of the dart it covers; edge
    voltages are read off the canonical darts."""
    if zvg.kida_group is None:
        raise ValueError("no finite layer attached")
    finite = VoltageGraph(zvg.base, zvg.kida_group, zvg.kida_voltages)
    cover = derived_graph(finite)
    nd = len(zvg.base.darts)
    volts = []
    for did in cover.graph.edges():
        volts.append(zvg.dart_voltage(did % nd))
    return ZpVoltageGraph(cover.graph, zvg.prime, volts)


def default_window(zvg: ZpVoltageGraph, vertex_cap: int = VERTEX_CAP) -> int:
    """Largest n with p^n times the (lifted) vertex count within the
    cap, further capped by the prime-specific depth."""
    mult = zvg.kida_group.size if zvg.kida_group is not None else 1
    depth = {2: 6, 3: 4}.get(zvg.prime, 3)
    n = 0
    while (
        n < depth
        and zvg.prime ** (n + 1) * mult * zvg.base.vertex_count <= vertex_cap
    ):
        n += 1
    return n


def _checked_window(zvg: ZpVoltageGraph, vertex_cap: int) -> int:
    """The default window, refused when its last three layers cannot yet
    follow the growth formula: that needs p^(n-2)(p-1) > lambda, with
    lambda read from the series before any layer is built."""
    n = default_window(zvg, vertex_cap)
    p = zvg.prime
    _, lam = weierstrass_invariants(z_power_series(zvg).divided_by_variable())
    need = 3
    while p ** (need - 2) * (p - 1) <= lam:
        need += 1
    if n < need:
        raise ValueError(
            f"lambda = {lam} needs layers up to n = {need}; the default window "
            f"stops at n = {n} (vertex cap {vertex_cap})"
        )
    return n


def verify_kida(zvg: ZpVoltageGraph, n_max: int | None = None,
                vertex_cap: int = VERTEX_CAP) -> dict:
    """Run both towers and compare invariants: mu vanishes together on
    both sides, and when it vanishes the lifted lambda satisfies
    lifted + 1 = group order times (base + 1).  With nonzero mu only the
    equivalence is asserted."""
    if zvg.kida_group is None:
        raise ValueError("no finite layer attached")
    if not _is_p_group(zvg.kida_group, zvg.prime):
        raise ValueError("finite layer must be a p-group for the lifted tower")
    lifted = kida_lifted_tower(zvg)
    base_n = n_max if n_max is not None else _checked_window(
        zvg.without_finite_layer(), vertex_cap)
    lift_n = n_max if n_max is not None else _checked_window(lifted, vertex_cap)
    base_rep = verify_icnf(zvg.without_finite_layer(), base_n, vertex_cap)
    lift_rep = verify_icnf(lifted, lift_n, vertex_cap)
    details = {
        "claim": "lifted-tower-lambda-relation",
        "prime": zvg.prime,
        "group_orders": list(zvg.kida_group.orders),
        "base": base_rep.to_json(),
        "lifted": lift_rep.to_json(),
    }
    if not (base_rep.passed and lift_rep.passed):
        details["passed"] = False
        details["note"] = "a tower report failed"
        return details
    mu = base_rep.fitted["mu"]
    mu_t = lift_rep.fitted["mu"]
    mu_equiv = (mu == 0) == (mu_t == 0)
    details["mu_equivalence"] = mu_equiv
    if mu == 0:
        lam = base_rep.fitted["lambda"]
        lam_t = lift_rep.fitted["lambda"]
        lam_ok = lam_t + 1 == zvg.kida_group.size * (lam + 1)
        details["lambda_relation"] = lam_ok
        details["passed"] = mu_equiv and lam_ok
    else:
        details["lambda_relation"] = None
        details["passed"] = mu_equiv
        details["note"] = "nonzero mu: only the vanishing equivalence checked"
    return details
