"""Independent checks of every op's output.

Reference values are computed here from the input's JSON form, with the
benchmark's own derived graphs and Laplacians, sympy's Smith normal form
and a fraction-free determinant written here, so no check reuses the
covjac routine it judges.  ``Checker.check(op, output)`` returns None for
a correct output and a one-line reason otherwise.  References depend
only on the input, so each is computed once and cached.
"""

from __future__ import annotations

import math

import sympy
from sympy.matrices.normalforms import smith_normal_form

# Tower layers up to this many vertices get an independent tree count.
SMALL_LAYER_VERTICES = 64


def derived_laplacian(nv, edges, orders, volts):
    """Laplacian of the derived graph of a base with ``nv`` vertices and
    edges (u, w) carrying voltages in the product of cyclic groups of the
    given orders.  Vertex (g, v) sits at index g * nv + v, with g the
    mixed-radix index of the exponent tuple; the edge (u, w) with voltage
    a joins (g, u) to (g + a, w).  Loops of the derived graph add nothing."""
    elements = [()]
    for n in orders:
        elements = [e + (k,) for e in elements for k in range(n)]
    index = {e: i for i, e in enumerate(elements)}
    size = len(elements) * nv
    lap = [[0] * size for _ in range(size)]
    for (u, w), a in zip(edges, volts):
        for g, e in enumerate(elements):
            h = index[tuple((x + y) % n for x, y, n in zip(e, a, orders))]
            s, t = g * nv + u, h * nv + w
            if s != t:
                lap[s][s] += 1
                lap[t][t] += 1
                lap[s][t] -= 1
                lap[t][s] -= 1
    return lap


def reduced_det(lap) -> int:
    """Determinant of the Laplacian with its first row and column
    removed (the spanning tree count), by fraction-free elimination."""
    m = [row[1:] for row in lap[1:]]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * (m[n - 1][n - 1] if n else 1)


def invariant_factors(lap) -> list[int]:
    snf = smith_normal_form(sympy.Matrix(lap), domain=sympy.ZZ)
    diag = sorted(abs(int(snf[i, i])) for i in range(len(lap)))
    return [d for d in diag if d > 1]


def val_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _edges(graph_json):
    return [(e["u"], e["v"]) for e in graph_json["edges"]]


def _has_prime_order(orders) -> bool:
    n = math.prod(orders)
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


class Checker:
    def __init__(self):
        self._refs: dict = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, op, out) -> str | None:
        return getattr(self, "_check_" + op.kind)(op, out)

    # -- corpus -------------------------------------------------------------

    def _cover_ref(self, vg):
        data = vg.to_json()
        key = repr(data)

        def compute():
            g = data["graph"]
            edges = _edges(g)
            orders = tuple(data["group"]["orders"])
            lap = derived_laplacian(g["vertices"], edges, orders,
                                    [tuple(v) for v in data["voltages"]])
            base = derived_laplacian(g["vertices"], edges, (), [()] * len(edges))
            factors = invariant_factors(lap)
            order = reduced_det(lap)
            if math.prod(factors) != order:
                raise ArithmeticError("sympy SNF and the tree count disagree")
            return {"factors": factors, "order": order,
                    "base_order": reduced_det(base), "orders": orders}

        return self._ref(key, compute)

    def _check_main(self, op, rep):
        ref = self._cover_ref(op.data["cover"])
        if rep.details["jacobian"] != ref["factors"]:
            return "Jacobian invariant factors differ from the sympy SNF"
        if not rep.passed:
            return "main identity failed"
        return None

    def _check_duality(self, op, rep):
        ref = self._cover_ref(op.data["cover"])
        d = rep.details
        if d["jacobian"] != ref["factors"]:
            return "Jacobian invariant factors differ from the sympy SNF"
        for flag in ("kernel_fitting_matches", "full_ring_fitting_matches",
                     "invariant_factors_match"):
            if d[flag] is not True:
                return f"{flag} is false"
        # Fitt(dual(M)) = iota Fitt(M) is a theorem only for prime order;
        # elsewhere a false value is the documented false claim.
        if not d["quotient_fitting_matches"] and _has_prime_order(ref["orders"]):
            return "strict quotient duality failed on a group of prime order"
        return None

    def _check_norm(self, op, rep):
        ref = self._cover_ref(op.data["cover"])
        d = rep.details
        if d["jac_cover"] != ref["order"]:
            return "jac_cover differs from the tree count"
        if d["jac_base"] != ref["base_order"]:
            return "jac_base differs from the tree count"
        if not rep.passed:
            return "norm identities failed"
        return None

    # -- zeta ---------------------------------------------------------------

    def _zeta_ref(self, vg):
        data = vg.to_json()["graph"]
        key = repr(data)

        def compute():
            n = data["vertices"]
            a = [[0] * n for _ in range(n)]
            for u, w in _edges(data):
                a[u][w] += 1
                a[w][u] += 1
            u = sympy.Symbol("u")
            m = sympy.Matrix(n, n, lambda i, j: (
                (1 if i == j else 0) - a[i][j] * u
                + ((sum(a[i]) - 1) * u**2 if i == j else 0)))
            coeffs = sympy.Poly(sympy.expand(m.det(method="berkowitz")), u).all_coeffs()
            return [int(c) for c in reversed(coeffs)]

        return self._ref(key, compute)

    def _check_zeta(self, op, rep):
        for flag in ("three_term", "euler_vs_dart", "dart_vs_polynomial", "passed"):
            if rep[flag] is not True:
                return f"{flag} is false"
        aug = [sum(c) for c in rep["z_polynomial"]["coeffs"]]
        while aug and aug[-1] == 0:
            aug.pop()
        if aug != self._zeta_ref(op.data["cover"]):
            return "augmented zeta polynomial differs from det(I - Au + (D - I)u^2)"
        return None

    # -- towers -------------------------------------------------------------

    def _layer_vals(self, tower_json, n_layers):
        """val_p of the tree counts of the layers with at most
        SMALL_LAYER_VERTICES vertices, lifted layers included."""
        key = (repr(tower_json), n_layers)

        def compute():
            g = tower_json["graph"]
            p = tower_json["prime"]
            edges = _edges(g)
            kida = tower_json.get("kida")
            korders = tuple(kida["orders"]) if kida else ()
            kvolts = [tuple(v) for v in kida["voltages"]] if kida else [()] * len(edges)
            out = []
            for n in range(n_layers):
                q = p**n
                if q * math.prod(korders) * g["vertices"] > SMALL_LAYER_VERTICES:
                    break
                volts = [kv + (a % q,) for kv, a in zip(kvolts, tower_json["voltages"])]
                lap = derived_laplacian(g["vertices"], edges, korders + (q,), volts)
                out.append(val_p(reduced_det(lap), p))
            return out

        return self._ref(key, compute)

    def _icnf_problem(self, rep, tower_json):
        if not rep["passed"]:
            return f"tower report failed: {rep['note']}"
        fit, w = rep["fitted"], rep["weierstrass"]
        if (fit["lambda"], fit["mu"]) != (w["lambda"], w["mu"]):
            return "fit differs from the Weierstrass invariants"
        vals = rep["layer_valuations"]
        ref = self._layer_vals(tower_json, len(vals))
        if vals[: len(ref)] != ref:
            return "layer valuations differ from independent tree counts"
        return None

    def _check_icnf(self, op, rep):
        return self._icnf_problem(rep.to_json(), op.data["tower"].to_json())

    def _check_standard(self, op, rep):
        problem = self._check_icnf(op, rep)
        if problem is None and (rep.fitted["lambda"], rep.fitted["mu"],
                                rep.fitted["nu"]) != (1, 0, 0):
            return "standard tower does not give (lambda, mu, nu) = (1, 0, 0)"
        return problem

    def _check_kida(self, op, d):
        tower = op.data["tower"].to_json()
        base = dict(tower)
        del base["kida"]
        problem = (self._icnf_problem(d["base"], base)
                   or self._icnf_problem(d["lifted"], tower))
        if problem:
            return problem
        mu, mu_t = d["base"]["fitted"]["mu"], d["lifted"]["fitted"]["mu"]
        if (mu == 0) != (mu_t == 0) or d["mu_equivalence"] is not True:
            return "mu vanishes on one tower only"
        if mu == 0:
            lam, lam_t = d["base"]["fitted"]["lambda"], d["lifted"]["fitted"]["lambda"]
            size = math.prod(tower["kida"]["orders"])
            if lam_t + 1 != size * (lam + 1) or d["lambda_relation"] is not True:
                return "Kida relation fails"
        if not d["passed"]:
            return "lifted tower report failed"
        return None
