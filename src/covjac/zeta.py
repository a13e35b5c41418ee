"""Equivariant Ihara zeta functions for voltage graphs.

Three independent computations meet here.  The closed-path side is an
Euler product over rotation classes of primitive closed non-backtracking
tailless paths, each weighted by its voltage monodromy.  The operator
side is a determinant over the group ring: the small three-term
polynomial in u built from the twisted adjacency and the degrees, and
the dart-adjacency determinant det(1 - uB) as a second oracle.  All
comparisons happen modulo u^(L+1) with exact integer coefficients.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import ResourceLimitError, RingMismatchError
from .fitting import det_generic
from .groupring import (
    R,
    GroupRingElement,
    group_element,
    one,
    zero,
)

MAX_TRUNCATION = 12
ENUM_NODE_BUDGET = 5_000_000


class GroupRingPoly:
    """Polynomial in one variable with group ring coefficients."""

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.group = group
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_scalars(cls, group, scalars, ring=R):
        return cls(
            group, ring,
            [GroupRingElement(group, [c] + [0] * (group.size - 1), ring)
             for c in scalars],
        )

    @classmethod
    def zero(cls, group, ring=R):
        return cls(group, ring, [])

    @classmethod
    def one(cls, group, ring=R):
        return cls(group, ring, [one(group, ring)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> GroupRingElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return zero(self.group, self.ring)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupRingPoly):
            return NotImplemented
        return (
            self.group == other.group
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, self.ring, self.coeffs))

    def _compat(self, other):
        if self.group != other.group or self.ring != other.ring:
            raise RingMismatchError("polynomial operands disagree")

    def __add__(self, other):
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return GroupRingPoly(
            self.group, self.ring,
            [self.coefficient(k) + other.coefficient(k) for k in range(n)],
        )

    def __sub__(self, other):
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return GroupRingPoly(
            self.group, self.ring,
            [self.coefficient(k) - other.coefficient(k) for k in range(n)],
        )

    def __neg__(self):
        return GroupRingPoly(self.group, self.ring, [-c for c in self.coeffs])

    def mul(self, other, trunc: int | None = None) -> "GroupRingPoly":
        self._compat(other)
        if not self.coeffs or not other.coeffs:
            return GroupRingPoly.zero(self.group, self.ring)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if trunc is not None:
            n = min(n, trunc + 1)
        out = [zero(self.group, self.ring) for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return GroupRingPoly(self.group, self.ring, out)

    def __mul__(self, other):
        return self.mul(other)

    def truncate(self, L: int) -> "GroupRingPoly":
        return GroupRingPoly(self.group, self.ring, self.coeffs[: L + 1])

    def evaluate_at_one(self) -> GroupRingElement:
        out = zero(self.group, self.ring)
        for c in self.coeffs:
            out = out + c
        return out

    def involution(self) -> "GroupRingPoly":
        return GroupRingPoly(
            self.group, self.ring, [c.involution() for c in self.coeffs]
        )

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "orders": list(self.group.orders),
            "coeffs": [list(c.coeffs) for c in self.coeffs],
        }

    def __repr__(self):
        return f"GroupRingPoly(degree={self.degree}, ring={self.ring})"


def _one_minus_u_squared(group, power: int) -> GroupRingPoly:
    out = GroupRingPoly.one(group)
    if power:
        base = GroupRingPoly.from_scalars(group, [1, 0, -1])
        for _ in range(power):
            out = out * base
    return out


def zeta_polynomial(vg) -> GroupRingPoly:
    """The three-term determinant polynomial det(1 - Au + (D-1)u^2)
    over the group ring, with A the voltage-twisted adjacency and D the
    degree diagonal.  Its value at u = 1 is the twisted Laplacian
    determinant, asserted here."""
    from .covering import z_element

    if not vg.is_abelian:
        raise RingMismatchError("zeta needs a product-of-cycles group")
    base = vg.base
    grp = vg.group
    n = base.vertex_count
    rows = []
    for v in range(n):
        adj = [[0] * grp.size for _ in range(n)]
        for did in base.out_darts(v):
            d = base.darts[did]
            adj[d.dst][vg.dart_voltage(did)] += 1
        row = []
        for w in range(n):
            c0 = [0] * grp.size
            c1 = [-x for x in adj[w]]
            c2 = [0] * grp.size
            if v == w:
                c0[grp.identity] = 1
                c2[grp.identity] = base.degree(v) - 1
            row.append(
                GroupRingPoly(
                    grp, R,
                    [
                        GroupRingElement(grp, c0, R),
                        GroupRingElement(grp, c1, R),
                        GroupRingElement(grp, c2, R),
                    ],
                )
            )
        rows.append(row)
    det = det_generic(rows, GroupRingPoly.zero(grp), GroupRingPoly.one(grp))
    if det.evaluate_at_one() != z_element(vg):
        raise ArithmeticError("zeta polynomial must evaluate to the determinant")
    return det


# ---------------------------------------------------------------------------
# Closed-path enumeration


def _lyndon_closed_paths(vg, L: int):
    """Yield (darts, monodromy) for each Lyndon word of length at most L
    that is a closed non-backtracking tailless dart sequence.

    A depth-first search over non-backtracking paths that keeps only
    prenecklaces (Duval 1983; Fredricksen-Kessler-Maiorana): a prefix of
    period p is extended only by darts at least seq[n - p], and the
    period becomes the new length when the dart is strictly larger.  A
    prefix is a Lyndon word exactly when its period is its length.  The
    voltage product is carried along the search.
    """
    if L < 1:
        return
    base = vg.base
    darts = base.darts
    mul = vg.group.mul
    volt = [vg.dart_voltage(did) for did in range(len(darts))]
    # continuations of each dart, reversed so the stack pops them in order
    follow = [
        tuple(reversed([f for f in base.out_darts(d.dst) if f != d.partner]))
        for d in darts
    ]
    budget = ENUM_NODE_BUDGET
    seq = []
    for start in range(len(darts)):
        head = darts[start].src
        # pending prefixes as (length, last dart, period, monodromy)
        stack = [(1, start, 1, volt[start])]
        while stack:
            n, did, p, g = stack.pop()
            budget -= 1
            if budget < 0:
                raise ResourceLimitError("closed path enumeration budget exhausted")
            del seq[n - 1:]
            seq.append(did)
            last = darts[did]
            if p == n and last.dst == head and last.partner != start:
                yield tuple(seq), g
            if n < L:
                floor = seq[n - p]
                for f in follow[did]:
                    if f > floor:
                        stack.append((n + 1, f, n + 1, mul(g, volt[f])))
                    elif f == floor:
                        stack.append((n + 1, f, p, mul(g, volt[f])))


def primitive_rotation_classes(vg, L: int):
    """Canonical representatives of rotation classes of primitive closed
    non-backtracking tailless paths of length at most L.

    A path is a dart sequence with consecutive darts chained head to
    tail and never immediately reversed; closure chains the last dart to
    the first, and taillessness forbids the last dart being the reverse
    of the first.  The canonical representative is the lexicographically
    least rotation, which for a primitive sequence is its Lyndon word.
    Returns (darts, monodromy) pairs with the voltage product taken
    along the sequence.
    """
    return list(_lyndon_closed_paths(vg, L))


def euler_product_truncation(vg, L: int) -> GroupRingPoly:
    """The zeta series itself, truncated: the product over rotation
    classes of geometric series in the class monodromy.  Classes longer
    than L cannot contribute below u^(L+1).

    Classes are counted per (length n, monodromy g) as they stream out
    of the enumeration, and the c classes of one pair contribute the
    single factor (1 - g u^n)^(-c) = sum over k of C(c+k-1, k) g^k u^(nk).
    """
    if L < 0:
        raise ValueError(f"truncation {L} is negative")
    if L > MAX_TRUNCATION:
        raise ResourceLimitError(f"truncation {L} exceeds {MAX_TRUNCATION}")
    grp = vg.group
    counts = Counter((len(seq), g) for seq, g in _lyndon_closed_paths(vg, L))
    series = GroupRingPoly.one(grp)
    for (n, g), c in sorted(counts.items()):
        coeffs = [zero(grp, R) for _ in range(L + 1)]
        for k in range(L // n + 1):
            coeffs[k * n] = math.comb(c + k - 1, k) * group_element(
                grp, grp.power(g, k), R
            )
        series = series.mul(GroupRingPoly(grp, R, coeffs), trunc=L)
    return series


# ---------------------------------------------------------------------------
# Dart-adjacency oracle


def dart_adjacency(vg):
    """Square matrix over the group ring on dart indices: entry (e, f)
    is the voltage of e when f continues e without backtracking."""
    base = vg.base
    grp = vg.group
    nd = len(base.darts)
    mat = [[zero(grp, R) for _ in range(nd)] for _ in range(nd)]
    for e in base.darts:
        a = group_element(grp, vg.dart_voltage(e.id), R)
        for fid in base.out_darts(e.dst):
            if fid != e.partner:
                mat[e.id][fid] = a
    return mat


def edge_matrix_zeta(vg, L: int) -> GroupRingPoly:
    """det(1 - uB) truncated at u^L for the dart adjacency B: the
    inverse zeta oracle.  Coefficients come from the trace recurrence
    n*c_n = -(sum over k of trace(B^k) c_{n-k}); every division by n is
    asserted exact."""
    if L > MAX_TRUNCATION:
        raise ResourceLimitError(f"truncation {L} exceeds {MAX_TRUNCATION}")
    grp = vg.group
    b = dart_adjacency(vg)
    nd = len(b)
    powers = []
    cur = b
    for _ in range(L):
        powers.append(cur)
        nxt = [[zero(grp, R) for _ in range(nd)] for _ in range(nd)]
        for i in range(nd):
            for k in range(nd):
                x = cur[i][k]
                if not x:
                    continue
                for j in range(nd):
                    if b[k][j]:
                        nxt[i][j] = nxt[i][j] + x * b[k][j]
        cur = nxt
    traces = []
    for p in powers:
        t = zero(grp, R)
        for i in range(nd):
            t = t + p[i][i]
        traces.append(t)
    coeffs = [one(grp, R)]
    for n in range(1, L + 1):
        acc = zero(grp, R)
        for k in range(1, n + 1):
            acc = acc + traces[k - 1] * coeffs[n - k]
        new = []
        for c in acc.coeffs:
            if c % n:
                raise ArithmeticError("trace recurrence lost integrality")
            new.append(-(c // n))
        coeffs.append(GroupRingElement(grp, new, R))
    return GroupRingPoly(grp, R, coeffs)


def verify_three_term(vg, L: int = 8) -> dict:
    """Check the three-term identity and the pairwise agreement of the
    oracles, all modulo u^(L+1).

    With e = #E - #V, the identity reads: euler zeta times (1-u^2)^e
    times the three-term polynomial is 1.  Negative e is handled by
    moving the binomial power across, so only polynomial products are
    compared.  The dart determinant must equal the inverse zeta and the
    binomial-scaled polynomial."""
    grp = vg.group
    e = vg.base.edge_count - vg.base.vertex_count
    zpoly = zeta_polynomial(vg)
    euler = euler_product_truncation(vg, L)
    edge = edge_matrix_zeta(vg, L)
    pos = _one_minus_u_squared(grp, max(e, 0))
    neg = _one_minus_u_squared(grp, max(-e, 0))

    lhs1 = euler.mul(zpoly, trunc=L).mul(pos, trunc=L)
    ok_three = lhs1 == neg.truncate(L)

    ok_inverse = euler.mul(edge, trunc=L) == GroupRingPoly.one(grp)

    lhs3 = edge.mul(neg, trunc=L)
    rhs3 = zpoly.mul(pos, trunc=L).truncate(L)
    ok_edge = lhs3 == rhs3

    passed = ok_three and ok_inverse and ok_edge
    return {
        "claim": "three-term-zeta-identity",
        "instance": vg.to_json(),
        "truncation": L,
        "three_term": ok_three,
        "euler_vs_dart": ok_inverse,
        "dart_vs_polynomial": ok_edge,
        "passed": passed,
        "z_polynomial": zpoly.to_json(),
    }
