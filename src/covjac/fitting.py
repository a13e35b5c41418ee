"""Fitting ideals of presented modules and the shifted-ideal machinery.

Two flavours of computation live here.

*  Symbolic: sparse multivariate polynomials over Z stand in for
   indeterminate vertex weights, and determinants of structured
   presentation matrices are compared against predicted product laws
   (zero off trees, weighted monomials on trees).

*  Concrete: a finite module carrying a group action is presented over
   the group ring or its norm quotient, and the minors of the
   presentation generate Fitting ideals as lattices.  The first shifted
   ideal of the constant module Z/#G admits a closed-form generating
   family, which is generated directly so the two routes cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .errors import ResourceLimitError, RingMismatchError
from .groupring import (
    R,
    RBAR,
    FinAbGroup,
    GroupRingElement,
    IdealLattice,
    cyclic_norm,
    cyclic_norm_of,
    derivative_of,
    det_group_ring,
    gen_minus_one,
    integer_multiple,
    nonzero_minors,
    norm_element,
    norm_scaled_derivative,
    offset_of,
    one,
    validate_decomposition,
    zero,
)
from .intlinalg import hermite_row_basis, kernel_mod, lattice_contains

DEFAULT_MINOR_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Sparse integer polynomials


class Poly:
    """Sparse polynomial in ``nvars`` variables over Z.

    Terms map exponent tuples to nonzero integer coefficients.  Only the
    operations the determinant identities need are implemented.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t = tuple(e)
                    clean[t] = clean.get(t, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return Poly(self.nvars, t)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return Poly(self.nvars, t)

    __rmul__ = __mul__

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def evaluate(self, values) -> int:
        out = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                term *= v**k
            out += term
        return out

    def __repr__(self):
        if not self.terms:
            return "Poly<0>"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"T{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "Poly<" + " + ".join(parts) + ">"


def det_generic(rows, zero_elt, one_elt):
    """Determinant over any commutative ring: the one n x n minor."""
    return next(nonzero_minors(rows, len(rows), one_elt), zero_elt)


# ---------------------------------------------------------------------------
# The structured pair matrix with indeterminate weights


@dataclass
class PresentationMatrix:
    """Rows are relations, columns are generators."""

    rows: list
    nvars: int

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def pair_list(s: int) -> list[tuple[int, int]]:
    """Unordered index pairs (l, l') with l < l', lexicographic."""
    return [(l, lp) for l in range(s) for lp in range(l + 1, s)]


def build_pair_matrix(s: int, nvars: int | None = None) -> PresentationMatrix:
    """Rows indexed by pairs l < l'; the row for (l, l') carries -T_{l'}
    in column l and T_l in column l'.  Empty for s <= 1."""
    if nvars is None:
        nvars = s
    rows = []
    for l, lp in pair_list(s):
        row = [Poly.const(nvars, 0) for _ in range(s)]
        row[l] = -Poly.var(nvars, lp)
        row[lp] = Poly.var(nvars, l)
        rows.append(row)
    return PresentationMatrix(rows, nvars)


def weight_row(s: int, nvars: int) -> list[Poly]:
    """Fresh weight variables appended after the s vertex variables."""
    return [Poly.var(nvars, s + j) for j in range(s)]


def subset_det(s: int, subset) -> Poly:
    """Determinant of the s x s submatrix picking the given rows out of
    the pair matrix extended by the symbolic weight row.

    ``subset`` holds pairs (l, l') and/or the string "w" for the weight
    row; exactly s entries are required.  Variables 0..s-1 are the
    vertex weights, s..2s-1 the extra row.
    """
    if len(subset) != s:
        raise ValueError("need exactly s rows")
    nvars = 2 * s
    pm = build_pair_matrix(s, nvars)
    order = {p: i for i, p in enumerate(pair_list(s))}
    rows = []
    for item in subset:
        if item == "w":
            rows.append(weight_row(s, nvars))
        else:
            rows.append(pm.rows[order[tuple(sorted(item))]])
    z = Poly.const(nvars, 0)
    o = Poly.const(nvars, 1)
    return det_generic(rows, z, o)


def pair_graph_is_tree(s: int, pairs) -> tuple[bool, list[int]]:
    """Whether the pair set forms a spanning tree on s vertices, plus
    the degree sequence."""
    parent = list(range(s))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = [0] * s
    acyclic = True
    for l, lp in pairs:
        deg[l] += 1
        deg[lp] += 1
        a, b = find(l), find(lp)
        if a == b:
            acyclic = False
        else:
            parent[a] = b
    ncomp = len({find(x) for x in range(s)})
    return acyclic and ncomp == 1, deg


def predicted_tree_det(s: int, pairs) -> Poly:
    """(sum_l w_l T_l) * prod_l T_l^{deg_l - 1} for a spanning tree; the
    zero polynomial otherwise."""
    is_tree, deg = pair_graph_is_tree(s, pairs)
    nvars = 2 * s
    if not is_tree:
        return Poly.const(nvars, 0)
    lin = Poly.const(nvars, 0)
    for l in range(s):
        lin = lin + Poly.var(nvars, s + l) * Poly.var(nvars, l)
    out = lin
    for l in range(s):
        for _ in range(deg[l] - 1):
            out = out * Poly.var(nvars, l)
    return out


def tree_cofactor(s: int, pairs, l: int) -> Poly:
    """Cofactor of the l-th weight variable: determinant of the
    submatrix made of the s-1 pair rows with column l deleted."""
    if len(pairs) != s - 1:
        raise ValueError("need exactly s-1 pair rows")
    nvars = 2 * s
    pm = build_pair_matrix(s, nvars)
    order = {p: i for i, p in enumerate(pair_list(s))}
    rows = []
    for p in pairs:
        full = pm.rows[order[tuple(sorted(p))]]
        rows.append([x for c, x in enumerate(full) if c != l])
    z = Poly.const(nvars, 0)
    o = Poly.const(nvars, 1)
    return det_generic(rows, z, o)


def tree_law_report(s: int) -> dict:
    """Check the determinant law on every s-row subset of the extended
    pair matrix: zero unless the chosen pair rows form a spanning tree
    (which forces the weight row into the subset), and the weighted
    monomial product on trees.  Also confirms every degree profile with
    offsets summing to s - 2 is realized by some tree.
    """
    if not 2 <= s <= 5:
        raise ValueError("supported sizes are 2..5")
    items = pair_list(s) + ["w"]
    total = 0
    trees = 0
    profiles = set()
    for subset in combinations(items, s):
        total += 1
        pairs = [x for x in subset if x != "w"]
        d = subset_det(s, subset)
        if "w" not in subset:
            if d:
                return {"size": s, "subsets": total, "ok": False}
            continue
        p = predicted_tree_det(s, pairs)
        if d != p and d != -p:
            return {"size": s, "subsets": total, "ok": False}
        is_tree, deg = pair_graph_is_tree(s, pairs)
        if is_tree:
            trees += 1
            profiles.add(tuple(x - 1 for x in deg))
    wanted = set(bounded_compositions(s - 2, s))
    return {
        "size": s,
        "subsets": total,
        "trees": trees,
        "degree_profiles_realized": profiles == wanted,
        "ok": profiles == wanted,
    }


def monomials_of_degree(nvars: int, degree: int):
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first, *rest)


def bounded_compositions(total: int, parts: int):
    return monomials_of_degree(parts, total)


def fitting_ideal_poly(pm: PresentationMatrix, i: int,
                       minor_cap: int = DEFAULT_MINOR_CAP) -> set:
    """Polynomial generators of the i-th Fitting ideal of the cokernel:
    all (k - i) x (k - i) minors, k the column count."""
    k = pm.num_cols
    size = k - i
    if size <= 0:
        return {Poly.const(pm.nvars, 1)}
    if size > pm.num_rows:
        return set()
    n_minors = math.comb(pm.num_rows, size) * math.comb(k, size)
    if n_minors > minor_cap:
        raise ResourceLimitError(f"minor count {n_minors} exceeds cap")
    return set(nonzero_minors(pm.rows, size, Poly.const(pm.nvars, 1)))


def pair_fitting_matches_power(s: int, i: int) -> bool:
    """Compare Fitt_i of the pair matrix cokernel with the predicted
    power of the vertex-variable ideal.

    Predicted: unit ideal for i >= s, zero ideal for i = 0 < s, and the
    (s - i)-th power of (T_1, ..., T_s) for 1 <= i < s.  Every nonzero
    minor of the pair matrix is homogeneous of degree exactly s - i, and
    the power ideal is generated in that same degree, so equality of
    ideals reduces to equality of the integer spans of their degree
    (s - i) pieces: ideal membership of a homogeneous element in a
    homogeneously generated ideal only ever uses the degree-zero parts
    of the coefficients.
    """
    if s < 2:
        raise ValueError("the pair matrix needs at least two indices")
    if s > 4:
        raise ResourceLimitError("sizes above 4 blow up combinatorially")
    pm = build_pair_matrix(s)
    gens = fitting_ideal_poly(pm, i)
    if i >= s:
        return any(g == Poly.const(s, 1) or g == Poly.const(s, -1) for g in gens)
    if i == 0:
        return not gens
    d = s - i
    monos = list(monomials_of_degree(s, d))
    index = {m: j for j, m in enumerate(monos)}
    rows = []
    for g in gens:
        if not g.is_homogeneous(d):
            return False
        vec = [0] * len(monos)
        for e, c in g.terms.items():
            vec[index[e]] = c
        rows.append(vec)
    got = hermite_row_basis(rows, len(monos))
    want = [
        [1 if j == k else 0 for k in range(len(monos))] for j in range(len(monos))
    ]
    return got == hermite_row_basis(want)


# ---------------------------------------------------------------------------
# Concrete Fitting ideals over the group ring


def fitting_ideal_group_ring(rows, num_cols: int, i: int, group: FinAbGroup,
                             ring: str,
                             minor_cap: int = DEFAULT_MINOR_CAP) -> IdealLattice:
    """i-th Fitting ideal of the cokernel of a relation matrix with
    group ring entries; rows are relations, columns generators."""
    size = num_cols - i
    if size <= 0:
        return IdealLattice.unit_ideal(group, ring)
    if size > len(rows):
        return IdealLattice.zero_ideal(group, ring)
    n_minors = math.comb(len(rows), size) * math.comb(num_cols, size)
    if n_minors > minor_cap:
        raise ResourceLimitError(f"minor count {n_minors} exceeds cap {minor_cap}")
    gens = list(nonzero_minors(rows, size, one(group, ring)))
    if not gens:
        return IdealLattice.zero_ideal(group, ring)
    return IdealLattice.from_generators(gens)


class GammaModulePresentation:
    """Relation rows over the group ring presenting a module on chosen
    generators."""

    def __init__(self, group, ring, num_gens, rows, generators):
        self.group = group
        self.ring = ring
        self.num_gens = num_gens
        self.rows = rows
        self.generators = generators


def present_module(module, ring: str) -> GammaModulePresentation:
    """Present the module over the chosen ring on a pruned generating set.

    Generators are selected by streaming through the coordinate basis
    and skipping vectors already in the ring-span of the kept ones (span
    tracked as a Hermite basis closed under the group action and the
    coordinate moduli).  Relations come from the congruence kernel of
    the expansion matrix sending ring coordinates to module coordinates;
    a kernel basis Z-generates the relation lattice, and since that
    lattice is stable under the action it also ring-generates the
    relation module.  Kernel rows already inside the action-closure of
    earlier rows are dropped.
    """
    group = module.group
    nfac = module.num_components
    mods = list(module.invariant_factors) + [0] * module.free_rank

    chosen: list[int] = []
    span_rows: list = []

    def basis_vec(j):
        v = [0] * nfac
        v[j] = 1
        return v

    def reduce_vec(v):
        return [x % m if m else x for x, m in zip(v, mods)]

    for j in range(nfac):
        v = basis_vec(j)
        if span_rows and lattice_contains(span_rows, reduce_vec(v)):
            continue
        chosen.append(j)
        orbit = [reduce_vec(module.act(gi, v)) for gi in group.elements()]
        for m_idx, m in enumerate(mods):
            if m:
                row = [0] * nfac
                row[m_idx] = m
                orbit.append(row)
        span_rows = hermite_row_basis(span_rows + orbit, nfac)

    k = len(chosen)
    ncols_ring = k * group.size
    expand = [[0] * ncols_ring for _ in range(nfac)]
    for t, j in enumerate(chosen):
        v = basis_vec(j)
        for gi in group.elements():
            img = module.act(gi, v)
            col = t * group.size + gi
            for r in range(nfac):
                expand[r][col] = img[r]
    ker = kernel_mod(expand, mods)

    dim = group.size - 1 if ring == RBAR else group.size
    rows = []
    stable_basis: list = []
    row_dim = k * dim
    for vec in ker:
        relts = [
            GroupRingElement(group, vec[t * group.size : (t + 1) * group.size], ring)
            for t in range(k)
        ]
        flat = []
        for e in relts:
            flat.extend(e.coordinates())
        if not any(flat):
            continue
        if stable_basis and lattice_contains(stable_basis, flat):
            continue
        rows.append(relts)
        extra = []
        for gi in group.elements():
            tr = []
            for e in relts:
                tr.extend(e.translate(gi).coordinates())
            extra.append(tr)
        stable_basis = hermite_row_basis(stable_basis + extra, row_dim)
    return GammaModulePresentation(group, ring, k, rows, chosen)


def module_fitting_ideal(module, ring: str, i: int = 0,
                         minor_cap: int = DEFAULT_MINOR_CAP) -> IdealLattice:
    """i-th Fitting ideal of a module with group action over the chosen
    ring.

    Over the norm quotient the module must be finite.  Over the full
    group ring a free part is allowed; the relation matrix then has
    fewer independent columns than generators, and the minors account
    for that automatically (a free rank makes Fitt_0 the zero ideal only
    when the torsion cannot compensate, which is exactly the minors'
    verdict).
    """
    if ring == RBAR and module.free_rank:
        raise RingMismatchError(
            "modules with free rank have no Fitting ideal over the quotient"
        )
    pres = present_module(module, ring)
    return fitting_ideal_group_ring(
        pres.rows, pres.num_gens, i, module.group, ring, minor_cap
    )


# ---------------------------------------------------------------------------
# The shifted Fitting ideal of the constant module, two ways


def augmentation_ideal_matrix(group: FinAbGroup):
    """Presentation rows of the augmentation ideal on the s canonical
    generators: a diagonal block of cyclic norms stacked over the pair
    rows in generator offsets."""
    s = group.num_factors
    taus = [gen_minus_one(group, l) for l in range(s)]
    nus = [cyclic_norm(group, l) for l in range(s)]
    z = zero(group, R)
    rows = []
    for l in range(s):
        row = [z] * s
        row[l] = nus[l]
        rows.append(row)
    for l, lp in pair_list(s):
        row = [z] * s
        row[l] = -taus[lp]
        row[lp] = taus[l]
        rows.append(row)
    return rows


def scaled_constant_matrix(group: FinAbGroup):
    """The augmentation-ideal rows extended by the weight row of
    norm-scaled derivatives; presents the quotient of the augmentation
    ideal by the principal submodule on (#G - norm)."""
    s = group.num_factors
    rows = augmentation_ideal_matrix(group)
    b_row = [norm_scaled_derivative(group, l) for l in range(s)]
    # the weight row satisfies sum b_l (g_l - 1) = #G - norm
    total = zero(group, R)
    for l in range(s):
        total = total + b_row[l] * gen_minus_one(group, l)
    expect = integer_multiple(group, group.size) - norm_element(group)
    if total != expect:
        raise ArithmeticError("weight row identity failed")
    rows.append(b_row)
    return rows


def shift1_via_presentation(group: FinAbGroup,
                            minor_cap: int = DEFAULT_MINOR_CAP) -> IdealLattice:
    """First shifted Fitting ideal of the constant module Z/#G over the
    norm quotient, computed from an honest presentation.

    The quotient of the augmentation ideal by the element (#G - norm)
    sits in an exact sequence against the norm quotient ring and Z/#G,
    so the shifted ideal equals 1/#G times the plain Fitting ideal of
    that quotient module.  The minors are taken over the full group
    ring, then pushed into the norm quotient.
    """
    if group.size < 2:
        raise ValueError("the trivial group is excluded")
    s = group.num_factors
    rows = scaled_constant_matrix(group)
    n_minors = math.comb(len(rows), s)
    if n_minors * math.comb(s, s) > minor_cap:
        raise ResourceLimitError("minor cap exceeded")
    gens = []
    for rsel in combinations(range(len(rows)), s):
        sub = [rows[r] for r in rsel]
        d = det_group_ring(sub)
        if d:
            gens.append(d.to_quotient())
    lat = IdealLattice.from_generators(gens, group=group, ring=RBAR)
    return IdealLattice(group, RBAR, lat.basis, lat.denominator * group.size)


def _norm_tau_profiles(s: int):
    """Exponent profiles (e, f) with sum(e) + sum(f) = s - 2 and
    e_l <= 1.  The equality pins the total degree, so the family is
    finite as written; no saturation pass is needed."""
    target = s - 2
    if target < 0:
        return
    for es in product(range(2), repeat=s):
        se = sum(es)
        if se > target:
            continue
        for fs in bounded_compositions(target - se, s):
            yield es, fs


def closed_form_shift1(group: FinAbGroup, gen_indices=None,
                       orders=None) -> IdealLattice:
    """Closed-form generating family for the same shifted ideal.

    One generator per position l: the product of the cyclic norms at the
    other positions times the weighted derivative at l divided by the
    cyclic order at l.  Plus the finite family of norm/offset monomials
    of total degree s - 2 with squarefree norm part.  Generators are
    cleared to the common denominator lcm(n_l).

    ``gen_indices``/``orders`` select an alternative cyclic
    decomposition on which to build the family; the resulting lattice
    must not depend on the choice, and tests exercise that.
    """
    if group.size < 2:
        raise ValueError("the trivial group is excluded")
    if gen_indices is None:
        gen_indices = group.generators()
        orders = group.orders
    else:
        gen_indices = list(gen_indices)
        orders = tuple(orders)
        if not validate_decomposition(group, gen_indices, orders):
            raise ValueError("not a direct-product decomposition")
    s = len(gen_indices)
    taus = [offset_of(group, g) for g in gen_indices]
    nus = [cyclic_norm_of(group, g, n) for g, n in zip(gen_indices, orders)]
    ders = [derivative_of(group, g, n) for g, n in zip(gen_indices, orders)]

    den = math.lcm(*orders)
    gens = []
    for l in range(s):
        x = ders[l] * (den // orders[l])
        for k in range(s):
            if k != l:
                x = x * nus[k]
        gens.append(x.to_quotient())
    for es, fs in _norm_tau_profiles(s):
        x = one(group, R)
        for l in range(s):
            if es[l]:
                x = x * nus[l]
            for _ in range(fs[l]):
                x = x * taus[l]
        gens.append((den * x).to_quotient())
    return IdealLattice.from_generators(
        gens, denominator=den, group=group, ring=RBAR
    )
