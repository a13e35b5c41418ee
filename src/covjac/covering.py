"""Voltage graphs, derived coverings, and equivariant module structure.

A voltage assignment labels each dart of a base graph with a group
element, inversely on partner darts.  The derived graph has one vertex
per (group element, base vertex) pair and carries a free left action of
the group; its Laplacian is an ordinary integer Laplacian, while the
base-level bookkeeping happens in the group ring through the twisted
adjacency operator.

Jacobian and Picard groups of the derived graph become modules over the
group ring.  The action is transported into Smith normal form
coordinates, where invariant factors plus integer action matrices give
exact finite data that the Fitting ideal machinery can consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DisconnectedGraphError, RingMismatchError
from .fitting import module_fitting_ideal
from .graphs import (
    Dart,
    Graph,
    graph_from_json,
    graph_to_json,
    is_connected,
    jacobian as plain_jacobian,
    laplacian,
)
from .groupring import (
    R,
    RBAR,
    FinAbGroup,
    GroupRingElement,
    IdealLattice,
    det_group_ring,
)
from .intlinalg import (
    det_exact,
    identity_matrix,
    kernel_mod,
    lattice_coordinates,
    matmul,
    smith_normal_form_full,
)


class VoltageGraph:
    """A base graph with one group label per edge.

    The label is stored on the canonical (lower-id) dart of each edge;
    the partner dart reads the inverse.  ``group`` is a FinAbGroup for
    all the equivariant algebra, or any object with identity/mul/inv/
    elements/size (a Cayley table group, say) when only the derived
    graph and connectivity are needed.
    """

    __slots__ = ("base", "group", "edge_voltages")

    def __init__(self, base: Graph, group, edge_voltages):
        edge_voltages = tuple(int(g) for g in edge_voltages)
        if len(edge_voltages) != base.edge_count:
            raise ValueError("need one voltage per edge")
        for g in edge_voltages:
            if not 0 <= g < group.size:
                raise ValueError("voltage out of range")
        self.base = base
        self.group = group
        self.edge_voltages = edge_voltages

    def dart_voltage(self, dart_id: int) -> int:
        edge_idx, canonical = self.base.edge_of_dart(dart_id)
        g = self.edge_voltages[edge_idx]
        return g if canonical else self.group.inv(g)

    @property
    def is_abelian(self) -> bool:
        return isinstance(self.group, FinAbGroup)

    def inverted(self) -> "VoltageGraph":
        """Same base with every voltage replaced by its inverse."""
        return VoltageGraph(
            self.base, self.group, [self.group.inv(g) for g in self.edge_voltages]
        )

    def to_json(self) -> dict:
        if not isinstance(self.group, FinAbGroup):
            raise ValueError("only product-of-cycles groups serialize")
        return {
            "graph": graph_to_json(self.base),
            "group": {"orders": list(self.group.orders)},
            "voltages": [list(self.group.exps(g)) for g in self.edge_voltages],
        }

    @classmethod
    def from_json(cls, data: dict) -> "VoltageGraph":
        try:
            base = graph_from_json(data["graph"])
            group = FinAbGroup(data["group"]["orders"])
            volts = [group.index(v) for v in data["voltages"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed voltage graph object: {exc}") from exc
        return cls(base, group, volts)


class _DeckPerms:
    """Left translations of the fibres ``size`` apart, built one at a time
    on first read and cached: ``perms[t][g * size + x]`` is
    ``mul(t, g) * size + x``."""

    __slots__ = ("group", "size", "_cache")

    def __init__(self, group, size: int):
        self.group = group
        self.size = size
        self._cache = {}

    def __len__(self) -> int:
        return self.group.size

    def __getitem__(self, t: int) -> list:
        if not 0 <= t < self.group.size:
            raise IndexError("no group element with that index")
        perm = self._cache.get(t)
        if perm is None:
            grp, size = self.group, self.size
            perm = [grp.mul(t, g) * size + x
                    for g in grp.elements() for x in range(size)]
            self._cache[t] = perm
        return perm


@dataclass
class DerivedCover:
    """Derived graph plus the left deck action as permutations.

    Derived vertex (g, v) sits at index g * nv + v and dart (g, d) at
    g * nd + d.  ``vertex_perms[t]`` and ``dart_perms[t]`` give the
    image under left translation by the group element with index t;
    each is built when first read.
    """

    voltage_graph: VoltageGraph
    graph: Graph
    vertex_perms: _DeckPerms
    dart_perms: _DeckPerms


def derived_graph(vg: VoltageGraph) -> DerivedCover:
    base = vg.base
    grp = vg.group
    nv, nd = base.vertex_count, len(base.darts)
    # one translation list g -> g h per distinct dart voltage h
    shift = {}
    targets = []
    for d in base.darts:
        h = vg.dart_voltage(d.id)
        if h not in shift:
            shift[h] = [grp.mul(g, h) for g in grp.elements()]
        targets.append((d, shift[h]))
    darts = []
    for g in grp.elements():
        for d, gh in targets:
            h = gh[g]
            darts.append(
                Dart(
                    id=g * nd + d.id,
                    src=g * nv + d.src,
                    dst=h * nv + d.dst,
                    partner=h * nd + d.partner,
                )
            )
    graph = Graph(grp.size * nv, darts)
    return DerivedCover(vg, graph, _DeckPerms(grp, nv), _DeckPerms(grp, nd))


def spanning_tree_potentials(base: Graph):
    """Breadth-first spanning tree from vertex 0.

    Returns (order, parent_dart, non_tree_edges): the vertices in
    breadth-first order, so that each parent comes before its children,
    the dart entering each nonroot vertex from its parent, and the edge
    indices left out of the tree.
    """
    n = base.vertex_count
    parent_dart = [None] * n
    seen = [False] * n
    seen[0] = True
    order = [0]
    tree_edges = set()
    for v in order:
        for did in base.out_darts(v):
            d = base.darts[did]
            if not seen[d.dst]:
                seen[d.dst] = True
                parent_dart[d.dst] = did
                tree_edges.add(base.edge_of_dart(did)[0])
                order.append(d.dst)
    if not all(seen):
        raise DisconnectedGraphError("base graph is not connected")
    non_tree = [i for i in range(base.edge_count) if i not in tree_edges]
    return order, parent_dart, non_tree


def cycle_voltages(vg: VoltageGraph) -> list[int]:
    """Voltages of a fundamental cycle basis, base-point conjugated.

    For the non-tree edge with canonical dart e: u -> w the value is
    beta(u) * alpha(e) * beta(w)^{-1} with beta the spanning-tree path
    voltage from the root; these generate the voltage image of the
    fundamental group at the root.
    """
    base = vg.base
    grp = vg.group
    order, parent_dart, non_tree = spanning_tree_potentials(base)
    beta = [grp.identity] * base.vertex_count
    for v in order[1:]:
        d = base.darts[parent_dart[v]]
        beta[v] = grp.mul(beta[d.src], vg.dart_voltage(d.id))

    out = []
    for eidx in non_tree:
        did = base.edges()[eidx]
        d = base.darts[did]
        g = grp.mul(
            grp.mul(beta[d.src], vg.dart_voltage(did)),
            grp.inv(beta[d.dst]),
        )
        out.append(g)
    return out


def connectivity_criterion(vg: VoltageGraph) -> bool:
    """True iff the derived graph is connected: the cycle voltages must
    generate the whole group.  Closure is computed by breadth-first
    multiplication, valid for any finite group."""
    gens = cycle_voltages(vg)
    grp = vg.group
    step = list(gens) + [grp.inv(g) for g in gens]
    seen = {grp.identity}
    frontier = [grp.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in step:
                x = grp.mul(h, g)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return len(seen) == grp.size


def equivariant_laplacian(vg: VoltageGraph):
    """Square matrix over the group ring: degree diagonal minus the
    voltage-twisted adjacency.  Applying the augmentation entrywise
    recovers the ordinary Laplacian of the base."""
    if not vg.is_abelian:
        raise RingMismatchError("equivariant algebra needs a product-of-cycles group")
    base = vg.base
    grp = vg.group
    n = base.vertex_count
    coeffs = [[[0] * grp.size for _ in range(n)] for _ in range(n)]
    for v in range(n):
        coeffs[v][v][grp.identity] += base.degree(v)
        for did in base.out_darts(v):
            d = base.darts[did]
            coeffs[v][d.dst][vg.dart_voltage(did)] -= 1
    return [
        [GroupRingElement(grp, coeffs[v][w], R) for w in range(n)] for v in range(n)
    ]


def z_element(vg: VoltageGraph) -> GroupRingElement:
    """Group ring determinant of the twisted Laplacian."""
    z = det_group_ring(equivariant_laplacian(vg))
    if z.augmentation() != 0:
        raise ArithmeticError("twisted Laplacian determinant must augment to zero")
    return z


# ---------------------------------------------------------------------------
# Modules with group action


class GammaModule:
    """Finitely generated abelian group with an action of a FinAbGroup.

    Coordinates: first the torsion invariant factors (a divisibility
    chain, each >= 2), then ``free_rank`` unconstrained integer
    coordinates.  ``gen_actions[l]`` is the matrix of the l-th group
    generator acting on column vectors; row i is stored reduced modulo
    the i-th modulus (modulus 0 means no reduction).
    """

    __slots__ = ("group", "invariant_factors", "free_rank", "gen_actions",
                 "_elt_cache")

    def __init__(self, group: FinAbGroup, invariant_factors, free_rank, gen_actions):
        invariant_factors = tuple(int(d) for d in invariant_factors)
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in invariant_factors):
            raise ValueError("invariant factors must be >= 2")
        self.group = group
        self.invariant_factors = invariant_factors
        self.free_rank = int(free_rank)
        k = len(invariant_factors) + self.free_rank
        gen_actions = [[[int(x) for x in row] for row in m] for m in gen_actions]
        if len(gen_actions) != group.num_factors:
            raise ValueError("need one action matrix per group generator")
        for m in gen_actions:
            if len(m) != k or any(len(row) != k for row in m):
                raise ValueError("action matrix has wrong shape")
        self.gen_actions = [self._reduce_matrix(m) for m in gen_actions]
        self._elt_cache = {group.identity: identity_matrix(k)}

    @property
    def num_components(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    @property
    def moduli(self):
        return tuple(self.invariant_factors) + (0,) * self.free_rank

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite module has no order")
        return math.prod(self.invariant_factors)

    def structure(self):
        return self.invariant_factors, self.free_rank

    def _reduce_matrix(self, m):
        mods = self.moduli
        return [
            [x % mods[i] if mods[i] else x for x in row]
            for i, row in enumerate(m)
        ]

    def element_matrix(self, gidx: int):
        cached = self._elt_cache.get(gidx)
        if cached is not None:
            return cached
        out = identity_matrix(self.num_components)
        for l, e in enumerate(self.group.exps(gidx)):
            for _ in range(e):
                out = self._reduce_matrix(matmul(self.gen_actions[l], out))
        self._elt_cache[gidx] = out
        return out

    def act(self, gidx: int, vec):
        m = self.element_matrix(gidx)
        mods = self.moduli
        out = []
        for i, row in enumerate(m):
            s = sum(a * b for a, b in zip(row, vec))
            out.append(s % mods[i] if mods[i] else s)
        return out

    def validate(self) -> bool:
        """Generator orders, pairwise commutation, and the coordinate
        congruences that make the matrices well defined."""
        grp = self.group
        k = self.num_components
        ident = identity_matrix(k)
        mods = self.moduli
        for l in range(grp.num_factors):
            m = self.gen_actions[l]
            for i in range(k):
                for j in range(k):
                    if mods[i] == 0:
                        if mods[j] != 0 and m[i][j] != 0:
                            return False
                    elif (m[i][j] * mods[j]) % mods[i]:
                        return False
            p = ident
            for _ in range(grp.orders[l]):
                p = self._reduce_matrix(matmul(m, p))
            if p != ident:
                return False
            for lp in range(l):
                ab = self._reduce_matrix(matmul(m, self.gen_actions[lp]))
                ba = self._reduce_matrix(matmul(self.gen_actions[lp], m))
                if ab != ba:
                    return False
        return True

    def norm_matrix(self):
        k = self.num_components
        out = [[0] * k for _ in range(k)]
        for g in self.group.elements():
            m = self.element_matrix(g)
            for i in range(k):
                row = m[i]
                oi = out[i]
                for j in range(k):
                    oi[j] += row[j]
        return self._reduce_matrix(out)


def _transport_quotient(group: FinAbGroup, column_lattice, act_matrices,
                        ambient_mods=None):
    """Module structure of Z^n modulo a column span, with the action
    matrices rewritten in invariant-factor coordinates.

    ``column_lattice`` is an n x m integer matrix whose columns span the
    sublattice; ``ambient_mods`` (optional, length n) appends diagonal
    columns for coordinates that were already finite.  Action matrices
    are n x n on the ambient coordinates and must descend to the
    quotient; the coordinate congruence check enforces that.
    """
    n = len(column_lattice)
    if n == 0:
        return GammaModule(group, (), 0, [[] for _ in act_matrices]), None
    cols = [list(row) for row in column_lattice]
    if ambient_mods is not None:
        for i, mod in enumerate(ambient_mods):
            if mod:
                for r in range(n):
                    cols[r].append(mod if r == i else 0)
    if not cols[0]:
        cols = [[0] for _ in range(n)]
    d, u, v, uinv, vinv = smith_normal_form_full(cols)
    width = len(d[0])
    diag = [d[i][i] if i < width else 0 for i in range(n)]
    keep = [i for i in range(n) if diag[i] != 1]
    keep.sort(key=lambda i: diag[i] == 0)
    kept_mods = [diag[i] for i in keep]
    factors = tuple(m for m in kept_mods if m)
    free = sum(1 for m in kept_mods if m == 0)
    new_actions = []
    for mtx in act_matrices:
        big = matmul(matmul(u, mtx), uinv)
        small = [[big[a][b] for b in keep] for a in keep]
        for a in range(len(keep)):
            for b in range(len(keep)):
                da, db = kept_mods[a], kept_mods[b]
                val = small[a][b]
                if da:
                    if (val * db) % da:
                        raise ArithmeticError("action does not descend to the quotient")
                elif db and val != 0:
                    raise ArithmeticError("torsion leaked into the free part")
        new_actions.append(small)
    module = GammaModule(group, factors, free, new_actions)
    return module, (u, uinv, keep, kept_mods)


def picard_and_jacobian(vg: VoltageGraph):
    """Picard and Jacobian of the derived graph as group-ring modules.

    The Picard module is the cokernel of the derived Laplacian (free
    rank one when connected); the Jacobian is its torsion part.  The
    group acts through the deck permutations, transported into Smith
    coordinates.  Returns (picard, jacobian, cover).
    """
    if not vg.is_abelian:
        raise RingMismatchError("module structure needs a product-of-cycles group")
    cover = derived_graph(vg)
    if not is_connected(cover.graph):
        raise DisconnectedGraphError("derived graph is disconnected")
    lap = laplacian(cover.graph)
    n = len(lap)
    perm_mats = []
    for l in range(vg.group.num_factors):
        p = cover.vertex_perms[vg.group.generator(l)]
        mtx = [[0] * n for _ in range(n)]
        for src, dst in enumerate(p):
            mtx[dst][src] = 1
        perm_mats.append(mtx)
    pic, _ = _transport_quotient(vg.group, lap, perm_mats)
    if pic.free_rank != 1:
        raise ArithmeticError("picard module of a connected graph has free rank one")
    k = len(pic.invariant_factors)
    jac_actions = [[row[:k] for row in m[:k]] for m in pic.gen_actions]
    jac = GammaModule(vg.group, pic.invariant_factors, 0, jac_actions)
    return pic, jac, cover


def picard_module(vg: VoltageGraph) -> GammaModule:
    return picard_and_jacobian(vg)[0]


def jacobian_module(vg: VoltageGraph) -> GammaModule:
    return picard_and_jacobian(vg)[1]


def quotient_by_norm(m: GammaModule) -> GammaModule:
    """M modulo the image of the full group-sum operator."""
    if not m.is_finite:
        raise ValueError("norm quotient implemented for finite modules")
    k = m.num_components
    nm = m.norm_matrix()
    cols = [[nm[i][j] for j in range(k)] for i in range(k)]
    out, _ = _transport_quotient(m.group, cols, m.gen_actions, m.moduli)
    if out.free_rank:
        raise ArithmeticError("norm quotient of a finite module must be finite")
    return out


def norm_kernel(m: GammaModule) -> GammaModule:
    """The submodule M[N] = {x : N x = 0} killed by the group-sum operator.

    Its preimage L in Z^k contains diag(d) Z^k; M[N] is L / diag(d) Z^k,
    rewritten in a basis of L.  The action maps L into itself because it
    commutes with N and respects the coordinate congruences.
    """
    if not m.is_finite:
        raise ValueError("norm kernel implemented for finite modules")
    k = m.num_components
    d = m.invariant_factors
    basis = kernel_mod(m.norm_matrix(), d)

    def in_basis(vecs):
        cols = [lattice_coordinates(basis, v) for v in vecs]
        if any(c is None for c in cols):
            raise ArithmeticError("vector left the norm kernel")
        return [[cols[j][i] for j in range(len(cols))] for i in range(k)]

    sub = in_basis([[d[j] if i == j else 0 for i in range(k)] for j in range(k)])
    actions = [
        in_basis([m.act(m.group.generator(l), v) for v in basis])
        for l in range(m.group.num_factors)
    ]
    return _transport_quotient(m.group, sub, actions)[0]


def norm_image_order(m: GammaModule) -> int:
    return m.order() // quotient_by_norm(m).order()


def coinvariants(m: GammaModule, subgroup_elements):
    """Invariant factors and free rank of M / <(g - 1)M : g in the list>."""
    k = m.num_components
    cols = [[] for _ in range(k)]
    for g in subgroup_elements:
        mtx = m.element_matrix(g)
        for j in range(k):
            for i in range(k):
                cols[i].append(mtx[i][j] - (1 if i == j else 0))
    if k and not cols[0]:
        cols = [[0] for _ in range(k)]
    out, _ = _transport_quotient(m.group, cols, m.gen_actions, m.moduli)
    return out.structure()


def dual_module(m: GammaModule, twist: bool = False) -> GammaModule:
    """Pontryagin dual with the left action (g . phi)(x) = phi(g x);
    with ``twist`` the action is (g . phi)(x) = phi(g^{-1} x) instead.

    Same invariant factors; entry (j, i) of the dual matrix is
    d_j * A[i][j] / d_i, integral because the original action respects
    the coordinate congruences.
    """
    if not m.is_finite:
        raise ValueError("duality implemented for finite modules")
    grp = m.group
    d = m.invariant_factors
    k = len(d)
    out_actions = []
    for l in range(grp.num_factors):
        src = grp.generator(l)
        if twist:
            src = grp.inv(src)
        a = m.element_matrix(src)
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                num = d[j] * a[i][j]
                if num % d[i]:
                    raise ArithmeticError("action violates coordinate congruences")
                b[j][i] = (num // d[i]) % d[j]
        out_actions.append(b)
    return GammaModule(grp, d, 0, out_actions)


# ---------------------------------------------------------------------------
# Orders over the norm quotient ring


def _quotient_mult_matrix(x: GroupRingElement):
    """Integer matrix of multiplication by x on the norm quotient ring,
    in the non-identity coefficient coordinates."""
    grp = x.group
    xq = x.to_quotient() if x.ring == R else x
    n = grp.size
    cols = []
    for i in range(1, n):
        e = [0] * n
        e[i] = 1
        y = GroupRingElement(grp, e, RBAR) * xq
        cols.append(y.coordinates())
    return [[cols[j][i] for j in range(n - 1)] for i in range(n - 1)]


def rbar_pic_order(vg: VoltageGraph) -> int:
    """Order of the cokernel of the twisted Laplacian over the norm
    quotient ring, as the determinant of its integer coefficient
    matrix."""
    grp = vg.group
    m = grp.size - 1
    if m == 0:
        raise ValueError("trivial group has a trivial norm quotient")
    lap = equivariant_laplacian(vg)
    nv = len(lap)
    big = [[0] * (nv * m) for _ in range(nv * m)]
    for a in range(nv):
        for b in range(nv):
            block = _quotient_mult_matrix(lap[a][b])
            for i in range(m):
                brow = big[a * m + i]
                for j in range(m):
                    brow[b * m + j] = block[i][j]
    dd = det_exact(big)
    if dd == 0:
        raise ArithmeticError("quotient Laplacian must be injective")
    return abs(dd)


def sequence_cardinality_check(vg: VoltageGraph) -> dict:
    """Order bookkeeping across the norm quotient exact sequences.

    Checks that the group-fixed image of the cover Jacobian matches the
    base Jacobian, that the quotient-ring Picard order factors as the
    norm quotient order times the group size, and the combined
    four-term count.
    """
    if not connectivity_criterion(vg):
        raise DisconnectedGraphError("derived graph is disconnected")
    _, jac, _ = picard_and_jacobian(vg)
    grp = vg.group
    base_order = plain_jacobian(vg.base).order
    jac_order = jac.order()
    mbar_order = quotient_by_norm(jac).order()
    norm_img = jac_order // mbar_order
    pbar_order = rbar_pic_order(vg)
    return {
        "jac_base": base_order,
        "jac_cover": jac_order,
        "jac_mod_norm": mbar_order,
        "norm_image": norm_img,
        "pic_quotient_ring": pbar_order,
        "norm_image_matches_base": norm_img == base_order,
        "quotient_sequence": pbar_order == mbar_order * grp.size,
        "four_term": base_order * pbar_order == jac_order * grp.size,
        "ok": (
            norm_img == base_order
            and pbar_order == mbar_order * grp.size
            and base_order * pbar_order == jac_order * grp.size
        ),
    }


def picard_fitting_is_principal(vg: VoltageGraph) -> bool:
    """Over the full group ring the Picard module's Fitting ideal is
    the principal ideal on the twisted Laplacian determinant."""
    pic = picard_module(vg)
    lhs = module_fitting_ideal(pic, R)
    rhs = IdealLattice.from_generators([z_element(vg)])
    return lhs == rhs
