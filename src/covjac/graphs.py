"""Finite multigraphs in the half-edge (dart) formalism.

A graph is a list of darts (directed half-edges) together with a
fixed-point-free involution pairing each dart with its reversal.  Loops
and parallel edges are allowed; a loop contributes two darts at the same
vertex and therefore adds 2 to the degree and nothing to the Laplacian.
The number of edges is half the number of darts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DisconnectedGraphError
from .intlinalg import det_exact, smith_normal_form_full


class Dart(NamedTuple):
    id: int
    src: int
    dst: int
    partner: int


class Graph:
    """Immutable multigraph given by darts with a pairing involution."""

    __slots__ = ("vertex_count", "darts", "_out", "_edges", "_edge_of_dart")

    def __init__(self, vertex_count: int, darts):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        darts = tuple(Dart(*d) for d in darts)
        if len(darts) % 2:
            raise ValueError("darts must come in involution pairs")
        for i, d in enumerate(darts):
            if d.id != i:
                raise ValueError("dart ids must equal their positions")
            if not (0 <= d.src < vertex_count and 0 <= d.dst < vertex_count):
                raise ValueError("dart endpoint out of range")
            p = darts[d.partner]
            if p.partner != d.id or p.id == d.id:
                raise ValueError("partner map must be a fixed-point-free involution")
            if p.src != d.dst or p.dst != d.src:
                raise ValueError("partner dart must reverse orientation")
        self.vertex_count = vertex_count
        self.darts = darts
        out: list[list[int]] = [[] for _ in range(vertex_count)]
        for d in darts:
            out[d.src].append(d.id)
        self._out = tuple(tuple(v) for v in out)
        edges = tuple(d.id for d in darts if d.id < d.partner)
        self._edges = edges
        eod = {}
        for idx, lo in enumerate(edges):
            eod[lo] = (idx, True)
            eod[darts[lo].partner] = (idx, False)
        self._edge_of_dart = eod

    @property
    def edge_count(self) -> int:
        return len(self.darts) // 2

    def out_darts(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def degree(self, v: int) -> int:
        return len(self._out[v])

    def edges(self) -> tuple[int, ...]:
        """Canonical edge list: the lower dart id of each involution pair."""
        return self._edges

    def edge_of_dart(self, dart_id: int) -> tuple[int, bool]:
        """Return (edge index, True iff the dart is the canonical one)."""
        return self._edge_of_dart[dart_id]

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Build a graph from (u, v) pairs; edge i becomes darts 2i and 2i+1."""
    darts = []
    for i, (u, v) in enumerate(edge_list):
        darts.append(Dart(2 * i, u, v, 2 * i + 1))
        darts.append(Dart(2 * i + 1, v, u, 2 * i))
    return Graph(vertex_count, darts)


def graph_from_json(obj) -> Graph:
    try:
        n = int(obj["vertices"])
        edges = [(int(e["u"]), int(e["v"])) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return build_graph(n, edges)


def graph_to_json(g: Graph) -> dict:
    edges = [{"u": g.darts[d].src, "v": g.darts[d].dst} for d in g.edges()]
    return {"vertices": g.vertex_count, "edges": edges}


def adjacency(g: Graph) -> list[list[int]]:
    a = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for d in g.darts:
        a[d.src][d.dst] += 1
    return a


def laplacian(g: Graph) -> list[list[int]]:
    """Degree matrix minus adjacency; loops cancel out."""
    lap = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for v in range(g.vertex_count):
        lap[v][v] = g.degree(v)
    for d in g.darts:
        lap[d.src][d.dst] -= 1
    return lap


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for d in g.out_darts(v):
                w = g.darts[d].dst
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Invariant-factor form of a finitely generated abelian group."""

    invariant_factors: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        fs = self.invariant_factors
        for i, d in enumerate(fs):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and d % fs[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees of a connected multigraph: a principal
    minor of the Laplacian (matrix-tree theorem)."""
    if not is_connected(g):
        raise DisconnectedGraphError("spanning trees require a connected graph")
    if g.vertex_count == 1:
        return 1
    return det_exact([row[1:] for row in laplacian(g)[1:]])


def jacobian(g: Graph) -> AbelianGroupStructure:
    """Degree-zero divisor class group (sandpile group) of a connected graph.

    The invariant factors are the nontrivial diagonal entries of the Smith
    normal form of the Laplacian; connectivity forces exactly one zero,
    which is discarded.  The order equals the spanning tree count.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("the Jacobian requires a connected graph")
    d, _, _, _, _ = smith_normal_form_full(laplacian(g))
    diag = [d[i][i] for i in range(g.vertex_count)]
    zeros = sum(1 for x in diag if x == 0)
    if zeros != 1:
        raise RuntimeError("connected Laplacian must have corank exactly 1")
    return AbelianGroupStructure(tuple(x for x in diag if x >= 2))
