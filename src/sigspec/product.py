"""The marked product of two marked signed graphs.

Given (Sigma1, mu1) on n1 vertices and (Sigma2, mu2) on n2 vertices, the
product has 2*n1*n2 vertices: n2 clones a[i][k] of each Sigma1 vertex u_i
followed by n1 copies b[i][q] of the whole Sigma2 vertex set. Every edge
sign is the product of its endpoint marks, so the product is balanced by
construction and its own marking is a balance witness.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import MarkedSignedGraph, Marking, SignedGraph


@dataclass(frozen=True)
class ProductGraph:
    """Product result plus the provenance of every vertex."""

    graph: MarkedSignedGraph
    n1: int
    n2: int

    def a_vertex(self, i: int, k: int) -> int:
        """Index of clone k of first-factor vertex i."""
        if not (0 <= i < self.n1 and 0 <= k < self.n2):
            raise IndexError(f"a[{i}][{k}] out of range")
        return i * self.n2 + k

    def b_vertex(self, i: int, q: int) -> int:
        """Index of second-factor vertex q in copy i."""
        if not (0 <= i < self.n1 and 0 <= q < self.n2):
            raise IndexError(f"b[{i}][{q}] out of range")
        return self.n1 * self.n2 + i * self.n2 + q

    def vertex_label(self, v: int) -> str:
        block = self.n1 * self.n2
        if not (0 <= v < 2 * block):
            raise IndexError(f"vertex {v} out of range")
        if v < block:
            return f"a[{v // self.n2}][{v % self.n2}]"
        v -= block
        return f"b[{v // self.n2}][{v % self.n2}]"


def product(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> ProductGraph:
    """Marked product of mg1 and mg2 (not commutative)."""
    g1, mu1 = mg1.graph, mg1.marking
    g2, mu2 = mg2.graph, mg2.marking
    n1, n2 = g1.n, g2.n
    block = n1 * n2

    def a_idx(i: int, k: int) -> int:
        return i * n2 + k

    def b_idx(i: int, q: int) -> int:
        return block + i * n2 + q

    edges: list[tuple[int, int, int]] = []
    # clones of every first-factor edge: all n2 x n2 pairs
    for i, j, _ in g1.edges:
        s = mu1[i] * mu1[j]
        for k in range(n2):
            for l in range(n2):
                edges.append((a_idx(i, k), a_idx(j, l), s))
    # one full copy of the second factor per first-factor vertex
    for r in range(n1):
        for p, q, _ in g2.edges:
            edges.append((b_idx(r, p), b_idx(r, q), mu2[p] * mu2[q]))
    # join fiber i of clones to copy i completely
    for i in range(n1):
        si = mu1[i]
        for p in range(n2):
            for q in range(n2):
                edges.append((a_idx(i, p), b_idx(i, q), si * mu2[q]))

    marks = [0] * (2 * block)
    for i in range(n1):
        for k in range(n2):
            marks[a_idx(i, k)] = mu1[i]
            marks[b_idx(i, k)] = mu2[k]

    graph = SignedGraph(2 * block, edges)
    expected_edges = n2 * n2 * (n1 + g1.num_edges) + n1 * g2.num_edges
    if graph.num_edges != expected_edges:
        raise AssertionError("product edge count diverged from the closed form")
    return ProductGraph(graph=MarkedSignedGraph(graph, Marking(marks)),
                        n1=n1, n2=n2)


def degrees(pg: ProductGraph) -> tuple[int, ...]:
    """Underlying degree of every product vertex, in vertex order."""
    return pg.graph.graph.degrees()


def corona(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> MarkedSignedGraph:
    """Independent corona construction: join vertex i of mg1 to all of copy i of mg2.

    Uses the mu-signed versions of both factors and endpoint-product signs on
    the join edges, laid out as all mg1 vertices then copy 0, copy 1, ...
    For a one-vertex second factor this is the pendant construction that the
    marked product degenerates to.
    """
    g1, mu1 = mg1.graph, mg1.marking
    g2, mu2 = mg2.graph, mg2.marking
    n1, n2 = g1.n, g2.n
    edges: list[tuple[int, int, int]] = []
    for i, j, _ in g1.edges:
        edges.append((i, j, mu1[i] * mu1[j]))
    for i in range(n1):
        base = n1 + i * n2
        for p, q, _ in g2.edges:
            edges.append((base + p, base + q, mu2[p] * mu2[q]))
        for q in range(n2):
            edges.append((i, base + q, mu1[i] * mu2[q]))
    marks = list(mu1) + [mu2[q] for _ in range(n1) for q in range(n2)]
    return MarkedSignedGraph(SignedGraph(n1 + n1 * n2, edges), Marking(marks))
