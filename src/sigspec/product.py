"""The marked product of two marked signed graphs.

Given (Sigma1, mu1) on n1 vertices and (Sigma2, mu2) on n2 vertices, the
product has 2*n1*n2 vertices: n2 clones a[i][k] of each Sigma1 vertex u_i
followed by n1 copies b[i][q] of the whole Sigma2 vertex set. Every edge
sign is the product of its endpoint marks, so the product is balanced by
construction and its own marking is a balance witness.

With a one-vertex second factor the product is the pendant corona of
McLeman & McNicholas ("Spectra of coronae", LAA 2011). That independent
construction is a cross-check only, so it lives in the tests
(tests/reference.py), not here.
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

    # the edges in normal form (sorted, i < j) as three columns, so the one
    # normal-form pass of SignedGraph._from_columns keeps them as they are:
    # every edge at a clone runs to a higher clone or to a copy, and every
    # copy vertex comes after every clone
    higher: list[list[int]] = [[] for _ in range(n1)]
    for i, j, _ in g1.edges:
        higher[i].append(j)
    ii: list[int] = []
    jj: list[int] = []
    ss: list[int] = []
    for i in range(n1):
        si = mu1[i]
        # the clones of i's higher neighbours, all n2 x n2 pairs, then the
        # complete join of fiber i of clones to copy i
        ends = [j * n2 + l for j in higher[i] for l in range(n2)]
        ends += range(block + i * n2, block + (i + 1) * n2)
        signs = [si * mu1[j] for j in higher[i] for _ in range(n2)]
        signs += [si * m for m in mu2]
        for a in range(i * n2, (i + 1) * n2):
            ii += [a] * len(ends)
            jj += ends
            ss += signs
    # one full copy of the second factor per first-factor vertex
    pp, qq, _ = g2._columns()
    copy_signs = [mu2[p] * mu2[q] for p, q in zip(pp, qq)]
    for base in range(block, 2 * block, n2):
        ii += [base + p for p in pp]
        jj += [base + q for q in qq]
        ss += copy_signs

    # clone a[i][k] carries mu1[i], copy vertex b[i][q] carries mu2[q]: the
    # factors' checked signs, so the marking takes no second pass
    marks = [m for m in mu1 for _ in range(n2)] + list(mu2.signs) * n1

    graph = SignedGraph._from_columns(2 * block, ii, jj, ss)
    expected_edges = n2 * n2 * (n1 + g1.num_edges) + n1 * g2.num_edges
    if graph.num_edges != expected_edges:
        raise AssertionError("product edge count diverged from the closed form")
    return ProductGraph(graph=MarkedSignedGraph(graph, Marking._from_signs(marks)),
                        n1=n1, n2=n2)
