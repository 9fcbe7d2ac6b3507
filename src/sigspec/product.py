"""The marked product of two marked signed graphs.

Given (Sigma1, mu1) on n1 vertices and (Sigma2, mu2) on n2 vertices, the
product has 2*n1*n2 vertices: n2 clones a[i][k] of each Sigma1 vertex u_i
followed by n1 copies b[i][q] of the whole Sigma2 vertex set. Every edge
sign is the product of its endpoint marks, so the product is balanced by
construction and its own marking is a balance witness.

Which edges the product has therefore depends on the underlying graphs
|Sigma1| and |Sigma2| alone, and the markings fix only the signs. It is
built in two steps: _skeleton gives the endpoint columns of the product
of the underlying graphs, checked once for the edge count and the normal
form, and _marked_product signs them for one pair of markings with no
second check. product is the two in turn; a caller with many markings of
one underlying pair makes the skeleton once.

With a one-vertex second factor the product is the pendant corona of
McLeman & McNicholas ("Spectra of coronae", LAA 2011). That independent
construction is a cross-check only, so it lives in the tests
(tests/reference.py), not here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import MarkedSignedGraph, Marking, SignedGraph, _normal_form

# (N, ii, jj): a product's order and its endpoint columns in normal form
_Skeleton = tuple[int, tuple[int, ...], tuple[int, ...]]


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


def _skeleton(g1: SignedGraph, g2: SignedGraph) -> _Skeleton:
    """(N, ii, jj): the order and the endpoint columns, in normal form, of
    the product of the underlying graphs |g1| and |g2|.

    The edges come in the order _marked_product signs them: fiber by fiber
    of clones, each clone's edges to the clones of higher neighbours and
    then to its copy, followed by the copies. That order is the normal form
    (sorted, i < j): every edge at a clone runs to a higher clone or to a
    copy, and every copy vertex comes after every clone. Both the edge
    count and the normal form are checked here, once per underlying pair.
    """
    n1, n2 = g1.n, g2.n
    block = n1 * n2
    higher: list[list[int]] = [[] for _ in range(n1)]
    for i, j in zip(*g1._columns()[:2]):
        higher[i].append(j)
    ii: list[int] = []
    jj: list[int] = []
    for i in range(n1):
        # the clones of i's higher neighbours, all n2 x n2 pairs, then the
        # complete join of fiber i of clones to copy i
        ends = [j * n2 + l for j in higher[i] for l in range(n2)]
        ends += range(block + i * n2, block + (i + 1) * n2)
        for a in range(i * n2, (i + 1) * n2):
            ii += [a] * len(ends)
            jj += ends
    # one full copy of the second factor per first-factor vertex
    pp, qq, _ = g2._columns()
    for base in range(block, 2 * block, n2):
        ii += [base + p for p in pp]
        jj += [base + q for q in qq]
    if len(ii) != n2 * n2 * (n1 + g1.num_edges) + n1 * g2.num_edges:
        raise AssertionError("product edge count diverged from the closed form")
    if not _normal_form(2 * block, ii, jj):
        raise AssertionError("product edges are not in normal form")
    return 2 * block, tuple(ii), tuple(jj)


def _marked_product(skeleton: _Skeleton, mg1: MarkedSignedGraph,
                    mg2: MarkedSignedGraph) -> ProductGraph:
    """The marked product of mg1 and mg2 on the skeleton of their underlying
    graphs, _skeleton(mg1.graph, mg2.graph), whose columns are not checked
    again: each edge takes the product of its endpoint marks."""
    n, ii, jj = skeleton
    g1, mu1 = mg1.graph, mg1.marking
    g2, mu2 = mg2.graph, mg2.marking
    n1, n2 = g1.n, g2.n
    higher: list[list[int]] = [[] for _ in range(n1)]
    for i, j in zip(*g1._columns()[:2]):
        higher[i].append(j)
    # per fiber of clones the signs of one clone's edges, the same for all
    # n2 clones of the fiber; then the copy signs, the same for all n1 copies
    ss: list[int] = []
    for i in range(n1):
        si = mu1[i]
        signs = [si * mu1[j] for j in higher[i] for _ in range(n2)]
        signs += [si * m for m in mu2]
        ss += signs * n2
    pp, qq, _ = g2._columns()
    ss += [mu2[p] * mu2[q] for p, q in zip(pp, qq)] * n1

    # clone a[i][k] carries mu1[i], copy vertex b[i][q] carries mu2[q]: the
    # factors' checked signs, so the marking takes no second pass
    marks = [m for m in mu1 for _ in range(n2)] + list(mu2.signs) * n1

    graph = SignedGraph._from_normal_columns(n, ii, jj, tuple(ss))
    return ProductGraph(graph=MarkedSignedGraph(graph, Marking._from_signs(marks)),
                        n1=n1, n2=n2)


def product(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> ProductGraph:
    """Marked product of mg1 and mg2 (not commutative)."""
    return _marked_product(_skeleton(mg1.graph, mg2.graph), mg1, mg2)
