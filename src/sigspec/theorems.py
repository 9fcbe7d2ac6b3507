"""Factored characteristic polynomials of the marked product.

The product of (Sigma1, mu1) on n1 vertices with (Sigma2, mu2) on n2
vertices has two blocks. Each matrix M of A, L and Q has, on the clone
block, a scalar diagonal d plus s*A(Sigma1^mu) (x) J_n2, and on the copy
block one copy N of a matrix of Sigma2 per first-factor vertex; the
coupling between them is +-diag(mu1) (x) 1 mu2^T:

    A:  d = 0,             s = +1,  N = A(Sigma2^mu)
    L:  d = n2*(r1 + 1),   s = -1,  N = L(Sigma2^mu) + n2*I
    Q:  d = n2*(r1 + 1),   s = +1,  N = Q(Sigma2^mu) + n2*I

where d is the clone degree of an r1-regular first factor;
degree_mode="paper" puts the published constant r1 + 2*n2 there instead.

Eliminating the copy blocks (a Schur complement) leaves
(x - d)I - (s*A(Sigma1^mu) + c(x) I) (x) J_n2, where c = num/den =
mu2^T (xI - N)^-1 mu2 is the reduced coronal of N and shared = charpoly(N)
/ den. J_n2 has eigenvalue n2 once and 0 otherwise, so

    det(xI - M) = (x - d)^(n1(n2-1)) * shared^n1 * prod_i (u - lam_i*v)

with u = (x - d)*den - n2*num, v = n2*den and lam_i the eigenvalues of
s*A(Sigma1^mu). The bracket prod_i (u - lam_i*v) is assembled without
computing eigenvalues by composing the charpoly of s*A(Sigma1^mu) with u/v.
Every factor is monic: den is, and deg num < deg den.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .coronal import CoronalTriple, signed_coronal
from .exact import Matrix, Poly, charpoly, compose_with_rational
from .graphs import (MarkedSignedGraph, adjacency_matrix, matrices,
                     mu_signed_graph, regular_degree, require_regular)

DegreeMode = Literal["constructed", "paper"]
MatrixKind = Literal["A", "L", "Q"]


@dataclass(frozen=True)
class FactoredCharPoly:
    """det(xI - M) = linear^linear_exponent * shared^shared_exponent * bracket.

    linear is x - d for the clone-block diagonal d, shared the cofactor of
    the copy block's reduced coronal den in its charpoly, and the bracket is
    prod_i (bracket_u - lam_i * bracket_v) over the eigenvalues lam_i of the
    integer matrix bracket_matrix, so its roots can be found one small
    polynomial per eigenvalue. All three factors are monic. The expansion is
    built on first access only, because integrality and energy need the
    factors alone.
    """

    matrix_kind: MatrixKind
    linear_factor: Poly
    linear_exponent: int
    shared_factor: Poly
    shared_exponent: int
    bracket: Poly
    bracket_u: Poly
    bracket_v: Poly
    bracket_matrix: Matrix

    @cached_property
    def assembled(self) -> Poly:
        rest = (self.shared_factor ** self.shared_exponent) * self.bracket
        if self.linear_factor == Poly.x():
            # x^e shifts the coefficients; no product needed
            expanded = Poly([0] * self.linear_exponent + list(rest.coeffs))
        else:
            expanded = (self.linear_factor ** self.linear_exponent) * rest
        total = (self.linear_exponent
                 + self.shared_exponent * self.shared_factor.degree
                 + self.bracket.degree)
        if total != expanded.degree:
            raise AssertionError("factored degrees do not add up")
        if not expanded.is_monic:
            raise AssertionError("assembled polynomial must be monic")
        return expanded


def coronal_of_mu_graph(mg: MarkedSignedGraph) -> CoronalTriple:
    """Reduced coronal of the mu-signed version of mg, with mg's marking."""
    return signed_coronal(adjacency_matrix(mu_signed_graph(mg)), list(mg.marking))


def _a_degree(r1: int, n2: int, degree_mode: DegreeMode) -> int:
    # clone vertices have degree n2*(r1+1) in the constructed product;
    # "paper" keeps the published constant r1 + 2*n2 for comparison runs
    if degree_mode == "constructed":
        return n2 * (r1 + 1)
    if degree_mode == "paper":
        return r1 + 2 * n2
    raise ValueError(f"degree_mode must be 'constructed' or 'paper', got {degree_mode!r}")


def factored_charpoly(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                      kind: MatrixKind,
                      degree_mode: DegreeMode = "constructed") -> FactoredCharPoly:
    """Factored charpoly of the product's A, L or Q (see the module docstring).

    L and Q need both factors regular; degree_mode picks the clone-block
    diagonal d for them and is ignored for A.
    """
    n1, n2 = mg1.graph.n, mg2.graph.n
    mu_graph2 = mu_signed_graph(mg2)
    if kind == "A":
        d, copy_block = 0, adjacency_matrix(mu_graph2)
    elif kind in ("L", "Q"):
        r1 = require_regular(mg1.graph, "first factor")
        require_regular(mg2.graph, "second factor")
        d = _a_degree(r1, n2, degree_mode)
        copy_block = getattr(matrices(mu_graph2), kind) + Matrix.diagonal([n2] * n2)
    else:
        raise ValueError(f"matrix kind must be A, L or Q, got {kind!r}")
    coro = signed_coronal(copy_block, list(mg2.marking))
    linear = Poly.linear(-d)
    u = linear * coro.den - n2 * coro.num
    v = n2 * coro.den
    # the clone block of L carries -A(Sigma1^mu) (x) J
    a1 = adjacency_matrix(mu_signed_graph(mg1))
    m = -a1 if kind == "L" else a1
    # v^n1 * chi_m(u/v) = prod_i (u - lam_i*v): one composition, no eigenvalues
    return FactoredCharPoly(matrix_kind=kind, linear_factor=linear,
                            linear_exponent=n1 * (n2 - 1), shared_factor=coro.shared,
                            shared_exponent=n1,
                            bracket=compose_with_rational(charpoly(m), u, v),
                            bracket_u=u, bracket_v=v, bracket_matrix=m)


@dataclass(frozen=True)
class CospectralFamilyReport:
    """Product cospectrality check for a cospectral input pair."""

    side: Literal["left", "right"]
    hypothesis_cospectral: bool
    hypothesis_coronal_equal: bool | None
    regular_inputs: bool
    a_match: bool
    l_match: bool | None
    q_match: bool | None

    @property
    def hypothesis_holds(self) -> bool:
        if not self.hypothesis_cospectral:
            return False
        return self.hypothesis_coronal_equal is not False

    @property
    def consistent(self) -> bool:
        """True unless the hypothesis holds and some product charpoly differs."""
        if not self.hypothesis_holds:
            return True
        return self.a_match and self.l_match is not False and self.q_match is not False


def cospectral_family_check(mg_a: MarkedSignedGraph, mg_b: MarkedSignedGraph,
                            mg: MarkedSignedGraph,
                            side: Literal["left", "right"]) -> CospectralFamilyReport:
    """Do cospectral factors give cospectral products on the given side?

    side="left" compares mg_a * mg and mg_b * mg (cospectral mu-graphs
    suffice); side="right" compares mg * mg_a and mg * mg_b (equal reduced
    coronals are hypothesised as well).
    """
    from .product import product

    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    f_a = charpoly(adjacency_matrix(mu_signed_graph(mg_a)))
    f_b = charpoly(adjacency_matrix(mu_signed_graph(mg_b)))
    hypothesis_cospectral = f_a == f_b
    hypothesis_coronal: bool | None = None
    if side == "right":
        ca, cb = coronal_of_mu_graph(mg_a), coronal_of_mu_graph(mg_b)
        hypothesis_coronal = (ca.num, ca.den) == (cb.num, cb.den)

    if side == "left":
        pa, pb = product(mg_a, mg), product(mg_b, mg)
    else:
        pa, pb = product(mg, mg_a), product(mg, mg_b)
    ma, mb = matrices(pa.graph), matrices(pb.graph)
    a_match = charpoly(ma.A) == charpoly(mb.A)
    regular = all(regular_degree(x.graph) is not None for x in (mg_a, mg_b, mg))
    l_match = q_match = None
    if regular:
        l_match = charpoly(ma.L) == charpoly(mb.L)
        q_match = charpoly(ma.Q) == charpoly(mb.Q)
    return CospectralFamilyReport(side=side,
                                  hypothesis_cospectral=hypothesis_cospectral,
                                  hypothesis_coronal_equal=hypothesis_coronal,
                                  regular_inputs=regular,
                                  a_match=a_match, l_match=l_match, q_match=q_match)
