"""Factored characteristic polynomials of the marked product.

For the product of (Sigma1, mu1) with (Sigma2, mu2), the characteristic
polynomial of each of A, L, Q splits into a repeated linear factor, the
substituted shared factor of the second factor's coronal, and a "bracket"
product over the first factor's mu-graph eigenvalues. The bracket is
assembled without computing eigenvalues by composing the first factor's
characteristic polynomial with one rational function.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .coronal import CoronalTriple, signed_coronal
from .exact import Matrix, Poly, charpoly, compose_with_rational
from .graphs import (MarkedSignedGraph, adjacency_matrix, mu_signed_graph,
                     require_regular)

DegreeMode = Literal["constructed", "paper"]
MatrixKind = Literal["A", "L", "Q"]


@dataclass(frozen=True)
class FactoredCharPoly:
    """Characteristic polynomial in factored form; `assembled` expands it.

    The bracket is prod_i (bracket_u - lam_i * bracket_v) over the
    eigenvalues lam_i of the integer matrix bracket_matrix, so its roots can
    be found one small polynomial per eigenvalue. The expansion
    linear^linear_exponent * shared^shared_exponent * bracket is built on
    first access only, because integrality and energy need the factors alone.
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
        expanded = expanded.monic()
        total = (self.linear_exponent
                 + self.shared_exponent * self.shared_factor.degree
                 + self.bracket.degree)
        if total != expanded.degree:
            raise AssertionError("factored degrees do not add up")
        if not expanded.is_monic:
            raise AssertionError("assembled polynomial must be monic")
        return expanded


def _assemble(kind: MatrixKind, linear: Poly, exponent: int, shared: Poly,
              n1: int, u: Poly, v: Poly, m: Matrix) -> FactoredCharPoly:
    # v^k * chi_m(u/v) = prod_i (u - lam_i*v) for m of order k: one composition,
    # no eigenvalues
    bracket = compose_with_rational(charpoly(m), u, v)
    return FactoredCharPoly(matrix_kind=kind, linear_factor=linear,
                            linear_exponent=exponent, shared_factor=shared,
                            shared_exponent=n1, bracket=bracket, bracket_u=u,
                            bracket_v=v, bracket_matrix=m)


def _first_factor_matrix(mg1: MarkedSignedGraph) -> Matrix:
    return adjacency_matrix(mu_signed_graph(mg1))


def coronal_of_mu_graph(mg: MarkedSignedGraph) -> CoronalTriple:
    """Reduced coronal of the mu-signed version of mg, with mg's marking."""
    return signed_coronal(adjacency_matrix(mu_signed_graph(mg)), list(mg.marking))


def adjacency_factored(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> FactoredCharPoly:
    """x^(n1(n2-1)) * shared(x)^n1 * prod_i [x*den(x) - n2*(lam_i*den(x) + num(x))].

    num/den is the reduced coronal of the second factor's mu-graph, shared its
    cofactor in that charpoly, and the lam_i run over the first factor's
    mu-graph eigenvalues (eliminated via one rational composition).
    """
    n1, n2 = mg1.graph.n, mg2.graph.n
    coro = coronal_of_mu_graph(mg2)
    u = Poly.x() * coro.den - n2 * coro.num
    v = n2 * coro.den
    return _assemble("A", Poly.x(), n1 * (n2 - 1), coro.shared, n1, u, v,
                     _first_factor_matrix(mg1))


def _a_degree(r1: int, n2: int, degree_mode: DegreeMode) -> int:
    # clone vertices have degree n2*(r1+1) in the constructed product;
    # "paper" keeps the published constant r1 + 2*n2 for comparison runs
    if degree_mode == "constructed":
        return n2 * (r1 + 1)
    if degree_mode == "paper":
        return r1 + 2 * n2
    raise ValueError(f"degree_mode must be 'constructed' or 'paper', got {degree_mode!r}")


def laplacian_factored(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                       degree_mode: DegreeMode = "constructed") -> FactoredCharPoly:
    """Factored charpoly of L for regular factors.

    The coronal argument flips to r2 + n2 - x and the bracket adds the
    eigenvalue term: prod_i [(x - d_a)*den(s) + n2*(lam_i*den(s) + num(s))]
    with s = r2 + n2 - x. (A Schur-complement derivation forces the plus
    sign; the K2 pendant case distinguishes it from the minus variant.)
    """
    r1 = require_regular(mg1.graph, "first factor")
    r2 = require_regular(mg2.graph, "second factor")
    n1, n2 = mg1.graph.n, mg2.graph.n
    coro = coronal_of_mu_graph(mg2)
    d_a = _a_degree(r1, n2, degree_mode)
    s = Poly.linear(r2 + n2, -1)
    den_s = coro.den.compose(s)
    num_s = coro.num.compose(s)
    u = Poly.linear(-d_a) * den_s + n2 * num_s
    v = n2 * den_s
    # the negated mu-adjacency has the negated eigenvalues, turning u + lam*v
    # into u - (-lam)*v
    return _assemble("L", Poly.linear(-d_a), n1 * (n2 - 1),
                     coro.shared.compose(s), n1, u, v, -_first_factor_matrix(mg1))


def signless_factored(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                      degree_mode: DegreeMode = "constructed") -> FactoredCharPoly:
    """Factored charpoly of Q for regular factors; argument shifts to x - r2 - n2."""
    r1 = require_regular(mg1.graph, "first factor")
    r2 = require_regular(mg2.graph, "second factor")
    n1, n2 = mg1.graph.n, mg2.graph.n
    coro = coronal_of_mu_graph(mg2)
    d_a = _a_degree(r1, n2, degree_mode)
    s = Poly.linear(-(r2 + n2), 1)
    den_s = coro.den.compose(s)
    num_s = coro.num.compose(s)
    u = Poly.linear(-d_a) * den_s - n2 * num_s
    v = n2 * den_s
    return _assemble("Q", Poly.linear(-d_a), n1 * (n2 - 1),
                     coro.shared.compose(s), n1, u, v, _first_factor_matrix(mg1))


def factored_charpoly(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                      kind: MatrixKind,
                      degree_mode: DegreeMode = "constructed") -> FactoredCharPoly:
    if kind == "A":
        return adjacency_factored(mg1, mg2)
    if kind == "L":
        return laplacian_factored(mg1, mg2, degree_mode)
    if kind == "Q":
        return signless_factored(mg1, mg2, degree_mode)
    raise ValueError(f"matrix kind must be A, L or Q, got {kind!r}")


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
    from .graphs import matrices, regular_degree

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
