"""Integrality detection and equienergetic family construction on top of the product."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coronal import star_coronal_closed_form
from .exact import (Poly, Scalar, charpoly, compose_with_rational, integer_roots,
                    poly_gcd)
from .graphs import (MarkedSignedGraph, adjacency_matrix, complete,
                     complete_bipartite, line_graph, mu_signed_graph, prism,
                     regular_degree)
from .product import product
from .spectra import energy, symmetric_eigenvalues
from .theorems import FactoredCharPoly, coronal_of_mu_graph, factored_charpoly


@dataclass(frozen=True)
class FactorIntegrality:
    """Integer-root extraction of one factor of a factored charpoly."""

    polynomial: Poly
    roots: tuple[int, ...]
    quotient: Poly

    @classmethod
    def of(cls, p: Poly) -> "FactorIntegrality":
        roots, quotient = integer_roots(p)
        return cls(polynomial=p, roots=roots, quotient=quotient)

    @property
    def integral(self) -> bool:
        return self.quotient.degree == 0


@dataclass(frozen=True)
class IntegralityReport:
    """Eigenvalue-free integrality verdict for a product, from its factored form."""

    n1: int
    n2: int
    linear_root: int
    linear_exponent: int
    shared: FactorIntegrality
    bracket: FactorIntegrality

    @property
    def integral(self) -> bool:
        return self.shared.integral and self.bracket.integral

    @property
    def all_roots(self) -> tuple[int, ...] | None:
        """Full spectrum as an integer multiset, when integral."""
        if not self.integral:
            return None
        roots = [self.linear_root] * self.linear_exponent
        roots += list(self.shared.roots) * self.n1
        roots += list(self.bracket.roots)
        return tuple(sorted(roots))


def integral_product_check(mg1: MarkedSignedGraph,
                           mg2: MarkedSignedGraph) -> IntegralityReport:
    """Integrality of the product spectrum without building the product.

    The factored adjacency charpoly has an x^(n1(n2-1)) factor (root 0), the
    shared factor and the bracket product; the product is integral exactly
    when the latter two have only integer roots.
    """
    fc = factored_charpoly(mg1, mg2, "A")
    return IntegralityReport(n1=mg1.graph.n, n2=mg2.graph.n,
                             linear_root=0, linear_exponent=fc.linear_exponent,
                             shared=FactorIntegrality.of(fc.shared_factor),
                             bracket=FactorIntegrality.of(fc.bracket))


def star_bracket_cubic(n: int, lam: Scalar, center_mark: int) -> Poly:
    """x(x^2-n) - n2*lam*(x^2-n) - n2*((n+1)x + 2n*center_mark), with n2 = n+1."""
    n2 = n + 1
    star_den = Poly([-n, 0, 1])
    star_num = Poly([2 * n * center_mark, n + 1])
    return Poly.x() * star_den - n2 * lam * star_den - n2 * star_num


def star_bracket_cubic_expanded(n: int, lam: Scalar, center_mark: int) -> Poly:
    """The same cubic written out: x^3 - n2*lam*x^2 - (n2^2+n2-1)x + n2(n2-1)(lam-2m)."""
    n2 = n + 1
    return Poly([n2 * (n2 - 1) * (lam - 2 * center_mark),
                 -(n2 * n2 + n2 - 1),
                 -n2 * lam,
                 1])


@dataclass(frozen=True)
class StarProductReport:
    """Integrality of mg1 * star via the star's closed-form coronal."""

    n: int
    center_mark: int
    star_integral: bool
    shared: FactorIntegrality
    bracket: FactorIntegrality
    as_stated_bracket: FactorIntegrality

    @property
    def integral(self) -> bool:
        """Verdict from the coronal that actually enters the product."""
        return self.shared.integral and self.bracket.integral

    @property
    def as_stated_integral(self) -> bool:
        """Verdict from the cubic with the passed center mark."""
        return self.shared.integral and self.as_stated_bracket.integral


def star_product_integral_check(mg1: MarkedSignedGraph, n: int,
                                center_mark: int = 1) -> StarProductReport:
    """Integrality of mg1 * K_{1,n} from closed forms, no matrices built.

    Every product edge sign is a product of endpoint marks, so the product is
    balanced and its spectrum matches the underlying unsigned product: the
    effective coronal is the all-positive star's (center mark +1) no matter
    how the star is signed. The cubic for the passed center_mark is also
    extracted so the two verdicts can be compared.
    """
    if n < 1:
        raise ValueError("the star needs at least one leaf")
    if center_mark not in (1, -1):
        raise ValueError("center mark must be +1 or -1")
    n2 = n + 1
    g = charpoly(adjacency_matrix(mu_signed_graph(mg1)))
    star_charpoly = Poly([0] * (n - 1) + [-n, 0, 1])

    def composed_for(mark: int) -> tuple[FactorIntegrality, FactorIntegrality]:
        fn = star_coronal_closed_form(n, mark)
        u = Poly.x() * fn.den - n2 * fn.num
        v = n2 * fn.den
        shared = star_charpoly.divexact(fn.den)
        return FactorIntegrality.of(shared), FactorIntegrality.of(
            compose_with_rational(g, u, v))

    shared, bracket = composed_for(1)
    _, as_stated = composed_for(center_mark)
    return StarProductReport(n=n, center_mark=center_mark,
                             star_integral=math.isqrt(n) ** 2 == n,
                             shared=shared, bracket=bracket,
                             as_stated_bracket=as_stated)


@dataclass(frozen=True)
class EquienergeticCertificate:
    """Machine-checked construction of a non-cospectral equienergetic product pair."""

    valid: bool
    failed_clauses: tuple[str, ...]
    non_cospectral_inputs: bool
    equienergetic_inputs: bool
    coronal_equal: bool
    regular_shortcut: bool
    input_energy_1: float
    input_energy_2: float
    product_order: int | None = None
    product_energy_1: float | None = None
    product_energy_2: float | None = None
    products_non_cospectral: bool | None = None
    product_charpoly_1: Poly | None = None
    product_charpoly_2: Poly | None = None

    @property
    def input_energy_gap(self) -> float:
        return abs(self.input_energy_1 - self.input_energy_2)

    @property
    def product_energy_gap(self) -> float | None:
        if self.product_energy_1 is None or self.product_energy_2 is None:
            return None
        return abs(self.product_energy_1 - self.product_energy_2)


def equienergetic_family(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                         mg: MarkedSignedGraph,
                         tol: float = 1e-9) -> EquienergeticCertificate:
    """Certify that mg*mg1 and mg*mg2 are equienergetic but not cospectral.

    Hypotheses on the mu-graphs of mg1 and mg2: not cospectral (exact),
    equienergetic within tol, equal reduced coronals. On failure the products
    are not built and the certificate names the failed clauses.
    """
    m1, m2 = mu_signed_graph(mg1), mu_signed_graph(mg2)
    f1, f2 = charpoly(adjacency_matrix(m1)), charpoly(adjacency_matrix(m2))
    non_cospectral = f1 != f2
    e1, e2 = energy(m1, tol=tol), energy(m2, tol=tol)
    equienergetic = abs(e1.value - e2.value) <= tol
    c1, c2 = coronal_of_mu_graph(mg1), coronal_of_mu_graph(mg2)
    coronal_equal = (c1.num, c1.den) == (c2.num, c2.den)
    r1, r2 = regular_degree(mg1.graph), regular_degree(mg2.graph)
    shortcut = (r1 is not None and r1 == r2 and mg1.graph.n == mg2.graph.n)

    failed = []
    if not non_cospectral:
        failed.append("inputs are cospectral")
    if not equienergetic:
        failed.append("inputs are not equienergetic within tolerance")
    if not coronal_equal:
        failed.append("input coronals differ")
    if failed:
        return EquienergeticCertificate(
            valid=False, failed_clauses=tuple(failed),
            non_cospectral_inputs=non_cospectral,
            equienergetic_inputs=equienergetic, coronal_equal=coronal_equal,
            regular_shortcut=shortcut,
            input_energy_1=e1.value, input_energy_2=e2.value)

    p1, p2 = product(mg, mg1), product(mg, mg2)
    pf1 = charpoly(adjacency_matrix(p1.graph.graph))
    pf2 = charpoly(adjacency_matrix(p2.graph.graph))
    pe1, pe2 = energy(p1.graph, tol=tol), energy(p2.graph, tol=tol)
    products_non_cospectral = pf1 != pf2
    energy_close = abs(pe1.value - pe2.value) <= tol
    if not products_non_cospectral:
        failed.append("products are cospectral")
    if not energy_close:
        failed.append("product energies differ beyond tolerance")
    return EquienergeticCertificate(
        valid=not failed, failed_clauses=tuple(failed),
        non_cospectral_inputs=non_cospectral,
        equienergetic_inputs=equienergetic, coronal_equal=coronal_equal,
        regular_shortcut=shortcut,
        input_energy_1=e1.value, input_energy_2=e2.value,
        product_order=p1.graph.graph.n,
        product_energy_1=pe1.value, product_energy_2=pe2.value,
        products_non_cospectral=products_non_cospectral,
        product_charpoly_1=pf1, product_charpoly_2=pf2)


def demo_equienergetic_pair() -> tuple[MarkedSignedGraph, MarkedSignedGraph]:
    """Second line graphs of K_{3,3} and of the triangular prism, all positive.

    Both are 6-regular on 18 vertices with energy 36, and they are not
    cospectral: the canonical small pair satisfying the family hypotheses.
    """
    g1 = line_graph(line_graph(complete_bipartite(3, 3)))
    g2 = line_graph(line_graph(prism(3)))
    return (MarkedSignedGraph.with_canonical_marking(g1),
            MarkedSignedGraph.with_canonical_marking(g2))


def equienergetic_demo(tol: float = 1e-9,
                       base: MarkedSignedGraph | None = None) -> EquienergeticCertificate:
    """Run the certificate on the demo pair; base defaults to all-positive K2."""
    mg1, mg2 = demo_equienergetic_pair()
    if base is None:
        base = MarkedSignedGraph.with_canonical_marking(complete(2))
    return equienergetic_family(mg1, mg2, base, tol=tol)


def factored_energy_estimate(fc: FactoredCharPoly) -> float:
    """Energy read off a factored charpoly: sum of |root| over all factors.

    The bracket's roots are found per eigenvalue lam_i of its matrix, as the
    roots of the small polynomial u - lam_i * v (np.roots), never from the
    whole high-degree bracket, whose roots are ill-conditioned. The shared
    factor counts shared_exponent times and the repeated linear factor
    contributes |root| * exponent. np.roots would split a repeated root of
    the shared factor into a complex cluster, so that factor is peeled into
    square-free layers first: p / gcd(p, p') has every root of p once, and
    gcd(p, p') keeps the rest.
    """
    total = fc.linear_exponent * abs(float(-fc.linear_factor.coeff(0)))

    def floats(p: Poly, k: int) -> np.ndarray:
        # k coefficients, highest degree first, as np.roots takes them
        return np.array([float(p.coeff(i)) for i in range(k - 1, -1, -1)])

    def root_sum(coeffs: np.ndarray) -> float:
        return float(np.abs(np.roots(coeffs)).sum())

    p = fc.shared_factor
    while p.degree > 0:
        g = poly_gcd(p, Poly([k * c for k, c in enumerate(p.coeffs)][1:]))
        distinct = p.divexact(g)
        total += fc.shared_exponent * root_sum(floats(distinct, len(distinct.coeffs)))
        p = g
    k = max(len(fc.bracket_u.coeffs), len(fc.bracket_v.coeffs))
    u, v = floats(fc.bracket_u, k), floats(fc.bracket_v, k)
    for lam in symmetric_eigenvalues(fc.bracket_matrix).values:
        total += root_sum(u - lam * v)
    return total
