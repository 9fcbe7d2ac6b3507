"""Integrality detection and equienergetic family construction on top of the product."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Callable

import numpy as np

from .coronal import CoronalTriple, star_coronal_closed_form
from .exact import _BATCH_ENTRIES, Poly, _exact_ints, charpoly
from .graphs import (MarkedSignedGraph, adjacency_matrix, complete, complete_bipartite,
                     line_graph, prism, regular_degree, star)
from .spectra import EnergyValue, IntegralityResult, symmetric_eigenvalues
from .theorems import (FactoredCharPoly, _composed_bracket, factored_charpoly,
                       factored_charpolys)


@dataclass(frozen=True)
class IntegralityReport:
    """Eigenvalue-free integrality verdict for a product, from its factored form."""

    n1: int
    n2: int
    linear_root: int
    linear_exponent: int
    shared: IntegralityResult
    bracket: IntegralityResult

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
    when the latter two have only integer roots. The bracket is decided per
    eigenvalue of the first factor (see _bracket_integrality) and is never
    expanded unless its quotient is read.
    """
    return _integrality_report(factored_charpoly(mg1, mg2, "A"), IntegralityResult.of)


def _integrality_report(fc: FactoredCharPoly,
                        of: Callable[[Poly], IntegralityResult]) -> IntegralityReport:
    # of: IntegralityResult.of, or a memo of it shared by a batch
    return IntegralityReport(n1=fc.bracket_matrix.nrows, n2=fc.copy_block.nrows,
                             linear_root=0, linear_exponent=fc.linear_exponent,
                             shared=of(fc.shared_factor),
                             bracket=_bracket_integrality(
                                 of(fc.bracket_charpoly), fc.bracket_u, fc.bracket_v,
                                 lambda: fc.bracket, of))


def _bracket_integrality(eigen: IntegralityResult, u: Poly, v: Poly,
                         bracket: Callable[[], Poly],
                         of: Callable[[Poly], IntegralityResult]) -> IntegralityResult:
    """Integer roots of the bracket prod_i (u - lam_i * v), lam_i the roots of
    a monic integer chi, decided per eigenvalue from eigen = of(chi).

    u = (x - d)*den - n2*num and v = n2*den come from a reduced coronal
    num/den. At an integer root x of u - lam*v, v(x) != 0, because num and
    den are coprime, so lam = u(x)/v(x) is rational; a root of the monic
    integer chi is an algebraic integer, so lam is an integer. So the
    bracket's integer roots are those of u - lam*v over the integer lam,
    each counted lam's multiplicity times, and the bracket splits over Z
    exactly when chi does and so does each such u - lam*v. Each u - lam*v
    goes through of (IntegralityResult.of or a memo of it); bracket builds
    the expansion, only if the quotient is read.
    """
    integral, roots = eigen.integral, []
    for lam, k in Counter(eigen.roots).items():
        factor = of(u - lam * v)
        integral = integral and factor.integral
        roots += factor.roots * k
    roots.sort()
    return IntegralityResult(integral=integral, roots=tuple(roots),
                             build_quotient=lambda: bracket().divexact(
                                 prod((Poly([-r, 1]) for r in roots), start=Poly.constant(1))))


@dataclass(frozen=True)
class StarProductReport:
    """Integrality of mg1 * star via the star's closed-form coronal."""

    n: int
    center_mark: int
    star_integral: bool
    shared: IntegralityResult
    bracket: IntegralityResult
    as_stated_bracket: IntegralityResult

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
    """Integrality of mg1 * K_{1,n} from the star's closed-form coronal.

    Every product edge sign is a product of endpoint marks, so the product is
    balanced and its spectrum matches the underlying unsigned product: the
    effective coronal is the all-positive star's (center mark +1) no matter
    how the star is signed. The cubic for the passed center_mark is also
    extracted so the two verdicts can be compared. This is the first report
    of star_integral_checks for the one case, built alone: g is the charpoly
    of A(|Sigma1|), and no general report is made.
    """
    # the closed forms check n and center_mark before any charpoly is taken
    effective, stated = (star_coronal_closed_form(n, k) for k in (1, center_mark))
    g = charpoly(adjacency_matrix(mg1.graph.underlying_positive()))
    return _star_report(n, center_mark, effective, stated, g, cache(IntegralityResult.of))


def star_integral_checks(cases: list[tuple[MarkedSignedGraph, int, int]]
                         ) -> list[tuple[StarProductReport, IntegralityReport]]:
    """star_product_integral_check(mg1, n, center_mark) and integral_product_check
    of mg1 * star for each case (mg1, n, center_mark).

    star is K_{1,n} with canonical marking and its first edge signed
    center_mark, so that its center mark is center_mark. The product's
    spectrum does not see signs or markings (see the theorems module), so
    the general check is that of mg1 * K_{1,n} all positive, and the center
    mark enters the closed forms only. One factored_charpolys batch over the
    distinct pairs (mg1, unsigned star) gives every general check, so each
    star's copy block coronal and each underlying first factor's adjacency
    charpoly are computed once. Both checks decide per eigenvalue of that
    same charpoly g. The star fixes the closed forms, copy block, u, v and
    n2, and g fixes n1 and the eigenvalue verdicts, so each result is made
    once per what it depends on and shared by every case with it: each
    closed form once per (n, mark), the general report and the effective
    (mark +1) bracket once per (n, g), and the closed-form report once per
    (n, center_mark, g). Every distinct polynomial's integer roots, over
    all of them, are taken once.
    """
    # ints first: a bool would hide behind an equal int key of the distinct stars
    _exact_ints(x for _, n, center_mark in cases for x in (n, center_mark))
    closed = {key: star_coronal_closed_form(*key)
              for key in dict.fromkeys(k for _, n, m in cases for k in ((n, 1), (n, m)))}
    stars = {n: MarkedSignedGraph.with_canonical_marking(star(n + 1)) for n, _ in closed}
    pairs = dict.fromkeys((mg1, n) for mg1, n, _ in cases)
    fcs = dict(zip(pairs, factored_charpolys([(mg1, stars[n]) for mg1, n in pairs], "A",
                                             ["constructed"])))
    of = cache(IntegralityResult.of)
    general, by_key, reports = {}, {}, []
    for mg1, n, m in cases:
        (fc,) = fcs[mg1, n]
        g = fc.bracket_charpoly
        if (n, g) not in general:
            general[n, g] = (_integrality_report(fc, of),
                             _star_bracket(n, closed[n, 1], g, of))
        report, bracket = general[n, g]
        if (n, m, g) not in by_key:
            by_key[n, m, g] = (_star_report(n, m, closed[n, 1], closed[n, m], g, of, bracket),
                               report)
        reports.append(by_key[n, m, g])
    return reports


def _star_bracket(n: int, fn: CoronalTriple, g: Poly,
                  of: Callable[[Poly], IntegralityResult]) -> IntegralityResult:
    # the bracket verdict of mg1 * K_{1,n} with the star coronal fn, from g,
    # the first factor's adjacency charpoly, decided per eigenvalue; of as
    # in _integrality_report
    u = Poly.x() * fn.den - (n + 1) * fn.num
    v = (n + 1) * fn.den
    return _bracket_integrality(of(g), u, v, lambda: _composed_bracket(g, u, v), of)


def _star_report(n: int, center_mark: int, effective: CoronalTriple, stated: CoronalTriple,
                 g: Poly, of: Callable[[Poly], IntegralityResult],
                 bracket: IntegralityResult | None = None) -> StarProductReport:
    # the closed-form verdicts from g; bracket is the effective (mark +1)
    # one, _star_bracket(n, effective, g, of), made here where it is not
    # given. The shared factor comes from the effective coronal only
    if bracket is None:
        bracket = _star_bracket(n, effective, g, of)
    as_stated = bracket if center_mark == 1 else _star_bracket(n, stated, g, of)
    return StarProductReport(n=n, center_mark=center_mark,
                             star_integral=math.isqrt(n) ** 2 == n,
                             shared=of(effective.shared), bracket=bracket,
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

    Hypotheses on the inputs' underlying graphs, which fix the products'
    spectra (see the theorems module): not cospectral (exact),
    equienergetic within tol, equal reduced coronals with the all-ones
    vector. On failure no product quantity is computed and the certificate
    names the failed clauses.

    Everything comes from the factors alone; no product is built. One
    factored_charpolys call gives the factored A forms of mg * mg1 and
    mg * mg2. Each form's copy block is its input's underlying adjacency
    matrix A(|Sigma|), so its coronal and energy are the input's; each
    product's charpoly is the assembled form, and its energy is
    factored_energy_estimate of the form: eigenvalues of n1 bordered
    matrices of order n2 + 1.
    """
    (f1,), (f2,) = factored_charpolys([(mg, mg1), (mg, mg2)], "A", ["constructed"])
    c1, c2 = f1.coronal, f2.coronal
    e1, e2 = (EnergyValue.of(symmetric_eigenvalues(f.copy_block), tol) for f in (f1, f2))
    non_cospectral = c1.charpoly != c2.charpoly
    equienergetic = abs(e1.value - e2.value) <= tol
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

    pf1, pf2 = f1.assembled, f2.assembled
    pe1, pe2 = factored_energy_estimate(f1), factored_energy_estimate(f2)
    products_non_cospectral = pf1 != pf2
    energy_close = abs(pe1 - pe2) <= tol
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
        product_order=2 * mg.graph.n * mg1.graph.n,
        product_energy_1=pe1, product_energy_2=pe2,
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

    For each eigenvalue lam of fc.bracket_matrix, the bordered matrix
    B = [[d + lam*n2, sqrt(n2)*1^T], [sqrt(n2)*1, N]], with N the copy
    block, 1 the all-ones vector and d the root of the linear factor, has
    det(xI - B) = shared * (u - lam*v) (see FactoredCharPoly). The eigenvalues
    of these n1 symmetric matrices of order n2 + 1 are therefore the roots of
    shared^n1 * bracket, and the energy is n1(n2 - 1)*|d| plus the sum of
    their absolute values. No polynomial root is ever taken.

    The bordered matrices go to one stacked eigvalsh call per chunk of at
    most _BATCH_ENTRIES entries; each matrix's eigenvalues are summed
    descending and the matrices in the bracket's eigenvalue order, as one
    symmetric_eigenvalues call per matrix would.
    """
    d = -fc.linear_factor.coeff(0)
    n2 = fc.copy_block.nrows
    b = np.zeros((n2 + 1, n2 + 1))
    b[1:, 1:] = fc.copy_block.rows()
    b[0, 1:] = b[1:, 0] = math.sqrt(n2)
    total = fc.linear_exponent * abs(float(d))
    lams = symmetric_eigenvalues(fc.bracket_matrix).values
    step = max(1, _BATCH_ENTRIES // (n2 + 1) ** 2)
    for lo in range(0, len(lams), step):
        chunk = np.array(lams[lo:lo + step])
        stack = np.repeat(b[None], len(chunk), axis=0)
        stack[:, 0, 0] = d + chunk * n2
        for values in np.linalg.eigvalsh(stack)[:, ::-1].tolist():
            total += sum(abs(x) for x in values)
    return total
