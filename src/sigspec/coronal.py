"""Signed coronals: the rational function mu^T (xI - N)^{-1} mu in reduced form.

CoronalTriple is the one reduced num/den type, and reduced_coronal, which
splits the gcd off the charpoly f and the adjugate form p, is the one place
that reduces one. A triple also keeps that gcd, so den * shared gives back
the charpoly, and its eval is the package's one rational value.

The star's closed form is here because integral-search reads it. The
regular balanced closed form n/(x - r) only checks signed_coronal, so it
lives in the tests (tests/reference.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .exact import Matrix, Poly, _exact_ints, _gcd_cofactors, charpoly_with_adjugate_form
from .graphs import _signs


@dataclass(frozen=True)
class CoronalTriple:
    """Reduced coronal num/den plus the factor shared with the charpoly.

    num/den is mu^T (xI - N)^{-1} mu in lowest terms with den monic;
    den * shared is the characteristic polynomial of N. deg num = deg den - 1
    always, because the unreduced numerator has leading coefficient mu^T mu.
    """

    num: Poly
    den: Poly
    shared: Poly

    def __post_init__(self):
        if self.den.is_zero or not self.den.is_monic or not self.shared.is_monic:
            raise ValueError("coronal denominator and shared factor must be monic")
        if self.num.degree != self.den.degree - 1:
            raise ValueError("coronal numerator degree must be deg(den) - 1")

    @property
    def charpoly(self) -> Poly:
        return self.den * self.shared

    def eval(self, x: Rational) -> Rational:
        """The value num(x)/den(x): an int where it is integral, else a Fraction."""
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of the coronal at {x}")
        q = Fraction(self.num.eval(x), d)
        return q.numerator if q.denominator == 1 else q


def signed_coronal(n_matrix: Matrix, mu: Sequence[int]) -> CoronalTriple:
    """Coronal of the matrix with respect to a +-1 vector.

    f = charpoly(N) and p = mu^T adj(xI - N) mu come from
    charpoly_with_adjugate_form, and reduced_coronal splits off their gcd.
    """
    if not n_matrix.is_square:
        raise ValueError("coronal requires a square matrix")
    mu = _signs(mu, n_matrix.nrows, "coronal vector entries")
    return reduced_coronal(*charpoly_with_adjugate_form(n_matrix, mu))


def reduced_coronal(f: Poly, p: Poly) -> CoronalTriple:
    """(num, den, shared) = (p/g, f/g, g) with g = gcd(p, f), for f = charpoly(N)
    and p = mu^T adj(xI - N) mu; the quotients are the gcd's cofactors."""
    g, num, den = _gcd_cofactors(p, f)
    return CoronalTriple(num=num, den=den, shared=g)


def _row_sum_coronal(chi: Poly, n: int, sigma: int) -> CoronalTriple:
    """Coronal, with the all-ones vector, of an order-n integer matrix N with
    charpoly chi whose rows all sum to sigma.

    N 1 = sigma 1, so (xI - N)^-1 1 = 1/(x - sigma) 1 and the coronal is
    n/(x - sigma), in lowest terms because n is not 0. sigma is an
    eigenvalue of N, so x - sigma divides chi and shared = chi/(x - sigma).
    No adjugate form and no gcd is needed; the triple equals
    reduced_coronal(*charpoly_with_adjugate_form(N, (1,) * n)).
    """
    den = Poly.linear(-sigma)
    return CoronalTriple(num=Poly.constant(n), den=den, shared=chi.divexact(den))


def star_coronal_closed_form(n: int, center_mark: int) -> CoronalTriple:
    """Coronal of a signed star on n+1 vertices with canonical marking.

    ((n+1)x + 2n*center_mark) / (x^2 - n), where center_mark is the product
    of the edge signs at the center: reduced_coronal of the star's charpoly
    x^(n-1)(x^2 - n) and the form x^(n-1)((n+1)x + 2n*center_mark), so the
    n = 1 case collapses to a linear denominator.
    """
    _exact_ints((n,))
    if n < 1:
        raise ValueError("star closed form needs at least one leaf")
    (center_mark,) = _signs((center_mark,), what="center marks")
    leaves = Poly.x() ** (n - 1)
    return reduced_coronal(leaves * Poly([-n, 0, 1]), leaves * Poly([2 * n * center_mark, n + 1]))
