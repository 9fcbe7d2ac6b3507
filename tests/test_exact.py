import ast
import itertools
import random
import time
from collections import Counter
from math import comb, isqrt, prod
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from sigspec import exact
from sigspec.exact import (Matrix, Poly, _charpoly_residues,
                           _coefficient_bound, _crt_lift, _primes_past, _shifted,
                           _square_free_parts, charpoly, charpoly_with_adjugate_form,
                           charpolys, compose_with_rational, integer_roots, poly_gcd)
from sigspec.graphs import (MarkedSignedGraph, adjacency_matrix, complete, complete_bipartite,
                            line_graph)
from sigspec.product import product

from reference import adjugate_quadratic_form

# small exact entries keep the sympy oracles affordable inside properties
entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(Matrix))


STRATA = ("small", "symmetric", "no_pivot", "block", "laplacian",
          "prime_multiples", "wide", "scalar")


@st.composite
def kernel_matrices(draw):
    """Integer matrices of orders 1 to 16.

    Each stratum aims at a way an exact charpoly kernel could go wrong: a
    column with no pivot below the diagonal, or none on the subdiagonal,
    which trips elimination; block-diagonal structure; L/Q-style
    diagonals; entries that vanish modulo one prime only (the kernel's
    first prime at order n, the largest below its ceiling); entries up to 2^40, which need many primes; and the
    scalar matrix d*I, whose charpoly (x - d)^n attains the coefficient bound
    the prime count is chosen from.
    """
    n = draw(st.integers(min_value=1, max_value=16))
    stratum = draw(st.sampled_from(STRATA))

    def square(values):
        flat = draw(st.lists(values, min_size=n * n, max_size=n * n))
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    def symmetrize(rows):
        return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]

    if stratum == "scalar":
        d = draw(st.integers(min_value=-(1 << 40), max_value=1 << 40))
        rows = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    elif stratum == "wide":
        rows = square(st.integers(min_value=-(1 << 40), max_value=1 << 40))
    elif stratum == "prime_multiples":
        # an entry that is a multiple of the first prime vanishes modulo that
        # prime only, so that prime sees a sparser matrix than the others
        first = _primes_past(1, n)[0]
        rows = square(st.sampled_from([0, 1, -1, first, -first, 2 * first]))
    elif stratum == "laplacian":
        adj = symmetrize(square(st.sampled_from([0, 0, 1, -1])))
        sign = draw(st.sampled_from([1, -1]))
        rows = [[sum(abs(adj[i][k]) for k in range(n) if k != i) if i == j
                 else sign * adj[i][j] for j in range(n)] for i in range(n)]
    else:
        rows = square(entries)
        if stratum == "symmetric":
            rows = symmetrize(rows)
        elif stratum == "block":
            k = draw(st.integers(min_value=0, max_value=n))
            rows = [[x if (i < k) == (j < k) else 0 for j, x in enumerate(r)]
                    for i, r in enumerate(rows)]
        elif stratum == "no_pivot":
            # per column, zero nothing, the subdiagonal entry, or all below the diagonal
            for j in range(n - 1):
                cut = draw(st.sampled_from([0, 1, n]))
                for i in range(j + 1, min(n, j + 1 + cut)):
                    rows[i][j] = 0
    return stratum, Matrix(rows)


def test_poly_basics():
    p = Poly([1, 0, -1])
    assert p.degree == 2
    assert p.pretty() == "-x^2 + 1"
    assert Poly.x().pretty() == "x"
    assert Poly.linear(3, -2).pretty() == "-2x + 3"
    assert (Poly.x() ** 3 - Poly.constant(1)).eval(2) == 7
    assert Poly([]).is_zero and Poly([]).degree == -1


def test_poly_arithmetic_and_division():
    x = Poly.x()
    p = (x - 1) * (x + 2) * (x + 2)
    q, r = divmod(p, x + 2)
    assert r.is_zero
    assert q == (x - 1) * (x + 2)
    assert divmod(p, x - 1)[1] == Poly([])
    assert p.divexact(x - 1) == (x + 2) ** 2
    with pytest.raises(ArithmeticError):
        p.divexact(x - 5)


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly([0.5, 1])
    with pytest.raises(TypeError):
        Poly.constant(True)
    # an exponent follows the same int rule
    for bad in (True, 2.0):
        with pytest.raises(TypeError):
            Poly.x() ** bad
    with pytest.raises(ValueError):
        Poly.x() ** -1


def test_integral_coefficients_are_stored_as_ints():
    # int is the one coefficient type: a Fraction is refused even when integral
    for bad in (Fraction(4, 2), Fraction(1, 3), Fraction(3)):
        with pytest.raises(TypeError):
            Poly([bad, 5])
        with pytest.raises(TypeError):
            Poly([1, 5]) * bad
        with pytest.raises(TypeError):
            Poly([1, 5]) + bad
    p = Poly([2, 3, 5])
    assert all(type(c) is int for c in p.coeffs)
    assert p.coeff(7) == 0 and type(p.coeff(7)) is int
    assert type((p * 3).coeff(1)) is int


def test_exact_division_never_makes_floats():
    x = Poly.x()
    q, r = divmod((x + 1) * Poly([1, 2]), Poly([1, 2]))
    assert q == x + 1 and r.is_zero
    assert all(type(c) is int for c in q.coeffs)
    # x^2 = (2x + 1)(x/2 - 1/4) + 1/4 has no quotient over Z
    with pytest.raises(ArithmeticError):
        divmod(x ** 2, Poly([1, 2]))
    with pytest.raises(ArithmeticError):
        (x ** 2).divexact(Poly([1, 2]))


def test_poly_gcd():
    x = Poly.x()
    g = poly_gcd((x - 1) * (x + 2), (x - 1) * (x + 3))
    assert g == x - 1
    assert poly_gcd(x, Poly([])) == x
    assert poly_gcd(Poly([]), Poly([-4, -6])) == Poly([4, 6])
    # content is part of the gcd over Z; the leading coefficient is positive
    assert poly_gcd(Poly([-4, -4]), Poly([6, 6])) == Poly([2, 2])
    assert poly_gcd(Poly([3, 6]), Poly([5])) == Poly.constant(1)
    # at the first xi = 6, gcd(8, 4) = 4 reads back as x - 2, which does not
    # divide x + 2: the candidate is refused and xi grows
    assert poly_gcd(x + 2, x - 2) == Poly.constant(1)
    with pytest.raises(ValueError):
        poly_gcd(Poly([]), Poly([]))


# small coefficients give many common roots, large ones pass 2^64
gcd_coeffs = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-(1 << 70), max_value=1 << 70))


@given(gc=st.lists(gcd_coeffs, min_size=1, max_size=6).filter(any),
       ac=st.lists(gcd_coeffs, max_size=6),
       bc=st.lists(gcd_coeffs, max_size=6))
@example(gc=[2, 2], ac=[], bc=[3, 0, 3])
@example(gc=[-1 << 65, 3], ac=[1, 1], bc=[1, -1])
@settings(max_examples=200, deadline=None)
def test_poly_gcd_matches_sympy(gc, ac, bc):
    # oracle: sympy's gcd over ZZ of g*a and g*b, non-monic, non-primitive and
    # with zero operands included
    g = Poly(gc)
    a, b = g * Poly(ac), g * Poly(bc)
    if a.is_zero and b.is_zero:
        return
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)) or [0], x, domain=sympy.ZZ)

    want = to_sympy(a).gcd(to_sympy(b))
    assert poly_gcd(a, b).coeffs == tuple(int(c) for c in reversed(want.all_coeffs()))


@given(gc=st.lists(gcd_coeffs, min_size=1, max_size=6).filter(any),
       ac=st.lists(gcd_coeffs, max_size=6),
       bc=st.lists(gcd_coeffs, max_size=6))
# a zero input; negative leading coefficients with contents 6 and 4 over a
# common content 2; a zero input beside one with a negative leading coefficient
@example(gc=[3, -6], ac=[], bc=[1, 1])
@example(gc=[2, 2], ac=[-3, 0, -3], bc=[2, -2])
@example(gc=[-1, -1], ac=[1, 1], bc=[])
@settings(max_examples=200, deadline=None)
def test_gcd_cofactors_multiply_back(gc, ac, bc):
    # the cofactors are the quotients of GCDHEU's acceptance test with the
    # content and sign of each input put back, so g * (a/g) is a exactly
    g = Poly(gc)
    a, b = g * Poly(ac), g * Poly(bc)
    if a.is_zero and b.is_zero:
        with pytest.raises(ValueError):
            exact._gcd_cofactors(a, b)
        return
    d, qa, qb = exact._gcd_cofactors(a, b)
    assert d == poly_gcd(a, b)
    assert d * qa == a and d * qb == b


@given(pc=st.lists(gcd_coeffs, max_size=8), dc=st.lists(gcd_coeffs, max_size=4))
@settings(max_examples=100, deadline=None)
def test_division_by_a_monic_divisor(pc, dc):
    # a monic divisor reads each quotient coefficient off the remainder; the
    # quotient and remainder are the unique ones with deg r < deg d
    p, d = Poly(pc), Poly(dc + [1])
    q, r = divmod(p, d)
    assert q * d + r == p and r.degree < d.degree


def _built_from_checked_ints(p):
    # what a Poly the package builds without the type pass must still be:
    # ints only, no trailing zero, and equal to the checked constructor's Poly
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p == Poly(list(p.coeffs))


@given(ac=st.lists(gcd_coeffs, max_size=10), bc=st.lists(gcd_coeffs, max_size=10),
       s=gcd_coeffs, lam=st.integers(min_value=-3, max_value=3),
       e=st.integers(min_value=0, max_value=4), zeros=st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_internal_polys_hold_checked_ints(ac, bc, s, lam, e, zeros):
    a, b = Poly(ac + [0] * zeros), Poly(bc)
    monic = b + Poly.x() ** (b.degree + 1)
    made = [a + b, a - b, -a, a * b, a * a, a * s, s * a, a + s, s - a, a ** 3,
            *divmod(a, monic), exact._derivative(a), _shifted(a, lam),
            exact._times_linear(a, {lam: e, 0: zeros}), compose_with_rational(a, b, monic)]
    if a or b:
        made += exact._gcd_cofactors(a, b)
    if a:
        made += [exact._primitive(a)[1], integer_roots(a)[1]]
    for p in made:
        _built_from_checked_ints(p)


@given(cs=st.lists(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=6),
                   min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_crt_lift_polys_hold_checked_ints(cs):
    # residues of small integer polynomials, with trailing zeros, lift back to them
    primes = [1000003, 1000033]
    width = max(map(len, cs))
    rows = [c + [0] * (width - len(c)) for c in cs]
    residues = np.array([[[x % q for x in c] for q in primes] for c in rows], dtype=np.int64)
    lifted = _crt_lift(primes, residues)
    assert lifted == [Poly(c) for c in cs]
    for p in lifted:
        _built_from_checked_ints(p)


# oracle: den^deg(g) * g(num/den) agrees with plain rational evaluation
@given(gc=st.lists(entries, min_size=1, max_size=5),
       nc=st.lists(entries, min_size=1, max_size=4),
       dc=st.lists(entries, min_size=1, max_size=4),
       x0=st.integers(min_value=-6, max_value=6))
def test_compose_with_rational_matches_point_evaluation(gc, nc, dc, x0):
    g, num, den = Poly(gc), Poly(nc), Poly(dc)
    if g.is_zero or den.is_zero or den.eval(x0) == 0:
        return
    composed = compose_with_rational(g, num, den)
    lhs = Fraction(composed.eval(x0))
    rhs = Fraction(den.eval(x0)) ** max(g.degree, 0) * g.eval(
        Fraction(num.eval(x0), den.eval(x0)))
    assert lhs == rhs


@given(pc=st.lists(entries, max_size=12), shift=st.integers(min_value=-40, max_value=40))
def test_shifted_is_composition_with_x_plus_s(pc, shift):
    # the Taylor shift p(x + s) that maps a shifted matrix's charpoly back
    p = Poly(pc)
    assert _shifted(p, shift) == compose_with_rational(p, Poly([shift, 1]), Poly.constant(1))


def _chunk_boundaries():
    # coefficients at and next to +-2^(8w-1), where a w-byte chunk changes sign
    edges = [s * ((1 << (8 * w - 1)) + d) for w in range(1, 6)
             for d in (-1, 0, 1) for s in (1, -1)]
    return st.sampled_from(edges)


def _horner_compose(g, num, den):
    # den^deg(g) * g(num/den) by Horner over a table of den's powers: the
    # reference the balanced split in compose_with_rational is checked against
    if g.is_zero:
        return Poly()
    k = g.degree
    den_pow = [Poly.constant(1)]
    for _ in range(k):
        den_pow.append(den_pow[-1] * den)
    acc = Poly.constant(g.coeff(k))
    for j in range(k - 1, -1, -1):
        acc = acc * num + g.coeff(j) * den_pow[k - j]
    return acc


# zeros, small values and chunk-boundary values, so that g can hold zero
# coefficients anywhere and the products straddle a Kronecker byte width
composition_coeffs = st.one_of(st.just(0), entries, _chunk_boundaries())


@given(gc=st.lists(composition_coeffs, min_size=1, max_size=41),
       nc=st.one_of(st.just([]), st.lists(composition_coeffs, min_size=1, max_size=4)),
       dc=st.lists(composition_coeffs, min_size=1, max_size=4).filter(any))
@example(gc=[0] * 40 + [1], nc=[], dc=[3])
@example(gc=[1, 0, -2, 0, 0, 5], nc=[0, 1], dc=[7])
@example(gc=[(1 << 31) + 1] * 40, nc=[-(1 << 15), 1 << 15], dc=[1 << 23, 0, -1])
@settings(max_examples=150, deadline=None)
def test_compose_with_rational_matches_horner(gc, nc, dc):
    # g of degree 0..40 reaches every split depth on both odd and even lengths;
    # num may be zero and den a constant
    g, num, den = Poly(gc), Poly(nc), Poly(dc)
    assert compose_with_rational(g, num, den) == _horner_compose(g, num, den)


@pytest.mark.parametrize("k", range(41))
def test_compose_with_rational_matches_horner_at_every_degree(k):
    rng = random.Random(k)
    g = Poly([rng.choice([0, 0, 1, -3, (1 << 39) - 1, -(1 << 23)]) for _ in range(k)] + [1])
    u, v = Poly([rng.randint(-9, 9) for _ in range(4)] + [1]), Poly([5, -2, 0, 1])
    assert compose_with_rational(g, u, v) == _horner_compose(g, u, v)
    assert compose_with_rational(g, Poly(), v) == g.coeff(0) * v ** k
    assert compose_with_rational(g, u, Poly.constant(-2)) == _horner_compose(
        g, u, Poly.constant(-2))


int_coeffs = st.lists(st.one_of(st.integers(min_value=-3, max_value=3),
                                st.integers(min_value=-(1 << 70), max_value=1 << 70),
                                _chunk_boundaries()),
                      min_size=1, max_size=24)


@given(a=int_coeffs, b=int_coeffs)
@settings(max_examples=300, deadline=None)
def test_integral_product_matches_sympy(a, b):
    # lengths straddle the schoolbook cutoff; zeros can fall anywhere, including
    # the top coefficients that Poly strips
    x = sympy.Symbol("x")
    want = (sympy.Poly(list(reversed(a)), x, domain="ZZ")
            * sympy.Poly(list(reversed(b)), x, domain="ZZ")).all_coeffs()
    want = [int(c) for c in reversed(want)]
    while want and want[-1] == 0:
        want.pop()
    got = Poly(a) * Poly(b)
    assert all(c.denominator == 1 for c in got.coeffs)
    assert [c.numerator for c in got.coeffs] == want
    # a square multiplies one packed int by itself
    want = [int(c) for c in reversed((sympy.Poly(list(reversed(a)), x, domain="ZZ") ** 2)
                                     .all_coeffs())]
    assert list((Poly(a) ** 2).coeffs) == (want if any(a) else [])


@pytest.mark.parametrize("la, lb", [(9, 9), (15, 20), (16, 16), (31, 40)])
def test_integral_product_at_the_coefficient_bound(la, lb):
    # all coefficients at +-(2^k - 1) put the middle product coefficients at
    # the size the chunk width is chosen for; every bit length pair is tried
    # so that some of them land exactly on a byte boundary
    x = sympy.Symbol("x")
    for ka in range(1, 25):
        for kb in range(1, 25):
            a = [(1 << ka) - 1] * la
            b = [-((1 << kb) - 1)] * lb
            want = (sympy.Poly(a, x, domain="ZZ") * sympy.Poly(b, x, domain="ZZ")).all_coeffs()
            got = Poly(a) * Poly(b)
            assert [c.numerator for c in got.coeffs] == [int(c) for c in reversed(want)]


def test_pow_does_not_square_past_top_bit(monkeypatch):
    products = []
    mul = Poly.__mul__

    def counted(self, other):
        out = mul(self, other)
        products.append(out.degree)
        return out

    monkeypatch.setattr(Poly, "__mul__", counted)
    p = Poly([1, 1]) ** 8
    assert p == Poly([1, 8, 28, 56, 70, 56, 28, 8, 1])
    # three squarings reach (x+1)^8, and no product by the constant 1; a
    # fourth squaring would build (x+1)^16 and drop it
    assert max(products) == 8
    assert len(products) == 3


def test_integer_roots_known():
    x = Poly.x()
    p = x ** 3 - Poly.constant(3) * x - Poly.constant(2)
    roots, rest = integer_roots(p)
    assert roots == (-1, -1, 2)
    assert rest == Poly.constant(1)
    roots, rest = integer_roots(x ** 2 - Poly.constant(2))
    assert roots == ()
    assert rest == x ** 2 - Poly.constant(2)


@given(rs=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5))
def test_integer_roots_reconstructs_products_of_linear_factors(rs):
    x = Poly.x()
    p = Poly.constant(1)
    for r in rs:
        p = p * (x - Poly.constant(r))
    roots, rest = integer_roots(p)
    assert list(roots) == sorted(rs)
    assert rest == Poly.constant(1)


def test_integer_roots_of_huge_squares_lift_past_the_bound():
    # the roots +-2^60 and +-3^20 are far beyond any scan: the parent scan
    # raised on the first and ran for minutes on the second
    x = Poly.x()
    for root in (1 << 60, 3 ** 20, 7 ** 31):
        start = time.perf_counter()
        roots, rest = integer_roots(x ** 2 - Poly.constant(root * root))
        assert time.perf_counter() - start < 1
        assert roots == (-root, root)
        assert rest == Poly.constant(1)
    roots, rest = integer_roots(Poly.constant(3) * (x - Poly.constant(1 << 80)) ** 3
                                * (x ** 2 + Poly.constant(1)) * x)
    assert roots == (0, 1 << 80, 1 << 80, 1 << 80)
    assert rest == Poly([3, 0, 3])


def test_integer_roots_take_square_free_parts_only_for_repeated_roots():
    # the square-free part is f/gcd(f, f'), the cofactor of one gcd call
    x = Poly.x()
    for p, roots, needs_gcd in [
            (x ** 3 - Poly.constant(3) * x - Poly.constant(2), (-1, -1, 2), True),
            ((x - Poly.constant(1)) ** 5 * (x + Poly.constant(2)) ** 3
             * (x ** 2 - Poly.constant(3)) * x ** 2, (-2, -2, -2, 0, 0, 1, 1, 1, 1, 1), True),
            # simple roots mod 5 and no root of x^2 + 1 mod 3: f itself will do
            (x ** 4 - Poly.constant(5) * x ** 2 + Poly.constant(4), (-2, -1, 1, 2), False),
            ((x - Poly.constant(2)) * (x ** 2 + Poly.constant(1)) ** 2, (2,), False)]:
        with mock.patch.object(exact, "_gcd_cofactors",
                               wraps=exact._gcd_cofactors) as gcd:
            got, rest = integer_roots(p)
        assert got == roots
        assert rest * prod((x - Poly.constant(r) for r in roots), start=Poly.constant(1)) == p
        assert gcd.call_count == needs_gcd


def test_integer_roots_search_odd_primes_past_the_fixed_ones():
    # (x - 1)^2 (x - 16) has a repeated root modulo 3 and 5, and so has its
    # square-free part (x - 1)(x - 16), since 16 = 1 modulo both; the search
    # over the odd primes goes on to 7
    x = Poly.x()
    p = (x - Poly.constant(1)) ** 2 * (x - Poly.constant(16))
    with mock.patch.object(exact, "_simple_roots_mod",
                           wraps=exact._simple_roots_mod) as spy:
        assert integer_roots(p) == ((1, 1, 16), Poly.constant(1))
    assert [call.args[2] for call in spy.call_args_list] == [3, 5, 3, 5, 7]


def sympy_poly(p):
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain="ZZ")


# random factors: linear with roots up to 2^70, and small ones of degree up to 3
factors = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70).map(lambda r: Poly([-r, 1])),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=4).map(Poly)
    .filter(lambda p: p.degree > 0))


@given(parts=st.lists(st.tuples(factors, st.integers(min_value=1, max_value=3)),
                      min_size=1, max_size=4),
       scale=st.sampled_from([1, -1, 2, -6]))
@settings(max_examples=150, deadline=None)
def test_integer_roots_match_sympy(parts, scale):
    # products with repeated factors, contents, negative leading coefficients
    # and huge roots; sympy's factorisation over ZZ is the reference
    p = Poly.constant(scale)
    for f, j in parts:
        p = p * f ** j
    with mock.patch.object(exact, "_gcd_cofactors", wraps=exact._gcd_cofactors) as gcd:
        roots, rest = integer_roots(p)
    _, sym = sympy_poly(p).factor_list()
    integer_factors = [(-int(f.all_coeffs()[1]) // int(f.all_coeffs()[0]), j) for f, j in sym
                       if f.degree() == 1 and abs(f.all_coeffs()[0]) == 1]
    want = sorted(r for r, j in integer_factors for _ in range(j))
    assert list(roots) == want
    # a repeated nonzero integer root is a repeated root modulo every prime,
    # so only the square-free part's candidates, from one gcd, can find it
    if any(r and j > 1 for r, j in integer_factors):
        assert gcd.call_count == 1
    product = rest
    for r in roots:
        product = product * Poly([-r, 1])
    assert product == p


@given(parts=st.lists(st.tuples(factors, st.integers(min_value=1, max_value=4)),
                      min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_square_free_parts_match_sympy(parts):
    p = Poly.constant(1)
    for f, j in parts:
        p = p * f ** j
    p = exact._primitive(p)[1]
    got = _square_free_parts(p)
    _, want = sympy_poly(p).sqf_list()
    assert [(list(reversed(s.coeffs)), j) for s, j in got] == [
        ([int(c) for c in s.all_coeffs()], j) for s, j in want]
    product = Poly.constant(1)
    for s, j in got:
        product = product * s ** j
    assert product == p


def test_matrix_holds_ints_only():
    assert type(Matrix([[2]])[0, 0]) is int
    with pytest.raises(TypeError):
        Matrix([[Fraction(4, 2)]])
    with pytest.raises(TypeError):
        Matrix([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        Matrix([[True]])


def test_charpoly_known_small():
    # K2 adjacency
    assert charpoly(Matrix([[0, 1], [1, 0]])) == Poly([-1, 0, 1])
    # all-positive triangle: (x+1)^2 (x-2)
    c3 = Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert charpoly(c3) == Poly([-2, -3, 0, 1])
    assert charpoly(Matrix([[5]])) == Poly.linear(-5)
    assert all(type(c) is int for c in charpoly(c3).coeffs)


def _shift(n: int, k: int) -> Matrix:
    # permutation matrix of i -> i + k mod n: for k >= 2 no pivot lies on the
    # subdiagonal, so every elimination step has to swap rows
    return Matrix([[1 if i == (j + k) % n else 0 for j in range(n)] for i in range(n)])


def _faddeev_leverrier(a: Matrix, u) -> tuple[Poly, Poly | None]:
    """Reference charpoly of a, and u^T adj(xI - a) u if u is given, by the
    integer Faddeev-LeVerrier recursion.

    The auxiliary matrices M_k satisfy adj(xI - a) = sum_k M_k x^(n-1-k), so
    one recursion gives both; every M_k of an integer matrix is an integer
    matrix, so it runs on Python ints in numpy object arrays.
    """
    n = a.nrows
    mat = np.array(a.rows(), dtype=object)
    m = np.identity(n, dtype=object)
    uv = None if u is None else np.array(u, dtype=object)
    coeffs, forms = [1], []
    for k in range(1, n + 1):
        if uv is not None:
            forms.append(int(uv @ (m @ uv)))
        m = mat @ m
        c, rem = divmod(-sum(m[i, i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(c)
        for i in range(n):
            m[i, i] += c
    assert not m.any()
    return Poly(coeffs[::-1]), None if u is None else Poly(forms[::-1])


# fixed examples: the bound-attaining scalar matrix, a matrix that needs a
# pivot swap in every column, and entries past int64
FIXED = [("scalar", Matrix.diagonal([-(1 << 40)] * 12)),
         ("no_pivot", _shift(13, 3)),
         ("wide", Matrix([[(-1) ** (i * j) * ((1 << 64) + i - 2 * j)
                           for j in range(12)] for i in range(12)]))]


@given(sm=kernel_matrices())
@example(sm=FIXED[0])
@example(sm=FIXED[1])
@example(sm=FIXED[2])
@settings(max_examples=120, deadline=None)
def test_charpoly_matches_determinant_oracle(sm):
    _, m = sm
    want = sympy.Matrix(m.rows()).charpoly(sympy.Symbol("x")).all_coeffs()
    assert list(charpoly(m).coeffs) == [int(c) for c in reversed(want)]


@given(sm=kernel_matrices(),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=16, max_size=16),
       x0=st.integers(min_value=-8, max_value=8))
@example(sm=FIXED[0], signs=[1, -1] * 8, x0=3)
@example(sm=FIXED[1], signs=[1, -1] * 8, x0=2)
@example(sm=FIXED[2], signs=[1, -1] * 8, x0=-1)
@settings(max_examples=120, deadline=None)
def test_adjugate_form_matches_solve_oracle(sm, signs, x0):
    _, m = sm
    n = m.shape[0]
    u = signs[:n]
    f, form = charpoly_with_adjugate_form(m, u)
    if f.eval(x0) == 0:
        return
    shifted = sympy.eye(n) * x0 - sympy.Matrix(m.rows())
    sol = (DomainMatrix.from_Matrix(shifted).to_field()
           .lu_solve(DomainMatrix.from_Matrix(sympy.Matrix(u)).to_field()).to_Matrix())
    direct = sum(ui * si for ui, si in zip(u, sol))
    # u^T adj(xI-M) u / det(xI-M) is the resolvent quadratic form
    assert Fraction(form.eval(x0), f.eval(x0)) == direct
    assert form.degree == n - 1 and form.leading == n


@given(sm=kernel_matrices())
@example(sm=FIXED[0])
@example(sm=FIXED[1])
@example(sm=FIXED[2])
@settings(max_examples=60, deadline=None)
def test_multimodular_kernel_matches_faddeev_leverrier(sm):
    _, m = sm
    bound = _coefficient_bound(m.rows())
    (residues,) = _charpoly_residues([([m.rows()], bound, ())])
    assert _crt_lift(*residues) == [_faddeev_leverrier(m, None)[0]]


@st.composite
def matrix_batches(draw):
    """Inputs for charpolys: matrices of mixed orders from 1 to 16, then up
    to three of one order from 12 to 14 whose entries go up to 1,
    2^20 or 2^70, so one prime list chosen for the largest row sum serves
    small and huge matrices alike, and entries past 2^63 share a batch with
    int64 ones. The order of the list is shuffled.
    """
    mats = [m for _, m in draw(st.lists(kernel_matrices(), max_size=4))]
    n = draw(st.integers(min_value=12, max_value=14))
    for scale in draw(st.lists(st.sampled_from([1, 1 << 20, 1 << 70]), max_size=3)):
        flat = draw(st.lists(st.integers(min_value=-scale, max_value=scale),
                             min_size=n * n, max_size=n * n))
        mats.append(Matrix([flat[i * n:(i + 1) * n] for i in range(n)]))
    return draw(st.permutations(mats))


@given(mats=matrix_batches())
@example(mats=[])
@example(mats=[FIXED[2][1], Matrix.diagonal([1] * 12), FIXED[1][1], Matrix([[3]]), FIXED[0][1]])
@settings(max_examples=30, deadline=None)
def test_charpolys_match_charpoly_and_faddeev_leverrier(mats):
    got = charpolys(mats)
    assert got == [charpoly(m) for m in mats]
    assert got == [_faddeev_leverrier(m, None)[0] for m in mats]


def _path_rows(n: int, d: int) -> list[list[int]]:
    # A(P_n) + d I
    return [[d if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


@st.composite
def mixed_order_items(draw):
    """Items for one _charpolys_with_forms call: one to six matrices of
    orders 1 to 40, each with or without a vector, so one call holds many
    order batches.

    A dense item has small entries; a shifted one also has a scalar
    diagonal, which the call subtracts; a bipartite one is symmetric with a
    scalar diagonal and no edge within either side, so from order 16 it
    goes to the kernel halved; a wide one, of order at most 6, has entries
    up to 2^70, past int64.
    """
    small = st.integers(min_value=-2, max_value=2)
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=40))
        kind = draw(st.sampled_from(["dense", "shifted", "bipartite", "wide"]))
        if kind == "wide":
            n = min(n, 6)
            big = st.integers(min_value=-(1 << 70), max_value=1 << 70)
            rows = [draw(st.lists(big, min_size=n, max_size=n)) for _ in range(n)]
        else:
            rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)]
        if kind in ("shifted", "bipartite"):
            d = draw(st.integers(min_value=-3, max_value=3))
            side = draw(st.integers(min_value=0, max_value=n))
            for i in range(n):
                for j in range(i, n):
                    if i == j:
                        rows[i][i] = d
                    elif kind == "bipartite":
                        rows[i][j] = rows[j][i] = rows[i][j] if (i < side) != (j < side) else 0
        u = draw(st.one_of(st.none(), st.lists(small, min_size=n, max_size=n)))
        items.append((Matrix(rows), u))
    return items


@given(items=mixed_order_items(), chunk=st.sampled_from([1, 1 << 12, exact._BATCH_ENTRIES]))
# a halved path, a shifted one, entries past int64 and order 1, with and
# without vectors, in one call
@example(items=[(Matrix(_path_rows(20, 2)), [1] * 20), (Matrix(_path_rows(9, -1)), None),
                (Matrix([[1 << 64, 3], [-5, -(1 << 66)]]), [1, -1]), (Matrix([[7]]), [2]),
                (Matrix(_path_rows(17, 0)), None)], chunk=1)
@settings(max_examples=25, deadline=None)
def test_one_call_over_mixed_orders_matches_faddeev_leverrier(items, chunk):
    # one exact call, however many order batches it holds and however its
    # batches are cut into chunks, gives each item the charpoly and form it
    # would get alone
    with mock.patch.object(exact, "_BATCH_ENTRIES", chunk):
        got = exact._charpolys_with_forms(items)
    assert got == [_faddeev_leverrier(m, u) for m, u in items]


@st.composite
def twin_blowups(draw):
    """A matrix with planted twin classes, the class of each row, and a vector u.

    A random integer base matrix b of order k, not symmetric, is blown up:
    class c gets 1 to 4 rows that all carry row c of b outside the class,
    zeros between them and the class's own diagonal lam_c. The lam_c differ,
    so the planted classes are exactly the twin classes. u is uniform on
    some classes and drawn row by row on others. Rows and columns are then
    permuted together, so twins need not be neighbours.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    lams = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k,
                         unique=True))
    scale = draw(st.sampled_from([4, 1 << 40]))
    flat = draw(st.lists(st.integers(min_value=-scale, max_value=scale),
                         min_size=k * k, max_size=k * k))
    u = []
    for m in sizes:
        if draw(st.booleans()):
            u += [draw(st.sampled_from([1, -1, 2]))] * m
        else:
            u += draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=m, max_size=m))
    classes = [c for c, m in enumerate(sizes) for _ in range(m)]
    order = draw(st.permutations(range(len(classes))))
    classes, u = [classes[i] for i in order], [u[i] for i in order]
    rows = [[lams[ci] if i == j else 0 if ci == cj else flat[ci * k + cj]
             for j, cj in enumerate(classes)] for i, ci in enumerate(classes)]
    return classes, lams, Matrix(rows), u


@given(blowup=twin_blowups())
# two twins with u = (1, -1) do not fold, and the plain matrix is all one class
@example(blowup=([0, 0], [3], Matrix([[3, 0], [0, 3]]), [1, -1]))
@example(blowup=([0, 0, 1, 0], [0, 5], Matrix([[0, 0, 2, 0], [0, 0, 2, 0], [-1, -1, 5, -1],
                                                [0, 0, 2, 0]]), [1, 1, 1, -1]))
@settings(max_examples=80, deadline=None)
def test_twin_fold_is_exact(blowup):
    # folding the twin classes splits off (x - lam_c)^(m_c - 1) and leaves
    # one row per class; with u, rows of one class with different u_i are
    # not twins of a + u u^T, and only equal-u rows fold
    classes, lams, m, u = blowup
    assert charpoly(m) == _faddeev_leverrier(m, None)[0]
    assert charpoly_with_adjugate_form(m, u) == _faddeev_leverrier(m, u)
    folded, update, linear = exact._fold_twins(m.rows(), None)
    sizes = Counter(classes)
    assert len(folded) == len(lams) and update is None
    assert linear == Counter({lams[c]: k - 1 for c, k in sizes.items() if k > 1})
    # the prime count is chosen from the folded matrix's column norms
    chi = _faddeev_leverrier(Matrix(folded), None)[0]
    assert max(map(abs, chi.coeffs)) <= _coefficient_bound(tuple(zip(*folded)))
    # u' holds the representatives' entries of u and w its class sums
    folded_u, (u_reps, w), _ = exact._fold_twins(m.rows(), tuple(u))
    assert len(folded_u) == len(u_reps) == len(w) == len(set(zip(classes, u)))
    assert sorted(zip(u_reps, w)) == sorted((ui, ui * Counter(zip(classes, u))[c, ui])
                                            for c, ui in set(zip(classes, u)))


@st.composite
def bipartite_blowups(draw):
    """c I + [[0, B], [C, 0]], with rows and columns permuted together, the
    scalar c and a vector u.

    B is p x q and C q x p for sides of p and q classes, unequal or empty
    (an edgeless matrix), and C is B^T, -B^T (whose entries cancel in
    M + M^T) or drawn on its own. Zero entries leave isolated vertices and
    several components. Each class then gets 1 to 3 twin rows, so K_{a,b}
    is the one-edge base blown up, and the twins fold before the halving.
    u is zero, has a leading zero, or is drawn entry by entry.
    """
    p = draw(st.integers(min_value=0, max_value=3))
    q = draw(st.integers(min_value=0 if p else 1, max_value=3))
    small = st.integers(min_value=-2, max_value=2)
    b = draw(st.lists(st.lists(small, min_size=q, max_size=q), min_size=p, max_size=p))
    shape = draw(st.sampled_from(["symmetric", "antisymmetric", "independent"]))
    if shape == "independent":
        c = draw(st.lists(st.lists(small, min_size=p, max_size=p), min_size=q, max_size=q))
    else:
        sign = 1 if shape == "symmetric" else -1
        c = [[sign * b[i][j] for i in range(p)] for j in range(q)]
    base = [[0] * (p + q) for _ in range(p + q)]
    for i in range(p):
        for j in range(q):
            base[i][p + j], base[p + j][i] = b[i][j], c[j][i]
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=p + q,
                          max_size=p + q))
    classes = [k for k, m in enumerate(sizes) for _ in range(m)]
    order = draw(st.permutations(range(len(classes))))
    classes = [classes[i] for i in order]
    scalar = draw(st.integers(min_value=-3, max_value=3))
    n = len(classes)
    rows = [[scalar if i == j else base[ci][cj] for j, cj in enumerate(classes)]
            for i, ci in enumerate(classes)]
    u = draw(st.one_of(st.just([0] * n),
                       st.lists(small, min_size=n - 1, max_size=n - 1).map(lambda t: [0] + t),
                       st.lists(small, min_size=n, max_size=n)))
    return Matrix(rows), scalar, u


def _two_colourable(rows):
    # BFS 2-colouring of the graph with an edge i - j wherever M_ij or M_ji
    # is nonzero, i != j
    n, colour = len(rows), [None] * len(rows)
    for root in range(n):
        if colour[root] is not None:
            continue
        colour[root], queue = 0, [root]
        for i in queue:
            for j in range(n):
                if j != i and (rows[i][j] or rows[j][i]):
                    if colour[j] is None:
                        colour[j] = 1 - colour[i]
                        queue.append(j)
                    elif colour[j] == colour[i]:
                        return False
    return True


@given(case=bipartite_blowups())
# K_{3,2}, whose twins fold it to order 2 first; n = 1; A(P3) + 2I with the zero vector
@example(case=(Matrix([[0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [1, 1, 1, 0, 0],
                       [1, 1, 1, 0, 0]]), 0, [1, 1, 1, 1, 1]))
@example(case=(Matrix([[-2]]), -2, [3]))
@example(case=(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), 2, [0, 0, 0]))
# the zero rows 0 and 2, from opposite sides, fold together: a triangle
@example(case=(Matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0]]), 0,
               [0, 0, 0, 0]))
@settings(max_examples=80, deadline=None)
def test_bipartite_matrices_halve_exactly(case):
    # the kernel takes BC for the folded M = a' - cI where M is bipartite
    # with an edge, and the charpoly and u^T adj(xI - a) u mapped back are
    # exact; every order halves here, not only those from exact._HALVED_MIN
    # up. Folding twins can merge zero rows of opposite sides into an odd
    # cycle, so whether M halves is read off M itself
    m, scalar, u = case
    chi, form = _faddeev_leverrier(m, u)
    with mock.patch.object(exact, "_HALVED_MIN", 1):
        assert charpoly(m) == chi
        assert charpoly_with_adjugate_form(m, u) == (chi, form)
        rows, _, _, s, half = exact._kernel_item(m, u)
    folded = exact._fold_twins(m.rows(), tuple(u))[0]
    shifted = [[x - scalar * (i == j) for j, x in enumerate(r)] for i, r in enumerate(folded)]
    edge = any(x for i, r in enumerate(shifted) for j, x in enumerate(r) if i != j)
    zero_diagonal = not any(r[i] for i, r in enumerate(shifted))
    assert (half is not None) == (zero_diagonal and edge and _two_colourable(shifted))
    if half is not None:
        assert s == scalar and 2 * len(rows) <= len(folded)


def _sympy_charpoly_and_form(m, u):
    x = sympy.Symbol("x")
    xm = x * sympy.eye(m.nrows) - sympy.Matrix(m.rows())
    v = sympy.Matrix(u)
    return [sympy.Poly(f, x).all_coeffs()[::-1] for f in (xm.det(), (v.T * xm.adjugate() * v)[0])]


@pytest.mark.parametrize("rows, u", [
    # P7, with unequal sides 4 and 3
    ([[1 if abs(i - j) == 1 else 0 for j in range(7)] for i in range(7)], [1] * 7),
    # a signed K_{2,3}
    ([[0, 0, 1, -1, 1], [0, 0, 1, 1, -1], [1, 1, 0, 0, 0], [-1, 1, 0, 0, 0], [1, -1, 0, 0, 0]],
     [1, -1, 1, 1, -1]),
    # 2I + A(C6), and a vector with a leading zero
    ([[2 if i == j else 1 if (i - j) % 6 in (1, 5) else 0 for j in range(6)] for i in range(6)],
     [0, 1, -1, 2, 0, 1]),
    # not symmetric: M_02 = -M_20 cancels in M + M^T, so only the pattern sees that edge
    ([[0, 0, 1, 2], [0, 0, -1, 0], [-1, 1, 0, 0], [3, 0, 0, 0]], [1, 2, -1, 1]),
    # P3 + K2 + K1: three components, one isolated vertex
    ([[0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, -1, 0],
      [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 0, 0]], [1, 1, -1, 2, 1, 1]),
], ids=["P7", "signed K23", "2I + C6", "not symmetric", "disconnected"])
def test_halved_charpolys_and_forms_match_sympy(monkeypatch, rows, u):
    monkeypatch.setattr(exact, "_HALVED_MIN", 1)
    m = Matrix(rows)
    assert exact._kernel_item(m, u)[4] is not None
    chi, form = charpoly_with_adjugate_form(m, u)
    assert [list(chi.coeffs), list(form.coeffs)] == _sympy_charpoly_and_form(m, u)


@pytest.mark.parametrize("n", [exact._HALVED_MIN - 1, exact._HALVED_MIN, 33])
def test_bipartite_matrices_halve_from_the_minimum_order(kernel_calls, n):
    # below exact._HALVED_MIN a bipartite matrix goes whole; from it on the
    # kernel takes BC, of order floor(n/2), with the three updates of u
    m = Matrix([[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])
    u = [1] * n
    assert charpoly_with_adjugate_form(m, u) == _faddeev_leverrier(m, u)
    order = n if n < exact._HALVED_MIN else n // 2
    assert [(len(mats), len(updates), len(mats[0])) for mats, _, updates, _ in kernel_calls] == [
        (1, 1 if n < exact._HALVED_MIN else 3, order)]


def test_order_72_product_charpoly_is_one_order_38_batch(kernel_calls):
    # K2 x L^2(K3,3) clones each of K2's two vertices 18 times; the clones
    # of one vertex are twins, so A reaches the kernel at order
    # n1 (n2 + 1) = 38 with x^34 split off, modulo 4 primes below 2^24
    # (an 82-bit bound) where the unfolded order-72 matrix needs 9
    k2 = MarkedSignedGraph.with_canonical_marking(complete(2))
    l2 = MarkedSignedGraph.with_canonical_marking(line_graph(line_graph(complete_bipartite(3, 3))))
    a = adjacency_matrix(product(k2, l2).graph.graph)
    f = charpoly(a)
    assert [(len(mats) + len(updates), len(mats[0]), len(primes))
            for mats, _, updates, primes in kernel_calls] == [(1, 38, 4)]
    assert len(_primes_past(2 * _coefficient_bound(a.rows()), 72)) == 9
    assert f.degree == 72 and f.coeffs[:34] == (0,) * 34


def elementary_symmetric(rows):
    """e_0..e_n of the rounded-up Euclidean row norms (sympy's exact square
    root), by the recurrence e_k <- e_k + r * e_(k-1) over the rows."""
    e = [1] + [0] * len(rows)
    for row in rows:
        r = int(sympy.ceiling(sympy.sqrt(sum(x * x for x in row))))
        for k in range(len(rows), 0, -1):
            e[k] += r * e[k - 1]
    return e


@pytest.mark.parametrize("seed", range(12))
def test_adjugate_form_within_its_bound(seed):
    # coefficient k of u^T adj(xI - a) u, counted from the top, is at most
    # |u|_1^2 * e_k of the rounded-up row norms: the bound the shared primes
    # are chosen for
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    u = [rng.choice((1, -1)) for _ in range(n)]
    form = adjugate_quadratic_form(m, u)
    assert form == _faddeev_leverrier(m, u)[1]
    e = elementary_symmetric(m.rows())
    assert _coefficient_bound(m.rows()) == max(e)
    for k in range(n):
        assert abs(form.coeff(n - 1 - k)) <= n * n * e[k]


@given(sm=kernel_matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_coefficient_bound_dominates_charpolys_and_forms(sm, data):
    # every coefficient of chi_a within e_k, and of u^T adj(xI - a) u within
    # |u|_1^2 * e_k, on every stratum (most are not symmetric) and for u
    # with entries other than +-1
    _, m = sm
    n = m.nrows
    u = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    chi, form = _faddeev_leverrier(m, u)
    e = elementary_symmetric(m.rows())
    bound = _coefficient_bound(m.rows())
    assert bound == max(e)
    weight = sum(map(abs, u)) ** 2
    for k in range(n + 1):
        assert abs(chi.coeff(n - k)) <= e[k] <= bound
    for k in range(n):
        assert abs(form.coeff(n - 1 - k)) <= weight * e[k] <= weight * bound


def test_adjugate_form_shares_one_batch_of_primes(kernel_calls):
    # a and a + u u^T are one kernel batch, modulo primes for the larger of the
    # charpoly and form bounds of a; a + u u^T alone would need more (at order
    # 25, 4 residue matrices against 2 + 3 with its 25-bit primes; at order 27
    # the one batch needs 3 primes, 6 against 2 + 3). The cycle is odd, so it
    # is not halved
    n = 25
    cycle = Matrix([[1 if abs(i - j) in (1, n - 1) else 0 for j in range(n)] for i in range(n)])
    u = [1, -1, -1] * (n // 3) + [1] * (n % 3)
    assert charpoly_with_adjugate_form(cycle, u) == _faddeev_leverrier(cycle, u)
    # every row of the cycle has norm sqrt(2), rounded up to 2
    assert _coefficient_bound(cycle.rows()) == max(comb(n, k) * 2 ** k for k in range(n + 1))
    bound = n * n * _coefficient_bound(cycle.rows())
    assert [(len(mats) + len(updates), b) for mats, b, updates, _ in kernel_calls] == [(2, bound)]
    shifted = [[x + ui * uj for x, uj in zip(r, u)] for r, ui in zip(cycle.rows(), u)]
    assert (2 * len(_primes_past(2 * bound, n))
            < len(_primes_past(2 * _coefficient_bound(cycle.rows()), n))
            + len(_primes_past(2 * _coefficient_bound(shifted), n)))


NEAR_2_62 = (1 << 62) - 1
THIRD = ((1 << 63) - 1) // 3


def _int64(x):
    return -(1 << 63) <= x < 1 << 63


@pytest.mark.parametrize("rows, u", [
    # rows 0 and 1 are twins: their class's column sums to 2^63 - 2, which
    # fits, and w = (2, 1) adds 2 to it
    ([[3, 0, NEAR_2_62], [0, 3, NEAR_2_62], [NEAR_2_62, NEAR_2_62, -5]], (1, 1, 1)),
    ([[3, 0, NEAR_2_62], [0, 3, NEAR_2_62], [NEAR_2_62, NEAR_2_62, -5]], (-1, -1, -1)),
    # three twins whose column sums to -2^63 + 2, and w = (3, -1) takes 3 from it
    ([[3, 0, 0, -THIRD], [0, 3, 0, -THIRD], [0, 0, 3, -THIRD], [-THIRD, -THIRD, -THIRD, 7]],
     (1, 1, 1, -1)),
    # no twins: int64's largest value, plus one
    ([[0, (1 << 63) - 1, 1], [(1 << 63) - 1, 0, -1], [1, 2, 0]], (1, 1, -1)),
], ids=["twins", "twins, u negated", "twins, negative entries", "no twins"])
def test_updates_past_int64_are_formed_in_python_ints(rows, u):
    # the folded matrix fits in int64 and its rank-one update does not, so the
    # update must be formed in Python ints: an int64 one would wrap
    m = Matrix(rows)
    folded, (u_reps, w), _ = exact._fold_twins(m.rows(), u)
    assert all(_int64(x) for r in folded for x in r)
    assert not all(_int64(x + ui * wj) for r, ui in zip(folded, u_reps) for x, wj in zip(r, w))
    assert charpoly_with_adjugate_form(m, u) == _faddeev_leverrier(m, u)


@pytest.mark.parametrize("big, as_they_are", [
    ((1 << 52) - 1, True), ((1 << 52) + 1, False), ((1 << 64) + 3, False),
], ids=["below 2^52", "past 2^52", "past int64"])
def test_entries_near_the_float_ceiling_lift_exactly(monkeypatch, big, as_they_are):
    # entries below 2^52 in absolute value reach the power-sum kernel as
    # they are, and its float reduction is exact on them; larger ones are
    # reduced into [0, p) first, in int64 or, past it, in Python ints
    seen = []
    kernel = exact._power_sums_mod

    def spy(h, p, out):
        seen.append(bool((np.abs(h) >= p[:, None, None]).any()))
        kernel(h, p, out)

    monkeypatch.setattr(exact, "_power_sums_mod", spy)
    m = Matrix([[big, 1 - big, 2], [-big, 0, big], [3, big - 1, -big]])
    assert charpoly(m) == _faddeev_leverrier(m, None)[0]
    assert seen == [as_they_are]
    # the update a + u u^T takes the diagonal entry big to big + 1, so below
    # 2^52 too the update puts the batch past the ceiling: it is reduced first
    u = (1, -1, 1)
    assert charpoly_with_adjugate_form(m, u) == _faddeev_leverrier(m, u)
    assert seen[1:] == [False]


def _update_counts(calls):
    # (plain matrices, updates) of each kernel batch
    return [(len(mats), len(updates)) for mats, _, updates, _ in calls]


@pytest.mark.parametrize("rows", [
    [[1, 2, -1, 0], [0, 3, 1, 2], [4, -2, 0, 1], [1, 1, 1, -3]],
    # rows 0 and 1 are twins (diagonal 2) and fold into one
    [[2, 0, 1, -1], [0, 2, 1, -1], [3, 3, 0, 1], [-2, -2, 1, 4]],
], ids=["no twins", "twins"])
def test_opposite_vectors_share_one_update(kernel_calls, rows):
    # (-u')(-w)^T = u' w^T, so u and -u on one matrix are one kernel update
    m, u = Matrix(rows), (1, 1, -2, 1)
    got = exact._charpolys_with_forms([(m, u), (m, tuple(-x for x in u))])
    assert _update_counts(kernel_calls) == [(1, 1)]
    assert got == [_faddeev_leverrier(m, u)] * 2


@pytest.mark.parametrize("u", [(0, 1, -1, 2), (0, -1, 1, -2), (0, 0, 0, -3), (0, 0, 0, 0)])
def test_vectors_with_a_leading_zero_lift_exactly(kernel_calls, u):
    # the sign of an update is fixed by the first nonzero entry of u', not
    # the first entry, so u and -u still share one; the zero vector has no
    # sign to fix and a zero form
    m = Matrix([[1, 2, -1, 0], [0, 3, 1, 2], [4, -2, 0, 1], [1, 1, 1, -3]])
    got = exact._charpolys_with_forms([(m, u), (m, tuple(-x for x in u))])
    assert got == [_faddeev_leverrier(m, u)] * 2
    assert _update_counts(kernel_calls) == [(1, 1)]


def test_kernel_primes_are_prime_and_cover_the_bound():
    # at each order, the largest primes below its ceiling, one after another
    bound = 1 << 3000
    for n in (1, 2, 6, 7, 8, 38, 127, 128, 600):
        primes = _primes_past(bound, n)
        assert primes[0] == sympy.prevprime(1 << exact._prime_bits(n))
        assert all(q == sympy.prevprime(p) for p, q in zip(primes, primes[1:]))
        product = 1
        for p in primes:
            product *= p
        assert product > bound >= product // primes[-1]
        # a smaller bound takes a prefix of the same list
        fewer = _primes_past(1 << 100, n)
        assert fewer == primes[:len(fewer)]


def test_prime_ceiling_is_the_largest_that_cannot_wrap():
    # n products of float residues of size at most p/2 + 2 < 2^(b-1) + 2 sum
    # below 2^53, and one more bit would not: n (2^b + 4)^2 < 2^55
    for n in list(range(1, 140)) + [510, 511, 512, 2046, 2047, 1 << 15]:
        b = exact._prime_bits(n)
        assert n * ((1 << (b - 1)) + 2) ** 2 < 1 << 53 <= n * ((1 << b) + 2) ** 2
        assert sympy.prevprime(1 << b) > n
    orders = (1, 2, 7, 8, 31, 32, 127, 128, 511, 512)
    assert [exact._prime_bits(n) for n in orders] == [27, 26, 26, 25, 25, 24, 24, 23, 23, 22]


def _trial_division_is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


def test_miller_rabin_matches_trial_division_near_every_ceiling():
    # every candidate within 400 of each ceiling the kernel can use, the small
    # numbers, and strong pseudoprimes to base 2 and to bases 2, 3, 5 and 7
    window = [q for b in range(2, 31) for q in range(max(0, (1 << b) - 400), (1 << b) + 400)]
    for q in sorted(set(range(2000)) | set(window)):
        assert exact._is_prime(q) == _trial_division_is_prime(q), q
    for q in (2047, 1373653, 25326001, 3215031751):
        assert not exact._is_prime(q) and not sympy.isprime(q)
    assert exact._is_prime((1 << 31) - 1)


def test_odd_primes_match_trial_division():
    want = (q for q in itertools.count(3, 2) if _trial_division_is_prime(q))
    assert list(itertools.islice(exact._odd_primes(), 2000)) == list(itertools.islice(want, 2000))


def _kernel_not_reached(*args):
    raise AssertionError("the kernel allocated a batch past the guard")


def test_multimodular_kernel_refuses_primes_that_could_overflow(monkeypatch):
    # the kernel's float64 sums have at most n terms, each a product of two
    # residues of size at most p/2 + 2, so n (p/2 + 2)^2 < 2^53 must hold;
    # primes one bit past the ceiling break it, and the kernel must raise
    # before it allocates a batch. The diagonal entries differ, so no rows
    # are twins and the kernel sees order 12
    bits = exact._prime_bits
    monkeypatch.setattr(exact, "_prime_bits", lambda n: bits(n) + 1)
    monkeypatch.setattr(exact, "_PRIMES", {})
    monkeypatch.setattr(exact, "_power_sums_mod", _kernel_not_reached)
    monkeypatch.setattr(exact, "_newton_mod", _kernel_not_reached)
    with pytest.raises(OverflowError):
        charpoly(Matrix.diagonal(range(1, 13)))


def test_multimodular_kernel_refuses_primes_not_above_the_order(monkeypatch):
    # Newton's identities divide by every k <= n, so every prime must exceed
    # n: with primes below 2^4, a bound of 100 takes 13, 11 and 7, and 7 is
    # not above order 12
    monkeypatch.setattr(exact, "_prime_bits", lambda n: 4)
    monkeypatch.setattr(exact, "_PRIMES", {})
    monkeypatch.setattr(exact, "_power_sums_mod", _kernel_not_reached)
    monkeypatch.setattr(exact, "_newton_mod", _kernel_not_reached)
    assert _primes_past(200, 12) == [13, 11, 7]
    with pytest.raises(ValueError):
        _charpoly_residues([([[0] * 12 for _ in range(12)], 100, ())])


def test_primes_past_raises_when_the_primes_below_the_ceiling_run_out(monkeypatch):
    # below 2^3 there are only 7, 5 and 3, whose product 105 cannot pass
    # 1000; the candidate must stop at 3, not step down past it for ever, so
    # a budget on the primality test turns a hang into a failure
    is_prime, calls = exact._is_prime, []

    def budgeted(q):
        calls.append(q)
        assert len(calls) < 100, "_primes_past kept testing candidates below 3"
        return is_prime(q)

    monkeypatch.setattr(exact, "_is_prime", budgeted)
    monkeypatch.setattr(exact, "_prime_bits", lambda n: 3)
    monkeypatch.setattr(exact, "_PRIMES", {})
    with pytest.raises(ValueError, match="order 5"):
        _primes_past(1000, 5)
    assert exact._PRIMES == {3: [7, 5, 3]}


def _faddeev_leverrier_mod(a: np.ndarray, q: int) -> list[int]:
    # the Faddeev-LeVerrier recursion of _faddeev_leverrier on int64 residues
    # modulo the prime q > n, lowest degree first; every int64 sum has n
    # terms below q^2 < 2^63 / n
    n = len(a)
    m = np.identity(n, dtype=np.int64)
    coeffs = [1]
    for k in range(1, n + 1):
        m = a @ m % q
        c = -int(m.trace()) * pow(k, -1, q) % q
        coeffs.append(c)
        m[np.diag_indices(n)] = (m.diagonal() + c) % q
    assert not m.any()
    return coeffs[::-1]


def _kernel_mod(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    # the charpoly residues, lowest degree first, of each h[i] modulo p[i]:
    # _power_sums_mod, then _newton_mod over the columns of one batch
    rev = np.zeros((h.shape[1] + 1, len(h)), dtype=np.int64)
    exact._power_sums_mod(h, p, rev)
    return exact._newton_mod(rev, p)[::-1].T


@pytest.mark.parametrize("n", [31, 127])
def test_power_sums_exact_at_the_prime_ceiling(n):
    # every residue of size (p - 1)/2, the largest a symmetric residue takes,
    # modulo the largest prime below the order's ceiling (31 and 127 are the
    # largest orders of their ceilings): one batch with random signs, and one
    # with a single sign, whose first product sums n terms of ((p - 1)/2)^2
    p = _primes_past(1, n)[0]
    rng = np.random.default_rng(n)
    half = (p - 1) // 2
    for signs in (rng.choice([1, -1], size=(2, n, n)), np.stack([np.ones((n, n), dtype=int),
                                                                 -np.ones((n, n), dtype=int)])):
        mats = signs * half % p
        got = _kernel_mod(mats.copy(), np.full(len(mats), p, dtype=np.int64))
        assert [row.tolist() for row in got] == [_faddeev_leverrier_mod(m, p) for m in mats]


def test_inverse_tables_are_kept_per_prime_and_grow(monkeypatch):
    # one table per prime across calls: it is extended when a larger order
    # needs more entries, read as it is by a smaller one, and every entry k
    # is -k^-1 mod q as Newton's identities use it
    monkeypatch.setattr(exact, "_NEG_INVERSES", {})
    q = _primes_past(1, 38)[0]
    rng = np.random.default_rng(38)
    tables = []
    for n in (8, 38, 8):
        mats = rng.integers(0, q, size=(2, n, n))
        got = _kernel_mod(mats.copy(), np.full(2, q, dtype=np.int64))
        assert [row.tolist() for row in got] == [_faddeev_leverrier_mod(m, q) for m in mats]
        tables.append(exact._NEG_INVERSES[q])
    assert [len(t) for t in tables] == [9, 39, 39] and tables[2] is tables[1]
    assert tables[1].tolist()[1:] == [q - pow(k, -1, q) for k in range(1, 39)]


def test_kernel_chunks_give_the_same_residues(monkeypatch):
    # with _BATCH_ENTRIES at 1 every chunk holds one residue matrix, and the
    # residues are those of the whole batch
    rng = random.Random(5)
    mats = [tuple(tuple(rng.randint(-9, 9) for _ in range(10)) for _ in range(10))
            for _ in range(3)]
    bound = max(_coefficient_bound(m) for m in mats)
    ((primes, res),) = _charpoly_residues([(mats, bound, ())])
    assert len(primes) > 1
    monkeypatch.setattr(exact, "_BATCH_ENTRIES", 1)
    chunked = []
    kernel = exact._power_sums_mod

    def recorded(h, p, out):
        chunked.append(len(h))
        kernel(h, p, out)

    monkeypatch.setattr(exact, "_power_sums_mod", recorded)
    ((again, res1),) = _charpoly_residues([(mats, bound, ())])
    assert chunked == [1] * (len(mats) * len(primes))
    assert again == primes and (res1 == res).all()
    assert _crt_lift(primes, res1) == [_faddeev_leverrier(Matrix(m), None)[0] for m in mats]


def _upper_hessenberg(rng, n):
    # upper Hessenberg: a nonzero subdiagonal and zeros below it
    return [[rng.randint(-3, 3) if i <= j else rng.choice((1, -2, 3)) if i == j + 1 else 0
             for j in range(n)] for i in range(n)]


def _dense(rng, n):
    return [[rng.choice((1, 2, -1, -3)) for _ in range(n)] for _ in range(n)]


# (name, matrices of one order): fixed batches with zero pivots, columns with
# nothing below the diagonal, permutations, diagonal and shift matrices
KERNEL_BRANCHES = [
    ("order 1", [[[5]], [[-7]]]),
    ("order 2", [[[0, 1], [1, 0]], [[2, 0], [0, 3]]]),
    ("order 3, pivot nonzero", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]]]),
    ("order 3, zero pivot swapped", [[[1, 2, 3], [0, 5, 6], [7, 8, 10]]]),
    ("order 3, nothing below", [[[1, 2, 3], [4, 5, 6], [0, 8, 10]]]),
    ("order 3, zero column", [[[1, 2, 3], [0, 5, 6], [0, 8, 10]]]),
    ("order 4, swap then eliminate",
     [[[1, 2, 3, 4], [0, 5, 6, 7], [7, 8, 10, 1], [3, 1, 2, 5]]]),
    ("Hessenberg, all pivots nonzero", [_upper_hessenberg(random.Random(s), 9)
                                        for s in range(3)]),
    ("dense", [_dense(random.Random(s), 12) for s in range(4)]),
    ("permutations", [_shift(9, 2).rows(), _shift(9, 4).rows()]),
    ("diagonal and Hessenberg, nothing to eliminate",
     [Matrix.diagonal(range(1, 10)).rows(), _upper_hessenberg(random.Random(7), 9)]),
    ("mixed", [_upper_hessenberg(random.Random(3), 9), _shift(9, 3).rows(),
               _dense(random.Random(4), 9), Matrix.diagonal(range(9)).rows()]),
]


@pytest.mark.parametrize("case", KERNEL_BRANCHES, ids=[c[0] for c in KERNEL_BRANCHES])
def test_multimodular_kernel_branches_match_faddeev_leverrier(case):
    _, mats = case
    mats = [tuple(map(tuple, rows)) for rows in mats]
    ((primes, res),) = _charpoly_residues(
        [(mats, max(_coefficient_bound(m) for m in mats), ())])
    assert _crt_lift(primes, res) == [_faddeev_leverrier(Matrix(m), None)[0] for m in mats]


@st.composite
def same_order_batches(draw):
    """One to four matrices of one order from 1 to 10.

    Each is upper Hessenberg, dense, with a zero pivot or a zero column per
    column, or with entries that vanish modulo the first prime only, so one
    batch mixes sparse, nilpotent-like and dense residue matrices.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    first = _primes_past(1, n)[0]
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["hessenberg", "dense", "no_pivot", "prime_multiples"]))
        values = (st.sampled_from([0, 1, -1, first, 2 * first]) if kind == "prime_multiples"
                  else entries)
        rows = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]
        for j in range(n - 1):
            if kind == "hessenberg":
                below = range(j + 2, n)
            elif kind == "no_pivot":
                # zero nothing, the subdiagonal entry, or all below the diagonal
                below = range(j + 1, min(n, j + 1 + draw(st.sampled_from([0, 1, n]))))
            else:
                below = range(0)
            for i in below:
                rows[i][j] = 0
        batch.append(tuple(map(tuple, rows)))
    return batch


@given(mats=same_order_batches())
@settings(max_examples=60, deadline=None)
def test_multimodular_kernel_on_mixed_batches_matches_faddeev_leverrier(mats):
    ((primes, res),) = _charpoly_residues(
        [(mats, max(_coefficient_bound(m) for m in mats), ())])
    assert _crt_lift(primes, res) == [_faddeev_leverrier(Matrix(m), None)[0] for m in mats]


def test_adjugate_form_k2_all_ones():
    f, form = charpoly_with_adjugate_form(Matrix([[0, 1], [1, 0]]), [1, 1])
    assert f == Poly([-1, 0, 1])
    assert form == Poly([2, 2])
    assert adjugate_quadratic_form(Matrix([[0, 1], [1, 0]]), [1, 1]) == Poly([2, 2])


def test_fraction_appears_only_in_coronal_eval():
    # int is the one scalar of the package: the name Fraction may appear only
    # inside CoronalTriple.eval, whose value at a point need not be an integer,
    # and in the one import of it in coronal.py
    offenders = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "coronal.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "CoronalTriple":
                    allowed |= {id(n) for f in node.body if getattr(f, "name", "") == "eval"
                                for n in ast.walk(f)}
                if (isinstance(node, ast.ImportFrom) and node.module == "fractions"
                        and [(a.name, a.asname) for a in node.names] == [("Fraction", None)]):
                    allowed.add(id(node))
        for node in ast.walk(tree):
            named = ((isinstance(node, ast.Name) and node.id == "Fraction")
                     or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                     or (isinstance(node, (ast.Import, ast.ImportFrom))
                         and any("Fraction" in (a.name, a.asname) for a in node.names)))
            if named and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_output_and_oracle_modules_import_the_product():
    # the product is output (the package API and the CLI) or the oracle the
    # factored route is checked against (verify.py); every other module works
    # from the factors, so an import of it there, lazy or not, is a second route
    importers = set()
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # a relative import is resolved against the package
                base = ".".join(filter(None, ["sigspec" if node.level else "", node.module]))
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if "sigspec.product" in modules:
                importers.add(path.name)
    assert importers == {"__init__.py", "cli.py", "verify.py"}


def test_all_lists_each_public_name_once_and_no_cross_check():
    # the cross-check routes live in tests/reference.py and RationalFn is
    # folded into CoronalTriple: no sigspec module defines any of them, and
    # the package exports each of its names once
    import importlib
    import sigspec
    assert len(set(sigspec.__all__)) == len(sigspec.__all__)
    assert all(hasattr(sigspec, name) for name in sigspec.__all__)
    moved = {"corona", "run_corona_verification", "random_single_vertex", "star_bracket_cubic",
             "star_bracket_cubic_expanded", "regular_balanced_coronal",
             "adjugate_quadratic_form", "coronal_of_mu_graph", "RationalFn"}
    assert moved.isdisjoint(sigspec.__all__)
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        name = "sigspec" if path.stem == "__init__" else f"sigspec.{path.stem}"
        assert moved.isdisjoint(vars(importlib.import_module(name))), name


def test_graph_layer_makes_no_int_call():
    # graph input is checked by the exact core's int rule, never coerced: a
    # call to int() would round a float or a bool into a graph or a marking
    offenders = []
    for name in ("graphs.py", "coronal.py", "sampling.py", "product.py"):
        tree = ast.parse((Path(exact.__file__).parent / name).read_text())
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "int"]
    assert offenders == []


def test_object_arrays_only_past_int64_and_in_crt():
    # the kernel runs on int64 residues: Python-int numpy arrays appear only
    # where _charpoly_residues reduces entries past int64 and where _crt_lift
    # recombines residues, so no Python-int matrix recursion can come back
    # beside the kernel
    def object_dtype(node):
        def is_object(v):
            return ((isinstance(v, ast.Name) and v.id == "object")
                    or (isinstance(v, ast.Constant) and v.value in ("object", "O")))
        return ((isinstance(node, ast.keyword) and node.arg == "dtype" and is_object(node.value))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and any(map(is_object, node.args))))

    offenders = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "exact.py":
            allowed = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
                       and f.name in ("_charpoly_residues", "_crt_lift") for n in ast.walk(f)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if object_dtype(node) and id(node) not in allowed]
    assert offenders == []


def test_no_numpy_polynomial_roots():
    # every float eigenvalue comes from eigvalsh of a symmetric matrix; roots
    # of a high-degree polynomial with clustered roots lose digits
    offenders = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            on_numpy = isinstance(base, ast.Name) and base.id in ("np", "numpy")
            if ((isinstance(node, ast.Attribute) and node.attr == "roots" and on_numpy)
                    or (isinstance(node, ast.ImportFrom)
                        and (node.module or "").startswith("numpy")
                        and any(a.name == "roots" for a in node.names))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
