from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.exact import (Matrix, Poly, RationalFn, adjugate_quadratic_form,
                           charpoly, charpoly_with_adjugate_form,
                           compose_with_rational, integer_roots, kron,
                           poly_gcd)

# small exact entries keep the sympy oracles affordable inside properties
entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(Matrix))


def symmetric_int_matrices(max_n=5):
    def build(rows):
        n = len(rows)
        sym = [[rows[i][j] if i <= j else rows[j][i] for j in range(n)]
               for i in range(n)]
        return Matrix(sym)
    return square_matrices(max_n).map(lambda m: build([list(r) for r in m.rows()]))


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
    assert p % (x - 1) == Poly([])
    assert p.divexact(x - 1) == (x + 2) ** 2
    with pytest.raises(ArithmeticError):
        p.divexact(x - 5)


def test_poly_compose():
    x = Poly.x()
    p = x ** 2 - Poly.constant(1)
    inner = Poly.linear(1, 2)
    # (2t+1)^2 - 1 = 4t^2 + 4t
    assert p.compose(inner) == Poly([0, 4, 4])


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly([0.5, 1])
    with pytest.raises(TypeError):
        Poly.constant(True)


def test_integral_coefficients_are_stored_as_ints():
    p = Poly([Fraction(4, 2), Fraction(1, 3), 5])
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert p.coeff(7) == 0 and type(p.coeff(7)) is int
    assert type((p * Fraction(3)).coeff(1)) is int


def test_exact_division_never_makes_floats():
    assert Poly([1, 2]).monic().coeffs == (Fraction(1, 2), 1)
    x = Poly.x()
    q, r = divmod((x + 1) * Poly([1, 2]), Poly([1, 2]))
    assert q == x + 1 and r.is_zero
    assert all(type(c) is int for c in q.coeffs)
    # x^2 = (2x + 1)(x/2 - 1/4) + 1/4
    q, r = divmod(x ** 2, Poly([1, 2]))
    assert q.coeffs == (Fraction(-1, 4), Fraction(1, 2))
    assert r.coeffs == (Fraction(1, 4),)
    f = RationalFn(Poly([1]), Poly([-1, 1]))
    assert f.eval(3) == Fraction(1, 2) and type(f.eval(3)) is Fraction
    g = RationalFn(Poly([4]), Poly([0, 1]))
    assert g.eval(2) == 2 and type(g.eval(2)) is int
    assert type(g.eval(Fraction(1, 2))) is int


def test_rational_fn_reduces():
    x = Poly.x()
    f = RationalFn((x + 1) * Poly.constant(2), (x + 1) * (x - 1) * Poly.constant(2))
    assert f.num == Poly.constant(1)
    assert f.den == x - 1


def test_poly_gcd():
    x = Poly.x()
    g = poly_gcd((x - 1) * (x + 2), (x - 1) * (x + 3))
    assert g == x - 1
    assert poly_gcd(x, Poly([])) == x
    with pytest.raises(ValueError):
        poly_gcd(Poly([]), Poly([]))


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


def _chunk_boundaries():
    # coefficients at and next to +-2^(8w-1), where a w-byte chunk changes sign
    edges = [s * ((1 << (8 * w - 1)) + d) for w in range(1, 6)
             for d in (-1, 0, 1) for s in (1, -1)]
    return st.sampled_from(edges)


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
    # three squarings reach (x+1)^8; a fourth would build (x+1)^16 and drop it
    assert max(products) == 8
    assert len(products) == 4


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


def test_matrix_holds_ints_only():
    assert Matrix([[Fraction(4, 2)]])[0, 0] == 2
    assert type(Matrix([[Fraction(4, 2)]])[0, 0]) is int
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


@given(m=square_matrices(4), x0=st.integers(min_value=-5, max_value=5))
@settings(max_examples=60)
def test_charpoly_matches_determinant_oracle(m, x0):
    n = m.shape[0]
    shifted = sympy.eye(n) * x0 - sympy.Matrix(m.rows())
    assert charpoly(m).eval(x0) == shifted.det()


@given(m=symmetric_int_matrices(4),
       u=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=4),
       x0=st.integers(min_value=-8, max_value=8))
@settings(max_examples=60)
def test_adjugate_form_matches_solve_oracle(m, u, x0):
    n = m.shape[0]
    if len(u) != n:
        return
    f, form = charpoly_with_adjugate_form(m, u)
    shifted = sympy.eye(n) * x0 - sympy.Matrix(m.rows())
    if f.eval(x0) == 0:
        return
    sol = shifted.LUsolve(sympy.Matrix(u))
    direct = sum(ui * si for ui, si in zip(u, sol))
    # u^T adj(xI-M) u / det(xI-M) is the resolvent quadratic form
    assert Fraction(form.eval(x0), f.eval(x0)) == direct


def test_adjugate_form_k2_all_ones():
    f, form = charpoly_with_adjugate_form(Matrix([[0, 1], [1, 0]]), [1, 1])
    assert f == Poly([-1, 0, 1])
    assert form == Poly([2, 2])
    assert adjugate_quadratic_form(Matrix([[0, 1], [1, 0]]), [1, 1]) == Poly([2, 2])


def test_kron_identity_blocks():
    a = Matrix([[1, 2], [3, 4]])
    assert kron(Matrix.identity(1), a) == a
    k = kron(a, Matrix.identity(2))
    assert k.shape == (4, 4)
    assert k[0, 0] == 1 and k[1, 1] == 1 and k[0, 2] == 2


@given(p=square_matrices(3), q=square_matrices(3),
       r=square_matrices(3), s=square_matrices(3))
@settings(max_examples=30)
def test_kron_mixed_product_rule(p, q, r, s):
    if p.shape != r.shape or q.shape != s.shape:
        return
    assert kron(p, q) @ kron(r, s) == kron(p @ r, q @ s)


@given(p=square_matrices(3), q=square_matrices(3))
@settings(max_examples=30)
def test_kron_determinant_rule(p, q):
    n, m = p.shape[0], q.shape[0]

    def det(a):
        return sympy.Matrix(a.rows()).det()
    assert det(kron(p, q)) == det(p) ** m * det(q) ** n


def test_block_matrix_assembly():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0], [0]])
    c = Matrix([[0, 0]])
    d = Matrix([[7]])
    m = Matrix.block([[a, b], [c, d]])
    assert m.shape == (3, 3)
    assert m[2, 2] == 7 and m[0, 1] == 2 and m[2, 0] == 0
