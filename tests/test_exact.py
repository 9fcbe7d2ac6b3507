from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from sigspec import exact
from sigspec.exact import (_FL_MAX, Matrix, Poly, RationalFn, _faddeev_leverrier,
                           _multimodular_charpoly, _primes_past,
                           adjugate_quadratic_form, charpoly,
                           charpoly_with_adjugate_form, compose_with_rational,
                           integer_roots, poly_gcd)

# small exact entries keep the sympy oracles affordable inside properties
entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(Matrix))


# the multimodular kernel's first prime: an entry that is a multiple of it
# vanishes modulo that prime only, so that prime pivots on other rows
FIRST_PRIME = _primes_past(1)[0]
STRATA = ("small", "symmetric", "no_pivot", "block", "laplacian",
          "prime_multiples", "wide", "scalar")


@st.composite
def kernel_matrices(draw):
    """Integer matrices of orders on both sides of the Faddeev-LeVerrier cutoff.

    Each stratum aims at a way the multimodular kernel could go wrong: a
    column with no pivot below the diagonal, or none on the subdiagonal;
    block-diagonal structure; L/Q-style diagonals; entries that vanish modulo
    one prime only; entries up to 2^40, which need many primes; and the
    scalar matrix d*I, whose charpoly (x - d)^n attains the coefficient bound
    the prime count is chosen from.
    """
    n = draw(st.one_of(st.integers(min_value=1, max_value=_FL_MAX),
                       st.integers(min_value=_FL_MAX + 1, max_value=_FL_MAX + 5)))
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
        rows = square(st.sampled_from([0, 1, -1, FIRST_PRIME, -FIRST_PRIME, 2 * FIRST_PRIME]))
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
    assert p % (x - 1) == Poly([])
    assert p.divexact(x - 1) == (x + 2) ** 2
    with pytest.raises(ArithmeticError):
        p.divexact(x - 5)


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


def _shift(n: int, k: int) -> Matrix:
    # permutation matrix of i -> i + k mod n: for k >= 2 no pivot lies on the
    # subdiagonal, so every elimination step has to swap rows
    return Matrix([[1 if i == (j + k) % n else 0 for j in range(n)] for i in range(n)])


# fixed examples above the cutoff: the bound-attaining scalar matrix, a matrix
# that needs a pivot swap in every column, and entries past int64
ABOVE_CUTOFF = [("scalar", Matrix.diagonal([-(1 << 40)] * (_FL_MAX + 1))),
                ("no_pivot", _shift(_FL_MAX + 2, 3)),
                ("wide", Matrix([[(-1) ** (i * j) * ((1 << 64) + i - 2 * j)
                                  for j in range(_FL_MAX + 1)] for i in range(_FL_MAX + 1)]))]


@given(sm=kernel_matrices())
@example(sm=ABOVE_CUTOFF[0])
@example(sm=ABOVE_CUTOFF[1])
@example(sm=ABOVE_CUTOFF[2])
@settings(max_examples=120, deadline=None)
def test_charpoly_matches_determinant_oracle(sm):
    _, m = sm
    want = sympy.Matrix(m.rows()).charpoly(sympy.Symbol("x")).all_coeffs()
    assert list(charpoly(m).coeffs) == [int(c) for c in reversed(want)]


@given(sm=kernel_matrices(),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=_FL_MAX + 5, max_size=_FL_MAX + 5),
       x0=st.integers(min_value=-8, max_value=8))
@example(sm=ABOVE_CUTOFF[0], signs=[1, -1] * _FL_MAX, x0=3)
@example(sm=ABOVE_CUTOFF[1], signs=[1, -1] * _FL_MAX, x0=2)
@example(sm=ABOVE_CUTOFF[2], signs=[1, -1] * _FL_MAX, x0=-1)
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
@example(sm=ABOVE_CUTOFF[0])
@example(sm=ABOVE_CUTOFF[1])
@example(sm=ABOVE_CUTOFF[2])
@settings(max_examples=60, deadline=None)
def test_multimodular_kernel_matches_faddeev_leverrier(sm):
    # every order, including those below the cutoff that charpoly never sends
    # to the kernel
    _, m = sm
    assert _multimodular_charpoly(m.rows()) == _faddeev_leverrier(m, None)[0]


def test_kernel_primes_are_prime_and_cover_the_bound():
    bound = 1 << 3000
    primes = _primes_past(bound)
    assert primes == sorted(set(primes), reverse=True)
    assert all(sympy.isprime(p) for p in primes)
    product = 1
    for p in primes:
        product *= p
    assert product > bound >= product // primes[-1]


def test_multimodular_kernel_refuses_primes_that_could_overflow(monkeypatch):
    # the kernel's int64 sums have at most n terms, each below (p - 1)^2, so
    # n * (p - 1)^2 < 2^63 must hold; the prime 2^31 - 1 breaks it from order
    # 3 on, and the kernel must raise before it allocates a batch
    assert (1 << 15) * (exact._PRIME_BOUND - 2) ** 2 < 1 << 63
    monkeypatch.setattr(exact, "_PRIME_BOUND", 1 << 31)
    monkeypatch.setattr(exact, "_PRIMES", [])

    def batch(*args):
        raise AssertionError("the kernel allocated a batch past the guard")

    monkeypatch.setattr(exact, "_hessenberg_charpoly_mod", batch)
    with pytest.raises(OverflowError):
        charpoly(Matrix.diagonal([1] * (_FL_MAX + 1)))


def test_adjugate_form_k2_all_ones():
    f, form = charpoly_with_adjugate_form(Matrix([[0, 1], [1, 0]]), [1, 1])
    assert f == Poly([-1, 0, 1])
    assert form == Poly([2, 2])
    assert adjugate_quadratic_form(Matrix([[0, 1], [1, 0]]), [1, 1]) == Poly([2, 2])
