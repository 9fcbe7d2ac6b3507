import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.coronal import (CoronalTriple, reduced_coronal, signed_coronal,
                             star_coronal_closed_form)
from sigspec.exact import Matrix, Poly, charpoly, poly_gcd
from sigspec.graphs import (MarkedSignedGraph, adjacency_matrix,
                            canonical_marking, complete, cycle, matrices,
                            mu_signed_graph, star)
from sigspec.sampling import random_marked_graph

from reference import adjugate_quadratic_form, regular_balanced_coronal


def rngs():
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def test_k2_all_ones_triple():
    triple = signed_coronal(Matrix([[0, 1], [1, 0]]), [1, 1])
    assert triple.num == Poly.constant(2)
    assert triple.den == Poly.linear(-1)      # x - 1
    assert triple.shared == Poly.linear(1)    # x + 1
    assert triple.charpoly == Poly([-1, 0, 1])


def test_reduced_coronal_reduces():
    x = Poly.x()
    # the common factor x + 1 is split off into shared; den is monic, so the
    # content 2 of the form cannot cancel and stays in num
    t = reduced_coronal((x + 1) * (x - 1), (x + 1) * Poly.constant(2))
    assert t == CoronalTriple(num=Poly.constant(2), den=x - 1, shared=x + 1)
    assert reduced_coronal(x * (x - 1), Poly([-1, 2])) == CoronalTriple(
        num=Poly([-1, 2]), den=x * (x - 1), shared=Poly.constant(1))
    # a content that cancels leaves a shared factor that is not monic, and a
    # reduced den left non-monic is refused as well
    for f, p in ((Poly([0, 2]), Poly([2])), (Poly([1, 2]), Poly([1]))):
        with pytest.raises(ValueError):
            reduced_coronal(f, p)
    with pytest.raises(ValueError):
        CoronalTriple(num=Poly([1]), den=Poly([1, 2]), shared=Poly.constant(1))


def test_coronal_eval_is_exact():
    f = reduced_coronal(Poly([-1, 1]), Poly([1]))
    assert f.eval(3) == Fraction(1, 2) and type(f.eval(3)) is Fraction
    g = reduced_coronal(Poly.x(), Poly([4]))
    assert g.eval(2) == 2 and type(g.eval(2)) is int
    assert g.eval(Fraction(1, 2)) == 8 and type(g.eval(Fraction(1, 2))) is int
    assert g.eval(-3) == Fraction(-4, 3)
    with pytest.raises(ZeroDivisionError):
        g.eval(0)
    with pytest.raises(ZeroDivisionError):
        f.eval(Fraction(2, 2))
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            g.eval(bad)


def test_star_closed_form_examples():
    f = star_coronal_closed_form(2, 1)
    assert f.num == Poly([4, 3])
    assert f.den == Poly([-2, 0, 1])
    f = star_coronal_closed_form(2, -1)
    assert f.num == Poly([-4, 3])
    # one leaf with a plus center collapses to 2/(x-1)
    f = star_coronal_closed_form(1, 1)
    assert f.num == Poly.constant(2)
    assert f.den == Poly.linear(-1)
    assert f.shared == Poly.linear(1)
    f = star_coronal_closed_form(1, -1)
    assert f.num == Poly.constant(2)
    assert f.den == Poly.linear(1)
    assert f.shared == Poly.linear(-1)
    for n, center_mark in ((True, 1), (2, True), (2, 1.0)):
        with pytest.raises(TypeError):
            star_coronal_closed_form(n, center_mark)
    with pytest.raises(ValueError):
        star_coronal_closed_form(2, 0)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("center_sign", ["+", "-"])
def test_star_coronal_matches_closed_form(n, center_sign):
    signs = center_sign + "+" * (n - 1)
    g = star(n + 1, signs)
    mg = MarkedSignedGraph.with_canonical_marking(g)
    center_mark = mg.marking[0]
    # the canonical center mark is the product of all star edge signs
    assert center_mark == (1 if signs.count("-") % 2 == 0 else -1)
    # raw signature route: the center mark shows up in the numerator
    raw = signed_coronal(adjacency_matrix(mg.graph), list(mg.marking))
    assert raw == star_coronal_closed_form(n, center_mark)
    # mu-graph route: marks cancel, the form always looks all-positive
    via_mu = signed_coronal(adjacency_matrix(mu_signed_graph(mg)),
                            list(mg.marking))
    assert via_mu == star_coronal_closed_form(n, 1)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("center_mark", [1, -1])
def test_star_closed_form_charpoly_is_the_stars(n, center_mark):
    # den * shared of the closed form is the charpoly of the star's adjacency
    signs = ("+" if center_mark == 1 else "-") + "+" * (n - 1)
    closed = star_coronal_closed_form(n, center_mark)
    assert closed.charpoly == charpoly(adjacency_matrix(star(n + 1, signs)))


def test_regular_balanced_coronal():
    assert regular_balanced_coronal(2, 5) == (Poly.constant(5), Poly.linear(-2))
    with pytest.raises(ValueError):
        regular_balanced_coronal(5, 5)
    with pytest.raises(TypeError):
        regular_balanced_coronal(True, 3)


@pytest.mark.parametrize("builder,n,r", [(cycle, 5, 2), (complete, 4, 3)])
def test_regular_graph_coronal_matches_closed_form(builder, n, r):
    mg = MarkedSignedGraph.with_canonical_marking(builder(n))
    triple = signed_coronal(adjacency_matrix(mg.graph), [1] * n)
    assert (triple.num, triple.den) == regular_balanced_coronal(r, n)


@given(rng=rngs(), x0=st.integers(min_value=7, max_value=20))
@settings(max_examples=50, deadline=None)
def test_coronal_point_value_matches_resolvent_solve(rng, x0):
    # oracle: mu^T (x0 I - N)^(-1) mu via sympy's exact LU solve
    mg = random_marked_graph(rng, max_n=6)
    n_matrix = adjacency_matrix(mu_signed_graph(mg))
    mu = list(mg.marking)
    triple = signed_coronal(n_matrix, mu)
    n = mg.graph.n
    shifted = sympy.eye(n) * x0 - sympy.Matrix(n_matrix.rows())
    sol = shifted.LUsolve(sympy.Matrix(mu))
    direct = sum(m * s for m, s in zip(mu, sol))
    assert triple.eval(x0) == direct


@given(rng=rngs())
@settings(max_examples=50, deadline=None)
def test_coronal_triple_bookkeeping(rng):
    mg = random_marked_graph(rng, max_n=6)
    n_matrix = adjacency_matrix(mu_signed_graph(mg))
    triple = signed_coronal(n_matrix, list(mg.marking))
    assert triple.den * triple.shared == charpoly(n_matrix)
    assert triple.num.degree == triple.den.degree - 1
    assert poly_gcd(triple.num, triple.den) == Poly.constant(1)
    assert triple.den.is_monic and triple.shared.is_monic
    # numerator leading coefficient counts the vertices
    assert triple.num.leading == mg.graph.n


def test_signature_changes_raw_coronal_but_not_mu_route():
    plus = MarkedSignedGraph.with_canonical_marking(complete(4))
    minus = MarkedSignedGraph.with_canonical_marking(complete(4, "-"))
    raw_plus = signed_coronal(adjacency_matrix(plus.graph), [1] * 4)
    raw_minus = signed_coronal(adjacency_matrix(minus.graph), [1] * 4)
    assert (raw_plus.num, raw_plus.den) != (raw_minus.num, raw_minus.den)
    via_mu_plus = signed_coronal(adjacency_matrix(mu_signed_graph(plus)),
                                 list(plus.marking))
    via_mu_minus = signed_coronal(adjacency_matrix(mu_signed_graph(minus)),
                                  list(minus.marking))
    assert via_mu_plus == via_mu_minus


def test_mu_route_always_equals_all_ones_coronal_of_underlying():
    # D_mu mu = all-ones vector, so the marks cancel inside the form
    g = cycle(5, "+-+--")
    mg = MarkedSignedGraph(g, canonical_marking(g))
    lhs = signed_coronal(adjacency_matrix(mu_signed_graph(mg)), list(mg.marking))
    rhs = signed_coronal(adjacency_matrix(g.underlying_positive()), [1] * 5)
    assert lhs == rhs


def test_signed_coronal_validates_marks():
    with pytest.raises(ValueError):
        signed_coronal(Matrix([[0, 1], [1, 0]]), [1, 2])
    with pytest.raises(ValueError):
        signed_coronal(Matrix([[0, 1], [1, 0]]), [1])
    with pytest.raises(TypeError):
        signed_coronal(Matrix([[0, 1], [1, 0]]), [1.5, -1])
    with pytest.raises(TypeError):
        signed_coronal(Matrix([[0, 1], [1, 0]]), [True, -1])


def test_laplacian_coronal_of_regular_graph():
    mg = MarkedSignedGraph.with_canonical_marking(cycle(4))
    triple = signed_coronal(matrices(mg).L, [1] * 4)
    # all-ones is a 0-eigenvector of L, so the coronal is n/x
    assert triple.num == Poly.constant(4)
    assert triple.den == Poly.x()


def test_generic_order_64_coronal_is_fast_and_matches_sympy():
    # a dense random signed graph, not a cycle or path: the gcd of its form
    # and charpoly has small degree, so a Euclidean gcd over Q runs through
    # ~64 remainders whose rational coefficients grow, and takes over a minute
    rng = random.Random(64)
    n = 64
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rng.choice((1, -1))
    n_matrix = Matrix(rows)
    mu = [rng.choice((1, -1)) for _ in range(n)]
    start = time.perf_counter()
    triple = signed_coronal(n_matrix, mu)
    elapsed = time.perf_counter() - start
    f = charpoly(n_matrix)
    form = adjugate_quadratic_form(n_matrix, mu)
    assert triple.den * triple.shared == f
    assert triple.num * triple.shared == form
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)), x, domain=sympy.ZZ)

    num, den = to_sympy(form).cancel(to_sympy(f), include=True)
    assert den == to_sympy(triple.den) and num == to_sympy(triple.num)
    assert elapsed < 5
