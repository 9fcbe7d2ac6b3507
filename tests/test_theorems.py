import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.coronal import signed_coronal
from sigspec.exact import Poly, charpoly
from sigspec.graphs import (MarkedSignedGraph, Marking, SignedGraph, adjacency_matrix,
                            complete, complete_bipartite, cycle, line_graph, matrices,
                            mu_signed_graph, path, star)
from sigspec.product import product
from sigspec.sampling import (random_marked_graph,
                              random_regular_marked_graph)
from sigspec.theorems import (coronal_of_mu_graph, cospectral_family_check,
                              factored_charpoly)


def rngs():
    import random
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def mk(g):
    return MarkedSignedGraph.with_canonical_marking(g)


def single():
    return mk(SignedGraph(1, []))


def test_k2_with_single_vertex_is_p4():
    fc = factored_charpoly(mk(complete(2)), single(), "A")
    assert fc.assembled == Poly([1, 0, -3, 0, 1])
    assert fc.linear_exponent == 0
    assert fc.assembled == charpoly(
        matrices(product(mk(complete(2)), single()).graph).A)


def test_factored_shape_bookkeeping():
    fc = factored_charpoly(mk(path(3)), mk(complete(2)), "A")
    # 2 * n1 * n2 = 12
    assert fc.assembled.degree == 12
    assert fc.linear_factor == Poly.x()
    assert fc.linear_exponent == 3 * (2 - 1)
    assert fc.shared_exponent == 3
    assert fc.assembled.is_monic


@given(rng=rngs())
@settings(max_examples=35, deadline=None)
def test_adjacency_factorization_matches_direct(rng):
    mg1 = random_marked_graph(rng, max_n=4)
    mg2 = random_marked_graph(rng, max_n=3)
    fc = factored_charpoly(mg1, mg2, "A")
    direct = charpoly(matrices(product(mg1, mg2).graph).A)
    assert fc.assembled == direct


@given(rng=rngs())
@settings(max_examples=20, deadline=None)
def test_laplacian_factorization_matches_direct_for_regular(rng):
    mg1 = random_regular_marked_graph(rng, max_n=4)
    mg2 = random_regular_marked_graph(rng, max_n=4)
    fc = factored_charpoly(mg1, mg2, "L")
    direct = charpoly(matrices(product(mg1, mg2).graph).L)
    assert fc.assembled == direct


@given(rng=rngs())
@settings(max_examples=20, deadline=None)
def test_signless_factorization_matches_direct_for_regular(rng):
    mg1 = random_regular_marked_graph(rng, max_n=4)
    mg2 = random_regular_marked_graph(rng, max_n=4)
    fc = factored_charpoly(mg1, mg2, "Q")
    direct = charpoly(matrices(product(mg1, mg2).graph).Q)
    assert fc.assembled == direct


def test_laplacian_needs_regular_inputs():
    with pytest.raises(ValueError):
        factored_charpoly(mk(star(3)), mk(complete(2)), "L")
    with pytest.raises(ValueError):
        factored_charpoly(mk(complete(2)), mk(star(3)), "Q")


def test_degree_mode_changes_laplacian_result():
    mg1, mg2 = mk(complete(2)), mk(complete(2))
    constructed = factored_charpoly(mg1, mg2, "L", degree_mode="constructed")
    stated = factored_charpoly(mg1, mg2, "L", degree_mode="paper")
    # constructed a-side degree n2(r1+1)=4, stated r1+2n2=5
    assert constructed.assembled != stated.assembled
    direct = charpoly(matrices(product(mg1, mg2).graph).L)
    assert constructed.assembled == direct
    assert stated.assembled != direct


def test_degree_modes_coincide_when_formula_says_so():
    # r1 (n2 - 1) = n2 holds for r1 = 2, n2 = 2
    mg1, mg2 = mk(cycle(3)), mk(complete(2))
    constructed = factored_charpoly(mg1, mg2, "L", degree_mode="constructed")
    stated = factored_charpoly(mg1, mg2, "L", degree_mode="paper")
    assert constructed.assembled == stated.assembled


def test_factored_charpoly_dispatch():
    mg1, mg2 = mk(complete(2)), mk(complete(2))
    for kind in ("A", "L", "Q"):
        fc = factored_charpoly(mg1, mg2, kind)
        assert fc.matrix_kind == kind
        assert fc.assembled == charpoly(getattr(matrices(product(mg1, mg2).graph), kind))


def _check_stated_factorization(fc):
    for factor in (fc.linear_factor, fc.shared_factor, fc.bracket):
        assert factor.is_monic
    product_of_factors = (fc.linear_factor ** fc.linear_exponent
                          * fc.shared_factor ** fc.shared_exponent * fc.bracket)
    assert product_of_factors == fc.assembled


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
@pytest.mark.parametrize("degree_mode", ["constructed", "paper"])
@pytest.mark.parametrize("n", [3, 5])
def test_stated_factorization_on_cycles(kind, degree_mode, n):
    # L of C3 x C3 and C5 x C5 once came out as -assembled
    fc = factored_charpoly(mk(cycle(n)), mk(cycle(n)), kind, degree_mode)
    _check_stated_factorization(fc)


@given(rng=rngs(), kind=st.sampled_from("ALQ"),
       degree_mode=st.sampled_from(["constructed", "paper"]))
@settings(max_examples=40, deadline=None)
def test_stated_factorization_on_random_regular_pairs(rng, kind, degree_mode):
    mg1 = random_regular_marked_graph(rng, max_n=4)
    mg2 = random_regular_marked_graph(rng, max_n=4)
    _check_stated_factorization(factored_charpoly(mg1, mg2, kind, degree_mode))


@given(rng=rngs(), x0=st.integers(min_value=11, max_value=17))
@settings(max_examples=25, deadline=None)
def test_assembled_value_matches_textbook_evaluation(rng, x0):
    # f(x) = x^(n1(n2-1)) R(x)^n1 n2^n1 prod over factor roots of
    #        ((x - n2 chi(x)) shifted through the first factor), evaluated
    #        through the rational composition identity at a sample point
    mg1 = random_marked_graph(rng, max_n=3)
    mg2 = random_marked_graph(rng, max_n=3)
    n1, n2 = mg1.graph.n, mg2.graph.n
    fc = factored_charpoly(mg1, mg2, "A")
    coro = signed_coronal(adjacency_matrix(mu_signed_graph(mg2)),
                          list(mg2.marking))
    if coro.den.eval(x0) == 0:
        return
    chi = coro.eval(x0)
    g1 = charpoly(adjacency_matrix(mu_signed_graph(mg1)))
    f2 = charpoly(adjacency_matrix(mu_signed_graph(mg2)))
    expected = (Fraction(x0) ** (n1 * (n2 - 1))
                * Fraction(f2.eval(x0)) ** n1
                * Fraction(n2) ** n1
                * g1.eval(Fraction(x0 - n2 * chi, n2)))
    assert Fraction(fc.assembled.eval(x0)) == expected


def test_cospectral_family_left_side():
    # stars and cycle-plus-isolated-vertex pairs are classic A-cospectral mates
    s = mk(star(5))
    c4_iso = MarkedSignedGraph.with_canonical_marking(
        SignedGraph(5, cycle(4).edges))
    base = mk(complete(2))
    report = cospectral_family_check(s, c4_iso, base, "left")
    assert report.hypothesis_cospectral
    assert report.a_match
    assert report.hypothesis_coronal_equal is None
    assert report.consistent
    # inputs are not regular so L and Q are not compared
    assert report.l_match is None and report.q_match is None


def test_cospectral_family_right_side_needs_equal_coronals():
    s = mk(star(5))
    c4_iso = MarkedSignedGraph.with_canonical_marking(
        SignedGraph(5, cycle(4).edges))
    base = mk(complete(2))
    report = cospectral_family_check(s, c4_iso, base, "right")
    assert report.hypothesis_cospectral
    # star and cycle-plus-vertex have different coronals
    assert report.hypothesis_coronal_equal is False
    assert report.consistent


def test_cospectral_family_regular_pair_matches_all_three():
    # 4-regular cospectral mates on 9 vertices with equal coronals
    from sigspec.graphs import line_graph
    lk33 = mk(line_graph(complete_bipartite(3, 3)))
    # the complement route gives another strongly regular (9,4,1,2) graph,
    # here we reuse the same graph to exercise the full regular branch
    base = mk(complete(2))
    report = cospectral_family_check(lk33, lk33, base, "right")
    assert report.regular_inputs
    assert report.a_match and report.l_match and report.q_match
    assert report.consistent


def test_non_cospectral_inputs_report_hypothesis_failure():
    report = cospectral_family_check(mk(cycle(4)), mk(path(4)),
                                     mk(complete(2)), "left")
    assert not report.hypothesis_cospectral
    assert not report.hypothesis_holds
    # products genuinely differ here, and that does not contradict anything
    assert report.a_match is False
    assert report.consistent


@pytest.mark.parametrize("kind, g1, marks1, g2, marks2, digest", [
    ("A", cycle(16), [1] * 16, path(16), [1] * 16,
     "894351a869ecaac50a2abb2fac7bfdba8ef92b04e9479682108134c9abfc9427"),
    ("L", cycle(8), [1, -1] * 4, cycle(8), [1] * 7 + [-1],
     "a35b288ac384bb01aaf3eb2176ad555f8db96f6da73ede099e73675705d5b0d1"),
    ("Q", cycle(8), [1, -1] * 4, cycle(8), [1] * 7 + [-1],
     "83dcb5f82b3e859127274906cabc98ab333ba9ffec31c91c56f0597e3072371a"),
])
def test_assembled_coefficients_golden(kind, g1, marks1, g2, marks2, digest):
    # digests of the Fraction-only expansion; the integer kernel must reproduce them
    mg1 = MarkedSignedGraph(g1, Marking(marks1))
    mg2 = MarkedSignedGraph(g2, Marking(marks2))
    fc = factored_charpoly(mg1, mg2, kind)
    text = " ".join(fc.assembled.coeff_strings())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # integral values are stored as ints, never as Fractions
    c = coronal_of_mu_graph(mg2)
    for p in (fc.assembled, fc.bracket, fc.shared_factor, c.num, c.den, c.shared,
              charpoly(adjacency_matrix(mu_signed_graph(mg1)))):
        assert all(type(x) is int for x in p.coeffs)


def _golden_product_matrices():
    return matrices(product(MarkedSignedGraph(cycle(6), Marking([1, -1] * 3)),
                            MarkedSignedGraph(complete(4), Marking([1, 1, -1, 1]))).graph)


@pytest.mark.parametrize("kind, digest", [
    ("A", "5fcf2375763955b3a1e26dafb2065cc3404a6b1be66e0a5398fef87d136aa98f"),
    ("L", "4c930cfa119bcb6b794f2accf12eb6880c2178b5603edcb2d2de7067aa582444"),
    ("Q", "50dbff1c9c32c0127a38cb1f4c7c1cfd2a1215ba3167764b7f75f34938b46239"),
])
def test_direct_charpoly_golden(kind, digest):
    # Faddeev-LeVerrier on the built order-48 product, digests from the Fraction core
    f = charpoly(getattr(_golden_product_matrices(), kind))
    assert hashlib.sha256(" ".join(f.coeff_strings()).encode()).hexdigest() == digest
    assert all(type(x) is int for x in f.coeffs)


@pytest.mark.parametrize("kind, digest", [
    ("A", "6af4987b525d3afe68bcb21c3804da13d30cac982f7d33a7954eb06bb186ad37"),
    ("L", "a747ba231aee32ae559d15556cbb300c8853898361fa1e89ed2ea241b8336a8a"),
    ("Q", "49a2c8fa470bfd9570b2163d75a13174972fd4afbba56e4dda9d1c3079147358"),
])
def test_demo_product_charpoly_golden(kind, digest):
    # K2 x L^2(K3,3), the order-72 product equienergetic-demo certifies;
    # digests from Faddeev-LeVerrier
    mats = matrices(product(mk(complete(2)),
                            mk(line_graph(line_graph(complete_bipartite(3, 3))))).graph)
    f = charpoly(getattr(mats, kind))
    assert f.degree == 72
    assert hashlib.sha256(" ".join(f.coeff_strings()).encode()).hexdigest() == digest


@pytest.mark.parametrize("graph, marks, digest", [
    (path(9), [1, -1, 1, 1, -1, 1, 1, 1, -1],
     "e8bfe35744ff31e478354dea5eaf008518cf6535a71b18f8360bb0f3c6f6b901"),
    (SignedGraph(7, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1), (4, 5, -1),
                     (5, 6, 1), (0, 3, -1), (2, 5, 1), (1, 6, 1)]),
     [1, 1, -1, 1, -1, -1, 1],
     "1dceaa468efec53fa7be4b1a4b357256cf0f82b426f0aacfa73083f14c0f5a94"),
    # orders above the Faddeev-LeVerrier cutoff, digests from Faddeev-LeVerrier
    (path(14), [1, -1, 1, 1, -1, -1, 1, -1, 1, 1, 1, -1, 1, -1],
     "67a6f148ebbb536927c396c40ef967c498143f65dc5765c5e5e1710508f9a958"),
    (line_graph(line_graph(complete_bipartite(3, 3))),
     [1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1, 1, -1, 1],
     "9dbeb62b904ca48f431f36473d4f43d0145e3ece890acc687073108333cb6f57"),
])
def test_coronal_gcd_golden(graph, marks, digest):
    # num | den | shared after the exact gcd, digests from the Fraction core
    c = coronal_of_mu_graph(MarkedSignedGraph(graph, Marking(marks)))
    text = " | ".join(" ".join(p.coeff_strings()) for p in (c.num, c.den, c.shared))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
