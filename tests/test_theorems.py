import ast
import hashlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from sigspec import exact, graphs, theorems
from sigspec.coronal import _row_sum_coronal, reduced_coronal, signed_coronal
from sigspec.exact import Matrix, Poly, charpoly, charpoly_with_adjugate_form
from sigspec.graphs import (FAMILIES, MarkedSignedGraph, Marking, SignedGraph, adjacency_matrix,
                            complete, complete_bipartite, cycle, graph_matrix, line_graph,
                            matrices, mu_signed_graph, path, prism, star)
from sigspec.product import product
from sigspec.sampling import (REGULAR_FAMILIES, random_marked_graph,
                              random_regular_marked_graph)
from sigspec.theorems import cospectral_family_check, factored_charpoly, factored_charpolys

from reference import coronal_of_mu_graph


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
    # only the first factor: its regular degree fixes the clone-block diagonal
    with pytest.raises(ValueError):
        factored_charpoly(mk(star(3)), mk(complete(2)), "L")
    with pytest.raises(ValueError):
        factored_charpoly(mk(star(3)), mk(complete(2)), "Q")


def _paper_diagonal(m, n1, n2, r1):
    # the built matrix with every clone vertex's diagonal entry (vertices
    # 0 .. n1*n2 - 1) moved from the constructed degree to the paper's r1 + 2*n2
    rows = [list(r) for r in m.rows()]
    for i in range(n1 * n2):
        assert rows[i][i] == n2 * (r1 + 1)
        rows[i][i] = r1 + 2 * n2
    return Matrix(rows)


@pytest.mark.parametrize("kind", ["L", "Q"])
@pytest.mark.parametrize("g1, r1", [(cycle(4), 2), (complete(3), 2)], ids=["C4", "K3"])
@pytest.mark.parametrize("g2, marks2", [
    (path(4), [1, -1, 1, 1]),
    (star(3), [-1, 1, 1]),
    (star(5, signs=[1, -1, -1, 1]), [1, 1, -1, 1, -1]),
    # disconnected: n2 is a repeated eigenvalue of L's copy block N
    (SignedGraph(5, cycle(4, "+-++").edges), [1, -1, 1, 1, -1]),
], ids=["P4", "K1,2", "signed K1,4", "C4+K1"])
def test_laplacian_and_signless_take_a_non_regular_second_factor(monkeypatch, kind, g1, r1,
                                                                 g2, marks2):
    # the copy block L/Q(Sigma2^mu) + n2*I is exact for any second factor;
    # L's coronal is the closed form n2/(x - n2), so no gcd reduces it
    reduced = []
    reduce = theorems.reduced_coronal

    def recorded(f, p):
        reduced.append(f)
        return reduce(f, p)

    monkeypatch.setattr(theorems, "reduced_coronal", recorded)
    mg1 = MarkedSignedGraph(g1, Marking([1, -1] + [1] * (g1.n - 2)))
    mg2 = MarkedSignedGraph(g2, Marking(marks2))
    n1, n2 = g1.n, g2.n
    direct = getattr(matrices(product(mg1, mg2).graph), kind)
    fc = factored_charpoly(mg1, mg2, kind)
    assert fc.assembled == charpoly(direct)
    paper = factored_charpoly(mg1, mg2, kind, degree_mode="paper")
    assert paper.assembled == charpoly(_paper_diagonal(direct, n1, n2, r1))
    assert (len(reduced) == 0) == (kind == "L")
    # against the gcd route on the copy block with the all-ones vector
    assert fc.coronal == reduce(*exact.charpoly_with_adjugate_form(fc.copy_block, [1] * n2))


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


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
def test_factored_charpolys_match_one_pair_at_a_time(kind):
    # one batch over mixed pairs: one-vertex factors, equal and unequal
    # orders, a repeated pair and a second factor equal to a first factor
    k2_minus = MarkedSignedGraph(complete(2), Marking([1, -1]))
    c4 = MarkedSignedGraph(cycle(4, "+-++"), Marking([1, -1, -1, 1]))
    firsts = [single(), k2_minus, mk(cycle(3, "+--")), c4]
    seconds = [single(), mk(path(3, "+-")), c4, mk(star(4, "-++"))]
    pairs = [(g1, g2) for g1 in firsts for g2 in seconds] + [(c4, c4)]
    modes = ["constructed", "paper"]
    got = factored_charpolys(pairs, kind, modes)
    assert got == [[factored_charpoly(g1, g2, kind, m) for m in modes] for g1, g2 in pairs]
    assert factored_charpolys([], kind, modes) == []


def test_factored_charpoly_is_one_kernel_call(kernel_calls):
    # the copy block and the bracket matrix have one order here, so they
    # share one batch and one list of primes; an L copy block sends no
    # rank-one update, since its coronal is n2/(x - n2). P5 is not regular,
    # so L(P5) keeps its diagonal and is not the bracket matrix -A(C5), as
    # the copy block L(C5) = 2I - A(C5) would be once the kernel side
    # subtracts its scalar diagonal
    fc = factored_charpoly(mk(cycle(5)), mk(path(5)), "L")
    assert [(len(mats), len(updates), len(mats[0])) for mats, _, updates, _ in kernel_calls] == [
        (2, 0, 5)]
    assert fc.assembled == charpoly(matrices(product(mk(cycle(5)), mk(path(5))).graph).L)


def test_c32_x_p32_is_one_order_16_batch(kernel_calls):
    # A(P32) and A(C32) are bipartite with sides of 16: the copy block goes
    # as BC of order 16 with the three updates of its all-ones vector, and
    # the bracket matrix as its own BC, in one batch modulo 2 primes where
    # the order-32 matrices took 3
    fc = factored_charpoly(mk(cycle(32)), mk(path(32)), "A")
    assert [(len(mats), len(updates), len(mats[0]), len(primes))
            for mats, _, updates, primes in kernel_calls] == [(2, 3, 16, 2)]
    # sympy's charpolys, and the adjugate form by the determinant lemma:
    # 1^T adj(xI - N) 1 = chi_N - chi_(N + J)
    def sympy_charpoly(rows):
        return Poly([int(c) for c in DomainMatrix.from_list(rows, sympy.ZZ).charpoly()[::-1]])

    p32 = adjacency_matrix(path(32)).rows()
    chi = sympy_charpoly(p32)
    assert fc.bracket_charpoly == sympy_charpoly(adjacency_matrix(cycle(32)).rows())
    assert fc.coronal == reduced_coronal(chi, chi - sympy_charpoly([[x + 1 for x in r]
                                                                    for r in p32]))


def _resigned(rng, g):
    """g with random edge signs and a random marking."""
    edges = [(i, j, rng.choice((1, -1))) for i, j, _ in g.edges]
    return MarkedSignedGraph(SignedGraph(g.n, edges),
                             Marking([rng.choice((1, -1)) for _ in range(g.n)]))


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
def test_factored_forms_depend_on_underlying_graphs_only(monkeypatch, kernel_calls, kind):
    # switching: A, L and Q of the product are D M D, with D the product's
    # marking and M the matrix of the product of |Sigma1| and |Sigma2|. So
    # three random signings and markings of both factors of each underlying
    # pair give one shared form, and the kernel sees each underlying copy
    # block and bracket matrix, as _kernel_item sends it, once
    rng = random.Random(26)
    underlying = [(cycle(4), path(4)), (complete(3), star(4)), (cycle(5), cycle(4)),
                  (complete(2), complete(4)), (complete_bipartite(2, 3), cycle(3))]
    if kind != "A":  # L and Q need a regular first factor
        underlying = [(g1, g2) for g1, g2 in underlying if graphs.regular_degree(g1) is not None]
    variants = [[(_resigned(rng, g1), _resigned(rng, g2)) for _ in range(3)]
                for g1, g2 in underlying]
    modes = ["constructed"] if kind == "A" else ["constructed", "paper"]
    got = factored_charpolys([pair for pairs in variants for pair in pairs], kind, modes)
    monkeypatch.undo()
    mats = Counter(tuple(map(tuple, rows)) for batch, _, _, _ in kernel_calls for rows in batch)
    updates = [u for _, _, ups, _ in kernel_calls for u in ups]
    # one form per underlying pair and clone diagonal, equal field by field to
    # the all-positive factors' form and to the built signed product's charpoly
    plain = factored_charpolys([(mk(g1), mk(g2)) for g1, g2 in underlying], kind, modes)
    for k, pairs in enumerate(variants):
        for forms in got[3 * k + 1:3 * k + 3]:
            assert all(fc is other for fc, other in zip(got[3 * k], forms))
        for fc, other in zip(got[3 * k], plain[k]):
            assert (fc.linear_factor, fc.coronal, fc.bracket_charpoly, fc.assembled) == (
                other.linear_factor, other.coronal, other.bracket_charpoly, other.assembled)
        assert got[3 * k][0].assembled == charpoly(graph_matrix(product(*pairs[1]).graph, kind))
    # the copy blocks as the kernel takes them: L's and Q's without their n2*I
    copies = {graph_matrix(g, kind) for _, g in underlying}
    brackets = {-adjacency_matrix(g) if kind == "L" else adjacency_matrix(g)
                for g, _ in underlying}
    assert set(mats) == {exact._kernel_item(m, None)[0] for m in copies | brackets}
    assert set(mats.values()) == {1}
    # a copy block whose rows all sum to one value sends no rank-one update:
    # L's always, A's and Q's when the second factor is regular
    irregular = {g for _, g in underlying if graphs.regular_degree(g) is None}
    assert len(updates) == (0 if kind == "L" else len(irregular))


def _disjoint_union(g, h):
    return SignedGraph(g.n + h.n, list(g.edges) + [(g.n + i, g.n + j, s) for i, j, s in h.edges])


# regular graphs: every row of A, L + nI and Q + nI sums to one value
_REGULAR_GRAPHS = (
    [cycle(n) for n in range(3, 9)] + [complete(n) for n in range(1, 7)]
    + [prism(n) for n in range(3, 6)] + [complete_bipartite(a, a) for a in range(1, 5)]
    + [line_graph(line_graph(complete_bipartite(3, 3))), line_graph(line_graph(prism(3)))]
    + [_disjoint_union(cycle(3), cycle(5)), _disjoint_union(complete(4), prism(3)),
       _disjoint_union(complete(2), complete(2)), _disjoint_union(complete(1), complete(1))])


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
def test_row_sum_coronal_is_the_reduced_coronal(kind):
    # a copy block N with N 1 = sigma 1 has the coronal n/(x - sigma): A and
    # Q + nI of a regular graph, and L + nI of every graph
    for g in _REGULAR_GRAPHS:
        n = g.n
        m = graph_matrix(g, kind)
        if kind != "A":
            m = m + Matrix.diagonal([n] * n)
        sigma = sum(m.rows()[0])
        assert {sum(r) for r in m.rows()} == {sigma}
        assert (_row_sum_coronal(charpoly(m), n, sigma)
                == reduced_coronal(*charpoly_with_adjugate_form(m, (1,) * n)))


def test_uniform_copy_blocks_send_no_update(kernel_calls):
    seconds = _REGULAR_GRAPHS[:12]
    for kind in ("A", "L", "Q"):
        factored_charpolys([(mk(cycle(4)), mk(g)) for g in seconds], kind, ["constructed"])
    assert kernel_calls and all(not updates for _, _, updates, _ in kernel_calls)
    # an irregular second factor's A and Q blocks send the all-ones update
    for kind in ("A", "Q"):
        start = len(kernel_calls)
        factored_charpolys([(mk(cycle(4)), mk(path(4)))], kind, ["constructed"])
        assert sum(len(updates) for _, _, updates, _ in kernel_calls[start:]) == 1


def test_theorems_never_names_mu_signed_graph():
    # the factored route reads underlying graphs; the mu-graph is the
    # direct side's business
    tree = ast.parse(Path(theorems.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "mu_signed_graph" not in names


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


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
@pytest.mark.parametrize("degree_mode", ["constructed", "paper"])
@pytest.mark.parametrize("mg2", [mk(path(3, "+-")), single()], ids=["P3", "K1"])
def test_assembled_is_the_linear_power_times_the_rest(kind, degree_mode, mg2):
    # assembled multiplies by (x - d)^e in one binomial row, or shifts for
    # d = 0; the power here squares its way there. A one-vertex second
    # factor makes e = 0
    fc = factored_charpoly(mk(cycle(4, "+--+")), mg2, kind, degree_mode)
    assert (fc.linear_factor == Poly.x()) == (kind == "A")
    assert fc.linear_exponent == 4 * (mg2.graph.n - 1)
    rest = fc.shared_factor ** fc.shared_exponent * fc.bracket
    assert fc.assembled == fc.linear_factor ** fc.linear_exponent * rest


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


_LK33 = line_graph(complete_bipartite(3, 3))
_FAMILY_TRIPLES = {
    "S5/C4+K1 on K2": (mk(star(5)), mk(SignedGraph(5, cycle(4).edges)), mk(complete(2))),
    # equal coronals under distinct markings, since each is a switching of the other
    "L(K3,3) pair on C6": (mk(_LK33),
                           MarkedSignedGraph(_LK33, Marking([1, -1, 1, 1, -1, 1, 1, 1, -1])),
                           mk(cycle(6))),
    "C4/P4 on K2": (mk(cycle(4)), mk(path(4)), mk(complete(2))),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("triple", list(_FAMILY_TRIPLES), ids=list(_FAMILY_TRIPLES))
def test_cospectral_family_matches_built_products(side, triple):
    # the reference route: build both products and compare their charpolys
    mg_a, mg_b, mg = _FAMILY_TRIPLES[triple]
    report = cospectral_family_check(mg_a, mg_b, mg, side)
    pairs = [(mg_a, mg), (mg_b, mg)] if side == "left" else [(mg, mg_a), (mg, mg_b)]
    built = [product(*pair).graph for pair in pairs]
    kinds = "ALQ" if report.regular_inputs else "A"
    for kind in kinds:
        pa, pb = (charpoly(graph_matrix(g, kind)) for g in built)
        assert getattr(report, f"{kind.lower()}_match") == (pa == pb)
    if not report.regular_inputs:
        assert report.l_match is None and report.q_match is None


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("triple", list(_FAMILY_TRIPLES), ids=list(_FAMILY_TRIPLES))
def test_cospectral_family_builds_no_product(graph_sizes, side, triple):
    mg_a, mg_b, mg = _FAMILY_TRIPLES[triple]
    largest = max(x.graph.n for x in (mg_a, mg_b, mg))
    cospectral_family_check(mg_a, mg_b, mg, side)
    assert graph_sizes and max(graph_sizes) <= largest


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


def test_headline_bracket_golden():
    # the bracket of the factored A of C32 x P32 (order 2048), the benchmark's
    # headline instance; digest from the Horner composition
    mg1 = MarkedSignedGraph(cycle(32), Marking([1, -1, -1, 1] * 8))
    mg2 = MarkedSignedGraph(path(32), Marking([1, 1, -1] * 10 + [-1, 1]))
    fc = factored_charpoly(mg1, mg2, "A")
    assert fc.bracket.degree == 544
    text = " ".join(fc.bracket.coeff_strings())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "9c1af113a113679634a29075e236606f9a595193fb95374aaad15fd5bb71f06b")


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


def eager_bracket(fc):
    """The reference bracket: bracket_charpoly composed with u/v in one piece."""
    return exact.compose_with_rational(fc.bracket_charpoly, fc.bracket_u, fc.bracket_v)


@given(rng=rngs(), kind=st.sampled_from("ALQ"))
@settings(max_examples=30, deadline=None)
def test_lazy_bracket_matches_eager_composition(rng, kind):
    # first factors of order up to 14 put bracket charpolys on both sides of
    # _SCHOOLBOOK_MAX; cycles and complete graphs have repeated eigenvalues,
    # so their square-free split has more than one part
    mg1 = random_marked_graph(rng, max_n=14,
                              families=FAMILIES if kind == "A" else REGULAR_FAMILIES)
    mg2 = random_marked_graph(rng, max_n=4)
    fc = factored_charpoly(mg1, mg2, kind)
    assert "bracket" not in vars(fc)
    assert fc.bracket == eager_bracket(fc)


@pytest.mark.parametrize("g1, g2, multiplicity", [
    (cycle(24), path(5), 2), (complete(10), star(3), 9),
    (complete_bipartite(5, 5), cycle(4), 8), (path(9), SignedGraph(1, []), 1)])
def test_lazy_bracket_splits_repeated_eigenvalues(g1, g2, multiplicity):
    fc = factored_charpoly(mk(g1), mk(g2), "A")
    assert fc.bracket_charpoly.degree > exact._SCHOOLBOOK_MAX
    assert max(j for _, j in exact._square_free_parts(fc.bracket_charpoly)) == multiplicity
    assert fc.bracket == eager_bracket(fc)
    # built once: a second read returns the cached polynomial
    assert fc.bracket is fc.bracket


def test_cospectral_family_right_side_is_one_kernel_batch(monkeypatch, kernel_calls):
    # the two copy blocks with their markings and the base's bracket matrix
    # go through one exact call, one batch per folded order, and no product
    # is built: S5's four leaves fold to one row and C4's two twin pairs to
    # two, so the inputs reach the kernel at orders 2 and 3, each with its
    # rank-one update, and K2 joins the order-2 batch
    s = mk(star(5))
    c4_iso = MarkedSignedGraph.with_canonical_marking(SignedGraph(5, cycle(4).edges))
    entries = []
    entry = theorems._charpolys_with_forms

    def exact_call(items):
        entries.append(len(items))
        return entry(items)

    monkeypatch.setattr(theorems, "_charpolys_with_forms", exact_call)
    report = cospectral_family_check(s, c4_iso, mk(complete(2)), "right")
    assert entries == [3]
    assert [len(mats) + len(updates) for mats, _, updates, _ in kernel_calls] == [3, 2]
    monkeypatch.undo()
    ca, cb = coronal_of_mu_graph(s), coronal_of_mu_graph(c4_iso)
    assert report.hypothesis_coronal_equal == ((ca.num, ca.den) == (cb.num, cb.den))
    assert report.hypothesis_cospectral == (ca.charpoly == cb.charpoly)
