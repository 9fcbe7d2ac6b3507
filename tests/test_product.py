import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.coronal import signed_coronal
from sigspec.exact import charpoly
from sigspec.graphs import (MarkedSignedGraph, Marking, SignedGraph, adjacency_matrix,
                            complete, cycle, matrices, mu_signed_graph, path,
                            star)
from sigspec.product import product
from sigspec.sampling import random_marked_graph

from reference import corona, random_single_vertex


def rngs():
    import random
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def mk(g):
    return MarkedSignedGraph.with_canonical_marking(g)


def block_reference(mg1, mg2) -> np.ndarray:
    """The product's adjacency assembled from Kronecker blocks.

    [[ A(S1mu) (x) J_n2,  diag(mu1) (x) 1 mu2^T ],
     [ diag(mu1) (x) mu2 1^T,  I_n1 (x) A(S2mu) ]]
    """
    n1, n2 = mg1.graph.n, mg2.graph.n
    a1 = np.array(adjacency_matrix(mu_signed_graph(mg1)).rows())
    a2 = np.array(adjacency_matrix(mu_signed_graph(mg2)).rows())
    cross = np.kron(np.diag(list(mg1.marking)), np.outer(np.ones(n2, dtype=int),
                                                         list(mg2.marking)))
    return np.block([[np.kron(a1, np.ones((n2, n2), dtype=int)), cross],
                     [cross.T, np.kron(np.eye(n1, dtype=int), a2)]])


def test_k2_by_k2_shape():
    pg = product(mk(complete(2)), mk(complete(2)))
    g = pg.graph.graph
    assert g.n == 8
    # n2^2 (n1 + e1) + n1 e2 = 4*(2+1) + 2*1
    assert g.num_edges == 14


def test_vertex_layout_labels():
    pg = product(mk(path(3)), mk(complete(2)))
    assert pg.a_vertex(2, 1) == 5
    assert pg.b_vertex(0, 0) == 6
    assert pg.vertex_label(0) == "a[0][0]"
    assert pg.vertex_label(7) == "b[0][1]"
    assert pg.vertex_label(11) == "b[2][1]"


def test_degrees_formula():
    # a-side degree n2(r1+1), b-side degree r2+n2 for regular factors
    pg = product(mk(cycle(4)), mk(complete(3)))
    degs = pg.graph.graph.degrees()
    n1, n2 = 4, 3
    for i in range(n1):
        for k in range(n2):
            assert degs[pg.a_vertex(i, k)] == n2 * (2 + 1)
    for i in range(n1):
        for q in range(n2):
            assert degs[pg.b_vertex(i, q)] == 2 + n2


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_block_adjacency_matches_construction(rng):
    mg1 = random_marked_graph(rng, max_n=4)
    mg2 = random_marked_graph(rng, max_n=3)
    pg = product(mg1, mg2)
    assert np.array_equal(block_reference(mg1, mg2),
                          adjacency_matrix(pg.graph.graph).rows())


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_product_equals_the_checked_block_reference(rng):
    # product builds its graph and marking from the factors' checked ints,
    # with no type pass; the checked constructors, given the block
    # reference's entries and the factors' marks, make the same objects
    mg1 = random_marked_graph(rng, max_n=5)
    mg2 = random_marked_graph(rng, max_n=4)
    n1, n2 = mg1.graph.n, mg2.graph.n
    pg = product(mg1, mg2).graph
    a = block_reference(mg1, mg2)
    n = len(a)
    graph = SignedGraph(n, [(i, j, int(a[i, j])) for i in range(n) for j in range(i + 1, n)
                            if a[i, j]])
    marking = Marking([int(x) for x in np.concatenate([
        np.kron(list(mg1.marking), np.ones(n2, dtype=int)),
        np.kron(np.ones(n1, dtype=int), list(mg2.marking))])])
    assert pg.graph == graph and pg.marking == marking
    assert all(type(x) is int for e in pg.graph.edges for x in e)
    assert all(type(x) is int for x in pg.marking) and type(pg.graph.n) is int


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_product_marks_copy_factor_marks(rng):
    mg1 = random_marked_graph(rng, max_n=4)
    mg2 = random_marked_graph(rng, max_n=3)
    pg = product(mg1, mg2)
    marks = pg.graph.marking
    n1, n2 = pg.n1, pg.n2
    for i in range(n1):
        for k in range(n2):
            assert marks[pg.a_vertex(i, k)] == mg1.marking[i]
            assert marks[pg.b_vertex(i, k)] == mg2.marking[k]


@given(rng=rngs(), x0=st.integers(min_value=9, max_value=15))
@settings(max_examples=25, deadline=None)
def test_schur_correction_term_is_coronal_times_all_ones_blocks(rng, x0):
    # eliminating the copies block from xI - A leaves the first factor
    # shifted by chi(x) * (I kron J); checked pointwise by sympy's exact solves
    mg1 = random_marked_graph(rng, max_n=3)
    mg2 = random_marked_graph(rng, max_n=3)
    n1, n2 = mg1.graph.n, mg2.graph.n
    a2 = adjacency_matrix(mu_signed_graph(mg2))
    chi = signed_coronal(a2, list(mg2.marking)).eval(x0)

    small = sympy.eye(n2) * x0 - sympy.Matrix(a2.rows())
    resolvent = small.LUsolve(sympy.eye(n2))

    block = n1 * n2
    cross = sympy.Matrix(block_reference(mg1, mg2)[:block, block:].tolist())
    correction = cross * sympy.diag(*[resolvent] * n1) * cross.T

    expected = sympy.Matrix(np.kron(np.eye(n1, dtype=int),
                                    np.ones((n2, n2), dtype=int)).tolist()) * chi
    assert correction == expected


def test_corona_equals_product_with_single_vertex():
    rngless = mk(cycle(3, "+-+"))
    single = MarkedSignedGraph.with_canonical_marking(SignedGraph(1, []))
    pg = product(rngless, single)
    cg = corona(rngless, single)
    assert pg.graph == cg


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_corona_matches_product_on_random_inputs(rng):
    mg1 = random_marked_graph(rng, max_n=5)
    single = random_single_vertex(rng)
    assert product(mg1, single).graph == corona(mg1, single)


def test_product_depends_only_on_underlying_graphs():
    # marks enter every product edge twice, so signatures wash out
    x = mk(path(3))
    minus = MarkedSignedGraph.with_canonical_marking(cycle(3, "-"))
    plus = MarkedSignedGraph.with_canonical_marking(cycle(3))
    p_minus = product(minus, x)
    p_plus = product(plus, x)
    a_minus = charpoly(matrices(p_minus.graph).A)
    a_plus = charpoly(matrices(p_plus.graph).A)
    assert a_minus == a_plus


@given(rng=rngs())
@settings(max_examples=30, deadline=None)
def test_product_is_always_balanced(rng):
    from sigspec.graphs import is_balanced
    mg1 = random_marked_graph(rng, max_n=4)
    mg2 = random_marked_graph(rng, max_n=3)
    assert is_balanced(product(mg1, mg2).graph.graph)


def test_kron_block_structure_of_type1_edges():
    mg1 = mk(complete(2))
    mg2 = mk(SignedGraph(2, []))
    big = np.array(adjacency_matrix(product(mg1, mg2).graph.graph).rows())
    a1 = np.array(adjacency_matrix(mu_signed_graph(mg1)).rows())
    assert np.array_equal(big[:4, :4], np.kron(a1, np.ones((2, 2), dtype=int)))
