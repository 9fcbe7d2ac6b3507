import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.exact import charpoly
from sigspec.graphs import (MarkedSignedGraph, Marking, SignedGraph,
                            adjacency_matrix, balance_marking,
                            canonical_marking, complete, complete_bipartite,
                            cycle, is_balanced, line_graph, matrices,
                            mu_signed_graph, path, prism, regular_degree,
                            star)
from sigspec.sampling import random_marked_graph


def rngs():
    import random
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def test_signed_graph_validation():
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 1), (1, 0, -1)])
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 3, 1)])
    # the exact core's int rule: no float, bool or str is rounded into a graph
    with pytest.raises(TypeError):
        SignedGraph(3, [(0.9, 2.2, 1.7)])
    with pytest.raises(TypeError):
        SignedGraph(3, [(0, 2, 1.0)])
    with pytest.raises(TypeError):
        SignedGraph(3, [(0, 2, True)])
    with pytest.raises(TypeError):
        SignedGraph(True, [])
    with pytest.raises(TypeError):
        cycle(3, [1.2, 1, 1])
    with pytest.raises(TypeError):
        complete_bipartite(True, 2)
    with pytest.raises(ValueError):
        cycle(3, [1, 1])
    with pytest.raises(ValueError):
        cycle(3, "+x+")
    assert cycle(3, [1, -1, 1]) == cycle(3, "+-+")


def test_degrees_and_neighbors():
    g = star(4, "-")
    assert g.degrees() == (3, 1, 1, 1)
    assert g.neighbors(0) == [(1, -1), (2, -1), (3, -1)]
    assert g.sign_of(2, 0) == -1


def test_canonical_marking_examples():
    # mark of a vertex is the product of its incident edge signs
    g = SignedGraph(3, [(0, 1, -1), (1, 2, 1)])
    assert canonical_marking(g) == Marking([-1, -1, 1])
    # isolated vertices default to +
    g = SignedGraph(2, [])
    assert canonical_marking(g) == Marking([1, 1])
    # all-negative triangle: every vertex sees two minus edges
    assert canonical_marking(cycle(3, "-")) == Marking([1, 1, 1])


def test_mu_signed_graph_signs():
    g = SignedGraph(3, [(0, 1, -1), (1, 2, 1)])
    mg = MarkedSignedGraph(g, Marking([-1, 1, -1]))
    mugraph = mu_signed_graph(mg)
    assert mugraph.sign_of(0, 1) == -1
    assert mugraph.sign_of(1, 2) == -1


def test_balance():
    assert is_balanced(cycle(3))
    assert not is_balanced(cycle(3, "-"))
    # one negative edge on a cycle makes it unbalanced, two make it balanced
    assert not is_balanced(SignedGraph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]))
    assert is_balanced(SignedGraph(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1)]))
    m = balance_marking(cycle(4))
    assert m == Marking([1, 1, 1, 1])
    assert balance_marking(cycle(5, "-")) is None


@given(rng=rngs())
@settings(max_examples=60, deadline=None)
def test_mu_signed_graph_is_always_balanced(rng):
    mg = random_marked_graph(rng, max_n=6)
    assert is_balanced(mu_signed_graph(mg))


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_balanced_graphs_are_cospectral_with_underlying(rng):
    # switching by the balancing marks turns the graph all-positive
    mg = random_marked_graph(rng, max_n=6)
    balanced = mu_signed_graph(mg)
    lhs = charpoly(adjacency_matrix(balanced))
    rhs = charpoly(adjacency_matrix(balanced.underlying_positive()))
    assert lhs == rhs


def test_matrices_relations():
    mg = MarkedSignedGraph.with_canonical_marking(cycle(4, "-+-+"))
    mats = matrices(mg)
    n = mg.graph.n
    for i in range(n):
        for j in range(n):
            assert mats.L[i, j] == mats.D[i, j] - mats.A[i, j]
            assert mats.Q[i, j] == mats.D[i, j] + mats.A[i, j]
    assert mats.D[0, 0] == 2


def test_generator_counts():
    assert star(5).num_edges == 4
    assert path(4).num_edges == 3
    assert cycle(6).num_edges == 6
    assert complete(5).num_edges == 10
    assert complete_bipartite(3, 3).num_edges == 9
    assert prism(3).num_edges == 9
    assert prism(3).degrees() == (3,) * 6
    with pytest.raises(ValueError):
        cycle(2)


def test_regular_degree():
    assert regular_degree(cycle(5)) == 2
    assert regular_degree(complete(4)) == 3
    assert regular_degree(star(4)) is None
    assert regular_degree(SignedGraph(1, [])) == 0


def test_line_graph_of_k33():
    lg = line_graph(complete_bipartite(3, 3))
    assert lg.n == 9
    assert regular_degree(lg) == 4
    lg2 = line_graph(lg)
    assert lg2.n == 18
    assert regular_degree(lg2) == 6


def test_line_graph_of_path():
    # edges of P4 form P3
    lg = line_graph(path(4))
    assert lg.n == 3
    assert lg.degrees() == (1, 2, 1)


def test_negated_and_underlying():
    g = cycle(3, "+-+")
    assert g.negated().sign_of(0, 1) == -1
    assert g.underlying_positive().sign_of(1, 2) == 1


def test_marking_validation():
    with pytest.raises(ValueError):
        Marking([1, 0])
    for bad in ([1.9, -1.2], [True, -1], ["1", "-1"]):
        with pytest.raises(TypeError):
            Marking(bad)
    with pytest.raises(ValueError):
        Marking("+x")
    with pytest.raises(ValueError):
        Marking("")
    assert Marking("+-") == Marking([1, -1])
    with pytest.raises(ValueError):
        MarkedSignedGraph(cycle(3), Marking([1, 1]))
