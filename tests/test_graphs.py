import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec import cli, graphs, io, sampling
from sigspec.exact import Matrix, charpoly
from sigspec.graphs import (FAMILIES, EdgeError, MarkedSignedGraph, Marking, SignedGraph,
                            adjacency_matrix, balance_marking,
                            canonical_marking, complete, complete_bipartite,
                            cycle, graph_matrix, is_balanced, line_graph, matrices,
                            mu_signed_graph, path, prism, regular_degree,
                            star)
from sigspec.io import parse_graph, save_graph, serialize_graph
from sigspec.product import product
from sigspec.sampling import random_marked_graph, random_regular_marked_graph
from sigspec.theorems import factored_charpolys

from reference import line_graph_pairwise


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


@st.composite
def edge_lists(draw):
    """(n, edges): a normal-form edge list, then up to three faults: shuffled,
    endpoints swapped, a duplicate, a self-loop, an endpoint out of range, or
    a bool or float entry."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    edges = [[i, j, draw(st.sampled_from((1, -1)))] for i, j in chosen]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        fault = draw(st.sampled_from(("shuffle", "swap", "duplicate", "loop", "range",
                                      "bool", "float")))
        if fault == "shuffle":
            edges = draw(st.permutations(edges))
            continue
        if fault == "duplicate":
            i, j = draw(st.sampled_from(pairs)) if pairs else (0, 0)
            edges.insert(draw(st.integers(min_value=0, max_value=len(edges))),
                         [j, i, draw(st.sampled_from((1, -1)))])
            edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), [i, j, 1])
            continue
        if not edges:
            continue
        e = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
        if fault == "swap":
            e[0], e[1] = e[1], e[0]
        elif fault == "loop":
            e[1] = e[0]
        elif fault == "range":
            e[draw(st.integers(min_value=0, max_value=1))] = draw(st.sampled_from((-1, n, n + 1)))
        else:
            e[draw(st.integers(min_value=0, max_value=2))] = draw(
                st.booleans() if fault == "bool" else st.sampled_from((1.0, 0.5)))
    return n, [tuple(e) for e in edges]


@given(case=edge_lists())
@settings(max_examples=400, deadline=None)
def test_edge_lists_match_the_edge_by_edge_pass(case):
    # normal-form input skips the edge-by-edge pass; every list must still
    # give its sorted edges, or the error that pass gives, index and message
    n, edges = case
    try:
        got = SignedGraph(n, edges).edges
    except (TypeError, ValueError) as exc:
        got = exc
    # the int rule names the first entry that is not an int in the flat
    # order n, i0, j0, s0, i1, ..., whichever column it sits in
    bad = [v for e in edges for v in e if type(v) is not int]
    if bad:
        assert type(got) is TypeError
        assert str(got) == f"int expected, got {type(bad[0]).__name__} {bad[0]!r}"
        return
    ii, jj, ss = (tuple(col) for col in zip(*edges)) if edges else ((), (), ())
    try:
        want = graphs._sorted_edges(n, ii, jj, ss)
    except EdgeError as exc:
        assert type(got) is EdgeError
        assert (got.index, str(got)) == (exc.index, str(exc))
        return
    assert got == want == tuple(sorted((min(i, j), max(i, j), s) for i, j, s in edges))


def test_normal_form_producers_never_reach_the_edge_by_edge_pass(monkeypatch, tmp_path):
    rng = random.Random(5)
    for family, (_, least) in FAMILIES.items():
        for n in range(least, 7):
            sampling._skeleton_columns(family, n)  # built once, through the builder
    factors = [random_marked_graph(rng, 6) for _ in range(30)]
    regular = [random_regular_marked_graph(rng, 5) for _ in range(10)]
    files = [serialize_graph(product(a, b).graph) for a, b in zip(factors, factors[1:])]

    def refuse(*args):
        raise AssertionError("edge-by-edge pass reached")

    first, second = tmp_path / "k2.txt", tmp_path / "l2k33.txt"
    save_graph(MarkedSignedGraph.with_canonical_marking(complete(2)), first)
    save_graph(MarkedSignedGraph(line_graph(line_graph(complete_bipartite(3, 3))),
                                 Marking("+-++-+--+-+++-+-+-")), second)

    monkeypatch.setattr(graphs, "_sorted_edges", refuse)
    # files in the written layout are read in whole-block passes, not line by line
    monkeypatch.setattr(io, "_parse_lines", refuse)
    with pytest.raises(AssertionError):
        SignedGraph(2, [(1, 0, 1)])
    with pytest.raises(AssertionError):
        parse_graph("2 1\n0 1 +  # a note\n")
    for a, b, text in zip(factors, factors[1:], files):
        product(a, b)
        parse_graph(text)
    # a product file as `product --out` writes it, vertex map comments first
    out = tmp_path / "product.txt"
    assert cli.main(["product", str(first), str(second), "--out", str(out)]) == 0
    assert parse_graph(out.read_text()).n == 72
    for _ in range(100):
        random_marked_graph(rng, 6)
        random_regular_marked_graph(rng, 6, signed=False)
    for mg in factors + regular:
        mu_signed_graph(mg)
        if mg.graph.num_edges:
            line_graph(mg.graph)
    factored_charpolys(list(zip(factors, factors[1:])), "A", ["constructed"])
    for kind in ("L", "Q"):
        factored_charpolys(list(zip(regular, factors)), kind, ["constructed", "paper"])
    for g in (path(6, "+-+-+"), star(6, "-"), complete(6), complete_bipartite(3, 4)):
        assert g.num_edges


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


@st.composite
def simple_graphs(draw, max_n=8):
    """A signed graph on up to max_n vertices with any edge set."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SignedGraph(n, [(i, j, draw(st.sampled_from((1, -1)))) for i, j in chosen])


@given(g=simple_graphs())
@settings(max_examples=300, deadline=None)
def test_line_graph_matches_the_pairwise_reference(g):
    # pairs within each vertex's edge list against every pair of edges tested
    # for a shared endpoint; the second iterate too, while it stays small
    if not g.num_edges:
        with pytest.raises(ValueError):
            line_graph(g)
        return
    lg = line_graph(g)
    assert lg == line_graph_pairwise(g)
    if lg.num_edges and lg.num_edges <= 40:
        assert line_graph(lg) == line_graph_pairwise(lg)


@given(g=simple_graphs(), rng=rngs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_kept_columns_equal_the_transposed_edges(g, rng, data):
    # every construction path keeps or transposes its columns, as tuples:
    # the checked constructors on sorted and on shuffled input, the no-check
    # one, parsing, products, sampling, line graphs and sign changes
    edges = data.draw(st.permutations(g.edges), label="order")
    ii, jj, ss = ([list(col) for col in zip(*edges)] if edges else ([], [], []))
    mg = MarkedSignedGraph.with_canonical_marking(g)
    other = random_marked_graph(rng, 4)
    built = [SignedGraph(g.n, edges), SignedGraph(g.n, [(j, i, s) for i, j, s in edges]),
             SignedGraph._from_columns(g.n, ii, jj, ss),
             SignedGraph._from_columns(g.n, *g._columns()),
             SignedGraph._from_normal_columns(g.n, *g._columns()),
             parse_graph(serialize_graph(mg)).graph,
             product(mg, other).graph.graph, product(other, mg).graph.graph,
             other.graph, random_regular_marked_graph(rng, 5).graph,
             g.negated(), g.underlying_positive(), mu_signed_graph(mg)]
    if g.num_edges:
        built.append(line_graph(g))
    for h in built:
        cols = h._columns()
        assert cols == (tuple(zip(*h.edges)) if h.edges else ((), (), ()))
        assert all(type(col) is tuple for col in cols) and h._columns() is cols
    assert built[0] == built[1] == built[2] == built[3] == built[4] == g


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


@st.composite
def signed_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(i, j, s) for (i, j), s in zip(chosen, signs)])


@given(g=signed_graphs(), kind=st.sampled_from(["A", "L", "Q"]))
@settings(max_examples=80, deadline=None)
def test_graph_matrix_equals_the_entrywise_matrix(g, kind):
    # graph_matrix skips Matrix's type pass; the checked constructor, given
    # the same entries one by one, makes an equal matrix of ints
    degrees = g.degrees()
    sign = -1 if kind == "L" else 1
    adjacent = {(i, j): s for i, j, s in g.edges}
    adjacent.update({(j, i): s for i, j, s in g.edges})

    def entry(i, j):
        if i == j:
            return 0 if kind == "A" else degrees[i]
        return sign * adjacent.get((i, j), 0)

    want = Matrix([[entry(i, j) for j in range(g.n)] for i in range(g.n)])
    got = graph_matrix(g, kind)
    assert got == want and got.shape == want.shape == (g.n, g.n)
    assert all(type(row) is tuple for row in got.rows())
    assert all(type(x) is int for row in got.rows() for x in row)
