import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigspec.applications import demo_equienergetic_pair
from sigspec.graphs import (MarkedSignedGraph, SignedGraph, complete,
                            complete_bipartite, cycle, line_graph, path, star)
from sigspec.spectra import (cospectral, energy, is_integral,
                             symmetric_eigenvalues)

SIZES = (2, 3, 5, 8, 13)


def mk(g):
    return MarkedSignedGraph.with_canonical_marking(g)


def sym(values):
    a = np.array(values, dtype=np.float64)
    return (a + a.T) / 2.0


def general_eigenvalues(a):
    """Oracle through LAPACK's general nonsymmetric solver, not the symmetric one."""
    return np.sort(np.linalg.eigvals(a).real)[::-1]


@pytest.mark.parametrize("n", SIZES)
def test_eigenvalues_match_general_solver_oracle(n):
    rng = np.random.default_rng(n)
    a = sym(rng.normal(size=(n, n)) * 3.0)
    got = np.array(symmetric_eigenvalues(a).values)
    assert np.allclose(got, general_eigenvalues(a), atol=1e-9)


@given(a=arrays(np.float64, (6, 6),
                elements=st.floats(min_value=-10, max_value=10)))
@settings(max_examples=40, deadline=None)
def test_eigenvalues_match_general_solver_on_random_matrices(a):
    m = sym(a)
    got = np.array(symmetric_eigenvalues(m).values)
    assert np.allclose(got, general_eigenvalues(m), atol=1e-8)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])


@pytest.mark.parametrize("n", SIZES)
def test_rotations_preserve_trace_and_frobenius_norm(n):
    rng = np.random.default_rng(100 + n)
    a = sym(rng.normal(size=(n, n)))
    vals = np.array(symmetric_eigenvalues(a).values)
    assert abs(vals.sum() - np.trace(a)) < 1e-9 * n
    assert abs((vals ** 2).sum() - (a ** 2).sum()) < 1e-8 * n


def test_energy_examples():
    assert abs(energy(mk(complete(2))).value - 2.0) < 1e-12
    assert abs(energy(mk(cycle(3))).value - 4.0) < 1e-12
    lk33 = mk(line_graph(line_graph(complete_bipartite(3, 3))))
    assert abs(energy(lk33).value - 36.0) < 1e-9


def test_energy_invariant_under_negation():
    g = cycle(5, "+-+-+")
    e1 = energy(mk(g)).value
    e2 = energy(mk(g.negated())).value
    assert abs(e1 - e2) < 1e-9


def test_cospectral_examples():
    s5 = mk(star(5))
    c4_iso = mk(SignedGraph(5, cycle(4).edges))
    assert cospectral(s5, c4_iso)
    assert not cospectral(s5, mk(path(5)))
    # triangle signatures differ: x^3-3x-2 vs x^3-3x+2
    assert not cospectral(mk(cycle(3)), mk(cycle(3, "-")))


def test_cospectral_other_matrices():
    s5 = mk(star(5))
    c4_iso = mk(SignedGraph(5, cycle(4).edges))
    assert cospectral(s5, c4_iso, "A")
    # A-cospectral mates with different degree sequences split on L
    assert not cospectral(s5, c4_iso, "L")
    assert not cospectral(s5, c4_iso, "Q")


def test_is_integral_examples():
    assert is_integral(mk(complete(2))).integral
    assert is_integral(mk(complete(2))).roots == (-1, 1)
    assert not is_integral(mk(path(3))).integral  # eigenvalues 0, +-sqrt(2)
    r = is_integral(mk(cycle(6)))
    assert r.integral and r.roots == (-2, -1, -1, 1, 1, 2)


def test_is_integral_demo_pair():
    g1, g2 = demo_equienergetic_pair()
    r1, r2 = is_integral(g1), is_integral(g2)
    assert r1.integral and r2.integral
    assert r1.roots == (-2,) * 9 + (0,) * 4 + (3,) * 4 + (6,)
    assert r2.roots == (-2,) * 9 + (0, 0, 0, 1, 1, 3, 3, 4, 6)
    assert r1.roots != r2.roots


def test_integral_quotient_reporting():
    r = is_integral(mk(path(3)))
    # x^3 - 2x = x * (x^2 - 2): one integer root, irrational quotient
    assert r.roots == (0,)
    assert r.quotient.degree == 2


def test_graph_functions_take_signed_or_marked_graphs_only():
    g = cycle(4, "+-++")
    assert energy(g) == energy(mk(g))
    assert cospectral(g, mk(g))
    assert is_integral(g) == is_integral(mk(g))
    for bad in (None, [[0, 1], [1, 0]], g.edges):
        with pytest.raises(TypeError):
            energy(bad)
        with pytest.raises(TypeError):
            cospectral(g, bad)
        with pytest.raises(TypeError):
            cospectral(bad, g, "L")
        with pytest.raises(TypeError):
            is_integral(bad)
