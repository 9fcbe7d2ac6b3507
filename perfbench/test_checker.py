"""The independent checker accepts right answers and rejects perturbed ones.

    python -m pytest perfbench/test_checker.py
"""
import random
from fractions import Fraction

import numpy as np
import pytest

import checker as C


def k3_times_k2():
    k3 = C.unsigned_adjacency(3, C.family_pairs("complete", 3))
    k2 = C.unsigned_adjacency(2, C.family_pairs("complete", 2))
    return C.product_adjacency(k3, [1, 1, 1], k2, [1, 1])


def block_diagonal(blocks, size, seed):
    """Random symmetric +-1 blocks; the charpoly is the product of the blocks'."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    m = np.zeros((n, n), dtype=np.int64)
    poly = [1]
    for b in range(blocks):
        a = np.triu(rng.integers(-1, 2, size=(size, size)), 1)
        a = a + a.T
        m[b * size:(b + 1) * size, b * size:(b + 1) * size] = a
        poly = C.poly_mul(poly, C.sympy_charpoly(a))
    return m, poly


def test_product_matches_the_definition():
    rng = random.Random(3)
    a1 = C.unsigned_adjacency(4, C.family_pairs("path", 4))
    a2 = C.unsigned_adjacency(3, C.family_pairs("cycle", 3))
    mu1 = [rng.choice((1, -1)) for _ in range(4)]
    mu2 = [rng.choice((1, -1)) for _ in range(3)]
    n1, n2 = 4, 3
    a = lambda i, k: i * n2 + k
    b = lambda i, q: n1 * n2 + i * n2 + q
    edges = []
    for i, j in C.family_pairs("path", 4):
        edges += [(a(i, k), a(j, l), mu1[i] * mu1[j]) for k in range(n2) for l in range(n2)]
    for r in range(n1):
        edges += [(b(r, p), b(r, q), mu2[p] * mu2[q]) for p, q in C.family_pairs("cycle", 3)]
        edges += [(a(r, p), b(r, q), mu1[r] * mu2[q]) for p in range(n2) for q in range(n2)]
    assert np.array_equal(C.product_adjacency(a1, mu1, a2, mu2),
                          C.signed_adjacency(2 * n1 * n2, edges))


def test_line_graph_order_follows_sorted_edges():
    n, pairs = C.line_graph_pairs([(1, 2), (0, 1), (0, 2)])
    assert n == 3 and pairs == [(0, 1), (0, 2), (1, 2)]
    n18, _ = C.line_graph_pairs(C.line_graph_pairs(C.family_pairs("complete-bipartite", 3, 3))[1])
    assert n18 == 18


def test_charpoly_by_sympy_rejects_a_perturbed_coefficient():
    m = k3_times_k2()
    good = C.sympy_charpoly(m)
    C.check_charpoly(good, m, "K3xK2")
    C.check_charpoly([str(Fraction(c)) for c in good], m, "K3xK2 as strings")
    for k in (0, 5, 10):
        bad = list(good)
        bad[k] += 1
        with pytest.raises(C.CheckFailed):
            C.check_charpoly(bad, m, "K3xK2")


def test_charpoly_above_the_sympy_order_rejects_perturbed_coefficients():
    m, good = block_diagonal(blocks=9, size=10, seed=1)
    assert m.shape[0] > C.SYMPY_MAX_ORDER
    n = m.shape[0]
    C.check_charpoly(good, m, "block diagonal")
    # Newton's identities catch the top three exactly, slogdet the next few
    for k in (n - 1, n - 3, n - 5):
        bad = list(good)
        bad[k] += 1
        with pytest.raises(C.CheckFailed):
            C.check_charpoly(bad, m, "block diagonal")
    # the eigenvalue product catches a relative change of the lowest coefficient
    low = next(k for k, c in enumerate(good) if c)
    for bad_low in (good[low] + good[low] // 10 ** 6, -good[low]):
        bad = list(good)
        bad[low] = bad_low
        with pytest.raises(C.CheckFailed):
            C.check_charpoly(bad, m, "block diagonal")
    with pytest.raises(C.CheckFailed):
        C.check_charpoly(good[:-1] + [Fraction(1, 2)], m, "non-integer")


def test_factorization_rejects_a_wrong_factor():
    assembled = C.poly_mul(C.poly_mul([0, 1], [0, 1]), [-4, 0, 1])  # x^2 (x^2 - 4)
    C.check_factorization(assembled, [([0, 1], 2), ([-4, 0, 1], 1)], (3, -5), "x^2(x^2-4)")
    with pytest.raises(C.CheckFailed):
        C.check_factorization(assembled, [([0, 1], 2), ([-3, 0, 1], 1)], (3, -5), "wrong")


def test_eigenvalues_and_energy_reject_perturbations():
    m = k3_times_k2()
    ev = list(C.eigenvalues(m))
    C.check_eigenvalues(ev[::-1], m, "K3xK2")
    bad = list(ev)
    bad[4] += 1e-6
    with pytest.raises(C.CheckFailed):
        C.check_eigenvalues(bad, m, "K3xK2")
    energy = float(np.sum(np.abs(ev)))
    C.check_energy(energy, m, "K3xK2")
    with pytest.raises(C.CheckFailed):
        C.check_energy(energy * (1 + 1e-8), m, "K3xK2")


def test_integrality_rejects_a_wrong_verdict():
    integral = k3_times_k2()
    assert C.near_integer_eigenvalues(integral) == [-3, -3, -1, -1, -1, 0, 0, 0, 0, 2, 2, 5]
    C.check_integral(True, integral, "K3xK2")
    with pytest.raises(C.CheckFailed):
        C.check_integral(False, integral, "K3xK2")
    k2 = C.unsigned_adjacency(2, [(0, 1)])
    one = C.unsigned_adjacency(1, [])
    not_integral = C.product_adjacency(k2, [1, 1], one, [1])  # carries x^2 - x - 1
    C.check_integral(False, not_integral, "K2xK1")
    with pytest.raises(C.CheckFailed):
        C.check_integral(True, not_integral, "K2xK1")
    C.check_integer_roots([-3, -3, -1, -1, -1, 0, 0, 0, 0, 2, 2, 5], integral, "K3xK2")
    with pytest.raises(C.CheckFailed):
        C.check_integer_roots([-3, -1, -1, -1, 0, 0, 0, 0, 2, 2, 5], integral, "K3xK2")


def test_coronal_rejects_a_perturbed_numerator():
    # a 2-regular graph on 4 vertices has coronal 4/(x - 2) for the all-ones vector
    c4 = C.unsigned_adjacency(4, C.family_pairs("cycle", 4))
    shared = C.poly_mul([0, 1], C.poly_mul([0, 1], [2, 1]))  # x^2 (x + 2)
    C.check_coronal([4], [-2, 1], shared, c4, [1, 1, 1, 1], "C4")
    with pytest.raises(C.CheckFailed):
        C.check_coronal([5], [-2, 1], shared, c4, [1, 1, 1, 1], "C4")


def test_graph_text_rejects_a_flipped_sign():
    a = C.signed_adjacency(3, [(0, 1, 1), (1, 2, -1)])
    text = "3 2\n0 1 +\n1 2 -\nmarking + + -\n"
    C.check_graph_text(text, a, [1, 1, -1], "path")
    with pytest.raises(C.CheckFailed):
        C.check_graph_text(text.replace("1 2 -", "1 2 +"), a, [1, 1, -1], "path")
    with pytest.raises(C.CheckFailed):
        C.check_graph_text(text, a, [1, 1, 1], "path")
