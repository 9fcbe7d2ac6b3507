import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec.applications import (demo_equienergetic_pair, equienergetic_demo,
                                  equienergetic_family, factored_energy_estimate,
                                  integral_product_check, star_integral_checks,
                                  star_product_integral_check)
from sigspec import applications, exact, graphs, spectra
from sigspec.graphs import (MarkedSignedGraph, Marking, SignedGraph,
                            adjacency_matrix, complete, cycle, path,
                            regular_degree, star)
from sigspec.sampling import REGULAR_FAMILIES, random_marked_graph
from sigspec.spectra import is_integral
from sigspec.theorems import factored_charpoly
from sigspec.product import product
from sigspec.graphs import matrices
from sigspec.exact import charpoly

from reference import (star_bracket_cubic, star_bracket_cubic_expanded,
                       star_integral_check_alone)


def rngs():
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def mk(g):
    return MarkedSignedGraph.with_canonical_marking(g)


def single():
    return mk(SignedGraph(1, []))


def test_single_by_single_is_integral():
    # the product of two lone vertices is a single edge
    report = integral_product_check(single(), single())
    assert report.integral
    assert report.all_roots == (-1, 1)


def test_k2_by_single_is_not_integral():
    report = integral_product_check(mk(complete(2)), single())
    assert not report.integral
    # brackets carry x^2 - x - 1 and x^2 + x - 1
    assert report.bracket.quotient.degree == 4


@given(rng=rngs())
@settings(max_examples=40, deadline=None)
def test_integral_report_agrees_with_eigenvalue_route(rng):
    mg1 = random_marked_graph(rng, max_n=3)
    mg2 = random_marked_graph(rng, max_n=3)
    report = integral_product_check(mg1, mg2)
    direct = is_integral(product(mg1, mg2).graph)
    assert report.integral == direct.integral
    if report.integral:
        assert tuple(sorted(report.all_roots)) == direct.roots


@given(rng=rngs())
@settings(max_examples=30, deadline=None)
def test_star_route_agrees_with_general_route(rng):
    mg1 = random_marked_graph(rng, max_n=4)
    leaves = rng.randint(1, 4)
    center_sign = rng.choice(["+", "-"])
    star_g = star(leaves + 1, center_sign + "+" * (leaves - 1))
    star_mg = MarkedSignedGraph.with_canonical_marking(star_g)
    report = star_product_integral_check(mg1, leaves, star_mg.marking[0])
    general = integral_product_check(mg1, star_mg)
    assert report.integral == general.integral


def test_star_integral_checks_match_one_case_at_a_time():
    cases = [(mg1, n, m) for mg1 in (single(), mk(cycle(3, "+-+")), mk(complete(4)))
             for n in (1, 3, 4) for m in (1, -1)]
    for (mg1, n, m), (report, general) in zip(cases, star_integral_checks(cases)):
        star_mg = mk(star(n + 1, ("+" if m == 1 else "-") + "+" * (n - 1)))
        assert star_mg.marking[0] == m
        assert report == star_integral_check_alone(mg1, n, m)
        assert general == integral_product_check(mg1, star_mg)
    with pytest.raises(ValueError):
        star_integral_checks([(single(), 2, 0)])


def test_star_integral_checks_report_once_per_key(monkeypatch):
    # a case enters both reports only through (n, center_mark, g), g the first
    # factor's mu-adjacency charpoly; the six first factors below, signed
    # differently, have three distinct g (P3, K_{1,3}, C4), so 36 cases have
    # 18 keys and each key's reports are made once
    firsts = [mk(path(3, "++")), mk(path(3, "+-")), mk(star(4, "+-+")),
              mk(cycle(4, "++++")), mk(cycle(4, "+--+")), mk(cycle(4, "+++-"))]
    cases = [(mg1, n, m) for mg1 in firsts for n in (1, 2, 4) for m in (1, -1)]
    keys = {(n, m, charpoly(adjacency_matrix(graphs.mu_signed_graph(mg1))))
            for mg1, n, m in cases}
    assert len(keys) == 3 * 3 * 2 < len(cases)
    calls = []
    inner = applications._star_report

    def recorded(*args):
        calls.append(args[:2])
        return inner(*args)

    monkeypatch.setattr(applications, "_star_report", recorded)
    reports = star_integral_checks(cases)
    assert len(calls) == len(keys)
    monkeypatch.setattr(applications, "_star_report", inner)
    for (mg1, n, m), (report, general) in zip(cases, reports):
        star_mg = mk(star(n + 1, ("+" if m == 1 else "-") + "+" * (n - 1)))
        assert report == star_product_integral_check(mg1, n, m)
        assert general == integral_product_check(mg1, star_mg)


def test_integral_search_makes_each_result_once_per_what_it_depends_on(monkeypatch, capsys):
    # at --max-n1 4 --max-n 6, 336 instances: 28 first factors, 17 of them
    # distinct signed graphs with 8 distinct g, by 6 star sizes and 2 center
    # marks. The mark enters the closed forms only, so the factored batch
    # takes the 17 * 6 distinct (first factor, leaves) pairs; the general
    # report is one per (leaves, g), and the closed-form report one per
    # (leaves, mark, g). The brackets decided are the effective one per
    # (leaves, g), the stated one only for mark -1, and the general one
    # per (leaves, g); each closed form is one per (leaves, mark)
    from sigspec.cli import main
    counts = Counter()

    def counted(name, size=lambda *args: 1):
        inner = getattr(applications, name)

        def recorded(*args):
            counts[name] += size(*args)
            return inner(*args)
        monkeypatch.setattr(applications, name, recorded)

    counted("factored_charpolys", lambda pairs, *rest: len(pairs))
    for name in ("_integrality_report", "_bracket_integrality", "star_coronal_closed_form",
                 "_star_report"):
        counted(name)
    assert main(["integral-search", "--max-n1", "4", "--max-n", "6"]) == 0
    assert len(json.loads(capsys.readouterr().out)["instances"]) == 336
    assert counts == {"factored_charpolys": 102, "_integrality_report": 48,
                      "_bracket_integrality": 3 * 48, "star_coronal_closed_form": 12,
                      "_star_report": 96}


def _rank_one_update(rows, u, w):
    # the rows of a + u w^T, the matrix the kernel forms for an update (i, u, w)
    return tuple(tuple(x + ui * wj for x, wj in zip(r, w)) for r, ui in zip(rows, u))


def test_integral_search_sends_each_matrix_to_the_kernel_once(kernel_calls, capsys):
    # 336 instances, but the factored batch sees only the 9 underlying first
    # factors and the 6 unsigned stars, each star but the regular K_{1,1}
    # with the all-ones vector: each distinct matrix, folded by its twin
    # rows, and each folded rank-one update is in one batch once
    from sigspec.cli import _search_first_factors, main
    assert main(["integral-search", "--max-n1", "4", "--max-n", "6"]) == 0
    seen = Counter()
    for mats, _, updates, _ in kernel_calls:
        seen.update(tuple(map(tuple, rows)) for rows in mats)
        seen.update(_rank_one_update(mats[i], u, w) for i, u, w in updates)
    assert len(json.loads(capsys.readouterr().out)["instances"]) == 336
    underlying = {mg.graph.underlying_positive() for _, mg in _search_first_factors(4)}
    firsts = {exact._fold_twins(adjacency_matrix(g).rows(), None)[0] for g in underlying}
    stars = [exact._fold_twins(adjacency_matrix(star(n + 1)).rows(), (1,) * (n + 1))
             for n in range(1, 7)]
    # K_{1,1} = K2: its rows all sum to 1, so it goes without an update
    blocks = {(rows, _rank_one_update(rows, *uw)) for rows, uw, _ in stars[1:]}
    assert len(underlying) == 9 and len(blocks) == 5
    assert (firsts | {stars[0][0]} | {rows for block in blocks for rows in block}
            == set(seen))
    assert set(seen.values()) == {1}


def test_star_bracket_cubic_forms_agree():
    for n in range(1, 7):
        for m in (1, -1):
            # both forms are affine in lam: agreement at two or more integer
            # lam values is agreement as polynomials in x and lam
            for lam in (0, 1, -2):
                sub = star_bracket_cubic(n, lam, m)
                closed = star_bracket_cubic_expanded(n, lam, m)
                assert sub == closed
            for cubic in (star_bracket_cubic, star_bracket_cubic_expanded):
                with pytest.raises(TypeError):
                    cubic(n, Fraction(3, 2), m)


def test_star_bracket_cubic_known_coefficients():
    # leaves n enter through the star order n+1
    # n=2: order 3, lam=0, m=1: constant 3*2*(0-2), linear -(9+3-1)
    p = star_bracket_cubic_expanded(2, 0, 1)
    assert p.coeffs == (-12, -11, 0, 1)
    # n=3: order 4, lam=1, m=-1: constant 4*3*(1+2), linear -(16+4-1)
    p = star_bracket_cubic_expanded(3, 1, -1)
    assert p.coeffs == (36, -19, -4, 1)


def test_as_stated_flag_tracks_center_mark():
    # with a plus center the stated and effective verdicts coincide
    r = star_product_integral_check(single(), 1, 1)
    assert r.integral == r.as_stated_integral
    # with a minus center they may split; both remain well-defined booleans
    r = star_product_integral_check(single(), 4, -1)
    assert isinstance(r.integral, bool)
    assert isinstance(r.as_stated_integral, bool)


def test_star_product_check_matches_direct_construction():
    # K1 against growing stars, verified against actual product spectra
    for leaves in range(1, 5):
        for center_sign in ("+", "-"):
            star_g = star(leaves + 1, center_sign + "+" * (leaves - 1))
            star_mg = MarkedSignedGraph.with_canonical_marking(star_g)
            report = star_product_integral_check(single(), leaves,
                                                 star_mg.marking[0])
            direct = is_integral(product(single(), star_mg).graph)
            assert report.integral == direct.integral


def test_equienergetic_demo_certificate():
    cert = equienergetic_demo()
    assert cert.valid
    assert cert.failed_clauses == ()
    assert cert.non_cospectral_inputs
    assert cert.equienergetic_inputs
    assert cert.product_order == 72
    assert cert.products_non_cospectral
    assert cert.input_energy_gap < 1e-9
    assert cert.product_energy_gap < 1e-7
    assert cert.product_charpoly_1 != cert.product_charpoly_2
    # the digest of test_demo_product_charpoly_golden[A], the direct charpoly
    # of K2 x L^2(K3,3)
    text = " ".join(cert.product_charpoly_1.coeff_strings())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "6af4987b525d3afe68bcb21c3804da13d30cac982f7d33a7954eb06bb186ad37")


@pytest.mark.parametrize("base", [
    mk(complete(2)),
    single(),
    MarkedSignedGraph(complete(2), Marking([1, -1])),
    mk(path(3, "+-")),
    mk(complete(3)),
], ids=["K2", "K1", "K2+-", "P3+-", "K3"])
def test_equienergetic_product_charpolys_match_direct(base):
    # the certificate's factored product charpolys against the direct
    # charpoly of each built product
    from sigspec.applications import demo_equienergetic_pair
    g1, g2 = demo_equienergetic_pair()
    cert = equienergetic_family(g1, g2, base)
    assert cert.valid
    for mgk, pf, pe in ((g1, cert.product_charpoly_1, cert.product_energy_1),
                        (g2, cert.product_charpoly_2, cert.product_energy_2)):
        a = adjacency_matrix(product(base, mgk).graph.graph)
        assert cert.product_order == a.nrows
        assert pf == charpoly(a)
        direct = float(np.abs(np.linalg.eigvalsh(np.array(a.rows(), dtype=float))).sum())
        assert abs(pe - direct) <= 1e-12 * direct


def test_equienergetic_demo_computes_no_product_charpoly(kernel_calls):
    # every exact charpoly goes through the one kernel; the demo's largest
    # should be the order-18 inputs, never the order-72 products. Every
    # matrix of a batch is recorded, so the rank-one update a coronal puts in
    # its batch counts too
    assert equienergetic_demo().valid
    orders = [len(rows) for mats, _, updates, _ in kernel_calls
              for rows in [*mats, *(u for _, u, _ in updates)]]
    assert orders and max(orders) <= 18


def test_equienergetic_demo_builds_no_product(graph_sizes):
    # order, energies and charpolys all come from the factors, so no graph
    # beyond the order-18 inputs is ever constructed
    assert equienergetic_demo().valid
    assert graph_sizes and max(graph_sizes) <= 18


@pytest.mark.parametrize("mg1, mg2, base, valid", [
    (*demo_equienergetic_pair(), mk(path(3, "+-")), True),
    (mk(cycle(4)), mk(path(4)), mk(complete(2)), False),
    (mk(cycle(4)), mk(cycle(4)), mk(cycle(5)), False),
], ids=["demo", "C4/P4", "C4/C4"])
def test_equienergetic_family_builds_no_product(graph_sizes, mg1, mg2, base, valid):
    # on the valid and the failure path alike, no graph larger than an input
    largest = max(x.graph.n for x in (mg1, mg2, base))
    assert equienergetic_family(mg1, mg2, base).valid == valid
    assert graph_sizes and max(graph_sizes) <= largest


@pytest.mark.parametrize("center_mark, calls", [(1, 5), (-1, 8)])
def test_star_check_scans_each_factor_once(monkeypatch, center_mark, calls):
    # the shared factor and the first factor's charpoly once each, then
    # u - lam*v of the effective coronal for each of C4's three distinct
    # integer eigenvalues 2, 0 and -2, and again of the as-stated coronal
    # when the center mark is -1
    counted = []
    roots = spectra.integer_roots

    def recorded(p):
        counted.append(p)
        return roots(p)

    # every factor's roots go through IntegralityResult.of
    monkeypatch.setattr(spectra, "integer_roots", recorded)
    star_product_integral_check(mk(cycle(4)), 3, center_mark)
    assert len(counted) == calls


def test_star_check_rejects_bad_input_before_any_charpoly(monkeypatch):
    def no_charpoly(*args):
        raise AssertionError("a charpoly was taken before the input check")

    # every exact charpoly of the package goes through the one kernel
    monkeypatch.setattr(exact, "_charpoly_residues", no_charpoly)
    for n, center_mark in ((0, 1), (2, 0), (2, 2)):
        with pytest.raises(ValueError):
            star_product_integral_check(mk(cycle(4)), n, center_mark)
    with pytest.raises(TypeError):
        star_product_integral_check(mk(cycle(4)), 2, True)


def test_equienergetic_family_with_single_vertex_base():
    from sigspec.applications import demo_equienergetic_pair
    g1, g2 = demo_equienergetic_pair()
    cert = equienergetic_family(g1, g2, single())
    assert cert.valid
    assert cert.product_order == 36
    assert cert.products_non_cospectral
    assert cert.product_energy_gap < 1e-7


def test_equienergetic_family_rejects_cospectral_pair():
    # identical inputs fail the non-cospectrality clause before any product
    g = mk(cycle(4))
    cert = equienergetic_family(g, g, single())
    assert not cert.valid
    assert any("cospectral" in c for c in cert.failed_clauses)
    assert cert.product_order is None


def test_equienergetic_family_rejects_unequal_energy():
    cert = equienergetic_family(mk(cycle(4)), mk(path(4)), single())
    assert not cert.valid
    assert any("energy" in c or "coronal" in c for c in cert.failed_clauses)


def test_factored_energy_estimate_matches_exact_route():
    from sigspec.spectra import energy
    mg1, mg2 = mk(cycle(4)), mk(complete(2))
    fc = factored_charpoly(mg1, mg2, "A")
    est = factored_energy_estimate(fc)
    direct = energy(product(mg1, mg2).graph)
    assert abs(est - direct.value) < 1e-7


def built_product(mg1, mg2, kind):
    """A, L or Q of the built product as a float array."""
    g = product(mg1, mg2).graph.graph
    a = np.zeros((g.n, g.n))
    for i, j, s in g.edges:
        a[i, j] = a[j, i] = s
    degrees = np.diag(np.abs(a).sum(axis=1))
    return {"A": a, "L": degrees - a, "Q": degrees + a}[kind]


def bordered_spectrum(fc):
    """d repeated, then eigvalsh of [[d + lam*n2, sqrt(n2) 1^T], [sqrt(n2) 1, N]]."""
    d = -fc.linear_factor.coeff(0)
    n2 = fc.copy_block.nrows
    values = [float(d)] * fc.linear_exponent
    for lam in np.linalg.eigvalsh(np.array(fc.bracket_matrix.rows(), dtype=float)):
        b = np.zeros((n2 + 1, n2 + 1))
        b[0, 0] = d + lam * n2
        b[0, 1:] = b[1:, 0] = np.sqrt(n2)
        b[1:, 1:] = fc.copy_block.rows()
        values.extend(np.linalg.eigvalsh(b))
    return np.sort(values)


def irregular_marked_graph(rng):
    while True:
        n = rng.randint(3, 7)
        g = SignedGraph(n, [(i, j, rng.choice((1, -1)))
                            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        if regular_degree(g) is None:
            return MarkedSignedGraph(g, Marking([rng.choice((1, -1)) for _ in range(n)]))


def test_factored_energy_estimate_order_200():
    # products of order 200 to 2048. The shared factor of C_n x C_n has
    # repeated roots clustered in a short interval, so any route through
    # polynomial roots loses digits here; the bordered matrices do not
    cases = [("A", mk(cycle(10)), mk(path(10))), ("Q", mk(cycle(10)), mk(cycle(10)))]
    cases += [(kind, mk(cycle(n)), mk(cycle(n))) for n in (20, 24, 32) for kind in "LQ"]
    for kind, mg1, mg2 in cases:
        est = factored_energy_estimate(factored_charpoly(mg1, mg2, kind))
        direct = float(np.abs(np.linalg.eigvalsh(built_product(mg1, mg2, kind))).sum())
        assert abs(est - direct) <= 1e-12 * direct, (kind, mg1.graph.n)
    # the bordered matrices give every eigenvalue of the built product, for
    # A, L and Q with an irregular second factor (constructed degree mode)
    rng = random.Random(13)
    for trial in range(90):
        kind = "ALQ"[trial % 3]
        mg1 = random_marked_graph(rng, max_n=5, families=REGULAR_FAMILIES)
        mg2 = irregular_marked_graph(rng)
        fc = factored_charpoly(mg1, mg2, kind)
        direct = np.linalg.eigvalsh(built_product(mg1, mg2, kind))
        assert np.max(np.abs(bordered_spectrum(fc) - direct)) <= 1e-10, (kind, mg1, mg2)
        assert abs(factored_energy_estimate(fc) - np.abs(direct).sum()) <= 1e-10 * len(direct)


def test_factored_assembles_to_direct_charpoly_for_demo_base():
    from sigspec.applications import demo_equienergetic_pair
    g1, _ = demo_equienergetic_pair()
    fc = factored_charpoly(g1, single(), "A")
    direct = charpoly(matrices(product(g1, single()).graph).A)
    assert fc.assembled == direct


def near_integer_eigenvalues(values):
    """The eigenvalues within 1e-7 of an integer, rounded, sorted."""
    return sorted(int(round(x)) for x in values if abs(x - round(x)) <= 1e-7)


def integer_roots_of(report, n1, n2):
    """Every integer root a factored report lists, with multiplicity."""
    zeros = [0] * (n1 * (n2 - 1))
    return sorted(zeros + list(report.shared.roots) * n1 + list(report.bracket.roots))


# the integral star products integral-search finds: C3 and K3, either sign,
# times K_{1,1}
INTEGRAL_CASES = [(mk(cycle(3, s)), 1) for s in "+-"] + [(mk(complete(3, s)), 1) for s in "+-"]


@given(rng=rngs(), star_case=st.booleans())
@settings(max_examples=60, deadline=None)
def test_per_eigenvalue_integrality_matches_eigvalsh(rng, star_case):
    # verdict and integer roots of the per-eigenvalue check against the
    # eigenvalues of the built product, for general and star products
    mg1 = random_marked_graph(rng, max_n=4)
    if star_case:
        n, mark = rng.randint(1, 6), rng.choice((1, -1))
        if rng.random() < 0.3:
            mg1, n = rng.choice(INTEGRAL_CASES)
        mg2 = mk(star(n + 1, ("+" if mark == 1 else "-") + "+" * (n - 1)))
    else:
        mg2 = random_marked_graph(rng, max_n=4)
    values = np.linalg.eigvalsh(built_product(mg1, mg2, "A"))
    integral = len(near_integer_eigenvalues(values)) == len(values)
    report = integral_product_check(mg1, mg2)
    n1, n2 = mg1.graph.n, mg2.graph.n
    assert report.integral == integral
    assert integer_roots_of(report, n1, n2) == near_integer_eigenvalues(values)
    if star_case:
        star_report = star_product_integral_check(mg1, n, mark)
        assert star_report.integral == integral
        assert integer_roots_of(star_report, n1, n2) == near_integer_eigenvalues(values)


def test_integral_star_products_list_every_eigenvalue():
    for mg1, n in INTEGRAL_CASES:
        mg2 = mk(star(n + 1))
        report = integral_product_check(mg1, mg2)
        values = np.linalg.eigvalsh(built_product(mg1, mg2, "A"))
        assert report.integral and star_product_integral_check(mg1, n).integral
        assert list(report.all_roots) == near_integer_eigenvalues(values)


def test_integrality_and_energy_never_compose_the_bracket(monkeypatch):
    # the checks decide from the factors alone, up to C128 x P128 (order
    # 32768), whose bracket has degree 16512; reading the quotient of a
    # bracket composes it, and only then
    from sigspec import theorems

    def refuse(*args):
        raise AssertionError("the bracket was composed")

    monkeypatch.setattr(theorems, "compose_with_rational", refuse)
    monkeypatch.setattr(exact, "compose_with_rational", refuse)
    rng = random.Random(128)
    pairs = [(mk(cycle(3)), mk(star(2))), (mk(complete(2)), single())]
    pairs += [(MarkedSignedGraph(cycle(128), Marking([rng.choice((1, -1)) for _ in range(128)])),
               MarkedSignedGraph(path(128), Marking([rng.choice((1, -1)) for _ in range(128)])))]
    for mg1, mg2 in pairs:
        report = integral_product_check(mg1, mg2)
        assert report.integral == (mg1.graph.n == 3)
        assert factored_energy_estimate(factored_charpoly(mg1, mg2, "A")) > 0
    cases = [(mk(cycle(n)), k, m) for n in (3, 4, 24) for k in (1, 4) for m in (1, -1)]
    for (mg1, k, m), (report, general) in zip(cases, star_integral_checks(cases)):
        assert report.integral == general.integral
    with pytest.raises(AssertionError, match="composed"):
        integral_product_check(mk(complete(2)), single()).bracket.quotient


def _energy_one_matrix_at_a_time(fc):
    # factored_energy_estimate with one symmetric_eigenvalues call per bordered matrix
    d = -fc.linear_factor.coeff(0)
    n2 = fc.copy_block.nrows
    b = np.zeros((n2 + 1, n2 + 1))
    b[1:, 1:] = fc.copy_block.rows()
    b[0, 1:] = b[1:, 0] = math.sqrt(n2)
    total = fc.linear_exponent * abs(float(d))
    for lam in spectra.symmetric_eigenvalues(fc.bracket_matrix).values:
        b[0, 0] = d + lam * n2
        total += sum(abs(x) for x in spectra.symmetric_eigenvalues(b).values)
    return total


@pytest.mark.parametrize("entries", [None, 100, 1])
def test_stacked_energy_equals_one_matrix_at_a_time(monkeypatch, entries):
    # stacked eigvalsh returns each matrix's eigenvalues bit for bit, and the
    # sums run in the same order, so the energies are equal floats, whether
    # the bordered matrices are one chunk, chunks of a few, or one per chunk
    if entries is not None:
        monkeypatch.setattr(applications, "_BATCH_ENTRIES", entries)
    rng = random.Random(21)
    cases = [("A", mk(cycle(16)), mk(path(16))), ("L", mk(cycle(12)), mk(cycle(9))),
             ("Q", mk(complete(5)), mk(star(6)))]
    for trial in range(12):
        mg1 = random_marked_graph(rng, max_n=6, families=REGULAR_FAMILIES)
        cases.append(("ALQ"[trial % 3], mg1, random_marked_graph(rng, max_n=6)))
    for kind, mg1, mg2 in cases:
        fc = factored_charpoly(mg1, mg2, kind)
        assert factored_energy_estimate(fc) == _energy_one_matrix_at_a_time(fc), (kind, mg1, mg2)
