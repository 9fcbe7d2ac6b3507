"""Acceptance gate.

Each test exercises one promised behavior at its stated tolerance and
prints a single [criterion N] PASS/FAIL line (run with -s to stream them).
"""
import json
import random
import time

import pytest

from sigspec.applications import (equienergetic_demo, integral_product_check,
                                  star_product_integral_check)
from sigspec.coronal import signed_coronal, star_coronal_closed_form
from sigspec.graphs import (MarkedSignedGraph, adjacency_matrix, is_balanced,
                            mu_signed_graph, star)
from sigspec.io import serialize_graph
from sigspec.product import product
from sigspec.sampling import random_marked_graph
from sigspec.spectra import is_integral
from sigspec.verify import run_theorem_verification

from fractions import Fraction

from cli_support import run_sigspec
from reference import (run_corona_verification, star_bracket_cubic,
                       star_bracket_cubic_expanded)


def announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}{suffix}")


@pytest.fixture(scope="module")
def adjacency_report():
    start = time.perf_counter()
    report = run_theorem_verification(matrix_kind="A", trials=50,
                                      max_n1=4, max_n2=4, seed=2024)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def laplacian_reports():
    start = time.perf_counter()
    lap = run_theorem_verification(matrix_kind="L", trials=30,
                                   max_n1=4, max_n2=4, seed=2025)
    sig = run_theorem_verification(matrix_kind="Q", trials=30,
                                   max_n1=4, max_n2=4, seed=2026)
    return lap, sig, time.perf_counter() - start


@pytest.fixture(scope="module")
def corona_report():
    return run_corona_verification(trials=20, seed=2027)


def test_criterion_1_adjacency_factorization(adjacency_report):
    report, elapsed = adjacency_report
    ok = (report["all_match"] and report["failures"] == 0
          and len(report["records"]) >= 50 and elapsed < 60.0)
    announce(1, ok, f"{len(report['records'])} pairs, {elapsed:.1f}s")
    assert report["all_match"]
    assert report["failures"] == 0
    assert len(report["records"]) >= 50
    assert elapsed < 60.0


def test_criterion_2_laplacian_and_signless_factorization(laplacian_reports):
    lap, sig, elapsed = laplacian_reports
    recorded = all("paper_mode_match" in r
                   for rep in (lap, sig) for r in rep["records"])
    ok = (lap["all_match"] and sig["all_match"]
          and len(lap["records"]) >= 30 and len(sig["records"]) >= 30
          and recorded and elapsed < 120.0)
    announce(2, ok, f"L+Q {len(lap['records'])}+{len(sig['records'])} pairs, "
                    f"{elapsed:.1f}s")
    assert lap["all_match"] and lap["failures"] == 0
    assert sig["all_match"] and sig["failures"] == 0
    assert len(lap["records"]) >= 30 and len(sig["records"]) >= 30
    assert recorded
    assert elapsed < 120.0


def test_criterion_3_corona_reduction(corona_report):
    report = corona_report
    ok = (report["all_match"] and len(report["records"]) >= 20
          and all(r["same_graph"] for r in report["records"]))
    announce(3, ok, f"{len(report['records'])} corona pairs")
    assert report["all_match"]
    assert len(report["records"]) >= 20
    for r in report["records"]:
        assert r["same_graph"]
        assert r["charpolys_ok"]


def test_criterion_4_star_coronal_closed_form():
    ok = True
    for n in range(1, 7):
        for center_sign in ("+", "-"):
            g = star(n + 1, center_sign + "+" * (n - 1))
            mg = MarkedSignedGraph.with_canonical_marking(g)
            m = mg.marking[0]
            raw = signed_coronal(adjacency_matrix(mg.graph), list(mg.marking))
            if raw != star_coronal_closed_form(n, m):
                ok = False
    announce(4, ok, "n in 1..6, both center marks, exact")
    assert ok


def test_criterion_5_mu_signed_graphs_are_balanced():
    rng = random.Random(99)
    failures = 0
    for _ in range(200):
        mg = random_marked_graph(rng, max_n=8)
        if not is_balanced(mu_signed_graph(mg)):
            failures += 1
    announce(5, failures == 0, "200 random marked graphs")
    assert failures == 0


def test_criterion_6_product_counts(adjacency_report, laplacian_reports,
                                    corona_report):
    reports = [adjacency_report[0], laplacian_reports[0],
               laplacian_reports[1], corona_report]
    records = [r for rep in reports for r in rep["records"]]
    bad = [r for r in records if not r["counts_ok"]]
    announce(6, not bad, f"{len(records)} products counted")
    assert not bad


def test_criterion_7_equienergetic_demo():
    start = time.perf_counter()
    cert = equienergetic_demo(tol=1e-9)
    elapsed = time.perf_counter() - start
    ok = (cert.valid
          and abs(cert.input_energy_1 - 36.0) <= 1e-9
          and abs(cert.input_energy_2 - 36.0) <= 1e-9
          and cert.product_order == 72
          and cert.product_energy_gap <= 1e-7
          and cert.products_non_cospectral
          and cert.product_charpoly_1 != cert.product_charpoly_2
          and elapsed < 300.0)
    announce(7, ok, f"72-vertex products, gap {cert.product_energy_gap:.1e}, "
                    f"{elapsed:.1f}s")
    assert cert.valid
    assert abs(cert.input_energy_1 - 36.0) <= 1e-9
    assert abs(cert.input_energy_2 - 36.0) <= 1e-9
    assert cert.product_order == 72
    assert cert.product_energy_gap <= 1e-7
    assert cert.products_non_cospectral
    assert cert.product_charpoly_1 != cert.product_charpoly_2
    assert elapsed < 300.0


def test_criterion_8_integral_cross_validation():
    rng = random.Random(555)
    mismatches = 0
    for _ in range(50):
        mg1 = random_marked_graph(rng, max_n=3)
        mg2 = random_marked_graph(rng, max_n=3)
        report = integral_product_check(mg1, mg2)
        direct = is_integral(product(mg1, mg2).graph)
        if report.integral != direct.integral:
            mismatches += 1

    star_splits = 0
    for _ in range(12):
        mg1 = random_marked_graph(rng, max_n=4)
        for leaves in range(1, 5):
            for center_sign in ("+", "-"):
                sg = star(leaves + 1, center_sign + "+" * (leaves - 1))
                smg = MarkedSignedGraph.with_canonical_marking(sg)
                via_star = star_product_integral_check(mg1, leaves,
                                                       smg.marking[0])
                via_general = integral_product_check(mg1, smg)
                if via_star.integral != via_general.integral:
                    star_splits += 1

    # both cubic forms are affine in lam, so agreeing at two or more lam
    # values makes them agree as polynomials in x and lam
    audit_failures = 0
    lams = (0, 1, -1, 3)
    for n in range(1, 7):
        for m in (1, -1):
            for lam in lams:
                if star_bracket_cubic(n, lam, m) != \
                        star_bracket_cubic_expanded(n, lam, m):
                    audit_failures += 1
            for cubic in (star_bracket_cubic, star_bracket_cubic_expanded):
                with pytest.raises(TypeError):
                    cubic(n, Fraction(1, 2), m)

    ok = mismatches == 0 and star_splits == 0 and audit_failures == 0
    announce(8, ok, "50 random + 96 star instances + coefficient audit")
    assert mismatches == 0
    assert star_splits == 0
    assert audit_failures == 0


def _run_cli(args, tmp=None):
    return run_sigspec(args, cwd=tmp)


def test_criterion_9_cli_byte_reproducibility(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    base = tmp_path / "base.txt"
    from sigspec.graphs import SignedGraph, cycle
    a.write_text(serialize_graph(MarkedSignedGraph.with_canonical_marking(
        star(5))))
    b.write_text(serialize_graph(MarkedSignedGraph.with_canonical_marking(
        SignedGraph(5, cycle(4).edges))))
    base.write_text("2 1\n0 1 +\n")

    commands = [
        ["verify-theorem", "--which", "A", "--trials", "6", "--seed", "31"],
        ["verify-theorem", "--which", "L", "--trials", "5", "--seed", "32"],
        ["verify-theorem", "--which", "Q", "--trials", "5", "--seed", "33",
         "--signed", "no"],
        ["cospectral-family", str(a), str(b), str(base), "--side", "left"],
        ["integral-search", "--max-n1", "2", "--max-n", "2"],
        ["equienergetic-demo"],
    ]
    unstable = []
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            unstable.append(args[0])
        json.loads(first.stdout)  # every verification report must be JSON
    announce(9, not unstable, f"{len(commands)} commands run twice")
    assert not unstable
