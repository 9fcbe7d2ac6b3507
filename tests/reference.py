"""Cross-check routes that only the tests use.

Each function here is a second way to a result the package computes by
its own route, kept so the tests can compare the two: the pendant corona
of McLeman & McNicholas ("Spectra of coronae", LAA 2011) against the
marked product with a one-vertex second factor, the paper's stated star
bracket cubic and its expansion, the closed-form coronal of a regular
balanced graph, the adjugate form and a factor's coronal as one-line
views, and the star integrality check taken one case at a time by its own
charpoly call.
"""
import random

from sigspec.applications import StarProductReport, _star_report
from sigspec.coronal import CoronalTriple, signed_coronal, star_coronal_closed_form
from sigspec.exact import (Matrix, Poly, _exact_ints, charpoly, charpoly_with_adjugate_form,
                           charpolys)
from sigspec.graphs import (MarkedSignedGraph, Marking, SignedGraph, adjacency_matrix,
                            matrices, mu_signed_graph)
from sigspec.io import serialize_graph
from sigspec.product import product
from sigspec.sampling import random_marked_graph
from sigspec.spectra import IntegralityResult
from sigspec.verify import _count_checks, _digest


def corona(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> MarkedSignedGraph:
    """Independent corona construction: join vertex i of mg1 to all of copy i of mg2.

    Uses the mu-signed versions of both factors and endpoint-product signs on
    the join edges, laid out as all mg1 vertices then copy 0, copy 1, ...
    For a one-vertex second factor this is the pendant construction that the
    marked product degenerates to.
    """
    g1, mu1 = mg1.graph, mg1.marking
    g2, mu2 = mg2.graph, mg2.marking
    n1, n2 = g1.n, g2.n
    edges: list[tuple[int, int, int]] = []
    for i, j, _ in g1.edges:
        edges.append((i, j, mu1[i] * mu1[j]))
    for i in range(n1):
        base = n1 + i * n2
        for p, q, _ in g2.edges:
            edges.append((base + p, base + q, mu2[p] * mu2[q]))
        for q in range(n2):
            edges.append((i, base + q, mu1[i] * mu2[q]))
    marks = list(mu1) + [mu2[q] for _ in range(n1) for q in range(n2)]
    return MarkedSignedGraph(SignedGraph(n1 + n1 * n2, edges), Marking(marks))


def random_single_vertex(rng: random.Random, signed: bool = True) -> MarkedSignedGraph:
    mark = rng.choice((1, -1)) if signed else 1
    return MarkedSignedGraph(SignedGraph(1), Marking([mark]))


def run_corona_verification(trials: int = 20, seed: int = 0,
                            signed: bool = True) -> dict:
    """Products with a one-vertex second factor against the pendant corona."""
    if trials < 0:
        raise ValueError(f"trials must be a non-negative count, got {trials}")
    rng = random.Random(seed)
    records = []
    failures = 0
    for t in range(trials):
        mg1 = random_marked_graph(rng, 4, signed)
        mg2 = random_single_vertex(rng, signed)
        pg = product(mg1, mg2)
        pend = corona(mg1, mg2)
        same_graph = pg.graph == pend
        mats_p, mats_c = matrices(pg.graph), matrices(pend)
        fs = charpolys([getattr(m, kind) for kind in "ALQ" for m in (mats_p, mats_c)])
        charpolys_ok = fs[0::2] == fs[1::2]
        counts_ok = _count_checks(pg, mg1, mg2)
        ok = same_graph and charpolys_ok and counts_ok
        if not ok:
            failures += 1
        records.append({
            "trial": t,
            "n1": mg1.graph.n,
            "digest1": _digest(serialize_graph(mg1)),
            "same_graph": same_graph,
            "charpolys_ok": charpolys_ok,
            "counts_ok": counts_ok,
        })
    return {
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "all_match": failures == 0,
        "records": records,
    }


def star_bracket_cubic(n: int, lam: int, center_mark: int) -> Poly:
    """x(x^2-n) - n2*lam*(x^2-n) - n2*((n+1)x + 2n*center_mark), with n2 = n+1."""
    n2 = n + 1
    star_den = Poly([-n, 0, 1])
    star_num = Poly([2 * n * center_mark, n + 1])
    return Poly.x() * star_den - n2 * lam * star_den - n2 * star_num


def star_bracket_cubic_expanded(n: int, lam: int, center_mark: int) -> Poly:
    """The same cubic written out: x^3 - n2*lam*x^2 - (n2^2+n2-1)x + n2(n2-1)(lam-2m)."""
    n2 = n + 1
    return Poly([n2 * (n2 - 1) * (lam - 2 * center_mark),
                 -(n2 * n2 + n2 - 1),
                 -n2 * lam,
                 1])


def regular_balanced_coronal(r: int, n: int) -> tuple[Poly, Poly]:
    """Coronal n/(x - r) shared by every r-regular mu-signed graph on n vertices,
    as the pair (num, den)."""
    _exact_ints((r, n))
    if n < 1:
        raise ValueError("need at least one vertex")
    if not (0 <= r < n):
        raise ValueError("regular degree must satisfy 0 <= r < n")
    return Poly.constant(n), Poly.linear(-r)


def adjugate_quadratic_form(a: Matrix, u) -> Poly:
    """u^T adj(xI - a) u as a polynomial of degree n-1."""
    return charpoly_with_adjugate_form(a, u)[1]


def coronal_of_mu_graph(mg: MarkedSignedGraph) -> CoronalTriple:
    """Reduced coronal of the mu-signed version of mg, with mg's marking."""
    return signed_coronal(adjacency_matrix(mu_signed_graph(mg)), list(mg.marking))


def star_integral_check_alone(mg1: MarkedSignedGraph, n: int,
                              center_mark: int = 1) -> StarProductReport:
    """star_product_integral_check for one case, with the first factor's
    mu-adjacency charpoly g taken by its own charpoly call, outside any
    factored_charpolys batch."""
    # the closed forms check n and center_mark before any charpoly is taken
    effective, stated = (star_coronal_closed_form(n, m) for m in (1, center_mark))
    g = charpoly(adjacency_matrix(mu_signed_graph(mg1)))
    return _star_report(n, center_mark, effective, stated, g, IntegralityResult.of)
