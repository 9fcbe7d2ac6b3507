"""Randomized oracle campaigns: factored charpolys against direct computation."""
from __future__ import annotations

import hashlib
import random

from .exact import Matrix, charpoly
from .graphs import MarkedSignedGraph, adjacency_matrix, matrices
from .io import serialize_graph
from .product import corona, product
from .sampling import (random_marked_graph, random_regular_marked_graph,
                       random_single_vertex)
from .theorems import factored_charpoly


def _digest(mg: MarkedSignedGraph) -> str:
    return hashlib.sha256(serialize_graph(mg).encode()).hexdigest()[:16]


def _count_checks(pg, mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> bool:
    n1, n2 = mg1.graph.n, mg2.graph.n
    e1, e2 = mg1.graph.num_edges, mg2.graph.num_edges
    vertices_ok = pg.graph.graph.n == 2 * n1 * n2
    edges_ok = pg.graph.graph.num_edges == n2 * n2 * (n1 + e1) + n1 * e2
    return vertices_ok and edges_ok


def run_theorem_verification(matrix_kind: str = "A", signed: bool = True,
                             trials: int = 50, max_n1: int = 4, max_n2: int = 4,
                             degree_mode: str = "constructed",
                             seed: int = 0) -> dict:
    """Compare the factored charpoly with the direct one on random products.

    For L and Q the report also records whether the other degree-mode variant
    would have matched, so the two a-degree constants can be compared run
    over run.
    """
    if matrix_kind not in ("A", "L", "Q"):
        raise ValueError(f"matrix kind must be A, L or Q, got {matrix_kind!r}")
    rng = random.Random(seed)
    other_mode = "paper" if degree_mode == "constructed" else "constructed"
    records = []
    failures = 0
    for t in range(trials):
        if matrix_kind == "A":
            mg1 = random_marked_graph(rng, max_n1, signed)
            mg2 = random_marked_graph(rng, max_n2, signed)
        else:
            mg1 = random_regular_marked_graph(rng, max_n1, signed)
            mg2 = random_regular_marked_graph(rng, max_n2, signed)
        pg = product(mg1, mg2)
        # build only the matrix that is compared: A, or L = D - A, or Q = D + A
        m = adjacency_matrix(pg.graph.graph)
        if matrix_kind != "A":
            d = Matrix.diagonal(pg.graph.graph.degrees())
            m = d - m if matrix_kind == "L" else d + m
        direct = charpoly(m)
        fc = factored_charpoly(mg1, mg2, matrix_kind, degree_mode)
        match = fc.assembled == direct
        counts_ok = _count_checks(pg, mg1, mg2)
        record = {
            "trial": t,
            "n1": mg1.graph.n,
            "n2": mg2.graph.n,
            "digest1": _digest(mg1),
            "digest2": _digest(mg2),
            "graph1": serialize_graph(mg1),
            "graph2": serialize_graph(mg2),
            "counts_ok": counts_ok,
            "match": match,
        }
        if matrix_kind != "A":
            other = factored_charpoly(mg1, mg2, matrix_kind, other_mode)
            record[f"{other_mode}_mode_match"] = other.assembled == direct
        if not (match and counts_ok):
            failures += 1
            record["direct"] = direct.coeff_strings()
            record["assembled"] = fc.assembled.coeff_strings()
        records.append(record)
    return {
        "matrix": matrix_kind,
        "signed": signed,
        "trials": trials,
        "max_n1": max_n1,
        "max_n2": max_n2,
        "degree_mode": degree_mode,
        "seed": seed,
        "failures": failures,
        "all_match": failures == 0,
        "records": records,
    }


def run_corona_verification(trials: int = 20, seed: int = 0,
                            signed: bool = True) -> dict:
    """Products with a one-vertex second factor against the pendant corona."""
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
        charpolys_ok = all(
            charpoly(getattr(mats_p, kind)) == charpoly(getattr(mats_c, kind))
            for kind in "ALQ")
        counts_ok = _count_checks(pg, mg1, mg2)
        ok = same_graph and charpolys_ok and counts_ok
        if not ok:
            failures += 1
        records.append({
            "trial": t,
            "n1": mg1.graph.n,
            "digest1": _digest(mg1),
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
