"""Randomized oracle campaigns: factored charpolys against direct computation."""
from __future__ import annotations

import hashlib
import random

from .exact import charpolys
from .graphs import MarkedSignedGraph, graph_matrix, matrices
from .io import serialize_graph
from .product import corona, product
from .sampling import (random_marked_graph, random_regular_marked_graph,
                       random_single_vertex)
from .theorems import factored_charpolys


def _digest(mg: MarkedSignedGraph) -> str:
    return hashlib.sha256(serialize_graph(mg).encode()).hexdigest()[:16]


def _count_checks(pg, mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> bool:
    n1, n2 = mg1.graph.n, mg2.graph.n
    e1, e2 = mg1.graph.num_edges, mg2.graph.num_edges
    vertices_ok = pg.graph.graph.n == 2 * n1 * n2
    edges_ok = pg.graph.graph.num_edges == n2 * n2 * (n1 + e1) + n1 * e2
    return vertices_ok and edges_ok


# trials sampled and built before one charpolys and one factored_charpolys call
# take their charpolys: large enough that each order is one kernel batch, small
# enough that memory stays flat however many trials run
_BLOCK = 50


def run_theorem_verification(matrix_kind: str = "A", signed: bool = True,
                             trials: int = 50, max_n1: int = 4, max_n2: int = 4,
                             degree_mode: str = "constructed",
                             seed: int = 0) -> dict:
    """Compare the factored charpoly with the direct one on random products.

    For L and Q the report also records whether the other degree-mode variant
    would have matched, so the two a-degree constants can be compared run
    over run. Trials are sampled in blocks of _BLOCK; a block draws from the
    rng in trial order before any charpoly is taken, so the records do not
    depend on where the blocks end.
    """
    if matrix_kind not in ("A", "L", "Q"):
        raise ValueError(f"matrix kind must be A, L or Q, got {matrix_kind!r}")
    if trials < 0:
        raise ValueError(f"trials must be a non-negative count, got {trials}")
    rng = random.Random(seed)
    other_mode = "paper" if degree_mode == "constructed" else "constructed"
    # L and Q also record the other degree mode; its form shares the coronal
    modes = [degree_mode] if matrix_kind == "A" else [degree_mode, other_mode]
    records = []
    failures = 0
    for start in range(0, trials, _BLOCK):
        block = []
        for _ in range(start, min(trials, start + _BLOCK)):
            if matrix_kind == "A":
                mg1 = random_marked_graph(rng, max_n1, signed)
                mg2 = random_marked_graph(rng, max_n2, signed)
            else:
                mg1 = random_regular_marked_graph(rng, max_n1, signed)
                mg2 = random_regular_marked_graph(rng, max_n2, signed)
            pg = product(mg1, mg2)
            # build only the matrix that is compared
            block.append((mg1, mg2, _count_checks(pg, mg1, mg2),
                          graph_matrix(pg.graph, matrix_kind)))
        directs = charpolys([m for *_, m in block])
        factored = factored_charpolys([(mg1, mg2) for mg1, mg2, *_ in block], matrix_kind, modes)
        for t, ((mg1, mg2, counts_ok, _), direct, (fc, *other)) in enumerate(
                zip(block, directs, factored), start):
            match = fc.assembled == direct
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
            if other:
                record[f"{other_mode}_mode_match"] = other[0].assembled == direct
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
