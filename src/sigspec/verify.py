"""Randomized oracle campaigns: factored charpolys against direct computation.

Each trial builds the product of two random factors, checks its vertex and
edge counts, and compares the charpoly of its matrix with the factored
form. The direct side is an exact charpoly of each built product, taken
after switching it by its own marking mu: the signs s*mu(i)*mu(j) on the
same edges give the matrix D*X*D, D = diag(mu), of the built one's X, so
the charpoly is the same for any +-1 mu (Zaslavsky, "Signed graphs",
1982). Products that switch to the same signed graph share one charpoly.
The factored side is compared at one Kronecker point, exactly and without
expanding the form (FactoredCharPoly._l1_bound).

The corona campaign (one-vertex second factors against the pendant corona)
checks the product construction only, so it lives in the tests
(tests/reference.py).
"""
from __future__ import annotations

import hashlib
import random
from operator import itemgetter, mul

from .exact import Poly, charpolys
from .graphs import MarkedSignedGraph, SignedGraph, graph_matrix
from .io import serialize_graph
from .product import product
from .sampling import random_marked_graph, random_regular_marked_graph
from .theorems import FactoredCharPoly, factored_charpolys


def _digest(text: str) -> str:
    # text: a factor's serialize_graph, which the record may also carry
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _count_checks(pg, mg1: MarkedSignedGraph, mg2: MarkedSignedGraph) -> bool:
    n1, n2 = mg1.graph.n, mg2.graph.n
    e1, e2 = mg1.graph.num_edges, mg2.graph.num_edges
    vertices_ok = pg.graph.graph.n == 2 * n1 * n2
    edges_ok = pg.graph.graph.num_edges == n2 * n2 * (n1 + e1) + n1 * e2
    return vertices_ok and edges_ok


# most product-matrix entries in one block, the trials sampled and built
# before one charpolys and one factored_charpolys call: 256 trials at the
# default orders, so a run of a few hundred trials is one block and each
# folded order one kernel batch, while memory stays bounded for any factor
# orders and any trial count
_BLOCK_ENTRIES = 2 ** 18


def _block_trials(max_n1: int, max_n2: int) -> int:
    """Trials per block: as many largest products as fit in _BLOCK_ENTRIES."""
    # a bound below 1 fits no family; sampling refuses it with its own message
    return max(1, _BLOCK_ENTRIES // max(1, 2 * max_n1 * max_n2) ** 2)


def _switched(mg: MarkedSignedGraph) -> tuple[tuple, SignedGraph | None]:
    """The key (n, ii, jj, signs) of mg's graph switched by mg's own marking,
    with the graph itself when the switch keeps it as is: a marking with no
    -1, or no edges.

    The signs s*mu(i)*mu(j) are C-level passes over the edge columns.
    """
    g, marks = mg.graph, mg.marking.signs
    n, ii, jj, ss = g.n, *g._columns()
    if -1 not in marks or not ii:
        return (n, ii, jj, ss), g
    # a trailing index keeps itemgetter's result a tuple for one edge; map
    # stops at the end of ss, before it
    mi, mj = itemgetter(*ii, 0)(marks), itemgetter(*jj, 0)(marks)
    return (n, ii, jj, tuple(map(mul, ss, map(mul, mi, mj)))), None


def _matches(fc: FactoredCharPoly, direct: Poly) -> bool:
    """fc.assembled == direct, decided at one point without expanding fc."""
    if direct.degree != fc._degree:
        return False
    bound = max(max(map(abs, direct.coeffs)), fc._l1_bound)
    x = 1 << (2 * bound).bit_length()
    return direct.eval(x) == fc._value_at(x)


def _other_mode_match(fc: FactoredCharPoly, other: FactoredCharPoly, match: bool,
                      direct: Poly) -> bool:
    """other.assembled == direct, given match = (fc.assembled == direct).

    The forms for clone diagonals d and d' share the coronal and the bracket
    matrix, so equal linear factors x - d make them equal. Otherwise their
    x^(N-1) coefficients differ by exactly n1*n2*(d' - d): (x - d)^(n1(n2-1))
    contributes -n1(n2 - 1)*d to it, and each of the n1 bracket factors
    (x - d)*den - n2*num - lam*n2*den, with den monic of degree k and
    deg num < k, contributes -d through its x^k coefficient. So when fc
    matches, other cannot, and only a mismatch expands other.
    """
    if other.linear_factor == fc.linear_factor:
        return match
    return not match and other.assembled == direct


def _checked(pair: tuple[MarkedSignedGraph, MarkedSignedGraph], counts_ok: bool,
             direct: Poly, forms: list[FactoredCharPoly], match: bool,
             other_mode: str) -> dict:
    """A trial's record but its number: the factored forms against direct,
    given match = (forms[0].assembled == direct)."""
    mg1, mg2 = pair
    fc, *other = forms
    text1, text2 = serialize_graph(mg1), serialize_graph(mg2)
    record = {
        "n1": mg1.graph.n,
        "n2": mg2.graph.n,
        "digest1": _digest(text1),
        "digest2": _digest(text2),
        "graph1": text1,
        "graph2": text2,
        "counts_ok": counts_ok,
        "match": match,
    }
    if other:
        record[f"{other_mode}_mode_match"] = _other_mode_match(fc, other[0], match, direct)
    if not (match and counts_ok):
        record["direct"] = direct.coeff_strings()
        record["assembled"] = fc.assembled.coeff_strings()
    return record


def run_theorem_verification(matrix_kind: str = "A", signed: bool = True,
                             trials: int = 50, max_n1: int = 4, max_n2: int = 4,
                             degree_mode: str = "constructed",
                             seed: int = 0) -> dict:
    """Compare the factored charpoly with the direct one on random products.

    For L and Q the report also records whether the other degree-mode variant
    would have matched, so the two a-degree constants can be compared run
    over run. Trials are sampled in blocks of _block_trials(max_n1, max_n2);
    a block draws from the rng in trial order before any charpoly is taken,
    so the records do not depend on where the blocks end. A pair drawn again
    within a block is built and checked once.

    Each distinct pair's product is built and count-checked, then switched
    by its own marking (see the module docstring); a block takes one
    charpolys call over its distinct switched products, each built once.
    A product that is not balanced just switches to a key of its own. The
    first mode's verdict is decided once per form and switched product, at
    one point (_matches); a form is expanded only for the record of a
    failed trial and for the other mode's verdict when the first misses.
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
    size = _block_trials(max_n1, max_n2)
    for start in range(0, trials, size):
        pairs = []
        for _ in range(start, min(trials, start + size)):
            if matrix_kind == "A":
                mg1 = random_marked_graph(rng, max_n1, signed)
                mg2 = random_marked_graph(rng, max_n2, signed)
            else:
                mg1 = random_regular_marked_graph(rng, max_n1, signed)
                mg2 = random_regular_marked_graph(rng, max_n2, signed)
            pairs.append((mg1, mg2))
        # a pair drawn again in the block is built and checked once; its
        # record is a function of the pair and the trial number
        distinct = list(dict.fromkeys(pairs))
        # per distinct pair its count checks and the position of its switched
        # product among the block's distinct ones, each built once
        counts, slots, positions, mats = [], [], {}, []
        for mg1, mg2 in distinct:
            pg = product(mg1, mg2)
            key, g = _switched(pg.graph)
            slot = positions.setdefault(key, len(mats))
            if slot == len(mats):
                mats.append(graph_matrix(g or SignedGraph._from_columns(*key), matrix_kind))
            counts.append(_count_checks(pg, mg1, mg2))
            slots.append(slot)
        directs = charpolys(mats)
        factored = factored_charpolys(distinct, matrix_kind, modes)
        # forms are shared objects that live through the block, so id keys them
        verdicts, checked = {}, {}
        for pair, counts_ok, slot, forms in zip(distinct, counts, slots, factored):
            seen = (id(forms[0]), slot)
            if seen not in verdicts:
                verdicts[seen] = _matches(forms[0], directs[slot])
            checked[pair] = _checked(pair, counts_ok, directs[slot], forms, verdicts[seen],
                                     other_mode)
        for t, pair in enumerate(pairs, start):
            record = {"trial": t, **checked[pair]}
            failures += not (record["match"] and record["counts_ok"])
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
