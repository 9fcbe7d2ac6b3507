"""Time the factored bracket: its composition, and the checks that skip it.

Writes BENCH_bracket.json (best of --repeats wall-clock runs per entry):

- compose: for C_n x P_n (n = 32, 64), the whole bracket composed at once,
  compose_with_rational(bracket_charpoly, bracket_u, bracket_v), against the
  first FactoredCharPoly.bracket access, which composes square-free parts;
  both are checked equal;
- checks: integral_product_check and factored_energy_estimate of C_n x P_n
  (n = 64, 128), each from scratch, with the number of compositions they
  made (0 expected);
- kernel: the charpoly time of the order-72 product K2 x L^2(K3,3), the
  order and prime count of the matrix the kernel receives (the product
  folded by its twin rows, see exact._fold_twins), and beside them the
  prime counts the unfolded matrix would need with the row-norm bound and
  with a largest-row-sum bound max_k C(n, k) rho^k.

Run from the root of a checkout:

    PYTHONPATH=src python tools/bench_bracket.py [--repeats 3] [--out BENCH_bracket.json]
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import time
from math import comb
from pathlib import Path

import numpy as np

import sigspec
from sigspec import exact, theorems
from sigspec.applications import factored_energy_estimate, integral_product_check
from sigspec.graphs import (MarkedSignedGraph, Marking, adjacency_matrix, complete,
                            complete_bipartite, cycle, line_graph, path)
from sigspec.product import product


def pair(n: int, seed: int = 0) -> tuple[MarkedSignedGraph, MarkedSignedGraph]:
    """C_n x P_n with random markings."""
    rng = random.Random(seed + n)

    def marked(g):
        return MarkedSignedGraph(g, Marking([rng.choice((1, -1)) for _ in range(n)]))

    return marked(cycle(n)), marked(path(n))


def best(fn, repeats: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(repeats):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


class CompositionCounter:
    """Counts compose_with_rational calls made through theorems while active."""

    def __init__(self):
        self.calls = 0
        self._inner = theorems.compose_with_rational

    def __enter__(self):
        def counted(*args):
            self.calls += 1
            return self._inner(*args)

        theorems.compose_with_rational = counted
        return self

    def __exit__(self, *exc):
        theorems.compose_with_rational = self._inner


def bench_compose(n: int, repeats: int) -> dict:
    mg1, mg2 = pair(n)
    fc = sigspec.factored_charpoly(mg1, mg2, "A")
    eager_s, eager = best(lambda: exact.compose_with_rational(
        fc.bracket_charpoly, fc.bracket_u, fc.bracket_v), repeats)
    # a fresh FactoredCharPoly per run, so every run is a first access
    fresh = [sigspec.factored_charpoly(mg1, mg2, "A") for _ in range(repeats)]
    lazy_s, lazy = best(lambda: fresh.pop().bracket, repeats)
    if lazy != eager:
        raise AssertionError(f"C{n} x P{n}: lazy bracket differs from the eager composition")
    return {"pair": f"C{n}xP{n}", "bracket_degree": eager.degree,
            "eager_compose_s": eager_s, "first_bracket_access_s": lazy_s,
            "ratio": lazy_s / eager_s}


def bench_checks(n: int, repeats: int) -> dict:
    mg1, mg2 = pair(n)
    with CompositionCounter() as integral_count:
        integral_s, report = best(lambda: integral_product_check(mg1, mg2), repeats)
    with CompositionCounter() as energy_count:
        energy_s, value = best(lambda: factored_energy_estimate(
            sigspec.factored_charpoly(mg1, mg2, "A")), repeats)
    return {"pair": f"C{n}xP{n}", "integral_product_check_s": integral_s,
            "integral": report.integral, "bracket_integer_roots": len(report.bracket.roots),
            "integral_compositions": integral_count.calls,
            "factored_energy_estimate_s": energy_s, "energy": value,
            "energy_compositions": energy_count.calls}


def bench_kernel(repeats: int) -> dict:
    k2 = MarkedSignedGraph.with_canonical_marking(complete(2))
    l2 = MarkedSignedGraph.with_canonical_marking(line_graph(line_graph(complete_bipartite(3, 3))))
    a = adjacency_matrix(product(k2, l2).graph.graph)
    n = a.nrows
    rho = max(sum(map(abs, r)) for r in a.rows())
    charpoly_s, _ = best(lambda: exact.charpoly(a), repeats)
    # what charpoly hands the kernel: the matrix folded by its twin rows
    folded = exact._fold_twins(a.rows(), None)[0]
    return {"product": "K2xL2(K3,3)", "order": n,
            "primes_unfolded": len(exact._primes_past(2 * exact._coefficient_bound(a.rows()), n)),
            "primes_row_sum_bound": len(exact._primes_past(
                2 * max(comb(n, k) * rho ** k for k in range(n + 1)), n)),
            "kernel_order": len(folded),
            "primes": len(exact._primes_past(
                2 * exact._coefficient_bound(tuple(zip(*folded))), len(folded))),
            "charpoly_s": charpoly_s}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_bracket.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "repeats": args.repeats, "statistic": "best (minimum) wall-clock seconds",
        "compose": [bench_compose(n, args.repeats) for n in (32, 64)],
        "checks": [bench_checks(n, args.repeats) for n in (64, 128)],
        "kernel": bench_kernel(args.repeats),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
