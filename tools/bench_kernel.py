"""Time the exact charpoly kernel's heaviest callers and record what reaches it.

Measures the sigspec found on the import path and stores the result under
--label in BENCH_kernel.json (best of --repeats wall-clock runs per entry),
keeping the other labels already there, so two checkouts can be compared:

    PYTHONPATH=/path/to/other/checkout/src python tools/bench_kernel.py --label parent
    PYTHONPATH=src python tools/bench_kernel.py --label change

Entries, all on the order-72 product K2 x L^2(K3,3) with a fixed random
marking of L^2(K3,3), then on the verify-theorem and integral-search campaigns:

- charpoly_A, charpoly_L: charpoly of its A and L;
- form_A: charpoly_with_adjugate_form of A and the product's marking, the
  kernel work of the coronal command on the product file;
- verify_A: run_theorem_verification("A", 150 trials);
- verify_L: run_theorem_verification("L", 50 trials);
- integral_search: star_integral_checks over the 336 cases of
  integral-search --max-n1 4 --max-n 6.

Each entry records its kernel batches as seen by _charpoly_residues: their
count, the largest order and prime count, and the residue matrices reduced
(matrices times primes, summed over batches). When both labels are present
the file also holds each entry's time ratio label over label.
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path

import numpy as np

from sigspec import exact
from sigspec.applications import star_integral_checks
from sigspec.cli import _search_first_factors
from sigspec.graphs import (MarkedSignedGraph, Marking, complete, complete_bipartite,
                            graph_matrix, line_graph)
from sigspec.product import product
from sigspec.verify import run_theorem_verification


class KernelRecorder:
    """Records (matrices, order, primes) of each _charpoly_residues call while active."""

    def __init__(self):
        self.batches = []
        self._inner = exact._charpoly_residues

    def __enter__(self):
        def recorded(mats, bound):
            primes, res = self._inner(mats, bound)
            self.batches.append((len(mats), len(mats[0]), len(primes)))
            return primes, res

        exact._charpoly_residues = recorded
        return self

    def __exit__(self, *exc):
        exact._charpoly_residues = self._inner

    def summary(self) -> dict:
        return {"batches": len(self.batches),
                "max_order": max(n for _, n, _ in self.batches),
                "max_primes": max(p for _, _, p in self.batches),
                "residue_matrices": sum(t * p for t, _, p in self.batches)}


def measure(fn, repeats: int) -> dict:
    """Best of repeats wall-clock runs of fn, and the kernel batches of one run."""
    with KernelRecorder() as rec:
        fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return {"s": min(times), **rec.summary()}


def demo_product() -> MarkedSignedGraph:
    rng = random.Random(72)
    k2 = MarkedSignedGraph.with_canonical_marking(complete(2))
    l2 = line_graph(line_graph(complete_bipartite(3, 3)))
    return product(k2, MarkedSignedGraph(l2, Marking([rng.choice((1, -1))
                                                      for _ in range(l2.n)]))).graph


def bench(repeats: int) -> dict:
    pg = demo_product()
    a, lap = graph_matrix(pg.graph, "A"), graph_matrix(pg.graph, "L")
    marks = list(pg.marking)
    search = [(mg1, n, center_mark) for _, mg1 in _search_first_factors(4)
              for n in range(1, 7) for center_mark in (1, -1)]
    entries = {
        "charpoly_A": lambda: exact.charpoly(a),
        "charpoly_L": lambda: exact.charpoly(lap),
        "form_A": lambda: exact.charpoly_with_adjugate_form(a, marks),
        "verify_A": lambda: run_theorem_verification("A", trials=150, seed=1),
        "verify_L": lambda: run_theorem_verification("L", trials=50, seed=1),
        "integral_search": lambda: star_integral_checks(search),
    }
    return {name: measure(fn, repeats) for name, fn in entries.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_kernel.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.exists() else {}
    result.update({
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "statistic": "best (minimum) wall-clock seconds",
    })
    result.setdefault("runs", {})[args.label] = {"repeats": args.repeats,
                                                 "entries": bench(args.repeats)}
    runs = result["runs"]
    result["ratios"] = {f"{x}/{y}": {name: runs[x]["entries"][name]["s"]
                                     / runs[y]["entries"][name]["s"]
                                     for name in runs[x]["entries"]}
                        for x in runs for y in runs if x < y}
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
