"""Seeded random instances over the generator families, for verification runs."""
from __future__ import annotations

import random

from .graphs import FAMILIES, MarkedSignedGraph, Marking, SignedGraph

REGULAR_FAMILIES = ("cycle", "complete")


def _random_signs(rng: random.Random, count: int, signed: bool) -> list[int]:
    if not signed:
        return [1] * count
    return [rng.choice((1, -1)) for _ in range(count)]


def random_marked_graph(rng: random.Random, max_n: int, signed: bool = True,
                        families=FAMILIES) -> MarkedSignedGraph:
    """One random family member with random signs and a random marking."""
    feasible = [f for f in families if FAMILIES[f][1] <= max_n]
    if not feasible:
        raise ValueError(f"no family fits within {max_n} vertices")
    build, least = FAMILIES[rng.choice(feasible)]
    n = rng.randint(least, max_n)
    skeleton = build(n)
    g = SignedGraph(n, [(i, j, s) for (i, j, _), s in
                        zip(skeleton.edges,
                            _random_signs(rng, skeleton.num_edges, signed))])
    marking = Marking(_random_signs(rng, n, signed))
    return MarkedSignedGraph(g, marking)


def random_regular_marked_graph(rng: random.Random, max_n: int,
                                signed: bool = True) -> MarkedSignedGraph:
    """Like random_marked_graph but restricted to regular families."""
    return random_marked_graph(rng, max_n, signed, families=REGULAR_FAMILIES)


def random_single_vertex(rng: random.Random, signed: bool = True) -> MarkedSignedGraph:
    mark = rng.choice((1, -1)) if signed else 1
    return MarkedSignedGraph(SignedGraph(1), Marking([mark]))
