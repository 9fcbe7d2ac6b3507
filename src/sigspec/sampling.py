"""Seeded random instances over the generator families, for verification runs."""
from __future__ import annotations

import random
from functools import cache

from .graphs import FAMILIES, MarkedSignedGraph, Marking, SignedGraph

REGULAR_FAMILIES = ("cycle", "complete")


def _random_signs(rng: random.Random, count: int, signed: bool) -> list[int]:
    if not signed:
        return [1] * count
    return [rng.choice((1, -1)) for _ in range(count)]


@cache
def _skeleton_columns(family: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The endpoint columns i and j of the sorted edges of the family's member
    on n vertices, built once."""
    ii, jj, _ = FAMILIES[family][0](n)._columns()
    return ii, jj


def random_marked_graph(rng: random.Random, max_n: int, signed: bool = True,
                        families=FAMILIES) -> MarkedSignedGraph:
    """One random family member with random signs and a random marking.

    The signs go to the member's edges in sorted order.
    """
    feasible = [f for f in families if FAMILIES[f][1] <= max_n]
    if not feasible:
        raise ValueError(f"no family fits within {max_n} vertices")
    family = rng.choice(feasible)
    n = rng.randint(FAMILIES[family][1], max_n)
    ii, jj = _skeleton_columns(family, n)
    # the member's normal-form edges and random +-1 ints: no type pass
    g = SignedGraph._from_columns(n, ii, jj, _random_signs(rng, len(ii), signed))
    marking = Marking._from_signs(_random_signs(rng, n, signed))
    return MarkedSignedGraph(g, marking)


def random_regular_marked_graph(rng: random.Random, max_n: int,
                                signed: bool = True) -> MarkedSignedGraph:
    """Like random_marked_graph but restricted to regular families."""
    return random_marked_graph(rng, max_n, signed, families=REGULAR_FAMILIES)
