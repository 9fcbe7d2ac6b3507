"""Bipartite halving: the charpoly of [[0, B], [C, 0]] from BC, of half the order.

A square integer matrix M whose nonzero entries are [[0, B], [C, 0]] up to
a permutation, with B of m rows and m at most half the order n, has
chi_M(x) = x^(n-2m) chi_BC(x^2) (Cvetkovic, Rowlinson & Simic, "An
Introduction to the Theory of Graph Spectra", 2010, for a symmetric M;
the Schur complement and det(tI - CB) = t^(n-2m) det(tI - BC) give it for
any B and C). So exact._charpolys_with_forms sends BC to its kernel in
place of M: _halved finds the sides and builds BC and the rank-one updates
of BC that stand for M's vector, and _unhalved maps the lifted
coefficients back. Both work on plain int tuples and lists, and the
caller builds the polynomials.
"""
from __future__ import annotations

from itertools import compress
from operator import add, getitem, or_
from typing import Sequence


def _two_colouring(n: int, neighbours) -> tuple[list[int], list[list[int]]] | bool:
    """(side, adjacency) from 2-colouring the graph on range(n) whose
    neighbours of i are neighbours(i): side holds the smaller colour class
    of each search tree, the root's on a tie. A neighbour of i's own colour
    in the same tree closes an odd cycle, and gives False; one in an
    earlier tree, which a symmetric graph never has, gives True.

    The neighbours of a vertex are read when the search reaches it, so an
    odd cycle near the first root ends the search after a few of them.
    """
    adj: list = [None] * n
    colour = [-1] * n
    tree = [-1] * n
    side: list[int] = []
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], tree[root] = 0, root
        classes, stack = ([root], []), [root]
        while stack:
            i = stack.pop()
            c = 1 - colour[i]
            adj[i] = list(neighbours(i))
            for j in adj[i]:
                if colour[j] < 0:
                    colour[j], tree[j] = c, root
                    classes[c].append(j)
                    stack.append(j)
                elif colour[j] != c:
                    return tree[j] != root
        side += classes[len(classes[1]) < len(classes[0])]
    return side, adj


def _halved(rows: tuple[tuple[int, ...], ...],
            uw: tuple[tuple[int, ...], tuple[int, ...]] | None
            ) -> tuple[tuple[tuple[int, ...], ...], list, int, int] | None:
    """BC, its updates, n - 2m and w_b . u_b for a matrix M that is
    [[0, B], [C, 0]] up to a permutation, with B of m >= 1 rows; None for
    any other M.

    A nonzero diagonal entry rules M out first. The sides come from
    2-colouring the graph of the nonzero entries on either side of the
    diagonal, per component (not of M + M^T, whose entries can cancel); the
    smaller colour class of each component joins side a, so m is as small
    as the components allow, and an M with no edge gives m = 0 and None.
    The colouring reads the rows' nonzero entries alone first, which
    settles a symmetric M and rules out any M with an odd cycle among
    them; only an M that is not symmetric is coloured again with its
    columns' entries joined in. Then chi_M(x) = x^(n-2m) chi_BC(x^2).
    Given the folded pair (u', w), split by side into (u_a, u_b) and
    (w_a, w_b), the updates of BC are (u_a, w_a), (B u_b, C^T w_b) and
    their sum (see _unhalved).
    """
    n = len(rows)
    if any(map(getitem, rows, range(n))):
        return None
    coloured = _two_colouring(n, lambda i: compress(range(n), rows[i]))
    if coloured is False:
        return None
    cols = tuple(zip(*rows))
    if coloured is True or cols != rows:
        coloured = _two_colouring(n, lambda i: compress(range(n), map(or_, rows[i], cols[i])))
        if coloured is False:
            return None
    side, adj = coloured
    if not side:
        return None
    side.sort()
    pos = [-1] * n
    for k, i in enumerate(side):
        pos[i] = k
    # (BC)_ij sums M_ik M_kj over the k of side b next to i, paths of length two
    bc = []
    for i in side:
        row, ri = [0] * len(side), rows[i]
        for k in adj[i]:
            x, rk = ri[k], rows[k]
            for j in adj[k]:
                row[pos[j]] += x * rk[j]
        bc.append(tuple(row))
    e = n - 2 * len(side)
    if uw is None:
        return tuple(bc), [], e, 0
    u, w = uw
    u_a, w_a = tuple(u[i] for i in side), tuple(w[i] for i in side)
    bu = tuple(sum(rows[i][k] * u[k] for k in adj[i]) for i in side)
    cw = tuple(sum(rows[k][j] * w[k] for k in adj[j]) for j in side)
    wu_b = sum(w[k] * u[k] for k in range(n) if pos[k] < 0)
    both = (tuple(map(add, u_a, bu)), tuple(map(add, w_a, cw)))
    return tuple(bc), [(u_a, w_a), (bu, cw), both], e, wu_b


def _unhalved(chi: Sequence[int], forms: Sequence[Sequence[int]], e: int, wu_b: int
              ) -> tuple[list[int], list[int] | None]:
    """The coefficients, lowest degree first, of chi_M and, given the
    coefficients of forms = (F1, F2, F3), of w^T adj(xI - M) u', from those
    of chi_BC = chi.

    With R = (x^2 I - BC)^-1, the block inverse of xI - M is
    [[x R, R B], [C R, (I + C R B)/x]], so w^T (xI - M)^-1 u' =
    x w_a R u_a + w_a R B u_b + w_b C R u_a + (w_b . u_b + w_b C R B u_b)/x.
    The kernel's form of the update (z, y) of BC is chi_BC * y^T R z, so
    F1 and F2 give the first and last of the three bilinear terms, and by
    polarisation F3 - F1 - F2 the two middle ones. Times chi_M:

        x^(n-2m) [x F1(x^2) + (F3 - F1 - F2)(x^2)]
          + x^(n-2m-1) [(w_b . u_b) chi_BC(x^2) + F2(x^2)]

    When n = 2m the last bracket has no constant term, since the form is a
    polynomial.
    """
    c = list(chi)
    m = len(c) - 1
    up = [0] * (e + 2 * m + 1)
    up[e::2] = c
    if not forms:
        return up, None
    f1, f2, f3 = (list(f) + [0] * (m - len(f)) for f in forms)
    # q = x^(1 - n + 2m) times the form: its even part is (w_b . u_b) chi_BC + F2
    # + x^2 F1 and its odd part F3 - F1 - F2, each taken at x^2
    q = [0] * (2 * m + 1)
    q[0::2] = [wu_b * x + y for x, y in zip(c, f2 + [0])]
    q[1::2] = [z - x - y for x, y, z in zip(f1, f2, f3)]
    for k, x in enumerate(f1):
        q[2 * k + 2] += x
    if e:
        return up, [0] * (e - 1) + q
    if q[0]:
        raise ArithmeticError("the halved adjugate form is not a polynomial")
    return up, q[1:]
