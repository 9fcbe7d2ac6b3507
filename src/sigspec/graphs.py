"""Signed graphs, markings and their matrices.

A signed graph is a finite simple graph with every edge signed +1 or -1.
A marking assigns +1 or -1 to every vertex; the canonical marking of a
vertex is the product of the signs of its incident edges.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import lt
from typing import Callable, Iterable, NamedTuple, Sequence

from .exact import _INT_ONLY, Matrix, _exact_ints

Edge = tuple[int, int, int]  # (i, j, sign) with i < j

_SIGN_VALUES = frozenset((1, -1))
_SIGN_CHARS = frozenset("+-")


class EdgeError(ValueError):
    """Invalid edge; carries its 0-based position in the edge list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _signs(signs: str | Iterable[int], m: int | None = None,
           what: str = "signs") -> tuple[int, ...]:
    """A '+'/'-' string or a sequence of ints as a tuple of +-1 signs.

    Ints follow the exact core's rule: a bool, float or str entry raises
    TypeError. An int other than +-1, a character other than + or -, or a
    length other than m raises ValueError.
    """
    if isinstance(signs, str):
        if not _SIGN_CHARS.issuperset(signs):
            raise ValueError(f"{what} must be '+' or '-' characters, got {signs!r}")
        vals = tuple(1 if ch == "+" else -1 for ch in signs)
    else:
        vals = _exact_ints(signs)
        if not _SIGN_VALUES.issuperset(vals):
            bad = sorted(set(vals) - _SIGN_VALUES)
            raise ValueError(f"{what} must be +1 or -1, got {bad}")
    if m is not None and len(vals) != m:
        raise ValueError(f"need {m} {what}, got {len(vals)}")
    return vals


def _normal_form(n: int, ii: Sequence[int], jj: Sequence[int]) -> bool:
    """True when the endpoint columns of ints are in normal form: every
    i < j, the (i, j) pairs strictly increasing and all in range.

    Passes over the columns and their keys i*n + j, with no edge tuples:
    by induction over the edges, i < j, increasing keys, a first i of at
    least 0 and every j below n keep every i nondecreasing and at least 0,
    so the keys order the pairs as tuples would.
    """
    if not ii:
        return True
    keys = [i * n + j for i, j in zip(ii, jj)]
    return (all(map(lt, ii, jj)) and all(map(lt, keys, keys[1:]))
            and ii[0] >= 0 and max(jj) < n)


def _sorted_edges(n: int, ii: Sequence[int], jj: Sequence[int],
                  ss: Sequence[int]) -> tuple[Edge, ...]:
    """The edges (ii[k], jj[k], ss[k]) checked one by one, each put as i < j,
    and sorted; the checks name the edge, which parse_graph turns into a
    line number."""
    seen: dict[tuple[int, int], int] = {}
    for k, (i, j, s) in enumerate(zip(ii, jj, ss)):
        if i == j:
            raise EdgeError(k, f"self-loop at vertex {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise EdgeError(k, f"edge ({i}, {j}) out of range for {n} vertices")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise EdgeError(k, f"duplicate edge ({i}, {j})")
        seen[(i, j)] = s
    return tuple((i, j, s) for (i, j), s in sorted(seen.items()))


class SignedGraph:
    """Simple graph on vertices 0..n-1 with +-1 edge signs."""

    # _cols: the edges as three tuple columns (i, j, sign), or None until
    # _columns() first transposes them
    __slots__ = ("n", "edges", "_cols")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        # the int rule is one type pass per column; only when it fails does
        # the scan of the flat (n, i0, j0, s0, i1, ...) order run, to name the
        # first entry that is not an int
        edges = list(edges)
        if not {3}.issuperset(map(len, edges)):
            k = next(k for k, e in enumerate(edges) if len(e) != 3)
            raise EdgeError(k, f"edge must be (i, j, sign), got {edges[k]!r}")
        ii, jj, ss = zip(*edges) if edges else ((), (), ())
        if not all(_INT_ONLY.issuperset(map(type, col)) for col in ((n,), ii, jj, ss)):
            _exact_ints(chain((n,), *edges))
        self._fill(n, ii, jj, ss)

    @classmethod
    def _from_columns(cls, n: int, ii: Sequence[int], jj: Sequence[int],
                      ss: Sequence[int]) -> "SignedGraph":
        """The graph of edges (ii[k], jj[k], ss[k]), from columns known to
        hold only ints: the type pass of __init__ is skipped."""
        g = cls.__new__(cls)
        g._fill(n, ii, jj, ss)
        return g

    @classmethod
    def _from_normal_columns(cls, n: int, ii: tuple[int, ...], jj: tuple[int, ...],
                             ss: tuple[int, ...]) -> "SignedGraph":
        """The graph of edges (ii[k], jj[k], ss[k]), from tuple columns of
        ints the package holds in normal form (see _normal_form) with +-1
        signs, n at least 1: no check runs, and the columns are kept."""
        g = cls.__new__(cls)
        g.n, g.edges, g._cols = n, tuple(zip(ii, jj, ss)), (ii, jj, ss)
        return g

    def _fill(self, n: int, ii: Sequence[int], jj: Sequence[int],
              ss: Sequence[int]) -> None:
        """Check the columns of ints and set the sorted edges. Columns in
        normal form are kept as they are; any others go through
        _sorted_edges, which names the first offending edge."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not _SIGN_VALUES.issuperset(ss):
            _signs(ss, what="edge signs")
        self.n = n
        if _normal_form(n, ii, jj):
            self._cols = (tuple(ii), tuple(jj), tuple(ss))
            self.edges = tuple(zip(*self._cols))
        else:
            self.edges, self._cols = _sorted_edges(n, ii, jj, ss), None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """(neighbor, sign) pairs for vertex v."""
        out = []
        for i, j, s in self.edges:
            if i == v:
                out.append((j, s))
            elif j == v:
                out.append((i, s))
        return out

    def sign_of(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        for a, b, s in self.edges:
            if (a, b) == (i, j):
                return s
        raise KeyError(f"no edge ({i}, {j})")

    def _columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The edges as three tuple columns: endpoints i, endpoints j and
        signs, transposed once per graph."""
        if self._cols is None:
            self._cols = tuple(zip(*self.edges)) if self.edges else ((), (), ())
        return self._cols

    def underlying_positive(self) -> "SignedGraph":
        ii, jj, _ = self._columns()
        return SignedGraph._from_normal_columns(self.n, ii, jj, (1,) * len(ii))

    def negated(self) -> "SignedGraph":
        ii, jj, ss = self._columns()
        return SignedGraph._from_normal_columns(self.n, ii, jj, tuple(-s for s in ss))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SignedGraph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, edges={list(self.edges)})"


class Marking:
    """Vector of +-1 vertex signs, given as ints or as a '+'/'-' string."""

    __slots__ = ("signs",)

    def __init__(self, signs: str | Iterable[int]):
        self.signs = _signs(signs, what="marking entries")
        if not self.signs:
            raise ValueError("marking must cover at least one vertex")

    @classmethod
    def _from_signs(cls, signs: Iterable[int]) -> "Marking":
        """The marking with these signs, +-1 ints the package holds, at least
        one: the checks of __init__ are skipped."""
        m = cls.__new__(cls)
        m.signs = tuple(signs)
        return m

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def __getitem__(self, i: int) -> int:
        return self.signs[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self.signs == other.signs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.signs)

    def __repr__(self) -> str:
        return f"Marking({''.join('+' if s > 0 else '-' for s in self.signs)})"


@dataclass(frozen=True)
class MarkedSignedGraph:
    """A signed graph together with a marking of its vertices."""

    graph: SignedGraph
    marking: Marking

    def __post_init__(self):
        if len(self.marking) != self.graph.n:
            raise ValueError(
                f"marking length {len(self.marking)} differs from "
                f"vertex count {self.graph.n}")

    @classmethod
    def with_canonical_marking(cls, g: SignedGraph) -> "MarkedSignedGraph":
        return cls(g, canonical_marking(g))

    @property
    def n(self) -> int:
        return self.graph.n


def canonical_marking(g: SignedGraph) -> Marking:
    """Product of incident edge signs per vertex; +1 for isolated vertices."""
    marks = [1] * g.n
    for i, j, s in g.edges:
        marks[i] *= s
        marks[j] *= s
    return Marking._from_signs(marks)


def mu_signed_graph(mg: MarkedSignedGraph) -> SignedGraph:
    """Same underlying graph, each edge re-signed to mark(u)*mark(v)."""
    mu = mg.marking
    ii, jj, _ = mg.graph._columns()
    return SignedGraph._from_normal_columns(mg.graph.n, ii, jj,
                                            tuple(mu[i] * mu[j] for i, j in zip(ii, jj)))


def balance_marking(g: SignedGraph) -> Marking | None:
    """A marking realizing every edge sign as an endpoint product, or None.

    BFS mark propagation per component; a graph admits such a marking exactly
    when every cycle carries an even number of negative edges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, j, s in g.edges:
        adj[i].append((j, s))
        adj[j].append((i, s))
    marks = [0] * g.n
    for start in range(g.n):
        if marks[start]:
            continue
        marks[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, s in adj[v]:
                expected = marks[v] * s
                if marks[w] == 0:
                    marks[w] = expected
                    queue.append(w)
                elif marks[w] != expected:
                    return None
    return Marking._from_signs(marks)


def is_balanced(g: SignedGraph) -> bool:
    """True when some marking realizes all edge signs as endpoint products."""
    return balance_marking(g) is not None


def regular_degree(g: SignedGraph) -> int | None:
    """Common underlying degree, or None when the graph is not regular."""
    degs = g.degrees()
    return degs[0] if all(d == degs[0] for d in degs) else None


def require_regular(g: SignedGraph, label: str) -> int:
    r = regular_degree(g)
    if r is None:
        raise ValueError(f"{label} must be regular")
    return r


class GraphMatrices(NamedTuple):
    A: Matrix
    D: Matrix
    L: Matrix
    Q: Matrix


def adjacency_matrix(g: SignedGraph) -> Matrix:
    return graph_matrix(g, "A")


def _graph_of(mg: MarkedSignedGraph | SignedGraph) -> SignedGraph:
    if isinstance(mg, MarkedSignedGraph):
        return mg.graph
    if isinstance(mg, SignedGraph):
        return mg
    raise TypeError(f"expected a signed graph or marked signed graph, got {type(mg).__name__}")


def graph_matrix(mg: MarkedSignedGraph | SignedGraph, kind: str) -> Matrix:
    """The one matrix of the given kind: adjacency A, L = D - A or Q = D + A,
    with D the underlying degree matrix; no other matrix is built."""
    if kind not in ("A", "L", "Q"):
        raise ValueError(f"matrix kind must be A, L or Q, got {kind!r}")
    g = _graph_of(mg)
    rows = [[0] * g.n for _ in range(g.n)]
    sign = -1 if kind == "L" else 1
    for i, j, s in g.edges:
        rows[i][j] = rows[j][i] = sign * s
    if kind != "A":
        for v, d in enumerate(g.degrees()):
            rows[v][v] = d
    return Matrix._from_rows(rows)


def matrices(mg: MarkedSignedGraph | SignedGraph) -> GraphMatrices:
    """Adjacency A, underlying degree matrix D, L = D - A and Q = D + A.

    For one of A, L or Q alone, graph_matrix builds only that one.
    """
    g = _graph_of(mg)
    return GraphMatrices(A=graph_matrix(g, "A"), D=Matrix.diagonal(g.degrees()),
                         L=graph_matrix(g, "L"), Q=graph_matrix(g, "Q"))


def _from_pairs(n: int, pairs: list[tuple[int, int]], signs) -> SignedGraph:
    """signs: None, '+' or 'all-positive', '-' or 'all-negative', or one per pair."""
    if signs is None or signs in ("+", "all-positive"):
        ss = (1,) * len(pairs)
    elif signs in ("-", "all-negative"):
        ss = (-1,) * len(pairs)
    else:
        ss = _signs(signs, len(pairs))
    return SignedGraph(n, [(i, j, s) for (i, j), s in zip(pairs, ss)])


def star(n: int, signs=None) -> SignedGraph:
    """Star on n vertices: center 0 joined to n-1 leaves."""
    return _from_pairs(n, [(0, k) for k in range(1, n)], signs)


def path(n: int, signs=None) -> SignedGraph:
    return _from_pairs(n, [(k, k + 1) for k in range(n - 1)], signs)


def cycle(n: int, signs=None) -> SignedGraph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return _from_pairs(n, [(k, (k + 1) % n) for k in range(n)], signs)


def complete(n: int, signs=None) -> SignedGraph:
    return _from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)], signs)


# name -> (builder, smallest order it takes); sampling draws in this order
FAMILIES: dict[str, tuple[Callable[..., SignedGraph], int]] = {
    "star": (star, 1), "path": (path, 1), "cycle": (cycle, 3), "complete": (complete, 1)}


def complete_bipartite(a: int, b: int, signs=None) -> SignedGraph:
    _exact_ints((a, b))
    if a < 1 or b < 1:
        raise ValueError("both parts need at least one vertex")
    return _from_pairs(a + b, [(i, a + j) for i in range(a) for j in range(b)], signs)


def prism(n: int, signs=None) -> SignedGraph:
    """Circular ladder: two n-cycles joined by rungs; prism(3) is the triangular prism."""
    if n < 3:
        raise ValueError("prism needs cycles of length at least three")
    pairs = [(k, (k + 1) % n) for k in range(n)]
    pairs += [(n + k, n + (k + 1) % n) for k in range(n)]
    pairs += [(k, n + k) for k in range(n)]
    return _from_pairs(2 * n, pairs, signs)


def line_graph(g: SignedGraph) -> SignedGraph:
    """All-positive line graph of the underlying graph of g.

    The edges at each vertex are listed in edge order and paired within
    each list; two edges of a simple graph share at most one endpoint, so
    each line-graph edge comes from one list, once.
    """
    ii, jj, _ = g._columns()
    if not ii:
        raise ValueError("line graph of an edgeless graph is empty")
    at: list[list[int]] = [[] for _ in range(g.n)]
    for k, (i, j) in enumerate(zip(ii, jj)):
        at[i].append(k)
        at[j].append(k)
    pairs = sorted(chain.from_iterable(map(combinations, at, repeat(2))))
    aa, bb = zip(*pairs) if pairs else ((), ())
    return SignedGraph._from_columns(len(ii), aa, bb, (1,) * len(aa))
