"""Plain-text graph format.

First significant line "n m", then m lines "i j s" with s one of + or -,
then optionally "marking s s ... s" (n signs). '#' starts a comment,
whitespace separates tokens, and a missing marking means canonical.
"""
from __future__ import annotations

from pathlib import Path

from .graphs import EdgeError, MarkedSignedGraph, Marking, SignedGraph, canonical_marking


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _parse_sign(token: str, lineno: int) -> int:
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise GraphFormatError(lineno, f"sign must be + or -, got {token!r}")


def parse_graph(text: str) -> MarkedSignedGraph:
    """Parse graph text; errors carry the offending line number."""
    lines = _significant_lines(text)
    if not lines:
        raise GraphFormatError(1, "empty graph file")
    lineno, header = lines[0]
    if len(header) != 2:
        raise GraphFormatError(lineno, "header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(lineno, "header must contain two integers") from None
    if n < 1 or m < 0:
        raise GraphFormatError(lineno, "need n >= 1 vertices and m >= 0 edges")

    edges = []
    body = lines[1:]
    if len(body) < m:
        raise GraphFormatError(lines[-1][0], f"expected {m} edge lines, found {len(body)}")
    for lineno, tokens in body[:m]:
        if len(tokens) != 3:
            raise GraphFormatError(lineno, "edge line must be 'i j s'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(lineno, "edge endpoints must be integers") from None
        edges.append((i, j, _parse_sign(tokens[2], lineno)))
    # SignedGraph makes the graph checks; its error names the edge's line here
    try:
        graph = SignedGraph(n, edges)
    except EdgeError as exc:
        raise GraphFormatError(body[exc.index][0], str(exc)) from None

    marking = None
    rest = body[m:]
    if rest:
        lineno, tokens = rest[0]
        if tokens[0] != "marking":
            raise GraphFormatError(lineno, f"unexpected line after edges: {' '.join(tokens)!r}")
        if len(tokens) != n + 1:
            raise GraphFormatError(lineno, f"marking needs {n} signs, got {len(tokens) - 1}")
        marking = Marking([_parse_sign(t, lineno) for t in tokens[1:]])
        if len(rest) > 1:
            raise GraphFormatError(rest[1][0], "trailing content after marking line")

    if marking is None:
        marking = canonical_marking(graph)
    return MarkedSignedGraph(graph, marking)


def serialize_graph(mg: MarkedSignedGraph) -> str:
    """Round-trippable text form with an explicit marking line."""
    g = mg.graph
    lines = [f"{g.n} {g.num_edges}"]
    for i, j, s in g.edges:
        lines.append(f"{i} {j} {'+' if s > 0 else '-'}")
    lines.append("marking " + " ".join("+" if s > 0 else "-" for s in mg.marking))
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> MarkedSignedGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphFormatError(0, f"cannot read {path}: {exc.strerror}") from exc
    return parse_graph(text)


def save_graph(mg: MarkedSignedGraph, path: str | Path) -> None:
    Path(path).write_text(serialize_graph(mg))
