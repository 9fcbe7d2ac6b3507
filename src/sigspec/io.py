"""Plain-text graph format.

First significant line "n m", then m lines "i j s" with s one of + or -,
then optionally "marking s s ... s" (n signs). '#' starts a comment,
whitespace separates tokens, and a missing marking means canonical.

Text in the layout serialize_graph writes, optionally after full-line
comments, has its edge block read in whole-block passes; any other text is
read line by line, with the same results. Every error is raised by the
line-by-line pass.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graphs import EdgeError, MarkedSignedGraph, Marking, SignedGraph, canonical_marking

# the layout serialize_graph writes: full-line comments, a header "n m", one
# "i j s" line per edge, and an optional marking line; a comment ends at the
# first of the line breaks str.splitlines knows, and at most 18 digits keep
# every integer inside int64
_COMMENTS = re.compile(r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n)*")
_HEADER = re.compile(r"([0-9]{1,18}) ([0-9]{1,18})\n")
_EDGE_BLOCK = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18} [+-]\n)*")
_MARKING = re.compile(r"(?:marking((?: [+-])+)\n?)?")


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
    mg = _parse_block(text)
    return mg if mg is not None else _parse_lines(text)


def _parse_block(text: str) -> MarkedSignedGraph | None:
    """The graph of text in the layout serialize_graph writes, read in
    whole-block passes, or None for any other text or an invalid graph.

    One regular expression checks the edge block, one numpy pass converts
    its integers, and SignedGraph checks its three columns at once.
    """
    header = _HEADER.match(text, _COMMENTS.match(text).end())
    if header is None:
        return None
    n, m = int(header[1]), int(header[2])
    block = _EDGE_BLOCK.match(text, header.end())
    marking = _MARKING.fullmatch(text, block.end())
    edges = block.group()
    if (edges.count("\n") != m or marking is None
            or marking[1] is not None and len(marking[1]) != 2 * n):
        return None
    flat = np.fromstring(edges.replace("+", "1").replace("-", "-1"), dtype=np.int64, sep=" ")
    cols = flat.reshape(m, 3).T.tolist()
    try:
        graph = SignedGraph._from_columns(n, *cols)
    except ValueError:
        return None
    if marking[1] is None:
        return MarkedSignedGraph(graph, canonical_marking(graph))
    return MarkedSignedGraph(graph, Marking(marking[1][1::2]))


def _parse_lines(text: str) -> MarkedSignedGraph:
    """Graph text read line by line; errors carry the offending line number."""
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
