"""Command-line interface.

Every verification subcommand emits deterministic JSON on stdout given the
same inputs and seed; `product` and `gen` emit graph text. Exit codes:
0 success (including hypothesis-not-satisfied results reported in JSON),
1 input/validation errors, 2 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .applications import equienergetic_demo, star_integral_checks
from .coronal import signed_coronal
from .exact import Poly, charpoly
from .graphs import (FAMILIES, MarkedSignedGraph, Marking, adjacency_matrix,
                     complete_bipartite, graph_matrix, line_graph, mu_signed_graph,
                     prism)
from .io import GraphFormatError, load_graph, serialize_graph
from .product import product
from .spectra import EnergyValue, IntegralityResult, symmetric_eigenvalues
from .theorems import cospectral_family_check
from .verify import run_theorem_verification

_GEN_FAMILIES = (*FAMILIES, "complete-bipartite", "prism", "line-graph")

_json_str = json.encoder.encode_basestring_ascii


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for verification failure
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("SIGSPEC_SEED")
    return int(env) if env else 0


def _sha256_file(p: str) -> str:
    return hashlib.sha256(Path(p).read_bytes()).hexdigest()


def _poly_payload(p: Poly) -> dict:
    return {"degree": p.degree, "coefficients": p.coeff_strings(),
            "pretty": p.pretty()}


def _emit_text(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    sys.stdout.write(text)


def _json(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2), byte for byte, with nested lines at indent.

    With indent set, the json module encodes through its pure-Python
    encoder; here strings go to its C string encoder, and the rest is
    written directly.
    Every payload key is a str; a key of any other type, like a value of a
    type json does not write, raises TypeError.
    """
    if isinstance(x, str):
        return _json_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        # json writes a finite float as its repr, and NaN and Infinity as is
        return float.__repr__(x) if math.isfinite(x) else json.dumps(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        items = [_json(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(x, dict):
        items = [f"{_json_str(k)}: {_json(v, inner)}" for k, v in x.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(args, payload: dict) -> None:
    _emit_text(args, _json(payload) + "\n")


def _cmd_product(args) -> int:
    mg1, mg2 = load_graph(args.first), load_graph(args.second)
    pg = product(mg1, mg2)
    n1, n2 = pg.n1, pg.n2
    lines = [
        f"# product of {args.first} (n1={n1}) and {args.second} (n2={n2})",
        f"# a[i][k] -> vertex i*{n2} + k        (clones of the first factor)",
        f"# b[i][q] -> vertex {n1 * n2} + i*{n2} + q  (copies of the second factor)",
    ]
    for v in range(pg.graph.graph.n):
        lines.append(f"# vertex {v} = {pg.vertex_label(v)}")
    _emit_text(args, "\n".join(lines) + "\n" + serialize_graph(pg.graph))
    return 0


def _cmd_charpoly(args) -> int:
    mg = load_graph(args.input)
    f = charpoly(graph_matrix(mg, args.matrix))
    _emit(args, {
        "command": "charpoly",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "matrix": args.matrix,
        "n": mg.graph.n,
        "charpoly": _poly_payload(f),
    })
    return 0


def _cmd_coronal(args) -> int:
    mg = load_graph(args.input)
    target = MarkedSignedGraph(mu_signed_graph(mg), mg.marking) if args.mu_graph else mg
    triple = signed_coronal(graph_matrix(target, args.matrix), list(mg.marking))
    _emit(args, {
        "command": "coronal",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "matrix": args.matrix,
        "mu_graph": bool(args.mu_graph),
        "num": _poly_payload(triple.num),
        "den": _poly_payload(triple.den),
        "shared": _poly_payload(triple.shared),
        "pretty": f"({triple.num.pretty()}) / ({triple.den.pretty()})",
    })
    return 0


def _cmd_spectrum(args) -> int:
    mg = load_graph(args.input)
    m = graph_matrix(mg, args.matrix)
    f = charpoly(m)
    payload = {
        "command": "spectrum",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "matrix": args.matrix,
        "eigenvalues": list(symmetric_eigenvalues(m).values),
        "charpoly": _poly_payload(f),
    }
    if args.matrix == "A":
        integrality = IntegralityResult.of(f)
        payload["integral"] = integrality.integral
        payload["integer_roots"] = list(integrality.roots)
    _emit(args, payload)
    return 0


def _cmd_energy(args) -> int:
    mg = load_graph(args.input)
    spec = symmetric_eigenvalues(adjacency_matrix(mg.graph))
    e = EnergyValue.of(spec, args.tol)
    _emit(args, {
        "command": "energy",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "energy": e.value,
        "tolerance": e.tolerance,
        "eigenvalues": list(spec.values),
    })
    return 0


def _cmd_verify_theorem(args) -> int:
    report = run_theorem_verification(
        matrix_kind=args.matrix, signed=args.signed == "yes",
        trials=args.trials, max_n1=args.max_n1, max_n2=args.max_n2,
        degree_mode=args.degree_mode, seed=_resolve_seed(args.seed))
    report = {"command": "verify-theorem", **report}
    _emit(args, report)
    return 0 if report["all_match"] else 2


def _cmd_cospectral_family(args) -> int:
    mg_a, mg_b = load_graph(args.first), load_graph(args.second)
    base = load_graph(args.base)
    report = cospectral_family_check(mg_a, mg_b, base, args.side)
    payload = {
        "command": "cospectral-family",
        "inputs": [args.first, args.second, args.base],
        "sha256": [_sha256_file(p) for p in (args.first, args.second, args.base)],
        **asdict(report),
        "hypothesis_holds": report.hypothesis_holds,
        "consistent": report.consistent,
    }
    _emit(args, payload)
    return 0 if report.consistent else 2


def _cmd_equienergetic_demo(args) -> int:
    cert = equienergetic_demo(tol=args.tol)
    payload = {
        "command": "equienergetic-demo",
        "tol": args.tol,
        "valid": cert.valid,
        "failed_clauses": list(cert.failed_clauses),
        "non_cospectral_inputs": cert.non_cospectral_inputs,
        "equienergetic_inputs": cert.equienergetic_inputs,
        "coronal_equal": cert.coronal_equal,
        "regular_shortcut": cert.regular_shortcut,
        "input_energies": [cert.input_energy_1, cert.input_energy_2],
        "product_order": cert.product_order,
        "product_energies": [cert.product_energy_1, cert.product_energy_2],
        "product_energy_gap": cert.product_energy_gap,
        "products_non_cospectral": cert.products_non_cospectral,
    }
    if cert.product_charpoly_1 is not None:
        payload["product_charpoly_1"] = cert.product_charpoly_1.coeff_strings()
        payload["product_charpoly_2"] = cert.product_charpoly_2.coeff_strings()
    _emit(args, payload)
    if not cert.valid:
        hypothesis_only = all(("inputs" in c) or ("coronal" in c)
                              for c in cert.failed_clauses)
        return 0 if hypothesis_only else 2
    return 0


def _search_first_factors(max_n1: int):
    return [(f"{family}({n1}) signs={signs}",
             MarkedSignedGraph.with_canonical_marking(builder(n1, signs)))
            for n1 in range(1, max_n1 + 1) for family, (builder, least) in FAMILIES.items()
            if n1 >= least for signs in ("+", "-")]


def _cmd_integral_search(args) -> int:
    # a bound below 1 would search nothing and print a report of no hits
    for option, value in (("--max-n1", args.max_n1), ("--max-n", args.max_n)):
        if value < 1:
            raise ValueError(f"{option} must be at least 1, got {value}")
    cases = [(label, mg1, n, center_mark)
             for label, mg1 in _search_first_factors(args.max_n1)
             for n in range(1, args.max_n + 1) for center_mark in (1, -1)]
    instances = []
    for (label, _, n, center_mark), (report, general) in zip(
            cases, star_integral_checks([case[1:] for case in cases])):
        entry = {
            "first_factor": label,
            "star_leaves": n,
            "center_mark": center_mark,
            "integral": report.integral,
            "as_stated_integral": report.as_stated_integral,
            "star_integral": report.star_integral,
            "general_integral": general.integral,
            "agree": report.integral == general.integral,
        }
        if report.integral:
            entry["spectrum"] = list(general.all_roots or ())
        instances.append(entry)
    disagreements = sum(not entry["agree"] for entry in instances)
    _emit(args, {
        "command": "integral-search",
        "family": "star",
        "max_n1": args.max_n1,
        "max_n": args.max_n,
        "instances": instances,
        "hits": [entry for entry in instances if entry["integral"]],
        "disagreements": disagreements,
    })
    return 0 if disagreements == 0 else 2


def _cmd_gen(args) -> int:
    # argparse strips a lone "--" out of an option's value, so the all-negative
    # marking of a two-vertex graph, --marking=--, arrives as an empty list
    if args.marking == []:
        args.marking = "--"
    marking = None
    if args.marking not in (None, "canonical"):
        try:
            marking = Marking(args.marking)
        except ValueError as exc:
            raise ValueError(f"--marking: {exc}") from None
    if args.iterations < 0:
        raise ValueError("--iterations must be a non-negative count")
    if args.family == "line-graph":
        if not args.of:
            raise ValueError("line-graph needs --of FILE")
        g = load_graph(args.of).graph
        for _ in range(args.iterations):
            g = line_graph(g)
    elif args.family == "complete-bipartite":
        if args.n is None or args.b is None:
            raise ValueError("complete-bipartite needs --n and --b")
        g = complete_bipartite(args.n, args.b, args.signs)
    else:
        if args.n is None:
            raise ValueError(f"{args.family} needs --n")
        builder = prism if args.family == "prism" else FAMILIES[args.family][0]
        g = builder(args.n, args.signs)
    mg = (MarkedSignedGraph(g, marking) if marking is not None
          else MarkedSignedGraph.with_canonical_marking(g))
    _emit_text(args, serialize_graph(mg))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="sigspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sigspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="also write the output to this file")
        return p

    p = add("product", _cmd_product, "marked product of two graph files")
    p.add_argument("first")
    p.add_argument("second")

    p = add("charpoly", _cmd_charpoly, "exact characteristic polynomial")
    p.add_argument("input")
    p.add_argument("--matrix", choices=("A", "L", "Q"), default="A")

    p = add("coronal", _cmd_coronal, "reduced coronal of a graph file")
    p.add_argument("input")
    p.add_argument("--matrix", choices=("A", "L", "Q"), default="A")
    p.add_argument("--mu-graph", action="store_true",
                   help="use the mu-signed graph instead of the raw signature")

    p = add("spectrum", _cmd_spectrum, "float eigenvalues, exact charpoly and integrality")
    p.add_argument("input")
    p.add_argument("--matrix", choices=("A", "L", "Q"), default="A")

    p = add("energy", _cmd_energy, "sum of absolute adjacency eigenvalues")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("verify-theorem", _cmd_verify_theorem,
            "random products: factored vs direct charpolys")
    p.add_argument("--which", "--matrix", dest="matrix",
                   choices=("A", "L", "Q"), default="A")
    p.add_argument("--signed", choices=("yes", "no"), default="yes")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-n1", type=int, default=4)
    p.add_argument("--max-n2", type=int, default=4)
    p.add_argument("--degree-mode", choices=("constructed", "paper"),
                   default="constructed")
    p.add_argument("--seed", type=int, default=None,
                   help="default: SIGSPEC_SEED env var, then 0")

    p = add("cospectral-family", _cmd_cospectral_family,
            "products of a cospectral pair against a common factor")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("base")
    p.add_argument("--side", choices=("left", "right"), required=True)

    p = add("equienergetic-demo", _cmd_equienergetic_demo,
            "equienergetic non-cospectral product pair certificate")
    p.add_argument("--tol", type=float, default=1e-7)

    p = add("integral-search", _cmd_integral_search,
            "enumerate small star products and report integral spectra")
    p.add_argument("--max-n1", type=int, default=3)
    p.add_argument("--max-n", type=int, default=4)

    p = add("gen", _cmd_gen, "write a generator family member as graph text")
    p.add_argument("--family", choices=_GEN_FAMILIES, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int, help="second part size for complete-bipartite")
    p.add_argument("--signs", help="+, -, or one sign per edge in construction order")
    p.add_argument("--marking", help="'canonical' (default) or one sign per vertex")
    p.add_argument("--of", help="input file for line-graph")
    p.add_argument("--iterations", type=int, default=1,
                   help="how many times to iterate line-graph")
    return parser


@functools.cache
def _parser() -> _Parser:
    # one parser per process, built on the first main call and never at import;
    # parse_args only reads it, and every per-call value (SIGSPEC_SEED, say) is
    # resolved in the handler
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except GraphFormatError as exc:
        print(f"sigspec: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"sigspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
