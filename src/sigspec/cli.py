"""Command-line interface.

Every verification subcommand emits deterministic JSON on stdout given the
same inputs and seed; `product` and `gen` emit graph text. Exit codes:
0 success (including hypothesis-not-satisfied results reported in JSON),
1 input/validation errors, 2 verification failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .applications import (equienergetic_demo, integral_product_check,
                           star_product_integral_check)
from .coronal import signed_coronal
from .exact import Poly, charpoly, integer_roots
from .graphs import (MarkedSignedGraph, Marking, SignedGraph, complete,
                     complete_bipartite, cycle, line_graph, matrices,
                     mu_signed_graph, path, prism, star)
from .io import GraphFormatError, load_graph, serialize_graph
from .product import product
from .spectra import EnergyValue, symmetric_eigenvalues
from .theorems import cospectral_family_check
from .verify import run_theorem_verification

_GEN_FAMILIES = ("star", "path", "cycle", "complete", "complete-bipartite",
                 "prism", "line-graph")


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


def _emit(args, payload: dict, started: float) -> None:
    if getattr(args, "timings", False):
        payload["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    sys.stdout.write(text)


def _emit_text(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    sys.stdout.write(text)


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
    started = time.perf_counter()
    mg = load_graph(args.input)
    f = charpoly(getattr(matrices(mg), args.matrix))
    _emit(args, {
        "command": "charpoly",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "matrix": args.matrix,
        "n": mg.graph.n,
        "charpoly": _poly_payload(f),
    }, started)
    return 0


def _cmd_coronal(args) -> int:
    started = time.perf_counter()
    mg = load_graph(args.input)
    target = MarkedSignedGraph(mu_signed_graph(mg), mg.marking) if args.mu_graph else mg
    triple = signed_coronal(getattr(matrices(target), args.matrix), list(mg.marking))
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
    }, started)
    return 0


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    mg = load_graph(args.input)
    m = getattr(matrices(mg), args.matrix)
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
        roots, quotient = integer_roots(f)
        payload["integral"] = quotient.degree == 0
        payload["integer_roots"] = list(roots)
    _emit(args, payload, started)
    return 0


def _cmd_energy(args) -> int:
    started = time.perf_counter()
    mg = load_graph(args.input)
    spec = symmetric_eigenvalues(matrices(mg).A)
    e = EnergyValue.of(spec, args.tol)
    _emit(args, {
        "command": "energy",
        "input": args.input,
        "sha256": _sha256_file(args.input),
        "energy": e.value,
        "tolerance": e.tolerance,
        "eigenvalues": list(spec.values),
    }, started)
    return 0


def _cmd_verify_theorem(args) -> int:
    started = time.perf_counter()
    report = run_theorem_verification(
        matrix_kind=args.matrix, signed=args.signed == "yes",
        trials=args.trials, max_n1=args.max_n1, max_n2=args.max_n2,
        degree_mode=args.degree_mode, seed=_resolve_seed(args.seed))
    report = {"command": "verify-theorem", **report}
    _emit(args, report, started)
    return 0 if report["all_match"] else 2


def _cmd_cospectral_family(args) -> int:
    started = time.perf_counter()
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
    _emit(args, payload, started)
    return 0 if report.consistent else 2


def _cmd_equienergetic_demo(args) -> int:
    started = time.perf_counter()
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
    _emit(args, payload, started)
    if not cert.valid:
        hypothesis_only = all(("inputs" in c) or ("coronal" in c)
                              for c in cert.failed_clauses)
        return 0 if hypothesis_only else 2
    return 0


def _search_first_factors(max_n1: int):
    out = []
    for n1 in range(1, max_n1 + 1):
        for family, builder in (("star", star), ("path", path),
                                ("cycle", cycle), ("complete", complete)):
            if family == "cycle" and n1 < 3:
                continue
            for signs in ("+", "-"):
                g = builder(n1, signs)
                label = f"{family}({n1}) signs={signs}"
                out.append((label, MarkedSignedGraph.with_canonical_marking(g)))
    return out


def _cmd_integral_search(args) -> int:
    started = time.perf_counter()
    if args.family != "star":
        raise ValueError("only --family star is supported")
    instances = []
    hits = []
    disagreements = 0
    for label, mg1 in _search_first_factors(args.max_n1):
        for n in range(1, args.max_n + 1):
            for center_signs in ("+", "-"):
                # one negative center edge flips the canonical center mark
                signs = center_signs + "+" * (n - 1)
                star_graph = star(n + 1, signs)
                star_mg = MarkedSignedGraph.with_canonical_marking(star_graph)
                center_mark = star_mg.marking[0]
                report = star_product_integral_check(mg1, n, center_mark)
                general = integral_product_check(mg1, star_mg)
                agree = report.integral == general.integral
                if not agree:
                    disagreements += 1
                entry = {
                    "first_factor": label,
                    "star_leaves": n,
                    "center_mark": center_mark,
                    "integral": report.integral,
                    "as_stated_integral": report.as_stated_integral,
                    "star_integral": report.star_integral,
                    "general_integral": general.integral,
                    "agree": agree,
                }
                if report.integral:
                    entry["spectrum"] = list(general.all_roots or ())
                    hits.append(entry)
                instances.append(entry)
    _emit(args, {
        "command": "integral-search",
        "family": args.family,
        "max_n1": args.max_n1,
        "max_n": args.max_n,
        "instances": instances,
        "hits": hits,
        "disagreements": disagreements,
    }, started)
    return 0 if disagreements == 0 else 2


def _cmd_gen(args) -> int:
    # argparse strips a lone "--" out of an option's value, so the all-negative
    # marking of a two-vertex graph, --marking=--, arrives as an empty list
    if args.marking == []:
        args.marking = "--"
    marking = None
    if args.marking not in (None, "canonical"):
        if set(args.marking) - {"+", "-"}:
            raise ValueError(f"--marking takes '+' or '-' per vertex, got {args.marking!r}")
        marking = Marking([1 if ch == "+" else -1 for ch in args.marking])
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
        builder = {"star": star, "path": path, "cycle": cycle,
                   "complete": complete, "prism": prism}[args.family]
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
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock time (breaks byte-reproducibility)")
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
    p.add_argument("--family", default="star")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
