"""The three workloads: their inputs, operations and independent checks.

A workload has ``setup(S, seed, workdir) -> state``, which builds the inputs
from the seed with the sigspec package ``S``, and ``ops(S, state, r)``,
the operations of round r. Each operation has a ``run`` (the timed call into
sigspec) and a ``check`` (outside the timed region, through ``checker`` and
never through sigspec).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checker as C
from checker import require


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    headline: bool = False
    # a fault of the program that makes this operation fail its check every time
    known_fault: str | None = None


class CliResult(NamedTuple):
    code: int
    stdout: str


def cli(argv: list[str]) -> CliResult:
    """sigspec's CLI in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["sigspec.cli"].main(argv)
    return CliResult(code, buf.getvalue())


def cli_json(out: CliResult, label: str) -> dict:
    require(out.code == 0, f"{label}: exit code {out.code}")
    return json.loads(out.stdout)


def random_marks(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(n)]


def sign_string(marks) -> str:
    return "".join("+" if s > 0 else "-" for s in marks)


class Factor(NamedTuple):
    """A generator family member with a marking, as plain data."""

    family: str
    n: int
    marks: tuple[int, ...]

    def sigspec(self, S):
        builder = {"cycle": S.cycle, "path": S.path, "complete": S.complete}[self.family]
        return S.MarkedSignedGraph(builder(self.n), S.Marking(self.marks))

    def adjacency(self) -> np.ndarray:
        return C.unsigned_adjacency(self.n, C.family_pairs(self.family, self.n))


def _poly(p) -> list:
    return list(p.coeffs)


# ---------------------------------------------------------------- factored_large

def factored_setup(S, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)

    def pair(f1, n1, f2, n2, canonical=False):
        a = Factor(f1, n1, tuple([1] * n1 if canonical else random_marks(rng, n1)))
        b = Factor(f2, n2, tuple([1] * n2 if canonical else random_marks(rng, n2)))
        return a, b, a.sigspec(S), b.sigspec(S)

    return {
        "A": {n: pair("cycle", n, "path", n) for n in (16, 24, 32)},
        "LQ": {n: pair("cycle", n, "cycle", n) for n in (8, 16)},
        "K3xK2": pair("complete", 3, "complete", 2),
        # the known-fault operation keeps seed-independent inputs
        "energy": pair("cycle", 16, "path", 16, canonical=True),
        "matrices": {},
    }


def _product_matrix(state, f1: Factor, f2: Factor, kind: str) -> np.ndarray:
    key = (f1, f2, kind)
    cache = state["matrices"]
    if key not in cache:
        a = C.product_adjacency(f1.adjacency(), f1.marks, f2.adjacency(), f2.marks)
        cache[key] = C.matrix_of(a, kind)
    return cache[key]


def _check_factored(state, f1: Factor, f2: Factor, kind: str, label: str):
    def check(fc):
        m = _product_matrix(state, f1, f2, kind)
        require(fc.matrix_kind == kind, f"{label}: matrix kind {fc.matrix_kind}")
        require(fc.linear_exponent == f1.n * (f2.n - 1) and fc.shared_exponent == f1.n,
                f"{label}: exponents {fc.linear_exponent}, {fc.shared_exponent}")
        C.check_charpoly(_poly(fc.assembled), m, label)
        rho = int(np.abs(m).sum(axis=1).max())
        C.check_factorization(_poly(fc.assembled),
                              [(_poly(fc.linear_factor), fc.linear_exponent),
                               (_poly(fc.shared_factor), fc.shared_exponent),
                               (_poly(fc.bracket), 1)], (rho + 1, -rho - 2), label)
    return check


def _check_integral(state, f1: Factor, f2: Factor, label: str):
    def check(report):
        m = _product_matrix(state, f1, f2, "A")
        C.check_integral(report.integral, m, label)
        roots = ([report.linear_root] * report.linear_exponent
                 + list(report.shared.roots) * report.n1 + list(report.bracket.roots))
        C.check_integer_roots(roots, m, label)
        if report.integral:
            require(list(report.all_roots) == sorted(roots), f"{label}: all_roots")
    return check


def _check_energy(state, f1: Factor, f2: Factor, label: str):
    def check(value):
        C.check_energy(value, _product_matrix(state, f1, f2, "A"), label)
    return check


def factored_ops(S, st: dict, r: int) -> list[Op]:
    ops = []
    for n, (f1, f2, g1, g2) in st["A"].items():
        label = f"A_C{n}xP{n}"
        ops.append(Op(label, lambda g1=g1, g2=g2: S.factored_charpoly(g1, g2, "A"),
                      _check_factored(st, f1, f2, "A", label), headline=n == 32))
    for n, (f1, f2, g1, g2) in st["LQ"].items():
        for kind in "LQ":
            label = f"{kind}_C{n}xC{n}"
            ops.append(Op(label, lambda g1=g1, g2=g2, k=kind: S.factored_charpoly(g1, g2, k),
                          _check_factored(st, f1, f2, kind, label)))
    f1, f2, g1, g2 = st["A"][24]
    ops.append(Op("integral_C24xP24", lambda: S.integral_product_check(g1, g2),
                  _check_integral(st, f1, f2, "integral_C24xP24")))
    k1, k2, h1, h2 = st["K3xK2"]
    ops.append(Op("integral_K3xK2", lambda: S.integral_product_check(h1, h2),
                  _check_integral(st, k1, k2, "integral_K3xK2")))
    e1, e2, j1, j2 = st["energy"]
    ops.append(Op("energy_estimate_C16xP16",
                  lambda: S.factored_energy_estimate(S.factored_charpoly(j1, j2, "A")),
                  _check_energy(st, e1, e2, "energy_estimate_C16xP16"),
                  known_fault="np.roots of the whole order-512 bracket is ill-conditioned"))
    return ops


# ---------------------------------------------------------------- campaigns

VERIFY_COMMANDS = (
    # (op name, kind, signed, trials); the first is the headline
    ("verify_A_signed", "A", "yes", 150),
    ("verify_L_signed", "L", "yes", 50),
    ("verify_Q_signed", "Q", "yes", 50),
    ("verify_Q_unsigned", "Q", "no", 50),
)
SEARCH_MAX_N1, SEARCH_MAX_N = 4, 6


def campaigns_setup(S, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    # one fresh seed per command per round, so a run covers more instances
    return {"seeds": [rng.randrange(2 ** 31) for _ in range(64 * len(VERIFY_COMMANDS))]}


def _check_verify(kind: str, signed: str, trials: int, seed: int, label: str):
    def check(out: CliResult):
        rep = cli_json(out, label)
        require((rep["command"], rep["matrix"], rep["trials"], rep["seed"])
                == ("verify-theorem", kind, trials, seed), f"{label}: header")
        require(rep["failures"] == 0 and rep["all_match"], f"{label}: failures reported")
        require(len(rep["records"]) == trials, f"{label}: record count")
        for rec in rep["records"]:
            parsed = []
            for k in ("1", "2"):
                text = rec["graph" + k]
                n, edges, marks = C.parse_graph_text(text)
                require(C.digest(text) == rec["digest" + k], f"{label}: digest{k}")
                require(n == rec["n" + k] and 1 <= n <= 4, f"{label}: n{k}")
                if signed == "no":
                    require(all(s == 1 for _, _, s in edges) and set(marks) == {1},
                            f"{label}: signed factor in an unsigned run")
                parsed.append((C.signed_adjacency(n, edges), marks))
            (a1, mu1), (a2, mu2) = parsed
            m = C.product_adjacency(a1, mu1, a2, mu2)
            e1, e2 = np.count_nonzero(a1) // 2, np.count_nonzero(a2) // 2
            n1, n2 = a1.shape[0], a2.shape[0]
            counts = (m.shape[0] == 2 * n1 * n2
                      and np.count_nonzero(m) // 2 == n2 * n2 * (n1 + e1) + n1 * e2)
            require(rec["counts_ok"] == counts and rec["match"], f"{label}: trial {rec['trial']}")
            if kind != "A":
                degs1, degs2 = np.abs(a1).sum(axis=1), np.abs(a2).sum(axis=1)
                require(len(set(degs1)) == 1 and len(set(degs2)) == 1,
                        f"{label}: irregular factor in trial {rec['trial']}")
                r1 = int(degs1[0])
                # the "paper" degree constant agrees only when it equals the built degree
                require(rec["paper_mode_match"] == (r1 + 2 * n2 == n2 * (r1 + 1)),
                        f"{label}: paper-mode verdict in trial {rec['trial']}")
    return check


def _bracket_integer_roots(lam: int, n: int, mark: int) -> bool:
    """All roots of x*den - n2*(lam*den + num) are integers, for the star closed form."""
    n2 = n + 1
    if n == 1:  # (2x + 2m)/(x^2 - 1) reduces to 2/(x - m)
        num, den = [2], [-mark, 1]
    else:
        num, den = [2 * n * mark, n + 1], [-n, 0, 1]
    p = C.poly_mul([0, 1], den)
    for i, c in enumerate(den):
        p[i] -= n2 * lam * c
    for i, c in enumerate(num):
        p[i] -= n2 * c
    roots = [int(x) for x in np.rint(np.roots(list(reversed(p))).real)]
    q = [1]
    for x in roots:
        q = C.poly_mul(q, [-x, 1])
    return q == p


def _check_search(label: str):
    families = ("star", "path", "cycle", "complete")

    def check(out: CliResult):
        rep = cli_json(out, label)
        require(rep["disagreements"] == 0, f"{label}: disagreements reported")
        # two first-factor sign patterns, SEARCH_MAX_N star sizes, two center signs
        expected = sum(2 * SEARCH_MAX_N * 2 for n1 in range(1, SEARCH_MAX_N1 + 1)
                       for fam in families if not (fam == "cycle" and n1 < 3))
        require(len(rep["instances"]) == expected, f"{label}: instance count")
        for inst in rep["instances"]:
            fam, rest = inst["first_factor"].split("(")
            n1, sign = int(rest.split(")")[0]), 1 if rest.endswith("+") else -1
            a1 = C.unsigned_adjacency(n1, C.family_pairs(fam, n1)) * sign
            mu1 = C.canonical_marks(a1)
            n, mark = inst["star_leaves"], inst["center_mark"]
            astar = C.unsigned_adjacency(n + 1, C.family_pairs("star", n + 1))
            astar[0, 1] = astar[1, 0] = mark
            mustar = C.canonical_marks(astar)
            m = C.product_adjacency(a1, mu1, astar, mustar)
            where = f"{label}: {inst['first_factor']} x star({n}) mark {mark}"
            integral = len(C.near_integer_eigenvalues(m)) == m.shape[0]
            require(inst["general_integral"] == integral and inst["integral"] == integral
                    and inst["agree"], f"{where}: integrality verdict")
            require(inst["star_integral"] == (math.isqrt(n) ** 2 == n), f"{where}: star")
            lams = C.eigenvalues(C.mu_adjacency(a1, mu1))
            stated = (np.all(np.abs(lams - np.rint(lams)) <= C.NEAR_INTEGER)
                      and all(_bracket_integer_roots(int(x), n, mark) for x in np.rint(lams)))
            require(inst["as_stated_integral"] == bool(stated), f"{where}: as-stated verdict")
            if integral:
                require(inst["spectrum"] == C.near_integer_eigenvalues(m), f"{where}: spectrum")
        require(rep["hits"] == [i for i in rep["instances"] if i["integral"]], f"{label}: hits")
    return check


def campaigns_ops(S, st: dict, r: int) -> list[Op]:
    ops = []
    for k, (name, kind, signed, trials) in enumerate(VERIFY_COMMANDS):
        seed = st["seeds"][(r * len(VERIFY_COMMANDS) + k) % len(st["seeds"])]
        argv = ["verify-theorem", "--which", kind, "--signed", signed,
                "--trials", str(trials), "--seed", str(seed)]
        ops.append(Op(name, lambda argv=argv: cli(argv),
                      _check_verify(kind, signed, trials, seed, name), headline=k == 0))
    ops.append(Op("integral_search",
                  lambda: cli(["integral-search", "--max-n1", str(SEARCH_MAX_N1),
                               "--max-n", str(SEARCH_MAX_N)]),
                  _check_search("integral_search")))
    return ops


# ---------------------------------------------------------------- direct_files

def l2_pairs(family: str, n: int, b: int | None = None):
    """Second line graph of a family member, vertices in sigspec's edge order."""
    _, pairs = C.line_graph_pairs(C.family_pairs(family, n, b))
    return C.line_graph_pairs(pairs)


def direct_setup(S, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    c4k1_pairs = C.family_pairs("cycle", 4)
    c4k1_marks = random_marks(rng, 5)
    # `gen` has no disjoint union, so C4 + K1 is the one file set-up writes
    S.save_graph(S.MarkedSignedGraph(S.SignedGraph(5, [(i, j, 1) for i, j in c4k1_pairs]),
                                     S.Marking(c4k1_marks)), workdir / "c4k1.txt")
    n18, l2k33 = l2_pairs("complete-bipartite", 3, 3)
    _, l2prism = l2_pairs("prism", 3)
    return {
        "dir": workdir,
        # canonical: `gen --marking=--` reaches sigspec as an empty marking (see CHANGES.md)
        "k2": (C.unsigned_adjacency(2, [(0, 1)]), [1, 1]),
        "k33": (C.unsigned_adjacency(6, C.family_pairs("complete-bipartite", 3, 3)), [1] * 6),
        "prism": (C.unsigned_adjacency(6, C.family_pairs("prism", 3)), [1] * 6),
        "l2k33": (C.unsigned_adjacency(n18, l2k33), random_marks(rng, n18)),
        "l2prism": (C.unsigned_adjacency(n18, l2prism), random_marks(rng, n18)),
        "star5": (C.unsigned_adjacency(5, C.family_pairs("star", 5)), random_marks(rng, 5)),
        "c4k1": (C.unsigned_adjacency(5, c4k1_pairs), c4k1_marks),
    }


def _product_of(st, first: str, second: str) -> tuple[np.ndarray, list[int]]:
    (a1, mu1), (a2, mu2) = st[first], st[second]
    n1, n2 = a1.shape[0], a2.shape[0]
    marks = [mu1[i] for i in range(n1) for _ in range(n2)] + list(mu2) * n1
    return C.product_adjacency(a1, mu1, a2, mu2), marks


def _check_text(reference: Callable[[], tuple], label: str):
    def check(out: CliResult):
        require(out.code == 0, f"{label}: exit code {out.code}")
        C.check_graph_text(out.stdout, *reference(), label)
    return check


def _check_analysis(st, kind: str, label: str):
    def check(out: CliResult):
        m_a, marks = _product_of(st, "k2", "l2k33")
        rep = cli_json(out, label)
        if rep["command"] == "charpoly":
            C.check_charpoly(rep["charpoly"]["coefficients"], C.matrix_of(m_a, kind), label)
        elif rep["command"] == "coronal":
            C.check_coronal(rep["num"]["coefficients"], rep["den"]["coefficients"],
                            rep["shared"]["coefficients"], m_a, marks, label)
        elif rep["command"] == "spectrum":
            C.check_eigenvalues(rep["eigenvalues"], m_a, label)
            C.check_charpoly(rep["charpoly"]["coefficients"], m_a, label)
            C.check_integral(rep["integral"], m_a, label)
            C.check_integer_roots(rep["integer_roots"], m_a, label)
        elif rep["command"] == "energy":
            C.check_energy(rep["energy"], m_a, label)
            C.check_eigenvalues(rep["eigenvalues"], m_a, label)
        else:
            raise C.CheckFailed(f"{label}: unexpected command {rep['command']}")
    return check


def _check_cospectral(st, label: str):
    def check(out: CliResult):
        rep = cli_json(out, label)
        (sa, ma), (sb, mb) = st["star5"], st["c4k1"]
        cospectral = (C.sympy_charpoly(C.mu_adjacency(sa, ma))
                      == C.sympy_charpoly(C.mu_adjacency(sb, mb)))
        pa, _ = _product_of(st, "star5", "k2")
        pb, _ = _product_of(st, "c4k1", "k2")
        require(rep["hypothesis_cospectral"] == cospectral and cospectral,
                f"{label}: hypothesis verdict")
        require(rep["a_match"] == (C.sympy_charpoly(pa) == C.sympy_charpoly(pb)),
                f"{label}: product A verdict")
        require(rep["regular_inputs"] is False and rep["l_match"] is None
                and rep["q_match"] is None and rep["consistent"], f"{label}: report")
    return check


def _check_demo(st, label: str):
    def check(out: CliResult):
        rep = cli_json(out, label)
        tol = rep["tol"]
        require(rep["valid"] and rep["failed_clauses"] == [], f"{label}: not valid")
        inputs = [C.unsigned_adjacency(*l2_pairs("complete-bipartite", 3, 3)),
                  C.unsigned_adjacency(*l2_pairs("prism", 3))]
        k2 = C.unsigned_adjacency(2, [(0, 1)])
        energies = [C.reference_energy(a) for a in inputs]
        for k, a in enumerate(inputs):
            C.check_energy(rep["input_energies"][k], a, f"{label} input {k + 1}")
        require(rep["non_cospectral_inputs"]
                == (C.sympy_charpoly(inputs[0]) != C.sympy_charpoly(inputs[1])),
                f"{label}: input cospectrality")
        require(rep["equienergetic_inputs"] == (abs(energies[0] - energies[1]) <= tol),
                f"{label}: input energies")
        products = [C.product_adjacency(k2, [1, 1], a, [1] * a.shape[0]) for a in inputs]
        require(rep["product_order"] == products[0].shape[0], f"{label}: product order")
        for k, p in enumerate(products):
            C.check_energy(rep["product_energies"][k], p, f"{label} product {k + 1}")
            C.check_charpoly(rep[f"product_charpoly_{k + 1}"], p, f"{label} product {k + 1}")
        require(rep["products_non_cospectral"]
                == (C.sympy_charpoly(products[0]) != C.sympy_charpoly(products[1])),
                f"{label}: product cospectrality")
        # both inputs are r-regular on n vertices, so both coronals are n/(x - r)
        require(rep["coronal_equal"], f"{label}: coronal verdict")
    return check


def direct_ops(S, st: dict, r: int) -> list[Op]:
    d = st["dir"]

    def gen(name, key, argv, marked=True):
        marking = [f"--marking={sign_string(st[key][1])}"] if marked else []
        return Op(name, lambda: cli(["gen", *argv, *marking, "--out", str(d / f"{key}.txt")]),
                  _check_text(lambda: st[key], name))

    def analyse(name, command, kind):
        argv = [command, str(d / "p1.txt")] + (["--matrix", kind] if command == "charpoly" else [])
        return Op(name, lambda: cli(argv), _check_analysis(st, kind, name))

    return [
        gen("gen_k2", "k2", ["--family", "complete", "--n", "2"], marked=False),
        gen("gen_k33", "k33", ["--family", "complete-bipartite", "--n", "3", "--b", "3"],
            marked=False),
        gen("gen_prism", "prism", ["--family", "prism", "--n", "3"], marked=False),
        gen("gen_l2k33", "l2k33", ["--family", "line-graph", "--of", str(d / "k33.txt"),
                                   "--iterations", "2"]),
        gen("gen_l2prism", "l2prism", ["--family", "line-graph", "--of", str(d / "prism.txt"),
                                       "--iterations", "2"]),
        gen("gen_star5", "star5", ["--family", "star", "--n", "5"]),
        Op("product_k2_l2k33",
           lambda: cli(["product", str(d / "k2.txt"), str(d / "l2k33.txt"),
                        "--out", str(d / "p1.txt")]),
           _check_text(lambda: _product_of(st, "k2", "l2k33"), "product_k2_l2k33")),
        Op("product_k2_l2prism",
           lambda: cli(["product", str(d / "k2.txt"), str(d / "l2prism.txt"),
                        "--out", str(d / "p2.txt")]),
           _check_text(lambda: _product_of(st, "k2", "l2prism"), "product_k2_l2prism")),
        analyse("charpoly_A", "charpoly", "A"),
        analyse("coronal", "coronal", "A"),
        analyse("spectrum", "spectrum", "A"),
        analyse("energy", "energy", "A"),
        Op("cospectral_family",
           lambda: cli(["cospectral-family", str(d / "star5.txt"), str(d / "c4k1.txt"),
                        str(d / "k2.txt"), "--side", "left"]),
           _check_cospectral(st, "cospectral_family")),
        Op("equienergetic_demo", lambda: cli(["equienergetic-demo"]),
           _check_demo(st, "equienergetic_demo"), headline=True),
    ]


class Workload(NamedTuple):
    setup: Callable
    ops: Callable


WORKLOADS = {
    "factored_large": Workload(factored_setup, factored_ops),
    "campaigns": Workload(campaigns_setup, campaigns_ops),
    "direct_files": Workload(direct_setup, direct_ops),
}
