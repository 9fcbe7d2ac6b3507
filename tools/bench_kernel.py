"""Time sigspec's exact kernel, its callers and its CLI against another checkout's.

Loads the sigspec on the import path as "change" and the one under
--baseline as "parent", a second package in the same process, and times
each entry in both, back to back and alternating which goes first, with
perfbench's Calibrator (perfbench/calibrate.py) sampled around every
measurement. A scaled time is the wall time at the calibrator's reference
host speed. Each repeat gives one change/parent ratio of scaled times
taken back to back, so a change of host speed between repeats cancels out
of it; the entry's ratio is their median, recorded with their lower and
upper quartiles, whose spread shows how far a ratio can be read. Run from
the root of a checkout:

    PYTHONPATH=src python tools/bench_kernel.py --baseline /path/to/parent/src

Entries with kernel batches are the batch shapes of the benchmark's
workloads and the largest factored product:

- A_C32xP32, L_C16xC16: factored_charpoly of a randomly marked C32 x P32 (A)
  and C16 x C16 (L), the factored_large workload's kernel batches;
- charpoly_A_72, coronal_A_72: charpoly, and charpoly_with_adjugate_form
  with the product's marking, of A of the order-72 product K2 x L^2(K3,3)
  with a fixed random marking of L^2(K3,3), the direct_files workload's;
- demo: the factored forms of equienergetic-demo (K2 with L^2(K3,3) and
  with L^2(prism));
- A_C128xP128, A_C256xP256: factored_charpoly of a randomly marked
  C128 x P128 and C256 x P256 (A), kernel batches of order 128 and 256.

For these, "kernel" times _charpoly_residues alone on the batches the call
hands it, each module choosing its own primes, and "call" times the whole
call. The other entries have calls only:

- verify_A, verify_L, verify_Q: run_theorem_verification("A", 150 trials;
  "L", 50; "Q", 50), all signed; verify_Q_unsigned: "Q", 50 unsigned
  trials, the campaigns workload's one verify call whose products are
  their own switches;
- product_72: product of K2 and the marked L^2(K3,3), the order-72 product
  of the charpoly_A_72 entry;
- sample_A: 300 random_marked_graph draws of verify_A's first factors (at
  most 4 vertices, signed), from a fresh seeded rng each call;
- integral_search: star_integral_checks over the 336 cases of
  integral-search --max-n1 4 --max-n 6;
- bracket_A_C64xP64: the first .bracket access of A of C64 x P64, on a
  fresh copy of its factored form each call;
- assembled_L_C32xC32: .assembled of L of C32 x C32 with the bracket built;
- integral_C128xP128, energy_C128xP128: integral_product_check and
  factored_energy_estimate of C128 x P128, each from scratch;
- build_parser: the CLI's argument parser, built afresh;
- parse_72: parse_graph of the order-72 product's file text, as product
  --out writes it, in memory;
- cli_<command>: each command of perfbench's direct_files workload through
  cli.main with stdout captured, warm (its parser already built), on
  graph files written once to a temporary directory.

Every entry records each module's kernel batches as (matrices, order,
primes), the residue matrices reduced (matrices times primes, summed), and
outputs_equal: whether the two modules' results have equal reprs (a CLI
entry's result is its stdout). The result, with the best raw and the
median scaled time of --repeats per entry and module, goes to --out.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import importlib
import importlib.util
import io
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from calibrate import Calibrator  # noqa: E402

import sigspec  # noqa: E402
import sigspec.cli  # noqa: E402

# a measurement repeats a call until it takes about this long
MIN_MEASURE_S = 0.1


def load_baseline(src: Path, name: str = "sigspec_parent"):
    """The sigspec package under src, imported as name beside the one on the path."""
    spec = importlib.util.spec_from_file_location(
        name, src / "sigspec" / "__init__.py", submodule_search_locations=[str(src / "sigspec")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class KernelRecorder:
    """Records the whole argument tuple of each _charpoly_residues call while
    active, so a replay passes whatever arguments that module's kernel takes.

    The kernel takes either one batch, (mats, bound[, updates]) returning
    (primes, residues), or one list of such batches, returning a
    (primes, residues) pair per batch; every batch of either is recorded."""

    def __init__(self, exact):
        self.exact = exact
        self.calls = []
        self.batches = []
        self._inner = exact._charpoly_residues

    def __enter__(self):
        def recorded(*args):
            out = self._inner(*args)
            self.calls.append(args)
            batches, results = (args[0], out) if len(args) == 1 else ([args], [out])
            for (mats, *_), (primes, res) in zip(batches, results):
                # one result row per matrix of the batch, rank-one updates included
                self.batches.append((len(res), len(mats[0]), len(primes)))
            return out

        self.exact._charpoly_residues = recorded
        return self

    def __exit__(self, *exc):
        self.exact._charpoly_residues = self._inner


def marked(S, g, rng: random.Random):
    return S.MarkedSignedGraph(g, S.Marking([rng.choice((1, -1)) for _ in range(g.n)]))


def write_inputs(cli, d: Path) -> None:
    """The direct_files graph files: K2, L^2(K3,3), their product, the star
    K_{1,4} and C4 + K1 (cospectral with it)."""
    for argv in (
            ["gen", "--family", "complete", "--n", "2", "--out", str(d / "k2.txt")],
            ["gen", "--family", "complete-bipartite", "--n", "3", "--b", "3",
             "--out", str(d / "k33.txt")],
            ["gen", "--family", "line-graph", "--of", str(d / "k33.txt"), "--iterations", "2",
             "--marking=+-++-+--+-+++-+-+-", "--out", str(d / "l2k33.txt")],
            ["product", str(d / "k2.txt"), str(d / "l2k33.txt"), "--out", str(d / "p1.txt")],
            ["gen", "--family", "star", "--n", "5", "--marking=+-+-+",
             "--out", str(d / "star5.txt")]):
        cli_call(cli, argv)()
    (d / "c4k1.txt").write_text("5 4\n0 1 +\n1 2 +\n2 3 +\n0 3 +\nmarking + - + + -\n")


def cli_call(cli, argv: list[str]):
    """cli.main(argv) with stdout captured; the call returns the stdout."""
    def call() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"sigspec {' '.join(argv)} exited {code}")
        return out.getvalue()
    return call


def first_access(fc, name: str, built: tuple[str, ...] = ()):
    """Reads fc.name afresh each call, on a copy of fc that shares the cached
    properties built so far: those in built are built on fc at the first call."""
    def call():
        for attr in built:
            getattr(fc, attr)
        return getattr(copy.copy(fc), name)
    return call


def entries(S, d: Path) -> dict:
    """Each entry's call, built with the package S on the graph files in d;
    (call, has kernel entry)."""
    exact = importlib.import_module(S.__name__ + ".exact")
    verify = importlib.import_module(S.__name__ + ".verify")
    sampling = importlib.import_module(S.__name__ + ".sampling")
    cli = importlib.import_module(S.__name__ + ".cli")
    applications = importlib.import_module(S.__name__ + ".applications")
    rng = random.Random(72)
    k2 = S.MarkedSignedGraph.with_canonical_marking(S.complete(2))
    l2 = S.line_graph(S.line_graph(S.complete_bipartite(3, 3)))
    l2_marked = marked(S, l2, rng)
    pg = S.product(k2, l2_marked).graph
    a72 = S.graph_matrix(pg.graph, "A")
    marks = list(pg.marking)
    c32, p32 = marked(S, S.cycle(32), rng), marked(S, S.path(32), rng)
    c16, d16 = marked(S, S.cycle(16), rng), marked(S, S.cycle(16), rng)
    c256, p256 = marked(S, S.cycle(256), rng), marked(S, S.path(256), rng)
    c128, p128 = marked(S, S.cycle(128), rng), marked(S, S.path(128), rng)
    c64, p64 = marked(S, S.cycle(64), rng), marked(S, S.path(64), rng)
    d32 = marked(S, S.cycle(32), rng)
    demo1, demo2 = S.demo_equienergetic_pair()
    p1_text = (d / "p1.txt").read_text()
    search = [(mg1, n, center_mark) for _, mg1 in cli._search_first_factors(4)
              for n in range(1, 7) for center_mark in (1, -1)]
    factored = S.factored_charpoly
    table = {
        "A_C32xP32": (lambda: factored(c32, p32, "A"), True),
        "L_C16xC16": (lambda: factored(c16, d16, "L"), True),
        "charpoly_A_72": (lambda: exact.charpoly(a72), True),
        "coronal_A_72": (lambda: exact.charpoly_with_adjugate_form(a72, marks), True),
        "demo": (lambda: S.factored_charpolys([(k2, demo1), (k2, demo2)], "A",
                                              ["constructed"]), True),
        "A_C128xP128": (lambda: factored(c128, p128, "A"), True),
        "A_C256xP256": (lambda: factored(c256, p256, "A"), True),
        "verify_A": (lambda: verify.run_theorem_verification("A", trials=150, seed=1), False),
        "verify_L": (lambda: verify.run_theorem_verification("L", trials=50, seed=1), False),
        "verify_Q": (lambda: verify.run_theorem_verification("Q", trials=50, seed=1), False),
        "verify_Q_unsigned": (lambda: verify.run_theorem_verification(
            "Q", signed=False, trials=50, seed=1), False),
        "product_72": (lambda: S.product(k2, l2_marked), False),
        "sample_A": (lambda: [sampling.random_marked_graph(draws, 4)
                              for draws in [random.Random(1)] for _ in range(300)], False),
        "integral_search": (lambda: applications.star_integral_checks(search), False),
        "bracket_A_C64xP64": (first_access(factored(c64, p64, "A"), "bracket"), False),
        "assembled_L_C32xC32": (first_access(factored(c32, d32, "L"), "assembled",
                                             ("bracket",)), False),
        "integral_C128xP128": (lambda: S.integral_product_check(c128, p128), False),
        "energy_C128xP128": (lambda: S.factored_energy_estimate(factored(c128, p128, "A")),
                             False),
        "build_parser": (cli.build_parser, False),
        "parse_72": (lambda: S.parse_graph(p1_text), False),
    }
    p1 = str(d / "p1.txt")
    for command, argv in {
            "gen": ["--family", "line-graph", "--of", str(d / "k33.txt"),
                    "--iterations", "2", "--out", str(d / "gen.txt")],
            "product": [str(d / "k2.txt"), str(d / "l2k33.txt"), "--out", str(d / "product.txt")],
            "charpoly": [p1, "--matrix", "A"],
            "coronal": [p1],
            "spectrum": [p1],
            "energy": [p1],
            "cospectral-family": [str(d / "star5.txt"), str(d / "c4k1.txt"), str(d / "k2.txt"),
                                  "--side", "left"],
            "equienergetic-demo": []}.items():
        table[f"cli_{command}"] = (cli_call(cli, [command, *argv]), False)
    return table


def timed(fn, number: int):
    def run():
        for _ in range(number):
            fn()
    return run


def bench(modules: dict, repeats: int, d: Path) -> dict:
    """Per entry and module: batches, the best raw and the median scaled
    seconds per call; per entry: whether the outputs are equal, and per kind
    the median and the lower and upper quartiles over repeats of the
    change/parent ratio of scaled times taken back to back, and the repeats
    in which change was faster.

    A scaled time is divided by a Calibrator sample, so one outlying sample
    sets a minimum of scaled times; the median is not moved by it.
    """
    calib = Calibrator()
    built = {label: entries(S, d) for label, S in modules.items()}
    labels = list(modules)
    out = {}
    for name in built["change"]:
        runs, record, outputs = {}, {}, {}
        for label, S in modules.items():
            exact = importlib.import_module(S.__name__ + ".exact")
            call, has_kernel = built[label][name]
            with KernelRecorder(exact) as rec:
                outputs[label] = repr(call())  # warm: primes, caches, the parser
            record[label] = {"batches": rec.batches,
                             "residue_matrices": sum(t * p for t, _, p in rec.batches)}
            runs[label, "call"] = call
            if has_kernel:
                runs[label, "kernel"] = (lambda calls=rec.calls, f=exact._charpoly_residues:
                                         [f(*args) for args in calls])
        record["outputs_equal"] = outputs["parent"] == outputs["change"]
        kinds = [kind for kind in ("call", "kernel") if ("change", kind) in runs]
        number = {}
        for kind in kinds:
            t = time.perf_counter()
            runs["parent", kind]()
            number[kind] = max(1, round(MIN_MEASURE_S / (time.perf_counter() - t)))
        times: dict = {key: [] for key in runs}
        ratios: dict = {kind: [] for kind in kinds}
        for r in range(repeats):
            for kind in kinds:
                k, scaled = number[kind], {}
                for label in (labels if r % 2 == 0 else labels[::-1]):
                    gc.collect()
                    _, seconds, scaled[label] = calib.measure(timed(runs[label, kind], k))
                    times[label, kind].append((seconds / k, scaled[label] / k))
                ratios[kind].append(scaled["change"] / scaled["parent"])
        for (label, kind), ts in times.items():
            record[label][f"{kind}_s"] = min(s for s, _ in ts)
            record[label][f"{kind}_scaled_s"] = statistics.median(s for _, s in ts)
        record["ratio"] = {kind: statistics.median(rs) for kind, rs in ratios.items()}
        record["ratio_quartiles"] = {kind: statistics.quantiles(rs, n=4)[::2]
                                     for kind, rs in ratios.items()}
        record["change_faster"] = {kind: f"{sum(x < 1 for x in rs)}/{len(rs)}"
                                   for kind, rs in ratios.items()}
        out[name] = record
        print(name, json.dumps(record["ratio"]), json.dumps(record["ratio_quartiles"]),
              json.dumps(record["change_faster"]),
              "outputs_equal" if record["outputs_equal"] else "OUTPUTS DIFFER", file=sys.stderr)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the src directory of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_kernel.json")
    args = parser.parse_args(argv)
    if args.repeats < 3:
        parser.error("--repeats must be at least 3")
    modules = {"parent": load_baseline(args.baseline.resolve()), "change": sigspec}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(sigspec.cli, Path(tmp))
        measured = bench(modules, args.repeats, Path(tmp))
    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "processor": platform.processor()},
        "statistic": ("*_s: best (minimum) of the repeats, per call; *_scaled_s: median of "
                      "the repeats at perfbench's reference host speed; ratio: median over "
                      "the repeats of change over parent, scaled, measured back to back; "
                      "ratio_quartiles: the lower and upper quartiles of those ratios"),
        "repeats": args.repeats,
        "entries": measured,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
