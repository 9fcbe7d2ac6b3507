"""Time the CLI in process: its parser, and each direct_files command.

Writes BENCH_cli.json (best of --repeats wall-clock runs per entry):

- parser: build_parser() alone;
- commands: each command of perfbench's direct_files workload (gen,
  product, charpoly, coronal, spectrum, energy, cospectral-family and
  equienergetic-demo) called through sigspec.cli.main with stdout captured,
  as a first call, which builds the parser, and as a warm call, which
  reuses the one main built before; their difference is the parser's share.

The graph files go to a temporary directory. Run from the root of a
checkout:

    PYTHONPATH=src python tools/bench_cli.py [--repeats 5] [--out BENCH_cli.json]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from sigspec import cli


def best(fn, repeats: int, number: int = 1) -> float:
    """Best of repeats wall-clock runs of number calls, per call."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t) / number)
    return min(times)


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"sigspec {' '.join(argv)} exited {code}")


def cold(argv: list[str]) -> None:
    cli._parser.cache_clear()
    run(argv)


def write_inputs(d: Path) -> None:
    """The direct_files graph files: K2, L^2(K3,3), their product, the star
    K_{1,4} and C4 + K1 (cospectral with it)."""
    run(["gen", "--family", "complete", "--n", "2", "--out", str(d / "k2.txt")])
    run(["gen", "--family", "complete-bipartite", "--n", "3", "--b", "3",
         "--out", str(d / "k33.txt")])
    run(["gen", "--family", "line-graph", "--of", str(d / "k33.txt"), "--iterations", "2",
         "--marking=+-++-+--+-+++-+-+-", "--out", str(d / "l2k33.txt")])
    run(["product", str(d / "k2.txt"), str(d / "l2k33.txt"), "--out", str(d / "p1.txt")])
    run(["gen", "--family", "star", "--n", "5", "--marking=+-+-+", "--out",
         str(d / "star5.txt")])
    (d / "c4k1.txt").write_text("5 4\n0 1 +\n1 2 +\n2 3 +\n0 3 +\nmarking + - + + -\n")


def commands(d: Path) -> dict[str, list[str]]:
    p1 = str(d / "p1.txt")
    return {
        "gen": ["gen", "--family", "line-graph", "--of", str(d / "k33.txt"),
                "--iterations", "2", "--out", str(d / "gen.txt")],
        "product": ["product", str(d / "k2.txt"), str(d / "l2k33.txt"),
                    "--out", str(d / "product.txt")],
        "charpoly": ["charpoly", p1, "--matrix", "A"],
        "coronal": ["coronal", p1],
        "spectrum": ["spectrum", p1],
        "energy": ["energy", p1],
        "cospectral-family": ["cospectral-family", str(d / "star5.txt"),
                              str(d / "c4k1.txt"), str(d / "k2.txt"), "--side", "left"],
        "equienergetic-demo": ["equienergetic-demo"],
    }


def bench_commands(d: Path, repeats: int) -> list[dict]:
    out = []
    for name, argv in commands(d).items():
        first = best(lambda: cold(argv), repeats)
        run(argv)
        warm = best(lambda: run(argv), repeats)
        out.append({"command": name, "first_call_s": first, "warm_call_s": warm,
                    "parser_share": (first - warm) / first})
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_cli.json")
    args = parser.parse_args(argv)
    if args.repeats < 3:
        parser.error("--repeats must be at least 3")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        result = {
            "host": {"python": platform.python_version(), "numpy": np.__version__,
                     "machine": platform.machine(), "processor": platform.processor()},
            "repeats": args.repeats, "statistic": "best (minimum) wall-clock seconds",
            "build_parser_s": best(cli.build_parser, args.repeats, 20),
            "commands": bench_commands(d, args.repeats),
        }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
