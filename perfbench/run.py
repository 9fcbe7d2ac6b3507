"""sigspec benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload factored_large --seed 1 --seconds 30 --trace 0

Run from the root of a sigspec checkout; sigspec is imported from ``src/``.
``--trace 0`` times whole rounds of the workload's operations untraced for
``--seconds`` and prints the end-to-end metrics, each time scaled to a
reference host speed by the kernel in ``calibrate.py``. ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics and writes the
spans to ``perfbench/out/``. Either way every output is then checked by
``checker.py``, which uses no sigspec code. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("factored_large", "campaigns", "direct_files")
SETUP_PROBES = 6  # fresh-interpreter set-ups, besides this process's own
SETUP_KERNEL_SAMPLES = 3  # kernel samples that scale one set-up

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_gmean_s", "s"),
              ("headline_op_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    # must run before numpy is imported, here or in a set-up probe
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import sigspec and build the workload's inputs; returns (S, state, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sigspec
    import sigspec.cli  # noqa: F401  (the CLI workloads call it)
    if not Path(sigspec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sigspec was imported from {sigspec.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    state = WORKLOADS[workload].setup(sigspec, seed, workdir)
    return sigspec, state, time.perf_counter() - start


def scaled_setup(seconds: float) -> float:
    """A set-up time at the reference speed, by kernel samples taken right after it."""
    from calibrate import Calibrator

    calib = Calibrator()
    return calib.scale(seconds, [calib.sample() for _ in range(SETUP_KERNEL_SAMPLES)])


def probe_setup(args, workdir: Path) -> float:
    """Scaled set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_op(op):
    """(output, None), or (None, message) when the operation raises: it counts as failed."""
    try:
        return op.run(), None
    except Exception as exc:
        return None, f"{op.name}: {exc!r}"


class Round:
    """Timings and outputs of one round of a workload's operations.

    With a calibrator, ``scaled`` holds each operation's time at the
    reference speed (see ``calibrate.py``).
    """

    def __init__(self, ops, tracer=None, calib=None):
        self.ops = ops
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.outputs: list = []
        self.errors: list[str | None] = []
        start = time.perf_counter()
        for op in ops:
            # the harness's own objects (kept outputs, earlier rounds) stay out
            # of the collections an operation triggers
            gc.collect()
            gc.freeze()
            if calib:
                (out, err), seconds, scaled = calib.measure(lambda: run_op(op))
                self.scaled.append(scaled)
            else:
                t = time.perf_counter()
                out, err = run_op(op)
                seconds = time.perf_counter() - t
            self.times.append(seconds)
            self.outputs.append(out)
            self.errors.append(err)
            if tracer is not None and hasattr(out, "stdout"):
                tracer.count("cli.stdout_bytes", len(out.stdout.encode()))
        self.seconds = time.perf_counter() - start


class Outputs:
    """Distinct outputs per operation, so repeated rounds are checked once."""

    def __init__(self):
        self.seen: dict[str, list] = {}   # op name -> [[op, output, count], ...]
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, rnd: Round) -> None:
        for op, out, err in zip(rnd.ops, rnd.outputs, rnd.errors):
            self.attempted += 1
            if err is not None:
                self.errors.append(err)
                continue
            entries = self.seen.setdefault(op.name, [])
            for entry in entries:
                if entry[1] == out:
                    entry[2] += 1
                    break
            else:
                entries.append([op, out, 1])
        rnd.outputs = []

    def check(self):
        """(correct, failed, messages): known faults count as failed, others as incorrect."""
        from checker import CheckFailed

        correct, failed, messages = True, len(self.errors), list(self.errors)
        for entries in self.seen.values():
            for op, out, count in entries:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    messages.append(str(exc))
                    if op.known_fault:
                        failed += count
                    else:
                        correct = False
        return correct, failed, messages


def run_rounds(workload, S, state, seconds: float, make_round):
    """Whole rounds while the next one is expected to end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(make_round(workload.ops(S, state, len(rounds))))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def untraced(args, workload, S, state, setup_s: float, outputs: Outputs) -> dict:
    from calibrate import Calibrator

    calib = Calibrator()

    def record(ops):
        rnd = Round(ops, calib=calib)
        outputs.add(rnd)
        return rnd

    rounds = run_rounds(workload, S, state, args.seconds, record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t for r in rounds for t in r.scaled]
    headline = [t for r in rounds for op, t in zip(r.ops, r.scaled) if op.headline]
    detail = {"rounds": len(rounds), "kernel_s": calib.samples, "ops": {}}
    for r in rounds:
        for op, t, scaled in zip(r.ops, r.times, r.scaled):
            entry = detail["ops"].setdefault(op.name, {"wall_s": [], "scaled_s": []})
            entry["wall_s"].append(t)
            entry["scaled_s"].append(scaled)
    # a round's operations differ by up to 1000x in time: a median over all samples
    # sits on whichever operation the middle rank falls to in that run, and a median
    # of the per-operation medians on the two or three operations in the middle;
    # the geometric mean weighs every operation's median alike
    per_op = [statistics.median(e["scaled_s"]) for e in detail["ops"].values()]
    values = {"setup_s": setup_s,
              "ops_per_s": len(times) / sum(times),
              "op_gmean_s": statistics.geometric_mean(per_op),
              "headline_op_s": statistics.median(headline), "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, detail


def traced(args, workload, S, state, outputs: Outputs) -> dict:
    from tracer import PER_LAYER, Tracer, layer_metrics

    tracer = Tracer()
    plain, seen = [], []

    def pair(ops):
        first = Round(ops)
        tracer.install()
        try:
            second = Round(workload.ops(S, state, len(plain)), tracer)
        finally:
            tracer.uninstall()
        for r in (first, second):
            outputs.add(r)
        plain.append(first)
        seen.append(second)
        return second

    run_rounds(workload, S, state, args.seconds, pair)
    overhead = (statistics.mean(r.seconds for r in seen)
                - statistics.mean(r.seconds for r in plain))
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 [{"untraced_s": a.seconds, "traced_s": b.seconds} for a, b in zip(plain, seen)])
    values = layer_metrics(tracer.spans, tracer.counters, len(seen), overhead)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigspec" / "__init__.py").is_file():
        print(f"run.py: no sigspec sources under {SRC}; run from a sigspec checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    if args.setup_probe:
        workdir = Path(args.setup_probe)
        try:
            print(scaled_setup(timed_setup(args.workload, args.seed, workdir)[2]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        S, state, setup_s = timed_setup(args.workload, args.seed, workdir)
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        outputs = Outputs()
        detail = None
        if args.trace:
            metrics = traced(args, workload, S, state, outputs)
        else:
            probes = [probe_setup(args, workdir.with_name(workdir.name + f"-probe{k}"))
                      for k in range(SETUP_PROBES)]
            metrics, detail = untraced(args, workload, S, state,
                               statistics.median([scaled_setup(setup_s)] + probes), outputs)
        correct, failed, messages = outputs.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for m in messages:
        print(f"run.py: {m}", file=sys.stderr)
    result = {"correct": correct, "attempted": outputs.attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, detail=detail), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
