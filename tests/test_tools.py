"""tools/bench_kernel.py, without timing anything: its two packages, its
entry table, its CLI entries and its kernel recorder."""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sigspec
from sigspec import cli, exact
from sigspec.exact import Matrix

from cli_support import SOURCE_ROOT

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_kernel.py"
SECOND = "sigspec_bench_second"


@pytest.fixture
def tool(monkeypatch):
    # the tool puts perfbench on sys.path for its Calibrator; keep that here
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m == SECOND or m.startswith(SECOND + ".")]:
        del sys.modules[name]


def test_bench_tool_pairs_two_packages_and_runs_every_cli_entry(tool, tmp_path):
    # the in-tree source loaded a second time is a second package, with its
    # own kernel to record; both build one entry table, and every CLI entry
    # exits 0 through both, with equal stdout
    other = tool.load_baseline(Path(SOURCE_ROOT), SECOND)
    assert other.__name__ == SECOND and other is not sigspec
    assert sys.modules[SECOND + ".exact"] is not exact
    tool.write_inputs(cli, tmp_path)
    built = [tool.entries(S, tmp_path) for S in (sigspec, other)]
    assert list(built[0]) == list(built[1])
    names = [name for name in built[0] if name.startswith("cli_")]
    assert len(names) == 8
    for name in names:
        assert built[0][name][0]() == built[1][name][0]()


def test_kernel_recorder_restores_the_kernel(tool):
    kernel = exact._charpoly_residues
    with tool.KernelRecorder(exact) as rec:
        assert exact._charpoly_residues is not kernel
        exact.charpoly(Matrix([[0, 1], [1, 0]]))
    assert exact._charpoly_residues is kernel
    assert [(t, n) for t, n, _ in rec.batches] == [(1, 2)]
    with pytest.raises(ZeroDivisionError):
        with tool.KernelRecorder(exact):
            1 / 0
    assert exact._charpoly_residues is kernel


def test_kernel_recorder_reads_both_kernel_shapes(tool):
    # a per-call kernel takes a list of batches; a per-batch one, as older
    # checkouts have it, takes (mats, bound[, updates]): the recorder keeps
    # (result rows, order, prime count) of every batch of either
    mats2, mats3 = [((0, 1), (1, 0)), ((2, 1), (1, 2))], [((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    batches = [(mats2, 10, [(0, (1, 1), (1, 1))]), (mats3, 10, ())]
    per_batch = SimpleNamespace(_charpoly_residues=lambda mats, bound, updates=():
                                exact._charpoly_residues([(mats, bound, updates)])[0])
    for kernel, calls in ((exact, [(batches,)]), (per_batch, [batches[0], batches[1][:2]])):
        with tool.KernelRecorder(kernel) as rec:
            for args in calls:
                kernel._charpoly_residues(*args)
        assert rec.calls == calls
        assert [(t, n) for t, n, _ in rec.batches] == [(3, 2), (1, 3)]
        assert all(p >= 1 for _, _, p in rec.batches)
