from collections import Counter

from sigspec import exact, verify
from sigspec.verify import run_theorem_verification


def test_verification_batches_each_product_order_once_per_block(monkeypatch):
    # the direct charpolys of a block are one charpolys call, so each product
    # order above the cutoff is one kernel batch per block; one call per
    # product, as before blocks, would be about 86 here
    calls = Counter()
    kernel = exact._charpoly_residues

    def recorded(mats, bound):
        calls[len(mats[0])] += 1
        return kernel(mats, bound)

    monkeypatch.setattr(exact, "_charpoly_residues", recorded)
    trials = 150
    report = run_theorem_verification(matrix_kind="A", trials=trials, seed=3)
    assert report["all_match"]
    blocks = -(-trials // verify._BLOCK)
    assert calls and all(order > exact._FL_MAX for order in calls)
    assert max(calls.values()) <= blocks
    assert sum(calls.values()) <= blocks * len(calls) < 20


def test_block_boundaries_leave_the_rng_stream_alone():
    # a run of k trials is the first k trials of a longer run, for k past a
    # block boundary and not a multiple of the block size
    k = verify._BLOCK + 7
    for kind in ("A", "L"):
        short = run_theorem_verification(matrix_kind=kind, trials=k, seed=11)
        long = run_theorem_verification(matrix_kind=kind, trials=3 * verify._BLOCK, seed=11)
        assert short["records"] == long["records"][:k]
