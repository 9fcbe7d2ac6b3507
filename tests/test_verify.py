from collections import Counter

import pytest

from sigspec import exact, theorems, verify
from sigspec.verify import run_corona_verification, run_theorem_verification


def test_verification_batches_each_product_order_once_per_block(monkeypatch):
    # a block's direct charpolys are one charpolys call and its factored forms
    # one factored_charpolys call, so each product order is one kernel batch
    # per block and each factor order (at most 4 here) at most two, where
    # products of order 2 and 4 share an order with factors; one call per
    # product or factor would be hundreds here. Orders are those of the
    # matrices folded by their twin rows: a product of order 2 n1 n2 reaches
    # the kernel at order n1 (n2 + 1) or less, so each exact call makes one
    # batch per distinct folded order among its items and no more
    calls, batches = Counter(), []
    kernel, entry = exact._charpoly_residues, exact._charpolys_with_forms

    def recorded(mats, bound):
        calls[len(mats[0])] += 1
        return kernel(mats, bound)

    def exact_call(items):
        batches.append(len({len(exact._fold_twins(a.rows(), None if u is None else tuple(u))[0])
                            for a, u in items}))
        return entry(items)

    monkeypatch.setattr(exact, "_charpoly_residues", recorded)
    monkeypatch.setattr(exact, "_charpolys_with_forms", exact_call)
    monkeypatch.setattr(theorems, "_charpolys_with_forms", exact_call)
    trials = 150
    report = run_theorem_verification(matrix_kind="A", trials=trials, seed=3)
    assert report["all_match"]
    blocks = -(-trials // verify._BLOCK)
    assert len(batches) == 2 * blocks
    assert calls and all(count <= (2 if order <= 4 else 1) * blocks
                         for order, count in calls.items())
    assert sum(calls.values()) == sum(batches)


def test_negative_trial_counts_are_refused():
    with pytest.raises(ValueError):
        run_theorem_verification(trials=-3)
    with pytest.raises(ValueError):
        run_corona_verification(trials=-2)
    assert run_theorem_verification(trials=0)["records"] == []


def test_block_boundaries_leave_the_rng_stream_alone():
    # a run of k trials is the first k trials of a longer run, for k past a
    # block boundary and not a multiple of the block size
    k = verify._BLOCK + 7
    for kind in ("A", "L"):
        short = run_theorem_verification(matrix_kind=kind, trials=k, seed=11)
        long = run_theorem_verification(matrix_kind=kind, trials=3 * verify._BLOCK, seed=11)
        assert short["records"] == long["records"][:k]
