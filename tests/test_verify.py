import random
from collections import Counter

import pytest

from sigspec import exact, theorems, verify
from sigspec.exact import Poly, charpolys
from sigspec.sampling import random_regular_marked_graph
from sigspec.theorems import factored_charpolys
from sigspec.verify import run_theorem_verification

from reference import run_corona_verification


def test_verification_batches_each_product_order_once_per_block(monkeypatch, kernel_calls):
    # a block's direct charpolys are one charpolys call and its factored forms
    # one factored_charpolys call, so each product order is one kernel batch
    # per block and each factor order (at most 4 here) at most two, where
    # products of order 2 and 4 share an order with factors; one call per
    # product or factor would be hundreds here. Orders are those of the
    # matrices the kernel takes (exact._kernel_item): folded by their twin
    # rows, so a product of order 2 n1 n2 reaches the kernel at order
    # n1 (n2 + 1) or less, and halved where bipartite, so each exact call
    # makes one batch per distinct order among the matrices it sends and no more
    batches = []
    entry = exact._charpolys_with_forms

    def exact_call(items):
        batches.append(len({len(exact._kernel_item(a, u)[0]) for a, u in items}))
        return entry(items)

    monkeypatch.setattr(exact, "_charpolys_with_forms", exact_call)
    monkeypatch.setattr(theorems, "_charpolys_with_forms", exact_call)
    trials = 150
    report = run_theorem_verification(matrix_kind="A", trials=trials, seed=3)
    assert report["all_match"]
    calls = Counter(len(mats[0]) for mats, _, _, _ in kernel_calls)
    blocks = -(-trials // verify._block_trials(4, 4))
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


def test_block_boundaries_leave_the_rng_stream_alone(monkeypatch):
    # a run of k trials is the first k trials of a longer run, for k past a
    # block boundary and not a multiple of the block size; blocks of 20
    # trials at the default orders keep the runs short
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 20 * (2 * 4 * 4) ** 2)
    size = verify._block_trials(4, 4)
    assert size == 20
    k = size + 7
    for kind in ("A", "L"):
        short = run_theorem_verification(matrix_kind=kind, trials=k, seed=11)
        long = run_theorem_verification(matrix_kind=kind, trials=3 * size, seed=11)
        assert short["records"] == long["records"][:k]


def test_block_size_follows_the_largest_product():
    # at the default orders a block is 256 trials of order at most 32; larger
    # factors make smaller blocks, never an empty one
    assert verify._block_trials(4, 4) == 256
    assert verify._block_trials(8, 8) == 16
    assert verify._block_trials(400, 400) == 1


def test_150_trials_make_one_exact_call_of_each_kind(monkeypatch):
    # one block for 150 A trials at the default orders: one direct charpolys
    # call and one factored_charpolys call, where blocks of 50 made three each
    calls = Counter()
    for name in ("charpolys", "factored_charpolys"):
        inner = getattr(verify, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(verify, name, counted)
    assert run_theorem_verification(matrix_kind="A", trials=150, seed=1)["all_match"]
    assert calls == {"charpolys": 1, "factored_charpolys": 1}
    # 300 trials cross one block boundary
    calls.clear()
    run_theorem_verification(matrix_kind="A", trials=300, seed=1)
    assert calls == {"charpolys": 2, "factored_charpolys": 2}


def test_repeated_pairs_are_built_once_per_block(monkeypatch):
    # unsigned Q trials draw from a handful of factors, so pairs repeat; each
    # distinct pair of a block is built and checked once, and its repeats
    # carry equal records under their own trial numbers
    built = []
    inner = verify.product

    def recorded(mg1, mg2):
        built.append((mg1, mg2))
        return inner(mg1, mg2)

    monkeypatch.setattr(verify, "product", recorded)
    report = run_theorem_verification(matrix_kind="Q", signed=False, trials=50, seed=1)
    records = report["records"]
    pairs = [(r["graph1"], r["graph2"]) for r in records]
    assert len(built) == len(set(built)) == len(set(pairs)) < 50
    assert [r["trial"] for r in records] == list(range(50))
    first = {}
    for r in records:
        rest = {k: v for k, v in r.items() if k != "trial"}
        assert first.setdefault((r["graph1"], r["graph2"]), rest) == rest
    assert report["all_match"]


@pytest.mark.parametrize("kind", ["L", "Q"])
@pytest.mark.parametrize("degree_mode", ["constructed", "paper"])
def test_other_mode_shortcut_matches_the_full_comparison(kind, degree_mode):
    # the other degree mode's verdict, decided from the linear factors and the
    # first verdict, equals expanding its form and comparing it, for the
    # product's charpoly and for a polynomial that matches neither form
    other_mode = "paper" if degree_mode == "constructed" else "constructed"
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        signed = seed % 2 == 0
        pairs = [(random_regular_marked_graph(rng, 4, signed),
                  random_regular_marked_graph(rng, 4, signed)) for _ in range(5)]
        directs = charpolys([verify._build(mg1, mg2, kind)[1] for mg1, mg2 in pairs])
        forms = factored_charpolys(pairs, kind, [degree_mode, other_mode])
        for (fc, other), direct in zip(forms, directs):
            for target in (direct, direct + Poly.constant(1)):
                match, full = fc.assembled == target, other.assembled == target
                assert verify._other_mode_match(fc, other, match, target) == full
                seen[fc.linear_factor == other.linear_factor, match, full] += 1
    # equal clone diagonals, different ones with either form matching, and no match
    first_matches = degree_mode == "constructed"
    assert {(True, True, True), (False, first_matches, not first_matches),
            (False, False, False), (True, False, False)} <= set(seen)


def _fresh_marked_graph(rng, max_n, signed, families):
    # the sampler as it reads without the skeleton cache: build the member per draw
    from sigspec.graphs import FAMILIES, MarkedSignedGraph, Marking, SignedGraph
    feasible = [f for f in families if FAMILIES[f][1] <= max_n]
    build, least = FAMILIES[rng.choice(feasible)]
    n = rng.randint(least, max_n)
    skeleton = build(n)
    signs = [rng.choice((1, -1)) if signed else 1 for _ in range(skeleton.num_edges)]
    g = SignedGraph(n, [(i, j, s) for (i, j, _), s in zip(skeleton.edges, signs)])
    return MarkedSignedGraph(g, Marking([rng.choice((1, -1)) if signed else 1
                                         for _ in range(n)]))


@pytest.mark.parametrize("signed", [True, False])
def test_cached_skeletons_keep_the_seeded_draws(signed):
    from sigspec.graphs import FAMILIES
    from sigspec.sampling import REGULAR_FAMILIES, random_marked_graph
    for seed in range(20):
        for families in (FAMILIES, REGULAR_FAMILIES):
            cached, fresh = random.Random(seed), random.Random(seed)
            for max_n in (1, 3, 4, 6):
                assert (random_marked_graph(cached, max_n, signed, families)
                        == _fresh_marked_graph(fresh, max_n, signed, families))
            assert cached.getstate() == fresh.getstate()
