import importlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec import exact, graphs, theorems, verify
from sigspec.exact import Matrix, Poly, charpoly, charpolys
from sigspec.graphs import MarkedSignedGraph, SignedGraph, graph_matrix
from sigspec.io import serialize_graph
from sigspec.product import ProductGraph, _marked_product, _skeleton, product
from sigspec.sampling import random_marked_graph, random_regular_marked_graph
from sigspec.theorems import factored_charpolys
from sigspec.verify import run_theorem_verification

from reference import run_corona_verification

# the module, which the package's product function shadows as an attribute
product_module = importlib.import_module("sigspec.product")


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


@pytest.mark.parametrize("kind, signed, trials, batches, orders", [
    ("A", True, 150, 16, 120), ("L", True, 50, 14, 108), ("Q", False, 50, 15, 115),
])
def test_each_exact_call_runs_newton_once_for_its_largest_order(
        monkeypatch, kernel_calls, kind, signed, trials, batches, orders):
    # a verification at seed 1 makes two exact calls, the block's products
    # (largest order sent 20) and its factored forms (largest 4), holding
    # many order batches between them. Newton's identities run once per
    # call, over every batch's columns, for the call's largest order: 24
    # sequential steps in place of one recurrence per batch, the sum of the
    # batch orders
    newton, steps = exact._newton_mod, []

    def recorded(rev, p):
        steps.append(len(rev) - 1)
        return newton(rev, p)

    monkeypatch.setattr(exact, "_newton_mod", recorded)
    assert run_theorem_verification(kind, signed=signed, trials=trials, seed=1)["all_match"]
    assert steps == [20, 4]
    assert len(kernel_calls) == batches
    assert sum(len(mats[0]) for mats, _, _, _ in kernel_calls) == orders


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
    inner = verify._marked_product

    def recorded(skeleton, mg1, mg2):
        built.append((mg1, mg2))
        return inner(skeleton, mg1, mg2)

    monkeypatch.setattr(verify, "_marked_product", recorded)
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
        directs = charpolys([graph_matrix(product(mg1, mg2).graph, kind) for mg1, mg2 in pairs])
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


def _forms_of(seed, kind, mode):
    # a fresh form of a random signed pair: nothing on it is expanded yet
    rng = random.Random(seed)
    draw = random_marked_graph if kind == "A" else random_regular_marked_graph
    return factored_charpolys([(draw(rng, 4, True), draw(rng, 4, True))], kind, [mode])[0][0]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from("ALQ"), mode=st.sampled_from(["constructed", "paper"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_point_comparison_equals_the_expanded_one(kind, mode, seed, data):
    # _matches decides fc.assembled == p at one point X = 2^b, without
    # expanding fc: for p the form itself, the form moved by c*x^k with c up
    # to past the l1 bound, the form moved by x^k (x - 2^b) for the b that
    # the form's own bound would pick, and polynomials of another degree
    fc = _forms_of(seed, kind, mode)
    assembled = _forms_of(seed, kind, mode).assembled
    k = data.draw(st.integers(0, assembled.degree), label="k")
    c = data.draw(st.integers(1, 4 * fc._l1_bound), label="c")
    x_k = Poly._from_ints([0] * k + [1])
    b = (2 * max(max(map(abs, assembled.coeffs)), fc._l1_bound)).bit_length()
    targets = [assembled, assembled + c * x_k, assembled - c * x_k,
               assembled + x_k * Poly.linear(-(1 << b)),
               assembled * Poly.linear(data.draw(st.integers(-3, 3), label="root")),
               Poly._from_ints(assembled.coeffs[:-1] + (0, 1))]
    for p in targets:
        assert verify._matches(fc, p) == (assembled == p)
    assert "assembled" not in vars(fc) and "bracket" not in vars(fc)


def _planted(monkeypatch, fault):
    """verify._marked_product with fault applied to each product's edge
    list; the faulty graph of each pair, keyed by the factors' texts as the
    records carry them."""
    faulty = {}

    def built(skeleton, mg1, mg2):
        pg = _marked_product(skeleton, mg1, mg2)
        g = pg.graph.graph
        bad = SignedGraph(g.n, fault(list(g.edges)))
        faulty[serialize_graph(mg1), serialize_graph(mg2)] = (mg1, mg2, bad)
        return ProductGraph(MarkedSignedGraph(bad, pg.graph.marking), pg.n1, pg.n2)

    monkeypatch.setattr(verify, "_marked_product", built)
    return faulty


def _flip_first(edges):
    i, j, s = edges[0]
    return [(i, j, -s), *edges[1:]]


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
@pytest.mark.parametrize("degree_mode", ["constructed", "paper"])
def test_a_flipped_product_sign_fails_the_trials_the_expansion_fails(
        monkeypatch, kind, degree_mode):
    # one product edge sign flipped: switching no longer undoes the signs, and
    # each verdict is the expanded form against the charpoly of the faulty
    # product, as without switching
    faulty = _planted(monkeypatch, _flip_first)
    report = run_theorem_verification(kind, trials=60, degree_mode=degree_mode, seed=4)
    other_mode = "paper" if degree_mode == "constructed" else "constructed"
    for r in report["records"]:
        mg1, mg2, bad = faulty[r["graph1"], r["graph2"]]
        direct = charpoly(graph_matrix(bad, kind))
        modes = [degree_mode] if kind == "A" else [degree_mode, other_mode]
        forms = factored_charpolys([(mg1, mg2)], kind, modes)[0]
        assert r["counts_ok"]
        assert r["match"] == (forms[0].assembled == direct)
        if kind != "A":
            assert r[f"{other_mode}_mode_match"] == (forms[1].assembled == direct)
    # the fault shows, and in A some trials still pass: a flipped bridge is a
    # switching
    assert report["failures"] > 0
    if kind == "A":
        assert report["failures"] < 60


@pytest.mark.parametrize("max_n", [4, 1])
def test_a_dropped_product_edge_fails_the_count_checks(monkeypatch, max_n):
    # one-edge products (K1 x K1) lose their only edge: an edgeless switch
    _planted(monkeypatch, lambda edges: edges[1:])
    report = run_theorem_verification("A", trials=30, max_n1=max_n, max_n2=max_n, seed=2)
    assert report["failures"] == 30
    assert not any(r["counts_ok"] for r in report["records"])


def test_a_signed_block_charpolys_each_switched_product_once(monkeypatch):
    # 150 signed A trials build about as many distinct products, but switched
    # by their own markings they are D*A*D of far fewer all-positive products:
    # charpolys gets each of those once, and no form is expanded when every
    # trial matches
    sent, reads = [], []
    inner = verify.charpolys

    def recorded(mats):
        sent.extend(mats)
        return inner(mats)

    expand = theorems.FactoredCharPoly.assembled

    def read(fc):
        reads.append(fc)
        return expand.__get__(fc)

    monkeypatch.setattr(verify, "charpolys", recorded)
    monkeypatch.setattr(theorems.FactoredCharPoly, "assembled", property(read))
    report = run_theorem_verification("A", trials=150, seed=1)
    assert report["all_match"] and reads == []
    rng = random.Random(1)
    pairs = {(random_marked_graph(rng, 4, True), random_marked_graph(rng, 4, True))
             for _ in range(150)}
    switched = set()
    for mg1, mg2 in pairs:
        pg = product(mg1, mg2).graph
        mu = pg.marking
        a = graph_matrix(pg, "A").rows()
        switched.add(Matrix([[mu[i] * x * mu[j] for j, x in enumerate(row)]
                             for i, row in enumerate(a)]))
    assert len(sent) == len(set(sent)) and set(sent) == switched
    assert len(switched) < len(pairs) // 2


@pytest.mark.parametrize("kind", ["A", "L", "Q"])
@pytest.mark.parametrize("signed", [True, False])
def test_one_edge_products_verify(kind, signed):
    # K1 x K1 is a single edge, whose switch keeps its column a tuple
    report = run_theorem_verification(kind, signed=signed, trials=20, max_n1=1, max_n2=1,
                                      seed=5)
    assert report["all_match"]
    assert {(r["n1"], r["n2"]) for r in report["records"]} == {(1, 1)}


@pytest.mark.parametrize("trials", [150, 300])
def test_one_skeleton_per_underlying_pair_per_block(monkeypatch, trials):
    # signed A trials at seed 1 are nearly all distinct pairs, but far fewer
    # distinct underlying pairs: each of those is built and checked for
    # normal form once per block, and every product of a block signs one of
    # them. No other normal-form check runs: sampled factors, products and
    # the switched and factored key graphs are built from kept columns
    skeletons, checks = [], []
    inner, check = verify._skeleton, graphs._normal_form

    def recorded(g1, g2):
        skeletons.append(((g1.n, *g1._columns()[:2]), (g2.n, *g2._columns()[:2])))
        return inner(g1, g2)

    def counted(n, ii, jj):
        checks.append(n)
        return check(n, ii, jj)

    monkeypatch.setattr(verify, "_skeleton", recorded)
    monkeypatch.setattr(graphs, "_normal_form", counted)
    monkeypatch.setattr(product_module, "_normal_form", counted)
    assert run_theorem_verification("A", trials=trials, seed=1)["all_match"]
    size = verify._block_trials(4, 4)
    rng = random.Random(1)
    pairs = [(random_marked_graph(rng, 4, True), random_marked_graph(rng, 4, True))
             for _ in range(trials)]
    under = [{((g1.n, *g1._columns()[:2]), (g2.n, *g2._columns()[:2]))
              for g1, g2 in ((a.graph, b.graph) for a, b in pairs[start:start + size])}
             for start in range(0, trials, size)]
    assert len(skeletons) == len(checks) == sum(map(len, under))
    assert skeletons[:len(under[0])] and set(skeletons[:len(under[0])]) == under[0]
    assert len(under[0]) < len(set(pairs[:size])) // 2


@pytest.mark.parametrize("kind, trials, group", [("A", 150, 4), ("L", 50, 9), ("Q", 50, 9)])
def test_a_faulty_skeleton_fails_every_trial_that_shares_it(monkeypatch, kind, trials, group):
    # one endpoint of the first skeleton with two or more copies moved from
    # copy 0 to copy 1: a[0][0] - b[0][0] becomes a[0][0] - b[1][0]. The edge
    # count stays, so the count checks pass, but every trial whose underlying
    # pair shares that skeleton must miss the match; no other trial fails
    planted, uses = [], {}

    def faulty(g1, g2):
        n, ii, jj = _skeleton(g1, g2)
        if planted or g1.n < 2:
            return n, ii, jj
        block = g1.n * g2.n
        k = list(zip(ii, jj)).index((0, block))
        planted.append((n, ii, jj[:k] + (block + g2.n,) + jj[k + 1:]))
        return planted[0]

    def built(skeleton, mg1, mg2):
        uses[serialize_graph(mg1), serialize_graph(mg2)] = bool(planted) and skeleton is planted[0]
        return _marked_product(skeleton, mg1, mg2)

    monkeypatch.setattr(verify, "_skeleton", faulty)
    monkeypatch.setattr(verify, "_marked_product", built)
    report = run_theorem_verification(kind, trials=trials, seed=1)
    shared = [uses[r["graph1"], r["graph2"]] for r in report["records"]]
    assert sum(shared) == group
    for r, bad in zip(report["records"], shared):
        assert r["counts_ok"]
        assert r["match"] != bad
    assert report["failures"] == group
