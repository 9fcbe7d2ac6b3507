import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspec import cli
from sigspec import io as graph_io
from sigspec.cli import main
from sigspec.graphs import MarkedSignedGraph, Marking, SignedGraph, cycle
from sigspec.io import (GraphFormatError, parse_graph, serialize_graph)
from sigspec.sampling import random_marked_graph

from cli_support import run_sigspec


def rngs():
    import random
    return st.integers(min_value=0, max_value=10 ** 6).map(random.Random)


def run_cli(args, extra_env=None):
    return run_sigspec(args, extra_env, text=True)


def test_parse_minimal():
    mg = parse_graph("2 1\n0 1 +\n")
    assert mg.graph.n == 2
    assert mg.graph.edges == ((0, 1, 1),)
    assert tuple(mg.marking) == (1, 1)


def test_parse_with_comments_and_marking():
    text = """# a triangle with one negative edge
3 3
0 1 -
1 2 +
0 2 +   # inline note
marking - - +
"""
    mg = parse_graph(text)
    assert mg.graph.sign_of(0, 1) == -1
    assert tuple(mg.marking) == (-1, -1, 1)


def test_parse_defaults_to_canonical_marking():
    mg = parse_graph("3 2\n0 1 -\n1 2 +\n")
    assert tuple(mg.marking) == (-1, -1, 1)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty graph file"),
    ("2\n", "header"),
    ("2 1\n", "expected 1 edge"),
    ("2 1\n0 0 +\n", "self-loop"),
    ("2 1\n0 5 +\n", "out of range"),
    ("2 1\n0 1 *\n", "sign"),
    ("2 2\n0 1 +\n0 1 -\n", "duplicate"),
    ("2 1\n0 1 +\nmarking + -\nleftover\n", "trailing content"),
    ("2 1\n0 1 +\nmarking +\n", "marking"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
    # self-loop, range and duplicate errors come from SignedGraph and are
    # mapped back to the offending edge's line
    line = {"empty graph file": 1, "header": 1, "expected 1 edge": 1,
            "self-loop": 2, "out of range": 2, "sign": 2, "duplicate": 3,
            "trailing content": 4, "marking": 3}[fragment]
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


@given(rng=rngs())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip(rng):
    mg = random_marked_graph(rng, max_n=7)
    assert parse_graph(serialize_graph(mg)) == mg


def _spell(draw, v: int, loose: bool) -> str:
    # an integer token as int() reads it: padded with zeros, past 18 digits
    # (the most the block pass converts), or with a plus sign
    if not loose:
        return str(v)
    return draw(st.sampled_from((str(v), f"{v:03d}", "0" * 20 + str(v), f"+{v}")))


# one fault per malformed variant: (edge fault?, fault, expected message fragment)
FAULTS = [(True, "tokens", "edge line must be 'i j s'"),
          (True, "integer", "edge endpoints must be integers"),
          (True, "sign", "sign must be + or -"),
          (True, "loop", "self-loop"),
          (True, "range", "out of range"),
          (True, "past int64", "out of range"),
          (True, "duplicate", "duplicate edge"),
          (False, "marking", "marking needs")]


@st.composite
def graph_texts(draw, malformed: bool):
    """(graph, text, expected error): a random marked graph and a text of it.

    The text is either in the written layout or a variant of it: tabs and
    extra spaces, CRLF endings, full-line, blank and end-of-line comment
    lines inside the edge block, tokens spelled 007, +3 or past 18 digits,
    edge lines shuffled or with their endpoints swapped. A malformed text
    carries one fault on one line, and the expected error is its line number
    and a fragment of its message; else it is None.
    """
    mg = random_marked_graph(draw(rngs()), max_n=7)
    g = mg.graph
    loose = draw(st.booleans())
    edges = [list(e) for e in g.edges]
    if loose and draw(st.booleans()):
        edges = draw(st.permutations(edges))
    if loose:
        edges = [[j, i, s] if draw(st.booleans()) else [i, j, s] for i, j, s in edges]
    rows = [[_spell(draw, i, loose), _spell(draw, j, loose), "+" if s > 0 else "-"]
            for i, j, s in edges]
    marking = ["marking"] + ["+" if s > 0 else "-" for s in mg.marking]
    expected = None
    if malformed:
        is_edge, fault, fragment = draw(st.sampled_from(FAULTS if rows else FAULTS[-1:]))
        if is_edge:
            k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            row = rows[k]
            if fault == "tokens":
                rows[k] = draw(st.sampled_from((row[:2], row + ["+"])))
            elif fault == "integer":
                row[draw(st.integers(0, 1))] = draw(st.sampled_from(("x", "1.0", "0x1")))
            elif fault == "sign":
                row[2] = draw(st.sampled_from(("*", "1", "+1", "+-")))
            elif fault == "loop":
                row[1] = row[0]
            elif fault == "range":
                row[1] = str(g.n + draw(st.integers(0, 3)))
            elif fault == "past int64":
                row[1] = str((1 << 64) + draw(st.integers(0, 3)))
            else:
                rows.insert(k + 1, [row[1], row[0], draw(st.sampled_from("+-"))])
                k += 1
        else:
            marking = marking[:-1] if draw(st.booleans()) else marking + ["+"]
    lines = [[_spell(draw, g.n, loose), _spell(draw, len(rows), loose)], *rows, marking]
    text, lineno, fault_line = "", 0, None
    for index, tokens in enumerate(lines):
        if loose:
            for _ in range(draw(st.integers(0, 2) if index else st.just(0))):
                text += draw(st.sampled_from(("# note", "  # note", "", "  \t"))) + "\n"
                lineno += 1
            sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
            lead = draw(st.sampled_from(("", " ", "\t")))
            tail = draw(st.sampled_from(("", " ", "\t", "  # note", "# note")))
            end = draw(st.sampled_from(("\n", "\r\n")))
            text += lead + sep.join(tokens) + tail + end
        else:
            text += " ".join(tokens) + "\n"
        lineno += 1
        if malformed and (tokens is marking if not is_edge else index == k + 1):
            fault_line = lineno
    if malformed:
        expected = (fault_line, fragment)
    return mg, text, expected


@given(case=graph_texts(malformed=False))
@settings(max_examples=150, deadline=None)
def test_layout_variants_parse_to_the_written_graph(case):
    mg, text, _ = case
    assert parse_graph(text) == parse_graph(serialize_graph(mg)) == mg
    assert graph_io._parse_lines(text) == mg
    # the block pass reads the written layout, and any text it reads it
    # reads as the line-by-line pass does
    assert graph_io._parse_block(serialize_graph(mg)) == mg
    assert graph_io._parse_block(text) in (None, mg)


@given(case=graph_texts(malformed=True))
@settings(max_examples=200, deadline=None)
def test_malformed_variants_raise_the_line_by_line_error(case):
    # one fault, in the written layout, which the block pass recognises, or
    # in a variant of it: the same message and line either way
    _, text, (line, fragment) = case
    assert graph_io._parse_block(text) is None
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    with pytest.raises(GraphFormatError) as by_line:
        graph_io._parse_lines(text)
    assert (err.value.line, str(err.value)) == (by_line.value.line, str(by_line.value))
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
def test_comments_end_at_every_line_break(brk):
    # str.splitlines ends a line at each of these, so what follows one
    # inside a comment is a line of its own, in the block pass too: here the
    # header, which leaves the next line over
    want = MarkedSignedGraph(SignedGraph(2, [(0, 1, -1)]), Marking("--"))
    assert parse_graph(f"# note{brk}2 1\n0 1 -\n") == want
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"# note{brk}1 0\n1 0\n")
    assert str(err.value) == "line 3: unexpected line after edges: '1 0'"


def test_gen_writes_expected_cycle(tmp_path):
    out = tmp_path / "c3.txt"
    rc = main(["gen", "--family", "cycle", "--n", "3", "--signs", "-",
               "--out", str(out)])
    assert rc == 0
    mg = parse_graph(out.read_text())
    assert mg.graph == cycle(3, "-")
    assert tuple(mg.marking) == (1, 1, 1)


def test_gen_line_graph_iterations(tmp_path):
    base = tmp_path / "k33.txt"
    main(["gen", "--family", "complete-bipartite", "--n", "3", "--b", "3",
          "--out", str(base)])
    out = tmp_path / "lg2.txt"
    rc = main(["gen", "--family", "line-graph", "--of", str(base),
               "--iterations", "2", "--out", str(out)])
    assert rc == 0
    mg = parse_graph(out.read_text())
    assert mg.graph.n == 18
    assert mg.graph.degrees() == (6,) * 18


def test_gen_all_negative_two_vertex_marking(capsys):
    rc = main(["gen", "--family", "complete", "--n", "2", "--marking=--"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "marking - -"


@pytest.mark.parametrize("argv", [
    ["integral-search", "--family", "star"],
    ["gen", "--family", "cycle", "--n", "3", "--signs", "1,1"],
    ["verify-theorem", "--trials", "-3"],
    ["gen", "--family", "cycle", "--n", "3", "--iterations", "-1"],
])
def test_cli_input_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_gen_rejects_marking_characters_other_than_signs(capsys):
    rc = main(["gen", "--family", "cycle", "--n", "3", "--marking", "+a+"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--marking" in captured.err


@pytest.mark.parametrize("option, value", [
    ("--max-n1", "-1"), ("--max-n1", "0"), ("--max-n", "0"), ("--max-n", "-2"),
])
def test_integral_search_refuses_bounds_below_one(option, value, capsys):
    # a bound below 1 searches nothing; an empty report would read as no hits
    assert main(["integral-search", option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sigspec: {option} must be at least 1, got {value}" in captured.err


def test_charpoly_cli_json(tmp_path, capsys):
    f = tmp_path / "k2.txt"
    f.write_text("2 1\n0 1 +\n")
    rc = main(["charpoly", str(f)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["charpoly"]["pretty"] == "x^2 - 1"
    assert payload["charpoly"]["coefficients"] == ["-1", "0", "1"]
    assert payload["n"] == 2


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 9 +\n")
    proc = run_cli(["charpoly", str(bad)])
    assert proc.returncode == 1
    assert "line 2" in proc.stderr

    proc = run_cli(["charpoly", str(tmp_path / "missing.txt")])
    assert proc.returncode == 1

    proc = run_cli(["nonsense-subcommand"])
    assert proc.returncode == 1


def test_cli_verification_failure_exits_two(tmp_path):
    # the stated degree constant disagrees with constructed products
    proc = run_cli(["verify-theorem", "--which", "L", "--trials", "6",
                    "--seed", "0", "--degree-mode", "paper"])
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["all_match"] is False
    assert payload["failures"] > 0


def test_cli_byte_reproducible():
    args = ["verify-theorem", "--which", "A", "--trials", "5", "--seed", "42"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0, \
        first.stderr + second.stderr
    assert first.stdout == second.stdout, first.stderr + second.stderr
    env_run = run_cli(["verify-theorem", "--which", "A", "--trials", "5"],
                      extra_env={"SIGSPEC_SEED": "42"})
    assert env_run.returncode == 0, env_run.stderr
    assert env_run.stdout == first.stdout, env_run.stderr


def test_cli_product_provenance(tmp_path, capsys):
    f = tmp_path / "k2.txt"
    f.write_text("2 1\n0 1 +\n")
    rc = main(["product", str(f), str(f)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# vertex 0 = a[0][0]" in out
    assert "# vertex 4 = b[0][0]" in out
    mg = parse_graph(out)
    assert mg.graph.n == 8
    assert mg.graph.num_edges == 14


def test_cli_spectrum_and_energy(tmp_path, capsys):
    f = tmp_path / "c3.txt"
    f.write_text("3 3\n0 1 +\n1 2 +\n0 2 +\n")
    rc = main(["spectrum", str(f)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["integral"] is True
    assert payload["integer_roots"] == [-1, -1, 2]
    assert abs(payload["eigenvalues"][0] - 2.0) < 1e-9

    rc = main(["energy", str(f)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["energy"] - 4.0) < 1e-9


def test_cli_equienergetic_demo(capsys):
    rc = main(["equienergetic-demo"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["product_order"] == 72
    assert payload["products_non_cospectral"] is True


def test_cli_equienergetic_demo_exits_0_when_a_hypothesis_fails(monkeypatch, capsys):
    # cospectral inputs fail a hypothesis, so no product clause is decided
    from sigspec import applications
    g1, _ = applications.demo_equienergetic_pair()
    monkeypatch.setattr(applications, "demo_equienergetic_pair", lambda: (g1, g1))
    assert main(["equienergetic-demo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["failed_clauses"] == ["inputs are cospectral"]
    assert payload["product_order"] is None


@pytest.mark.parametrize("energies", [(1.0, 2.0), (float("nan"), float("nan"))])
def test_cli_equienergetic_demo_exits_2_when_a_product_clause_fails(monkeypatch, capsys,
                                                                    energies):
    # every hypothesis holds, so the product energies are compared; a NaN
    # energy is never within tolerance
    from sigspec import applications
    estimates = iter(energies)
    monkeypatch.setattr(applications, "factored_energy_estimate", lambda fc: next(estimates))
    assert main(["equienergetic-demo"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["failed_clauses"] == ["product energies differ beyond tolerance"]
    assert payload["product_order"] == 72


def test_cli_integral_search(capsys):
    rc = main(["integral-search", "--max-n1", "2", "--max-n", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "star"
    assert payload["disagreements"] == 0
    assert all(inst["agree"] for inst in payload["instances"])


def test_cli_cospectral_family(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    base = tmp_path / "base.txt"
    a.write_text(serialize_graph(MarkedSignedGraph.with_canonical_marking(
        SignedGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]))))
    b.write_text(serialize_graph(MarkedSignedGraph.with_canonical_marking(
        SignedGraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]))))
    base.write_text("2 1\n0 1 +\n")
    rc = main(["cospectral-family", str(a), str(b), str(base),
               "--side", "left"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hypothesis_cospectral"] is True
    assert payload["a_match"] is True
    assert payload["consistent"] is True


def test_cli_coronal_mu_flag(tmp_path, capsys):
    f = tmp_path / "s2neg.txt"
    f.write_text("3 2\n0 1 -\n0 2 +\n")
    rc = main(["coronal", str(f)])
    assert rc == 0
    raw = json.loads(capsys.readouterr().out)
    rc = main(["coronal", str(f), "--mu-graph"])
    assert rc == 0
    mu = json.loads(capsys.readouterr().out)
    # center mark is -1, so the raw numerator differs from the mu route
    assert raw["num"]["pretty"] == "3x - 4"
    assert mu["num"]["pretty"] == "3x + 4"


def test_main_reuses_one_parser_and_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # every main call in a process parses with one parser, built on the first
    # call; each call must print, write and exit as a fresh process does
    real_build = cli.build_parser
    built = []

    def counted_build():
        built.append(None)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    # --help wraps to the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    k2 = tmp_path / "k2.txt"
    k2.write_text("2 1\n0 1 -\n")
    out = tmp_path / "out.txt"
    gen = ["gen", "--family", "cycle", "--n", "4", "--signs", "+-+-"]
    verify = ["verify-theorem", "--which", "L", "--trials", "3"]
    calls = [(["nonsense-subcommand"], None), (["--version"], None), (["--help"], None),
             (gen, None), (gen + ["--out", str(out)], None),
             (["charpoly", str(k2), "--matrix", "Q"], None),
             (verify, "5"), (verify, "9")]
    verify_outputs = []
    cli._parser.cache_clear()
    try:
        for argv, seed in calls:
            if seed is not None:
                monkeypatch.setenv("SIGSPEC_SEED", seed)
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            fresh = run_cli(argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert written == (out.read_text() if out.exists() else None), argv
            out.unlink(missing_ok=True)
            if argv is verify:
                verify_outputs.append(captured.out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    # SIGSPEC_SEED is read on each call, not kept from the first
    assert verify_outputs[0] != verify_outputs[1]
    assert json.loads(verify_outputs[0])["seed"] == 5
    assert real_build() is not real_build()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=30)


@given(x=json_values)
@settings(max_examples=300, deadline=None)
def test_json_emitter_matches_json_dumps(x):
    # text with non-ASCII and control characters, NaN and +-inf, empty and
    # nested containers: byte for byte what json.dumps(x, indent=2) writes
    assert cli._json(x) == json.dumps(x, indent=2)


def test_json_emitter_refuses_what_json_refuses():
    for bad in ({"a": [1j]}, {"a": {1, 2}}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json(bad)
    # json writes an int key as a string; no payload has one, and the
    # emitter refuses it rather than guess
    with pytest.raises(TypeError):
        cli._json({1: 2})


def test_every_json_command_emits_json_dumps_bytes(tmp_path, monkeypatch, capsys):
    k2, star5, c4k1 = (str(tmp_path / f) for f in ("k2.txt", "star5.txt", "c4k1.txt"))
    assert main(["gen", "--family", "complete", "--n", "2", "--out", k2]) == 0
    assert main(["gen", "--family", "star", "--n", "5", "--marking=+-+-+",
                 "--out", star5]) == 0
    (tmp_path / "c4k1.txt").write_text("5 4\n0 1 +\n1 2 +\n2 3 +\n0 3 +\nmarking + - + + -\n")
    p1 = str(tmp_path / "p1.txt")
    assert main(["product", star5, k2, "--out", p1]) == 0
    capsys.readouterr()
    payloads = []
    emit = cli._emit

    def recorded(args, payload):
        payloads.append(payload)
        emit(args, payload)

    monkeypatch.setattr(cli, "_emit", recorded)
    for argv in (["charpoly", p1, "--matrix", "L"], ["coronal", p1, "--mu-graph"],
                 ["spectrum", p1], ["energy", p1],
                 ["verify-theorem", "--which", "Q", "--trials", "5", "--seed", "3"],
                 ["cospectral-family", star5, c4k1, k2, "--side", "left"],
                 ["equienergetic-demo"], ["integral-search", "--max-n1", "2", "--max-n", "3"]):
        assert main(argv) == 0
    assert len(payloads) == 8
    assert capsys.readouterr().out == "".join(json.dumps(p, indent=2) + "\n" for p in payloads)
