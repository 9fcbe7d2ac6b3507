import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_gen_rejects_marking_characters_other_than_signs(capsys):
    rc = main(["gen", "--family", "cycle", "--n", "3", "--marking", "+a+"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--marking" in captured.err


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


def test_cli_integral_search(capsys):
    rc = main(["integral-search", "--max-n1", "2", "--max-n", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
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
