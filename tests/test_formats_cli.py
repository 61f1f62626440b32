"""Text formats and the command-line front end."""

import argparse
import inspect
import io
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fold import deadline

from boolminor import cli, verify
from boolminor.bfcore import TruthTable, Zhegalkin
from boolminor.formats import (
    ParseError,
    format_graph_line,
    format_hypergraph_doc,
    format_polynomial,
    format_truth_table,
    parse_graph,
    parse_hypergraph_doc,
    parse_polynomial,
    parse_truth_table,
)
from boolminor.graphs import Graph, cycle
from boolminor.hypergraph import Hypergraph

SRC = Path(__file__).resolve().parent.parent / "src"


def poly(arity, *monos):
    return Zhegalkin.from_sets(arity, monos)


# ---------------------------------------------------------------------------
# polynomial grammar


def test_parse_examples():
    assert parse_polynomial("x1*x2 + x1*x3 + x2*x3") == poly(3, (1, 2), (1, 3), (2, 3))
    assert parse_polynomial("x1 + x1") == Zhegalkin(1, frozenset())
    assert parse_polynomial("x2*x1") == poly(2, (1, 2))
    assert parse_polynomial("1 + x1") == poly(1, (), (1,))
    assert parse_polynomial("0") == Zhegalkin(1, frozenset())
    assert parse_polynomial("x2", arity=5) == poly(5, (2,))


def test_parse_errors_have_positions():
    for text in ("", "x0", "0 + x1", "x1 * * x2", "y3", "x1 ++ x2", "x1*x2 + "):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert hasattr(err.value, "position")
    with pytest.raises(ParseError):
        parse_polynomial("x3", arity=2)
    # an index above x63 is rejected before 1 << (index - 1) is built
    for index in ("64", "9" * 30, "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse_polynomial(f"x1 + x2*x{index}")
        assert err.value.position == 8


def test_print_parse_identity_polynomials():
    rng = random.Random(73)
    for _ in range(100):
        p = Zhegalkin(5, frozenset(rng.sample(range(32), rng.randrange(0, 16))))
        assert parse_polynomial(format_polynomial(p), arity=5) == p
    assert format_polynomial(Zhegalkin(2, frozenset())) == "0"
    assert format_polynomial(poly(2, (), (1, 2))) == "x1*x2 + 1"
    for arity in range(1, 9):
        for monomials in (frozenset(), frozenset({0}), frozenset(range(1 << arity))):
            p = Zhegalkin(arity, monomials)
            assert parse_polynomial(format_polynomial(p), arity=arity) == p


def oracle_format_polynomial(p):
    """Terms by falling degree, then by their ascending variable lists."""
    def variables(m):
        return [v for v in range(1, 64) if m >> (v - 1) & 1]

    terms = sorted(p.monomials, key=lambda m: (-len(variables(m)), variables(m)))
    return " + ".join("*".join(f"x{v}" for v in variables(m)) or "1" for m in terms) or "0"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 63), st.data())
def test_format_polynomial_orders_terms_like_the_oracle(arity, data):
    masks = st.integers(0, (1 << arity) - 1)
    p = Zhegalkin(arity, data.draw(st.frozensets(masks, max_size=12)))
    assert format_polynomial(p) == oracle_format_polynomial(p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_format_round_trips(data):
    arity = data.draw(st.integers(1, 8))
    p = Zhegalkin(arity, data.draw(st.frozensets(st.integers(0, (1 << arity) - 1), max_size=40)))
    assert parse_polynomial(format_polynomial(p), arity=arity) == p
    n = data.draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, frozenset((1 << a) | (1 << b) for k, (a, b) in enumerate(pairs) if chosen >> k & 1))
    assert parse_graph(format_graph_line(g)) == g
    hn = data.draw(st.integers(0, 8))
    h = Hypergraph(hn, data.draw(st.frozensets(st.integers(0, (1 << hn) - 1), max_size=40)))
    assert parse_hypergraph_doc(format_hypergraph_doc(h)) == h
    assert parse_hypergraph_doc(format_hypergraph_doc(h, indent=2)) == h


def test_truth_table_format():
    t = TruthTable.from_hex("E8", 3)
    assert format_truth_table(t) == "tt:E8 arity=3"
    assert parse_truth_table("tt:E8 arity=3") == t
    assert parse_truth_table("tt:8", arity=2) == TruthTable.from_hex("8", 2)
    with pytest.raises(ParseError):
        parse_truth_table("E8")


def test_hypergraph_doc_round_trip():
    rng = random.Random(79)
    for _ in range(50):
        h = Hypergraph(4, frozenset(rng.sample(range(16), rng.randrange(0, 10))))
        assert parse_hypergraph_doc(format_hypergraph_doc(h)) == h
    doc = format_hypergraph_doc(Hypergraph.from_sets(3, [(1, 2), ()]))
    assert json.loads(doc) == {"n": 3, "edges": [[], [1, 2]]}
    with pytest.raises(ParseError):
        parse_hypergraph_doc("{broken")
    with pytest.raises(ParseError):
        parse_hypergraph_doc('{"n": 2}')


def test_graph_line_round_trip():
    g = cycle(5)
    line = format_graph_line(g)
    assert parse_graph(line) == g
    assert parse_graph("3:") == Graph(3, frozenset())
    assert format_graph_line(Graph(2, frozenset())) == "2:"
    with pytest.raises(ParseError):
        parse_graph("3: 1-2, 2")
    with pytest.raises(ParseError):
        parse_graph("oops")


@pytest.mark.parametrize(
    "text, position",
    [
        # the bad item's text also occurs earlier, inside the vertex count
        ("12: 1-2, 2", 9),
        ("3: 1-2,  1-", 9),
        ("3: 1-2, 1-2, 1-99", 13),
        ("  3 :  1-2 ,x", 12),
        # well formed, but no vertex pair of the graph
        ("3: 1-2, 1-0", 8),
        ("3: 1-2, 1-5", 8),
        ("3: 1-2, 2-2", 8),
        # a repeated edge, in either orientation
        ("3: 1-2, 1-2", 8),
        ("3: 2-3, 1-2,  3-2", 14),
    ],
)
def test_graph_line_errors_point_at_the_bad_item(text, position):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.position == position


def test_graph_doc_input():
    g = cycle(4)
    doc = format_hypergraph_doc(Hypergraph(g.vertex_count, g.edges))
    assert parse_graph(doc) == g


# ---------------------------------------------------------------------------
# command-line verbs


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag by exiting
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ctrl_c_ends_a_sweep_with_one_line(capsys, monkeypatch):
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.ALL_SWEEPS, "keylemma", interrupted)
    code, out, err = run_cli(capsys, "verify", "keylemma", "--workers", "2")
    assert (code, out) == (130, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_ctrl_c_while_the_parser_is_built_exits_130(capsys, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_parser", interrupted)
    code, out, err = run_cli(capsys, "gap", "x1")
    assert (code, out) == (130, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def sigint_ignored(_job):
    return signal.getsignal(signal.SIGINT) == signal.SIG_IGN


def test_pool_workers_leave_ctrl_c_to_the_parent():
    with verify._pool(2) as pool:
        assert list(pool.map(sigint_ignored, [0, 1])) == [True, True]


def test_cli_irreducible_conjunction(capsys):
    code, out, _ = run_cli(capsys, "irreducible", "x1*x2")
    assert code == 0
    assert out.strip() == "irreducible; unique lower cover: x1"


def test_cli_irreducible_composite(capsys):
    code, out, _ = run_cli(
        capsys,
        "irreducible",
        "x1*x3 + x1*x4 + x1*x3*x4 + x2*x3 + x2*x4 + x2*x3*x4 + x1*x2*x3 + x1*x2*x4 + x1*x2*x3*x4",
    )
    assert code == 0
    assert out.startswith("not irreducible; maximal strict minors: ")
    minors = out.split(": ", 1)[1].strip().split("; ")
    assert len(minors) == 2


def test_cli_convert(capsys):
    code, out, _ = run_cli(capsys, "convert", "tt:E8 arity=3", "--to", "polynomial")
    assert code == 0 and out.strip() == "x1*x2 + x1*x3 + x2*x3"
    code, out, _ = run_cli(capsys, "convert", "x1*x2", "--to", "table")
    assert code == 0 and out.strip() == "tt:8 arity=2"
    code, out, _ = run_cli(capsys, "convert", "x1*x2 + 1", "--to", "hypergraph")
    assert code == 0 and json.loads(out) == {"n": 2, "edges": [[], [1, 2]]}


@pytest.mark.parametrize(
    "text, arity",
    [("tt:E8 arity=3", 3), ('{"n": 3, "edges": [[1, 2], [2, 3]]}', 3), ("4: 1-2, 2-3", 4)],
)
def test_cli_arity_must_match_the_input(capsys, text, arity):
    code, out, err = run_cli(capsys, "convert", text, "--arity", str(arity + 2), "--to", "table")
    assert (code, out) == (2, "")
    assert err == f"error: declared arity {arity + 2} differs from the input's arity {arity}\n"
    code, out, _ = run_cli(capsys, "convert", text, "--to", "table")
    assert code == 0 and out.endswith(f" arity={arity}\n")
    assert run_cli(capsys, "convert", text, "--arity", str(arity), "--to", "table")[:2] == (code, out)


def test_cli_convert_structured(capsys):
    for to, text in (
        ("polynomial", "x1*x2 + x1*x3 + x2*x3"),
        ("table", "tt:E8 arity=3"),
        ("hypergraph", '{"edges": [[1, 2], [1, 3], [2, 3]], "n": 3}'),
    ):
        code, out, _ = run_cli(capsys, "convert", "tt:E8 arity=3", "--to", to, "--format", "structured")
        assert code == 0 and json.loads(out) == {to: text}


def test_cli_reads_a_graph_line_and_a_truth_table_where_it_takes_any_input(capsys):
    # a graph line is a polynomial to classify, a truth table a hypergraph to iso
    code, out, _ = run_cli(capsys, "classify", "3: 1-2, 2-3")
    assert (code, out) == run_cli(capsys, "classify", "x1*x2 + x2*x3")[:2]
    assert code == 0 and "unique lower cover: x1*x2 + x1" in out
    code, out, _ = run_cli(capsys, "iso", "tt:E8 arity=3", "x1*x2 + x2*x3 + x1*x3")
    assert (code, out) == (0, "isomorphic: 1->1 2->2 3->3\n")


def test_cli_iso_reduce_support(capsys):
    assert run_cli(capsys, "iso", "3: 1-3", "4: 2-4")[:2] == (0, "not isomorphic\n")
    code, out, _ = run_cli(capsys, "iso", "3: 1-3", "4: 2-4", "--reduce-support")
    assert (code, out) == (0, "isomorphic: 1->1 2->2\n")
    code, out, _ = run_cli(capsys, "iso", "3: 1-3", "4: 2-4", "--reduce-support", "--format", "structured")
    assert code == 0 and json.loads(out) == {"isomorphic": True, "mapping": {"1": 1, "2": 2}}


def test_cli_gap(capsys):
    code, out, _ = run_cli(capsys, "gap", "x1 + x2 + x3 + 1")
    assert code == 0 and out.strip() == "gap: 2; family: LinearSum (c=1)"
    code, out, _ = run_cli(capsys, "gap", "x1*x2 + x1 + x2")
    assert code == 0 and out.strip() == "gap: 1; family: GapOne"


def test_cli_graph_classify(capsys):
    code, out, _ = run_cli(capsys, "graph-classify", "5: 1-2, 2-3, 3-4, 4-5, 5-1")
    assert code == 0 and out.strip() == "C5"
    code, out, _ = run_cli(capsys, "graph-classify", "4: 1-2, 2-3, 3-4")
    assert code == 0 and out.strip() == "NotIrreducible"


def test_cli_iso(capsys):
    code, out, _ = run_cli(capsys, "iso", "3: 1-2, 2-3", "3: 2-1, 1-3")
    assert code == 0 and out.startswith("isomorphic:")
    code, out, _ = run_cli(capsys, "iso", "3: 1-2", "3: 1-2, 2-3")
    assert code == 0 and out.strip() == "not isomorphic"


def test_cli_iso_on_zero_vertices_prints_no_trailing_space(capsys):
    assert run_cli(capsys, "iso", "0:", "0:") == (0, "isomorphic:\n", "")
    code, out, err = run_cli(capsys, "iso", "0:", "0:", "--format", "structured")
    assert (code, json.loads(out), err) == (0, {"isomorphic": True, "mapping": {}}, "")


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ("x1*x2*x3 + x1*x4 + x2 + 1", "x2*x3*x4 + x1*x4 + x3 + 1", "isomorphic: 1->4 2->3 3->2 4->1"),
        ("x1*x2 + x2*x3 + x3*x4 + x4*x1", "x1*x3 + x3*x2 + x2*x4 + x4*x1", "isomorphic: 1->1 2->3 3->2 4->4"),
        ("5: 1-2, 2-3, 3-1, 4-5", "5: 5-4, 4-3, 3-5, 1-2", "isomorphic: 1->3 2->4 3->5 4->1 5->2"),
    ],
)
def test_cli_iso_first_bijection_is_pinned(capsys, first, second, expected):
    code, out, _ = run_cli(capsys, "iso", first, second)
    assert code == 0 and out == expected + "\n"


def test_cli_steiner_check(capsys):
    code, out, _ = run_cli(capsys, "steiner-check", "fano")
    assert code == 0
    assert "2-set-transitive=True aut-order=168" in out
    code, out, _ = run_cli(capsys, "steiner-check", "3: 1-2")
    assert code == 1 and "not a Steiner system" in out


def test_cli_steiner_check_takes_one_input_source(capsys, tmp_path):
    path = tmp_path / "k3.json"
    path.write_text('{"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}')
    code, out, err = run_cli(capsys, "steiner-check", "fano", "--file", str(path))
    assert (code, out) == (2, "") and "give exactly one input source" in err
    code, out, _ = run_cli(capsys, "steiner-check", "--file", str(path))
    assert code == 0 and out.startswith(f"{path}: 2-(3,2,1)")


@pytest.mark.parametrize("n, order", [(10, 3_628_800), (13, 6_227_020_800)])
def test_cli_steiner_check_single_block(capsys, n, order):
    # a single block has n! automorphisms, so the summary must not visit them one by one
    doc = json.dumps({"n": n, "edges": [list(range(1, n + 1))]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "steiner-check", doc)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and "Traceback" not in out + err
    assert f"2-set-transitive=True aut-order={order}" in out


def test_cli_classify_structured(capsys):
    code, out, _ = run_cli(capsys, "classify", "x1*x2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["irreducible"] is True and doc["gap"] == 1


def test_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x1*x2 + x1"))
    code, out, _ = run_cli(capsys, "classify", "-")
    assert code == 0 and "gap family: XYplusX" in out


def test_cli_refuses_an_input_over_the_bound(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr(cli, "_INPUT_MAX_BYTES", 10)
    path = tmp_path / "p.txt"
    for text, ok in (("x1*x2 + x1", True), ("x1*x2 + x1 ", False)):
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        for argv in (("classify", "--file", str(path)), ("classify", "-")):
            code, out, err = run_cli(capsys, *argv)
            if ok:
                assert code == 0 and "gap family: XYplusX" in out
            else:
                assert code == 2 and err == "error: input is longer than 10 characters\n"
    # a read past the bound would never end
    code, _, err = run_cli(capsys, "classify", "--file", "/dev/zero")
    assert code == 2 and err == "error: input is longer than 10 characters\n"


def test_cli_input_errors(capsys):
    code, _, err = run_cli(capsys, "classify", "x0 + x1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "gap", "x1")
    assert code == 2
    # vertex indices are checked before any mask is built from them
    big = "1" * 31
    huge = "9" * 5000
    for argv, message in (
        (("graph-classify", "3: 1-5"), "edge names vertex 5, beyond 3"),
        (("graph-classify", "3: 1-100000000"), "must be in 1..63, got 100000000"),
        (("graph-classify", f"3: 1-{big}"), "must be in 1..63"),
        (("iso", f'{{"n": 3, "edges": [[{big}]]}}', "3: 1-2"), "must be in 1..63"),
        (("graph-classify", "3: 1-0"), "must be in 1..63, got 0"),
        (("graph-classify", "3: 1-2, 1-0"), "vertex index must be in 1..63, got 0 (at position 8)"),
        (("graph-classify", "3: 1-2, 1-5"), "edge names vertex 5, beyond 3 (at position 8)"),
        (("graph-classify", "3: 1-2, 2-2"), "exactly two distinct vertices (at position 8)"),
        # digit strings past Python's int-string limit never reach int()
        (("classify", f"tt:F arity={huge}"), "arity must be in 1..20"),
        (("graph-classify", f"{huge}: 1-2"), "vertex count must be in 0..63"),
        (("graph-classify", f"3: 1-{huge}"), "must be in 1..63"),
        (("iso", f'{{"n": 3, "edges": [[{huge}]]}}', "3: 1-2"), "a number is too long"),
        # a rejected index is echoed in bounded form
        (("iso", f'{{"n": 3, "edges": [[{"1" * 4000}]]}}', "3: 1-2"), "must be in 1..63"),
        (("iso", '{"n": 3, "edges": ' + "[" * 100000, "3: 1-2"), "nested too deeply"),
        # a set would merge a repeat, where a polynomial's sum cancels it
        (("graph-classify", "3: 1-2, 1-2"), "repeated edge 1-2 (at position 8)"),
        (("graph-classify", '{"n": 3, "edges": [[1, 2], [2, 1]]}'), "edge 2 repeats an earlier edge (at position 0)"),
        (("convert", '{"n": 2, "edges": [[1, 2], [1, 2]]}', "--to", "polynomial"), "edge 2 repeats an earlier"),
        (("convert", '{"n": 2, "edges": [[1, 1]]}', "--to", "polynomial"), "edge 1 repeats a vertex (at position 0)"),
        # a JSON boolean is no integer, and a float is no vertex
        (("convert", '{"n": true, "edges": [[1]]}', "--to", "polynomial"), "'n' must be an integer"),
        (("convert", '{"n": 2, "edges": [[true, 2]]}', "--to", "polynomial"), "edge 1 must be an array of integer"),
        (("convert", '{"n": 2, "edges": [[1.0, 2]]}', "--to", "polynomial"), "edge 1 must be an array of integer"),
        (("convert", '{"n": 2, "edges": [[], 2]}', "--to", "polynomial"), "edge 2 must be an array of integer"),
        (("convert", '{"n": 2, "edges": {}}', "--to", "polynomial"), "'edges' must be an array"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err
        assert len(err) < 200 and "Traceback" not in err
    # every integer flag refuses a long digit string with a bounded echo;
    # the usage text argparse prints first takes most of the 1,000 bytes
    for argv, message in (
        (("verify", "gap", "--max-arity", huge), "argument --max-arity: expected at most 20 digits"),
        (("classify", "x1", "--arity", "9" * 4000), "argument --arity: expected at most 20 digits"),
        (("verify", "keylemma", "--samples", huge), "argument --samples"),
        (("verify", "graphs", "--seed", "-" + huge), "argument --seed"),
        (("verify", "gap", "--workers", "x" * 3000), "argument --workers"),
        (("poset", "--max-ess", huge), "argument --max-ess"),
        (("verify", "gap", "--max-arity", "abc"), "invalid int value: 'abc'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err
        assert len(err) < 1000 and "Traceback" not in err


def test_cli_input_checks_print_one_line(capsys, tmp_path):
    for argv, message in (
        (("convert", "x21", "--to", "table"), "truth tables are capped at arity 20, got 21"),
        (("convert", "x63", "--to", "table"), "truth tables are capped at arity 20, got 63"),
        (("verify", "poset", "--cache", str(tmp_path)), f"cache path {str(tmp_path)!r} is not a regular file"),
        (("iso", '{"n": 64, "edges": []}', "1:"), "vertex count must be in 0..63, got 64 (at position 0)"),
        # a bound reads the same whichever input form carries the value
        (("iso", "064: 1-2", "1:"), "vertex count must be in 0..63, got 64 (at position 0)"),
        (("classify", "tt:F arity=21"), "arity must be in 1..20, got 21 (at position 11)"),
        (("classify", "tt:F", "--arity", "21"), "arity must be in 1..20, got 21"),
        (("classify", "x1*x064"), "variable index must be in 1..63, got 64 (at position 3)"),
        (("classify", "x1 + x0"), "variable index must be in 1..63, got 0 (at position 5)"),
        (("classify", '{"n": 0, "edges": [[]]}'), "a polynomial needs at least one variable"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    # singleton blocks are no 2-design: a verdict on stdout, not an error
    code, out, err = run_cli(capsys, "steiner-check", '{"n": 3, "edges": [[1], [2], [3]]}')
    assert (code, out, err) == (1, "not a Steiner system (no 2-design)\n", "")


def test_classify_at_the_table_arity_cap_refuses_quickly(capsys):
    # 2^20 table bits, about 524,000 monomials: decoded in linear time, then
    # refused at the canonical cap
    rng = random.Random(20)
    text = f"tt:{rng.getrandbits(1 << 20):0262144X} arity=20"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", text)
    assert time.perf_counter() - start < 15
    assert code == 2 and out == "" and "capped at 9 essential variables" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cli_convert_at_the_table_arity_cap_is_fast(capsys, tmp_path):
    # the two Moebius transforms of a 2^20-bit table run in linear time
    rng = random.Random(21)
    text = f"tt:{rng.getrandbits(1 << 20):0262144X} arity=20"
    path = tmp_path / "t20.txt"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "convert", "--file", str(path), "--to", "table")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and out == text + "\n"


def test_cli_refuses_declared_arity_zero(capsys):
    # the zero polynomial takes the declared arity like any other
    for text in ("0", "1"):
        code, out, err = run_cli(capsys, "classify", text, "--arity", "0")
        assert code == 2 and out == "" and "arity must be in 1..63, got 0" in err
        assert "Traceback" not in err


def test_cli_truth_table_digits_checked_before_int(capsys):
    # both tt: forms check the digits against the arity before int() reads them
    for argv, message in (
        (("classify", "tt:xyz", "--arity", "2"), "expected hex digits after 'tt:', got 'xyz'"),
        (("classify", "tt:" + "g" * 5000, "--arity", "2"), "(5000 characters)"),
        (("classify", "tt:0x1F", "--arity", "3"), "expected hex digits after 'tt:'"),
        (("classify", "tt:1F", "--arity", "2"), "2 significant hex digits exceed the 4-bit table"),
        (("classify", "tt:" + "F" * 5000, "--arity", "3"), "5000 significant hex digits"),
        (("classify", "tt:" + "F" * 5000 + " arity=3"), "exceed the 8-bit table"),
        (("classify", "tt:F", "--arity", "0"), "arity must be in 1..20, got 0"),
        (("classify", "tt:F", "--arity", "9" * 20), "arity must be in 1..20"),
        (("classify", "tt:F arity=0"), "arity must be in 1..20, got 0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err, err
        assert len(err.encode()) < 200 and "Traceback" not in err
    with pytest.raises(ParseError):
        parse_truth_table("tt:xyz", arity=2)
    for argv in (("tt:E8 arity=3",), ("tt:00e8", "--arity", "3")):
        code, out, _ = run_cli(capsys, "convert", *argv, "--to", "table")
        assert (code, out) == (0, "tt:E8 arity=3\n")


def test_cli_poset_export(capsys, tmp_path):
    out_path = tmp_path / "classes.dot"
    code, out, _ = run_cli(capsys, "poset", "--max-ess", "1", "--out", str(out_path))
    assert code == 0 and "4 classes written" in out
    assert out_path.read_text().startswith("digraph classes {")


def test_cli_poset_writes_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "poset", "--max-ess", "1")
    assert (code, out) == (0, 'digraph classes {\n  "0";\n  "1";\n  "x1 + 1";\n  "x1";\n}\n')


def test_cli_verify_gap_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "gap", "--max-arity", "3")
    assert code == 0
    assert out.splitlines()[0] == "256 tables checked"
    assert out.strip().endswith("ok")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "sweep, sample_line",
    [
        ("keylemma", "n=3: 0 sampled hypergraphs checked, irreducible: 0"),
        ("correspondence", "0 sampled pairs checked (4..5 vertices, seed 271828)"),
    ],
)
def test_cli_verify_zero_samples(capsys, monkeypatch, sweep, sample_line, workers):
    # at two workers the empty sampled phase runs one empty shard in the pool;
    # resolve_workers clamps the count to the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", sweep, "--max-vertices", "2", "--samples", "0", "--workers", workers)
    assert code == 0
    assert sample_line in out.splitlines()
    assert out.strip().endswith("ok")


def test_verify_deterministic_across_workers():
    one = verify.gap_sweep(3, workers=1)
    two = verify.gap_sweep(3, workers=2)
    assert one.lines == two.lines and one.data == two.data
    g1 = verify.graph_sweep(4, workers=1)
    g2 = verify.graph_sweep(4, workers=2)
    assert g1.lines == g2.lines
    # the two-phase sweeps run both phases in one pool
    for sweep, args in (
        (verify.contraction_criterion_sweep, (3, 200)),
        (verify.correspondence_sweep, (2, 200)),
    ):
        one, two = sweep(*args, workers=1), sweep(*args, workers=2)
        assert (one.lines, one.data, one.failures) == (two.lines, two.data, two.failures)


def test_poset_structured_export_parses_back(capsys, tmp_path):
    out_path = tmp_path / "classes.tsv"
    code, out, _ = run_cli(
        capsys,
        "poset",
        "--max-ess",
        "2",
        "--export-format",
        "structured",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        parse_polynomial(line.split("\t")[0])


def test_cli_requires_one_source(capsys, monkeypatch, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("x1*x2")
    code, _, err = run_cli(capsys, "classify", "x1", "--file", str(path))
    assert code == 2 and "one input source" in err
    # '-' and --file are two sources, refused before stdin is read
    stdin = io.StringIO("x1")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "classify", "-", "--file", str(path))
    assert (code, out, stdin.tell()) == (2, "", 0)
    assert err == "error: give exactly one input source (inline, --file, or '-')\n"
    code, _, err = run_cli(capsys, "classify")
    assert code == 2
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == 0 and "irreducible: True" in out
    # an empty inline input is a given source: parsed, not counted as missing
    for text in ("", " "):
        assert run_cli(capsys, "classify", text) == (2, "", "error: empty polynomial (at position 0)\n")
    code, out, err = run_cli(capsys, "classify", "", "--file", str(path))
    assert (code, out) == (2, "") and err == "error: give exactly one input source (inline, --file, or '-')\n"


# ---------------------------------------------------------------------------
# sweep arguments, worker counts and the sweep-flag table


def test_resolve_workers_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    assert verify.resolve_workers(100_000) == 3
    assert verify.resolve_workers(2) == 2
    assert verify.resolve_workers(None) == 1
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert verify.resolve_workers(100_000) == 1
    assert verify.resolve_workers(None) == 1
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {value}$"):
            verify.resolve_workers(value)


def test_a_sweep_reads_no_worker_count_from_the_environment():
    # a variable that once named the worker count: a malformed value made
    # the library call raise, a number made it fork a pool nobody asked for
    code = (
        "import sys; from boolminor import verify; "
        "print(verify.contraction_criterion_sweep(2, 5).lines); "
        "print('concurrent.futures.process' in sys.modules)"
    )
    lines = [
        "n=1: 4 hypergraphs checked, irreducible: 0",
        "n=2: 16 hypergraphs checked, irreducible: 10",
        "n=3: 5 sampled hypergraphs checked, irreducible: 2",
    ]
    for value in ("abc", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), BOOLMINOR_WORKERS=value)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [repr(lines), "False"], value


def test_cli_refuses_workers_below_one_naming_the_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "gap", "--max-arity", "1", "--workers", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --workers must be >= 1, got 0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("correspondence", "--samples", "-7", "--max-vertices", "1"), "samples must be >= 0"),
        (("keylemma", "--samples", "-1", "--max-vertices", "1"), "samples must be >= 0"),
        (("graphs", "--max-vertices", "0"), "max_vertices must be in 1..7"),
        (("correspondence", "--max-vertices", "0"), "max_vertices must be in 1..3"),
        (("gap", "--max-arity", "0"), "max_arity must be in 1..4"),
        (("gap", "--max-arity", "5"), "max_arity must be in 1..4"),
        (("keylemma", "--max-vertices", "5"), "max_vertices must be in 1..4"),
        (("correspondence", "--max-vertices", "4"), "max_vertices must be in 1..3"),
        (("graphs", "--max-vertices", "8"), "max_vertices must be in 1..7"),
        (("poset", "--max-ess", "0"), "max_ess must be in 1..4"),
    ],
)
def test_cli_verify_rejects_out_of_range(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    # the sweep's message names its parameter; the CLI names the flag typed
    name, _, bound = message.partition(" ")
    flag = "--" + name.replace("_", "-")
    assert flag in argv
    assert err.startswith(f"error: {flag} {bound}, got ")


@pytest.mark.parametrize("value", ["-1", "5", "9"])
def test_cli_poset_rejects_out_of_range(capsys, value):
    # both verbs name the flag typed, each with its own bound
    code, out, err = run_cli(capsys, "poset", f"--max-ess={value}")
    assert code == 2 and out == ""
    assert err == f"error: --max-ess must be in 0..4, got {value}\n"
    if value != "-1":
        assert run_cli(capsys, "verify", "poset", "--max-ess", value) == (
            2, "", f"error: --max-ess must be in 1..4, got {value}\n"
        )


@pytest.mark.parametrize("verb", ["classify", "irreducible"])
def test_cli_canonical_cap_fails_fast(capsys, verb):
    cycle12 = " + ".join(f"x{i}*x{i % 12 + 1}" for i in range(1, 13))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, verb, cycle12)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "capped at 9 essential variables, got 12" in err


def test_cli_gap_on_a_wide_sparse_polynomial_stops_early(capsys, tmp_path):
    # 20,000 monomials of degree 1-6 on x1..x63, about 370,000 characters:
    # walking all 1,953 support pairs took 25 s, the first pair settles it
    rng = random.Random(24)
    terms = set()
    while len(terms) < 20_000:
        terms.add(tuple(sorted(rng.sample(range(1, 64), rng.randint(1, 6)))))
    path = tmp_path / "wide.txt"
    path.write_text(" + ".join("*".join(f"x{v}" for v in t) for t in sorted(terms)))
    with deadline(5):
        code, out, err = run_cli(capsys, "gap", "--file", str(path))
    assert (code, out, err) == (0, "gap: 1; family: GapOne\n", "")


# one valid command line per verb, and one per sweep under ``verify``
VERB_ARGV = {
    "convert": ("convert", "x1", "--to", "table"),
    "classify": ("classify", "x1*x2"),
    "gap": ("gap", "x1*x2"),
    "irreducible": ("irreducible", "x1*x2"),
    "iso": ("iso", "3: 1-2", "3: 2-3"),
    "graph-classify": ("graph-classify", "3: 1-2"),
    "steiner-check": ("steiner-check", "fano"),
    "poset": ("poset", "--max-ess", "1"),
    **{f"verify {name}": ("verify", name) for name in verify.ALL_SWEEPS},
}


def sub_parsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_parsed_flag_is_read_by_its_verb(capsys, monkeypatch):
    parser = cli.build_parser()
    verbs = sub_parsers(parser)
    sweep_parsers = sub_parsers(verbs["verify"])
    # each sweep's flags are its parameters, absent unless given, so the
    # sweep's own default applies
    for name, sweep in verify.ALL_SWEEPS.items():
        params = set(inspect.signature(sweep).parameters)
        dests = {a.dest for a in sweep_parsers[name]._actions if a.option_strings and a.dest != "help"}
        assert dests == params | {"format"}, name
        args = parser.parse_args(["verify", name])
        assert all(getattr(args, param) is None for param in params), name
        monkeypatch.setitem(verify.ALL_SWEEPS, name, lambda _name=name, **kwargs: verify.VerifyResult(_name))
    assert {argv[0] for argv in VERB_ARGV.values()} == set(verbs)
    assert {argv[1] for argv in VERB_ARGV.values() if argv[0] == "verify"} == set(sweep_parsers)
    for label, argv in VERB_ARGV.items():
        reads = set()

        class Logged(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = parser.parse_args(argv, namespace=Logged())
        dests = set(vars(args)) - {"verb", "fn"}  # the dispatch
        reads.clear()
        args.fn(args)
        capsys.readouterr()
        # a flag parsed and never read would be silently ignored
        assert dests <= reads, (label, dests - reads)


def test_cli_verify_passes_flags_through_a_wrapped_sweep(capsys, monkeypatch):
    seen = []

    def wrapped(*args, **kwargs):
        seen.append(kwargs)
        return verify.VerifyResult("gap")

    monkeypatch.setitem(verify.ALL_SWEEPS, "gap", wrapped)
    code, out, _ = run_cli(capsys, "verify", "gap", "--max-arity", "2", "--workers", "1")
    assert (code, out) == (0, "ok\n")
    # gap samples nothing, so --seed is refused before the sweep runs
    code, out, err = run_cli(capsys, "verify", "gap", "--max-arity", "2", "--seed", "5")
    assert (code, out) == (2, "") and "unrecognized arguments: --seed 5" in err
    assert seen == [{"max_arity": 2, "workers": 1}]


# the flags of every sweep, as the one shared flag list had them
SWEEP_FLAGS = ("--max-arity", "--max-vertices", "--max-ess", "--samples", "--seed", "--workers", "--cache")


def test_cli_verify_refuses_a_flag_its_sweep_does_not_take(capsys):
    refused = 0
    for name, sweep in verify.ALL_SWEEPS.items():
        taken = {"--cache" if p == "cache_path" else "--" + p.replace("_", "-") for p in inspect.signature(sweep).parameters}
        for flag in SWEEP_FLAGS:
            if flag in taken:
                continue
            refused += 1
            code, out, err = run_cli(capsys, "verify", name, flag, "1")
            assert (code, out) == (2, ""), (name, flag)
            assert f"unrecognized arguments: {flag} 1" in err and "Traceback" not in err
    assert refused == 26


def test_cli_verify_keylemma_matches_library(capsys):
    code, out, _ = run_cli(capsys, "verify", "keylemma", "--max-vertices", "2", "--samples", "5")
    result = verify.contraction_criterion_sweep(2, 5)
    assert code == 0
    assert out.splitlines() == result.lines + ["ok"]
