"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
The labeled-graph sweep is shared between the two criteria that need it.
"""

import hashlib
import itertools
import json
import os
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from boolminor import bfcore, cli, designs, poset, verify
from boolminor import hypergraph as hg
from boolminor.bfcore import TruthTable, Zhegalkin
from boolminor.formats import (
    format_graph_line,
    format_hypergraph_doc,
    format_polynomial,
    format_truth_table,
    parse_graph,
    parse_hypergraph_doc,
    parse_polynomial,
    parse_truth_table,
)

WORKERS = min(8, os.cpu_count() or 1)
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def stdout_matches_reference(result, step: str) -> bool:
    """Does the sweep's text output hash to the benchmark's pinned digest
    for ``step``?  The reference file is only read."""
    text = "\n".join(result.lines + ["ok"]) + "\n"
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["stdout_sha256"][step]
    return hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def graph_result():
    t0 = time.time()
    result = verify.graph_sweep(7, workers=WORKERS)
    result.data["duration"] = time.time() - t0
    return result


def test_criterion_1_worked_examples(capsys):
    t0 = time.time()
    assert cli.main(["irreducible", "x1*x2"]) == 0
    out_and = capsys.readouterr().out.strip()
    assert cli.main(["irreducible", "x1*x2 + x1 + x2"]) == 0
    out_or = capsys.readouterr().out.strip()
    composite = "x1*x3 + x1*x4 + x1*x3*x4 + x2*x3 + x2*x4 + x2*x3*x4 + x1*x2*x3 + x1*x2*x4 + x1*x2*x3*x4"
    assert cli.main(["irreducible", composite]) == 0
    out_comp = capsys.readouterr().out.strip()
    elapsed = time.time() - t0

    ok = out_and == "irreducible; unique lower cover: x1"
    ok = ok and out_or == "irreducible; unique lower cover: x1"
    ok = ok and out_comp.startswith("not irreducible; maximal strict minors: ")
    minors = out_comp.split(": ", 1)[1].split("; ")
    ok = ok and len(minors) == 2
    p1, p2 = (parse_polynomial(m) for m in minors)
    ok = ok and not bfcore.is_equivalent(p1, p2)
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"conjunction/disjunction/composite verdicts exact ({elapsed:.2f}s)")


def test_criterion_2_gap_sweep():
    t0 = time.time()
    result = verify.gap_sweep(max_arity=4, workers=1)
    elapsed = time.time() - t0
    ok = result.ok and result.data["tables"] == 65536 and elapsed < 60.0
    ok = ok and set(result.data["gap_counts"]) <= {1, 2}
    ok = ok and stdout_matches_reference(result, "gap")
    report(
        2,
        ok,
        f"65536 tables, gap in {{1,2}}, families match gap=2 exactly,"
        f" {len(result.failures)} mismatches ({elapsed:.1f}s single worker)",
    )


def test_criterion_3_correspondence_sweep():
    t0 = time.time()
    result = verify.correspondence_sweep(
        max_vertices=3, samples=10_000, seed=verify.DEFAULT_SEED, workers=WORKERS
    )
    elapsed = time.time() - t0
    ok = result.ok and result.data["pairs"] == 276 * 276 and result.data["samples"] == 10_000
    report(
        3,
        ok,
        f"{result.data['pairs']} exhaustive + {result.data['samples']} sampled pairs,"
        f" {len(result.failures)} mismatches ({elapsed:.1f}s)",
    )


@pytest.mark.parametrize(
    "step, sweep",
    [("keylemma", verify.contraction_criterion_sweep), ("correspondence", verify.correspondence_sweep)],
)
def test_benchmark_sampled_steps_match_the_reference(step, sweep):
    # the benchmark runs these two steps at --samples 1000 --workers 1
    result = sweep(samples=1000, seed=verify.DEFAULT_SEED, workers=1)
    assert result.ok and stdout_matches_reference(result, step)


def test_criterion_4_contraction_criterion_sweep():
    t0 = time.time()
    result = verify.contraction_criterion_sweep(
        max_vertices=4, samples=10_000, seed=verify.DEFAULT_SEED, workers=WORKERS
    )
    elapsed = time.time() - t0
    per_n = result.data["per_vertex_count"]
    ok = result.ok and per_n[4]["checked"] == 65536
    ok = ok and result.data["samples"]["checked"] == 10_000
    # pinned counts: a fault that moved both sides alike still shows here
    ok = ok and [per_n[n]["irreducible"] for n in range(1, 5)] == [0, 10, 152, 1398]
    report(
        4,
        ok,
        f"65536 four-vertex hypergraphs + 10000 five-vertex samples,"
        f" criterion == direct definition, {len(result.failures)} mismatches ({elapsed:.1f}s)",
    )


def test_criterion_5_graph_sweep(graph_result):
    result = graph_result
    stats = result.data["per_vertex_count"][7]
    graph_failures = [f for f in result.failures if f["sweep"] != "property-p"]
    ok = not graph_failures
    ok = ok and stats["labeled"] == 1 << 21 and stats["classes"] == 1044
    ok = ok and result.data["duration"] < 600.0
    # the n <= 6 sweep prints the n <= 6 lines and the closing C5 line, so
    # the benchmark's graphs6 digest pins the labeled family counts here
    six = SimpleNamespace(lines=result.lines[:17] + result.lines[-1:])
    ok = ok and stdout_matches_reference(six, "graphs6")
    report(
        5,
        ok,
        f"2^21 labeled graphs on 7 vertices (1044 classes) plus all smaller,"
        f" classifier == irreducibility, {len(graph_failures)} mismatches"
        f" ({result.data['duration']:.0f}s, {WORKERS} workers)",
    )


def test_criterion_6_property_p_sweep(graph_result):
    result = graph_result
    p_failures = [f for f in result.failures if f["sweep"] == "property-p"]
    totals = {
        n: result.data["per_vertex_count"][n]["property_p"] for n in range(2, 8)
    }
    families = set()
    for counts in totals.values():
        families |= set(counts)
    ok = not p_failures and families <= {"Kn", "C4", "C5", "Path3"}
    report(
        6,
        ok,
        f"property (P) holds exactly on the four families over 2..7 vertices,"
        f" {len(p_failures)} mismatches",
    )


def test_criterion_7_steiner_catalog():
    t0 = time.time()
    result = verify.steiner_catalog_report()
    elapsed = time.time() - t0
    inst = result.data["instances"]
    fano, ag, sts = inst["fano"], inst["ag23"], inst["sts13"]
    ok = result.ok
    ok = ok and fano["irreducible"] and fano["contractions_isomorphic"] and fano["minus2_monomorphic"]
    ok = ok and fano["two_set_transitive"] and fano["aut_order"] == 168
    ok = ok and ag["irreducible"] and ag["contractions_isomorphic"] and ag["minus2_monomorphic"]
    ok = ok and ag["two_set_transitive"]
    # the sts13 flags are printed, never asserted against each other
    sts_line = [line for line in result.lines if line.startswith("sts13")]
    printed = any("minus2-monomorphic=" in line for line in result.lines) and any(
        "2-set-transitive=" in line for line in result.lines
    )
    ok = ok and printed and isinstance(sts["minus2_monomorphic"], bool)
    ok = ok and isinstance(sts["two_set_transitive"], bool) and sts_line
    ok = ok and stdout_matches_reference(result, "steiner")
    report(
        7,
        ok,
        f"fano/ag23 satisfy all three conditions (Aut fano = 168); sts13 flags:"
        f" minus2={sts['minus2_monomorphic']} 2set={sts['two_set_transitive']} ({elapsed:.1f}s)",
    )


def test_criterion_8_poset_structure():
    t0 = time.time()
    recs1 = poset.enumerate_classes(1)
    ok = len(recs1) == 4 and {r.block for r in recs1} == set(poset.Block)
    for a, b in itertools.combinations(recs1, 2):
        # the unscreened search: is_minor's screen refuses across blocks
        ok = ok and bfcore._minor_search(a.canon, b.canon) is None
        ok = ok and bfcore._minor_search(b.canon, a.canon) is None

    recs2 = poset.enumerate_classes(2)
    swap = lambda bits: (bits & 0b1001) | (((bits >> 1) & 1) << 2) | (((bits >> 2) & 1) << 1)
    independent = len({min(b, swap(b)) for b in range(16)})
    ok = ok and len(recs2) == 12 and independent == 12

    sweep = verify.poset_sweep(max_ess=4, seed=verify.DEFAULT_SEED)
    ok = ok and sweep.ok and stdout_matches_reference(sweep, "poset-cold")
    elapsed = time.time() - t0
    report(
        8,
        ok,
        f"4 classes at ess<=1 in 4 incomparable blocks; 12 classes at ess<=2"
        f" (independent orbit count 12); cover/gap law holds over"
        f" {sweep.data['classes']} classes ({elapsed:.1f}s)",
    )


def test_criterion_9_round_trips():
    t0 = time.time()
    ok = True
    for arity in (1, 2, 3, 4):
        for bits in range(1 << (1 << arity)):
            t = TruthTable(arity, bits)
            p = bfcore.zhegalkin_from_truth_table(t)
            ok = ok and bfcore.truth_table_from_zhegalkin(p) == t
            h = hg.hypergraph_of(p)
            ok = ok and hg.polynomial_of(h) == p and hg.hypergraph_of(hg.polynomial_of(h)) == h
        if not ok:
            break

    rng = random.Random(verify.DEFAULT_SEED)
    for _ in range(200):
        p = Zhegalkin(5, frozenset(rng.sample(range(32), rng.randrange(0, 20))))
        ok = ok and parse_polynomial(format_polynomial(p), arity=5) == p
        h = hg.hypergraph_of(p)
        ok = ok and parse_hypergraph_doc(format_hypergraph_doc(h)) == h
    for rec in poset.enumerate_classes(3):
        ok = ok and parse_polynomial(format_polynomial(rec.canon)) == rec.canon
    for name, h in designs.builtin_instances().items():
        ok = ok and parse_hypergraph_doc(format_hypergraph_doc(h)) == h
    for n in (2, 4, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(0, 1 << len(pairs), 7):
            from boolminor.graphs import Graph

            edges = frozenset(
                (1 << (a - 1)) | (1 << (b - 1))
                for k, (a, b) in enumerate(pairs)
                if (mask >> k) & 1
            )
            g = Graph(n, edges)
            ok = ok and parse_graph(format_graph_line(g)) == g
    for bits in range(16):
        t = TruthTable(2, bits)
        ok = ok and parse_truth_table(format_truth_table(t)) == t
    elapsed = time.time() - t0
    report(
        9,
        ok,
        f"table<->polynomial<->hypergraph inverse exhaustively at arity<=4;"
        f" parse o print identity on emitted documents ({elapsed:.1f}s)",
    )
