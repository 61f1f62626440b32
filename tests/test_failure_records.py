"""The failure records of the sharded sweeps, pinned under injected faults.

Each sweep reports a disagreement as a dict with a fixed schema, printed as
one ``FAIL`` line.  Here the checked primitives are patched to give wrong
answers on chosen inputs, in-process at ``workers=1`` so no pool starts, and
the exact records of every sweep are compared: their kinds, keys, values
and order.  The poset and Steiner records are faulted in the records and
reports the checks read.  The poset sweep's block records are compared with
those of the check it replaced, and the ``FAIL`` lines and the structured
document that ``boolminor verify`` prints of the gap records are pinned
byte for byte.
"""

import ast
import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from boolminor import bfcore, cli, designs, graphs, poset, verify
from boolminor import hypergraph as hg
from boolminor.formats import format_polynomial


def edge_sum(nb):
    """``sum(g.edges)`` read off the neighborhoods: each edge {a, b} adds
    2^a + 2^b, so vertex a contributes its degree times 2^a."""
    return sum(m.bit_count() << a for a, m in enumerate(nb))


@pytest.fixture
def faults(monkeypatch):
    """Wrong answers from the primitives the sweeps compare, on fixed inputs.

    The direct definition and the graph classifiers are faulted in their
    private bodies, over the ANF vector and over the neighborhoods, which
    the keylemma shard and the labeled loop call, and the public wrappers
    are rebound to the faulted bodies, so each route gives the same wrong
    answer once; a fault is keyed on ``sum(bits_of(vec)) == sum(f.monomials)``
    or ``edge_sum(nb) == sum(g.edges)``.
    """
    cover_of, minor = bfcore._irreducible_cover, bfcore.is_minor
    quotient, classify = hg.verify_quotient_map, graphs._classify_join_irreducible
    aux, sat = graphs.lemma_aux_check, graphs._satisfies_property_p

    def bad_cover(vec, n):
        cover = cover_of(vec, n)
        if sum(bfcore.bits_of(vec)) % 7 == 3:
            return None if cover is not None else ((), 0)
        return cover

    def bad_direct(f):
        # the vector of f as it is, dummy variables and all
        cover = bad_cover(bfcore._pack(f.monomials), f.arity)
        return None if cover is None else bfcore._class_poly(cover)

    def bad_minor(g, f):
        witness = minor(g, f)
        if (5 * sum(g.monomials) + 3 * sum(f.monomials) + g.arity + 7 * f.arity) % 53 == 3:
            return None if witness is not None else bfcore.MinorWitness(())
        return witness

    def bad_classify(nb):
        cls = classify(nb)
        if edge_sum(nb) % 15 == 2:
            if cls.irreducible:
                return graphs.JIGraphClass(graphs.JIKind.NOT_IRREDUCIBLE)
            return graphs.JIGraphClass(graphs.JIKind.COMPLETE, (2,))
        return cls

    def bad_sat(nb):
        return sat(nb) != (edge_sum(nb) % 17 == 2)

    monkeypatch.setattr(bfcore, "_irreducible_cover", bad_cover)
    monkeypatch.setattr(bfcore, "is_irreducible_direct", bad_direct)
    monkeypatch.setattr(bfcore, "is_minor", bad_minor)
    monkeypatch.setattr(hg, "verify_quotient_map", lambda m, hp, h: quotient(m, hp, h) and m.image[0] != 1)
    monkeypatch.setattr(graphs, "_classify_join_irreducible", bad_classify)
    monkeypatch.setattr(graphs, "classify_join_irreducible", lambda g: bad_classify(g._nb))
    monkeypatch.setattr(graphs, "lemma_aux_check", lambda g: aux(g) and sum(g.edges) % 11 != 6)
    monkeypatch.setattr(graphs, "_satisfies_property_p", bad_sat)
    monkeypatch.setattr(graphs, "satisfies_property_p", lambda g: bad_sat(g._nb))


def test_edge_sum_reads_the_edge_masks_off_the_neighborhoods():
    rng = random.Random(5)
    graphs_seen = [graphs.empty(1), graphs.complete(7), graphs.cycle(5)]
    for _ in range(200):
        n = rng.randint(1, 9)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.4]
        graphs_seen.append(graphs.Graph.from_pairs(n, pairs))
    for g in graphs_seen:
        assert edge_sum(g._nb) == edge_sum(list(g._nb)) == sum(g.edges)


@pytest.fixture
def gap_faults(monkeypatch):
    """A wrong family for some polynomials and a gap of 3 for one vector.

    The family is faulted in the vector body the gap shard calls, and the
    public ``classify_gap`` is rebound to the faulted body."""
    classify, gap_vec = bfcore._classify_gap_vec, bfcore._arity_gap_vec

    def bad_classify(vec, n):
        cls = classify(vec, n)
        if sum(bfcore.bits_of(vec)) % 13 == 4:
            if cls.tag is bfcore.GapTag.GAP_ONE:
                return bfcore.GapClass(bfcore.GapTag.TRIANGLE, 1)
            return bfcore.GapClass(bfcore.GapTag.GAP_ONE)
        return cls

    monkeypatch.setattr(bfcore, "_classify_gap_vec", bad_classify)
    monkeypatch.setattr(bfcore, "classify_gap", lambda f: bad_classify(bfcore._pack(f.monomials), f.arity))
    monkeypatch.setattr(bfcore, "_arity_gap_vec", lambda vec, n: 3 if vec % 29 == 7 else gap_vec(vec, n))


def test_gap_failure_records(gap_faults):
    result = verify.gap_sweep(2, workers=1)
    assert result.failures == EXPECTED_GAP
    assert result.data["gap_counts"] == {1: 4, 2: 5, 3: 1}


_GAP_RECORDS = (
    '{"family": "GapOne", "gap": 2, "polynomial": "x1*x2 + x1", "sweep": "gap", "table": "tt:2 arity=2"}',
    '{"family": "LinearSum", "gap": 3, "polynomial": "x1 + x2 + 1", "sweep": "gap", "table": "tt:9 arity=2"}',
    '{"family": "GapOne", "gap": 2, "polynomial": "x1*x2 + x1 + 1", "sweep": "gap", "table": "tt:D arity=2"}',
)


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "text",
            "16 tables checked\n"
            "skipped (fewer than two essential variables): 6\n"
            "gap counts: 1->4 2->5 3->1\n"
            "family counts: GapOne=6 LinearSum=2 XYplusX=2\n"
            + "".join(f"FAIL {record}\n" for record in _GAP_RECORDS)
            + "FAILED\n",
        ),
        (
            "structured",
            '{"data": {"family_counts": {"GapOne": 6, "LinearSum": 2, "XYplusX": 2},'
            ' "gap_counts": {"1": 4, "2": 5, "3": 1}, "low_ess": 6, "tables": 16},'
            f' "failures": [{", ".join(_GAP_RECORDS)}], "ok": false, "sweep": "gap"}}\n',
        ),
    ],
)
def test_cli_prints_the_gap_failure_records(gap_faults, capsys, fmt, expected):
    assert cli.main(["verify", "gap", "--max-arity", "2", "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


def test_gap_sweep_output_is_worker_invariant():
    result = verify.gap_sweep(4, workers=2)
    text = "\n".join(result.lines + ["ok"]) + "\n"
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["stdout_sha256"]["gap"]
    assert not result.failures
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def _doc(n, *edges):
    edge_list = ", ".join("[" + ", ".join(map(str, e)) + "]" for e in edges)
    return f'{{"edges": [{edge_list}], "n": {n}}}'


def test_keylemma_failure_records(faults):
    result = verify.contraction_criterion_sweep(2, 5, workers=1)
    assert result.failures == EXPECTED_KEYLEMMA


def test_correspondence_failure_records(faults):
    failures = verify.correspondence_sweep(1, 3, workers=1).failures
    failures += verify.correspondence_sweep(2, 3, workers=1).failures
    assert failures == EXPECTED_CORRESPONDENCE


def test_graph_failure_records(faults):
    result = verify.graph_sweep(4, workers=1)
    assert result.failures == EXPECTED_GRAPHS
    assert result.data["graph_mismatches"] == 12
    assert result.data["property_p_mismatches"] == 4
    assert result.lines[-1] == "C5-quotient blow-ups on <= 8 vertices: 2 irreducible"


def test_poset_block_failure_records(monkeypatch):
    # a block rule that is wrong for three monomials with the constant among
    # them, which identifications reach and leave; the records are the ones
    # the check gave when it identified each pair on monomial sets
    block = poset._block
    monkeypatch.setattr(poset, "_block", lambda count, constant: block(count + (count == 3 and constant), constant))
    result = verify.poset_sweep(3)
    expected = [
        {
            "sweep": "poset-block",
            "class": format_polynomial(r.canon),
            "identified": format_polynomial(child),
        }
        for r in poset.enumerate_classes(3)
        for i, j in itertools.combinations(sorted(bfcore.essential_variables(r.canon)), 2)
        if poset.block_of(child := bfcore.identify(r.canon, i, j)) is not r.block
    ]
    assert len(expected) >= 10
    assert [f for f in result.failures if f["sweep"] == "poset-block"] == expected


def test_poset_failure_records(monkeypatch):
    # the class "1" is left out, so level 0 lacks a block and two covers
    # fall outside the universe; one gap and one cover list are wrong
    enumerate_classes = poset.enumerate_classes

    def bad_enumerate(max_ess, cache_path=None):
        records = []
        for r in enumerate_classes(max_ess, cache_path=cache_path):
            text = format_polynomial(r.canon)
            if text == "x1*x2":
                r = dataclasses.replace(r, gap=2)
            elif text == "x1*x2 + x1 + x2":
                r = dataclasses.replace(r, lower_covers=())
            if text != "1":
                records.append(r)
        return records

    monkeypatch.setattr(poset, "enumerate_classes", bad_enumerate)
    assert verify.poset_sweep(2).failures == [
        {"sweep": "poset", "detail": "level 0 must be the four one-per-block classes", "level0": ["0", "x1 + 1", "x1"]},
        {"sweep": "poset-cover", "class": "x1 + x2 + 1", "detail": "cover outside the enumerated universe"},
        {"sweep": "poset-cover", "class": "x1*x2 + x1 + 1", "detail": "cover outside the enumerated universe"},
        {
            "sweep": "poset-irreducible",
            "class": "x1*x2 + x1 + x2",
            "unique_cover": False,
            "contraction_criterion": True,
        },
        {"sweep": "poset-gap-law", "class": "x1*x2", "cover": "x1", "ess": 2, "cover_ess": 1, "gap": 2},
    ]


def test_poset_blocks_incomparable_failure_records(monkeypatch):
    # a projection and a negated projection are made comparable in the
    # unscreened search the cross-block check asks; the enumeration compares
    # classes of one block only, so it is untouched
    clean = verify.poset_sweep(2)
    minor, pair = bfcore._minor_search, {"x1", "x1*x2 + 1"}

    def bad_minor(g, f):
        if {format_polynomial(g), format_polynomial(f)} == pair:
            return bfcore.MinorWitness(())
        return minor(g, f)

    monkeypatch.setattr(bfcore, "_minor_search", bad_minor)
    result = verify.poset_sweep(2)
    assert result.lines == clean.lines
    assert result.failures == [
        {"sweep": "poset-blocks-incomparable", "first": "x1", "second": "x1*x2 + 1"},
        {"sweep": "poset-blocks-incomparable", "first": "x1*x2 + 1", "second": "x1"},
    ]


def test_every_failure_kind_is_pinned_here():
    # each "sweep" literal of a record, and each kind the correspondence
    # shard picks, must occur in this file, so no kind ships unpinned
    kinds = set()
    for node in ast.walk(ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Dict):
            kinds.update(
                v.value for k, v in zip(node.keys, node.values)
                if isinstance(k, ast.Constant) and k.value == "sweep" and isinstance(v, ast.Constant)
            )
        elif isinstance(node, ast.FunctionDef) and node.name == "_correspondence_shard":
            kinds.update(
                a.value.value for a in ast.walk(node)
                if isinstance(a, ast.Assign) and isinstance(a.value, ast.Constant)
                and [getattr(t, "id", None) for t in a.targets] == ["kind"] and a.value.value
            )
    assert {"gap", "correspondence", "correspondence-public-check"} <= kinds
    here = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    literals = {c.value for c in ast.walk(here) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    assert sorted(kinds - literals) == []


def test_steiner_failure_records(monkeypatch):
    # K4 is 2-set transitive, so its faulted contractions give both kinds
    report = designs.steiner_report
    faults = {"K4": {"contractions_isomorphic": False}, "fano": {"minus2_monomorphic": False}}
    monkeypatch.setattr(
        designs, "steiner_report", lambda h, name: dataclasses.replace(report(h, name), **faults.get(name, {}))
    )
    assert verify.steiner_catalog_report().failures == [
        {
            "sweep": "steiner",
            "instance": "K4",
            "irreducible": True,
            "contractions_isomorphic": False,
            "minus2_monomorphic": True,
        },
        {"sweep": "steiner-2set", "instance": "K4", "detail": "2-set transitivity must force isomorphic contractions"},
        {
            "sweep": "steiner",
            "instance": "fano",
            "irreducible": True,
            "contractions_isomorphic": True,
            "minus2_monomorphic": False,
        },
    ]


def test_graph_spot_and_structure_failure_records(monkeypatch):
    # the oracle flips on the labeled graph 4: 3-4 alone, which no orbit
    # has as its representative; one representative fails its template and
    # has a quotient that is neither complete nor C5
    by_contr, template, decompose = hg.is_irreducible_by_contractions, graphs.matches_template, graphs.ai_decomposition

    def bad_decompose(g):
        decomp = decompose(g)
        return dataclasses.replace(decomp, quotient=graphs.path(3)) if sum(g.edges) % 7 == 2 else decomp

    monkeypatch.setattr(
        hg, "is_irreducible_by_contractions", lambda h: by_contr(h) != ((h.vertex_count, h.edges) == (4, {0b1100}))
    )
    monkeypatch.setattr(graphs, "matches_template", lambda g, cls: template(g, cls) and sum(g.edges) % 7 != 2)
    monkeypatch.setattr(graphs, "ai_decomposition", bad_decompose)
    result = verify.graph_sweep(4, workers=1)
    assert result.failures == [
        {"sweep": "graphs-probe", "n": 4, "rep": 30, "probe": "classification does not match its template graph"},
        {"sweep": "graphs-probe", "n": 4, "rep": 30, "probe": "irreducible connected graph with a bad ai quotient"},
        # at n <= 4 the spot samples are every mask, each drawn once
        {"sweep": "graphs-spot", "graph": "4: 3-4", "orbit_verdict": True},
    ]
    assert (result.data["graph_mismatches"], result.data["property_p_mismatches"]) == (3, 0)


def _keylemma(doc, by_contr, direct):
    return {"sweep": "keylemma", "hypergraph": doc, "contraction_criterion": by_contr, "direct_definition": direct}


def _corr(kind, larger, smaller, found, minor):
    return {"sweep": kind, "larger": larger, "smaller": smaller, "quotient_map_exists": found, "is_minor": minor}


def _oracle(n, rep):
    return {"sweep": "graphs-oracle", "n": n, "rep": rep, "contraction_criterion": True, "direct_definition": False}


def _gap(table, polynomial, gap, family):
    return {"sweep": "gap", "table": table, "polynomial": polynomial, "gap": gap, "family": family}


EXPECTED_GAP = [
    _gap("tt:2 arity=2", "x1*x2 + x1", 2, "GapOne"),
    _gap("tt:9 arity=2", "x1 + x2 + 1", 3, "LinearSum"),
    _gap("tt:D arity=2", "x1*x2 + x1 + 1", 2, "GapOne"),
]

EXPECTED_KEYLEMMA = [
    _keylemma(_doc(2, [1], [2]), True, False),
    _keylemma(_doc(2, [], [1], [2]), True, False),
    _keylemma(_doc(2, [1, 2]), True, False),
    _keylemma(_doc(2, [], [1, 2]), True, False),
    _keylemma(_doc(3, [], [1], [3], [1, 3], [1, 2, 3]), False, True),
]

_SAMPLE_0 = _corr(
    "correspondence-public-check",
    _doc(4, [1], [2], [4], [2, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]),
    _doc(4, [4]),
    True,
    True,
)
EXPECTED_CORRESPONDENCE = [
    _SAMPLE_0,
    _corr("correspondence", _doc(2, [2], [1, 2]), _doc(2, [2], [1, 2]), True, False),
    _corr("correspondence", _doc(2, [2], [1, 2]), _doc(2, [], [2], [1, 2]), False, True),
    _corr("correspondence", _doc(2, [], [2], [1, 2]), _doc(2, [2], [1, 2]), False, True),
    _corr("correspondence", _doc(2, [], [2], [1, 2]), _doc(2, [], [2], [1, 2]), True, False),
    _SAMPLE_0,
]

EXPECTED_GRAPHS = [
    _oracle(2, 1),
    _oracle(3, 1),
    _oracle(4, 1),
    # one representative, every kind of its records, in this order
    _oracle(4, 7),
    {"sweep": "graphs-probe", "n": 4, "rep": 7, "probe": "edge-contraction probe failed"},
    {"sweep": "graphs-probe", "n": 4, "rep": 7, "probe": "non-prime connected case disagrees with its families"},
    _oracle(4, 63),
    {"sweep": "graphs", "graph": "4: 1-2, 1-3, 1-4", "classified": "NotIrreducible", "irreducible_oracle": True},
    {"sweep": "graphs", "graph": "4: 1-3, 3-4", "classified": "NotIrreducible", "irreducible_oracle": True},
    {"sweep": "graphs", "graph": "4: 1-3, 1-4, 2-3, 3-4", "classified": "Complete(2)", "irreducible_oracle": False},
    {"sweep": "c5-blowup", "graph": "8: 1-2, 1-8, 2-3, 3-4, 3-5, 3-6, 3-7, 4-8, 5-8, 6-8, 7-8", "sizes": [1, 1, 1, 4, 1]},
    {"sweep": "c5-blowup", "graph": "8: 1-2, 1-3, 1-4, 1-7, 1-8, 2-5, 3-5, 4-5, 5-6, 6-7, 6-8", "sizes": [1, 3, 1, 1, 2]},
    {"sweep": "property-p", "graph": "4: 1-4, 2-4", "satisfies": True, "family": None},
    {"sweep": "property-p", "graph": "4: 1-2, 2-3, 2-4", "satisfies": True, "family": None},
    {"sweep": "property-p", "graph": "4: 1-3, 1-4, 2-4, 3-4", "satisfies": True, "family": None},
    {"sweep": "property-p", "graph": "4: 1-2, 1-3, 2-3, 2-4, 3-4", "satisfies": True, "family": None},
]
