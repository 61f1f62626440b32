"""The failure records of the sharded sweeps, pinned under injected faults.

Each sweep reports a disagreement as a dict with a fixed schema, printed as
one ``FAIL`` line.  Here the checked primitives are patched to give wrong
answers on chosen inputs, in-process at ``workers=1`` so no pool starts, and
the exact records of ``keylemma``, ``correspondence`` and ``graphs`` are
compared: their kinds, keys, values and order.
"""

import pytest

from boolminor import bfcore, graphs, verify
from boolminor import hypergraph as hg
from boolminor.bfcore import Zhegalkin


@pytest.fixture
def faults(monkeypatch):
    """Wrong answers from the primitives the sweeps compare, on fixed inputs."""
    direct, minor = bfcore.is_irreducible_direct, bfcore.is_minor
    quotient, classify = hg.verify_quotient_map, graphs.classify_join_irreducible
    aux, sat = graphs.lemma_aux_check, graphs.satisfies_property_p

    def bad_direct(f):
        cover = direct(f)
        if sum(f.monomials) % 7 == 3:
            return None if cover is not None else Zhegalkin(1, frozenset())
        return cover

    def bad_minor(g, f):
        witness = minor(g, f)
        if (5 * sum(g.monomials) + 3 * sum(f.monomials) + g.arity + 7 * f.arity) % 53 == 3:
            return None if witness is not None else bfcore.MinorWitness(())
        return witness

    def bad_classify(g):
        cls = classify(g)
        if sum(g.edges) % 15 == 2:
            if cls.irreducible:
                return graphs.JIGraphClass(graphs.JIKind.NOT_IRREDUCIBLE)
            return graphs.JIGraphClass(graphs.JIKind.COMPLETE, (2,))
        return cls

    monkeypatch.setattr(bfcore, "is_irreducible_direct", bad_direct)
    monkeypatch.setattr(bfcore, "is_minor", bad_minor)
    monkeypatch.setattr(hg, "verify_quotient_map", lambda m, hp, h: quotient(m, hp, h) and m.image[0] != 1)
    monkeypatch.setattr(graphs, "classify_join_irreducible", bad_classify)
    monkeypatch.setattr(graphs, "lemma_aux_check", lambda g: aux(g) and sum(g.edges) % 11 != 6)
    monkeypatch.setattr(graphs, "satisfies_property_p", lambda g: sat(g) != (sum(g.edges) % 17 == 2))


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
    assert result.data["graph_mismatches"] == 13
    assert result.data["property_p_mismatches"] == 4


def _keylemma(doc, by_contr, direct):
    return {"sweep": "keylemma", "hypergraph": doc, "contraction_criterion": by_contr, "direct_definition": direct}


def _corr(kind, larger, smaller, found, minor):
    return {"sweep": kind, "larger": larger, "smaller": smaller, "quotient_map_exists": found, "is_minor": minor}


def _oracle(n, rep):
    return {"sweep": "graphs-oracle", "n": n, "rep": rep, "contraction_criterion": True, "direct_definition": False}


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
    {"sweep": "graphs-rep", "n": 4, "rep": 7, "classified": "NotIrreducible", "irreducible_oracle": True},
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
