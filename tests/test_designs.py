"""Design recognition, pair deletion, monomorphy, and the Steiner reports."""

import itertools
import random

import pytest
from hypothesis import given, settings
from oracles import oracle_all_isomorphic
from strategies import small_hypergraphs

from boolminor import bfcore, designs, hypergraph
from boolminor.designs import (
    DesignParams,
    builtin_instances,
    delete_pair,
    design_parameters,
    is_minus2_monomorphic,
    is_steiner,
    is_steiner_triple,
    replication_number,
    steiner_report,
)
from boolminor.formats import parse_hypergraph_doc
from boolminor.graphs import complete, path
from boolminor.hypergraph import Hypergraph, VertexMap, contract, is_isomorphic


def pair_coverage(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Independent oracle: count covering blocks for every vertex pair."""
    cover = {}
    for a, b in itertools.combinations(range(h.vertex_count), 2):
        pair = (1 << a) | (1 << b)
        cover[(a + 1, b + 1)] = sum(1 for e in h.edges if e & pair == pair)
    return cover


def test_fano_parameters():
    fano = designs.fano_plane()
    assert set(pair_coverage(fano).values()) == {1}
    assert all(e.bit_count() == 3 for e in fano.edges)
    assert design_parameters(fano) == DesignParams(7, 3, 1)
    assert is_steiner(fano) and is_steiner_triple(fano)
    assert replication_number(design_parameters(fano)) == 3


def test_ag23_parameters():
    ag = designs.affine_plane_order3()
    assert len(ag.edges) == 12
    assert set(pair_coverage(ag).values()) == {1}
    assert design_parameters(ag) == DesignParams(9, 3, 1)
    assert is_steiner_triple(ag)


def test_sts13_parameters():
    sts = designs.cyclic_sts13()
    assert len(sts.edges) == 26
    assert set(pair_coverage(sts).values()) == {1}
    assert design_parameters(sts) == DesignParams(13, 3, 1)
    assert replication_number(design_parameters(sts)) == 6


def test_every_point_lies_in_replication_many_blocks():
    for h in designs.builtin_instances().values():
        r = replication_number(design_parameters(h))
        for v in range(h.vertex_count):
            assert sum(1 for e in h.edges if (e >> v) & 1) == r


def test_triangle_and_non_designs():
    tri = Hypergraph(3, complete(3).edges)
    assert design_parameters(tri) == DesignParams(3, 2, 1)
    assert design_parameters(Hypergraph.from_sets(3, [(1, 2)])) is None
    assert design_parameters(Hypergraph.from_sets(3, [(1, 2), (1, 2, 3)])) is None
    assert design_parameters(Hypergraph(3, frozenset())) is None
    k4 = Hypergraph(4, complete(4).edges)
    assert is_steiner(k4) and not is_steiner_triple(k4)


def test_delete_pair_fano():
    fano = designs.fano_plane()
    for pair in itertools.combinations(range(1, 8), 2):
        rest = delete_pair(fano, pair)
        assert rest.vertex_count == 5
        # blocks through either point: 3 + 3 - 1 by inclusion-exclusion
        assert len(rest.edges) == 2


def test_delete_pair_small():
    tri = Hypergraph(3, complete(3).edges)
    rest = delete_pair(tri, (1, 2))
    assert rest.vertex_count == 1 and not rest.edges
    nothing = Hypergraph(4, frozenset())
    assert delete_pair(nothing, (2, 4)) == Hypergraph(2, frozenset())
    with pytest.raises(ValueError):
        delete_pair(tri, (2, 2))


def test_delete_pair_commutes_with_isomorphism():
    rng = random.Random(67)
    fano = designs.fano_plane()
    for _ in range(10):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        vmap = VertexMap(7, 7, tuple(perm))
        relabeled = Hypergraph(7, frozenset(vmap.apply_mask(e) for e in fano.edges))
        i, j = sorted(rng.sample(range(1, 8), 2))
        image_pair = tuple(sorted((vmap.apply_vertex(i), vmap.apply_vertex(j))))
        assert (
            is_isomorphic(delete_pair(fano, (i, j)), delete_pair(relabeled, image_pair))
            is not None
        )


def test_minus2_monomorphy():
    assert is_minus2_monomorphic(designs.fano_plane())
    # every 2-point deletion of the 3-path is a bare vertex, so it qualifies;
    # the 4-path does not: dropping {1,2} keeps an edge, dropping {1,3} none
    assert is_minus2_monomorphic(Hypergraph(3, path(3).edges))
    assert not is_minus2_monomorphic(Hypergraph(4, path(4).edges))
    for n in (4, 5, 6):
        assert is_minus2_monomorphic(Hypergraph(n, complete(n).edges))
    with pytest.raises(ValueError):
        is_minus2_monomorphic(Hypergraph(1, frozenset()))


def test_steiner_report_builtins():
    reports = {
        name: steiner_report(h, name) for name, h in builtin_instances().items()
    }
    fano = reports["fano"]
    assert fano.irreducible and fano.contractions_isomorphic and fano.minus2_monomorphic
    assert fano.two_set_transitive and fano.aut_order == 168
    ag = reports["ag23"]
    assert ag.irreducible and ag.contractions_isomorphic and ag.minus2_monomorphic
    assert ag.two_set_transitive and ag.aut_order == 432
    sts = reports["sts13"]
    # both flags are reported; their relation stays an open measurement
    assert sts.two_set_transitive is False and sts.aut_order == 39
    assert isinstance(sts.minus2_monomorphic, bool)
    for rep in reports.values():
        assert rep.consistent
        assert len(rep.lines()) == 4


def test_steiner_report_reads_the_group_off_one_search(monkeypatch):
    listed, streamed, searched = [], [], []
    fano = designs.fano_plane()
    listing, matches, search = hypergraph.automorphisms, hypergraph._matches, bfcore._canonical_search

    def counted_automorphisms(h):
        listed.append(h)
        return listing(h)

    def counted_matches(plan, inc, profiles, edges):
        if edges == fano.edges:  # contractions and pair deletions have other edges
            streamed.append(edges)
        return matches(plan, inc, profiles, edges)

    def counted_search(reduced, ess):
        if ess == 7:  # contractions and pair deletions have fewer vertices
            searched.append(reduced)
        return search(reduced, ess)

    monkeypatch.setattr(hypergraph, "automorphisms", counted_automorphisms)
    monkeypatch.setattr(hypergraph, "_matches", counted_matches)
    monkeypatch.setattr(bfcore, "_canonical_search", counted_search)
    report = steiner_report(fano, "fano")
    assert listed == streamed == [] and len(searched) == 1
    assert report.two_set_transitive and report.aut_order == 168


def test_steiner_report_runs_each_group_check_once(monkeypatch):
    # one group check for the contraction criterion, which also answers
    # contractions_isomorphic, and one for -2-monomorphy
    runs = []
    first_bijections = hypergraph._first_bijections

    def counted(n, members):
        runs.append(n)
        return first_bijections(n, members)

    monkeypatch.setattr(hypergraph, "_first_bijections", counted)
    report = steiner_report(designs.fano_plane(), "fano")
    assert runs == [7, 7]
    assert report.irreducible and report.contractions_isomorphic and report.minus2_monomorphic


def oracle_contractions_all_isomorphic(h):
    """All pair contractions isomorphic, over renumbered ``contract`` copies."""
    pairs = itertools.combinations(range(1, h.vertex_count + 1), 2)
    return oracle_all_isomorphic(contract(h, pair) for pair in pairs)


def test_contraction_check_matches_oracle_on_the_catalog():
    for name, h in designs.small_steiner_catalog().items():
        expected = oracle_contractions_all_isomorphic(h)
        assert steiner_report(h, name).contractions_isomorphic == expected, name


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs().filter(lambda h: h.vertex_count >= 2))
def test_minus2_monomorphy_in_place_matches_renumbering_oracle(h):
    pairs = itertools.combinations(range(1, h.vertex_count + 1), 2)
    expected = oracle_all_isomorphic(delete_pair(h, pair) for pair in pairs)
    assert is_minus2_monomorphic(h) == expected


def test_steiner_irreducible_matches_the_direct_definition():
    # on a Steiner system one run of the contraction criterion answers both
    # contraction flags; the direct definition is independent of it
    catalog = designs.small_steiner_catalog()
    small = {name: h for name, h in catalog.items() if h.vertex_count <= bfcore.CANONICAL_MAX_ESS}
    assert sorted(catalog.keys() - small.keys()) == ["sts13"]
    for name, h in small.items():
        direct = bfcore.is_irreducible_direct(hypergraph.polynomial_of(h)) is not None
        assert steiner_report(h, name).irreducible == direct, name


def test_steiner_report_rejects_non_steiner():
    with pytest.raises(ValueError):
        steiner_report(Hypergraph.from_sets(3, [(1, 2)]))


def test_small_catalog_members_are_steiner():
    for name, h in designs.small_steiner_catalog().items():
        params = design_parameters(h)
        assert params is not None and params.lambda_ == 1, name


def test_catalog_documents_round_trip():
    for name, doc in designs.catalog_documents().items():
        h = parse_hypergraph_doc(doc)
        assert h == builtin_instances()[name]


def test_shipped_catalog_files_match_builtins():
    import pathlib

    data_dir = pathlib.Path(__file__).parent.parent / "designs"
    docs = designs.catalog_documents()
    for name, doc in docs.items():
        path = data_dir / f"{name}.json"
        assert path.exists(), f"missing catalog document {path}"
        assert path.read_text() == doc
