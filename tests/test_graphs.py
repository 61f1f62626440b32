"""Graph constructions, ai-decomposition, property (P), the join-irreducible
classifier, and the contraction probe."""

import itertools
import random

import pytest

from boolminor import bfcore, graphs
from boolminor.bfcore import bits_of, support_mask
from boolminor.graphs import (
    Graph,
    JIGraphClass,
    JIKind,
    PropertyPKind,
    ai_decomposition,
    classify_join_irreducible,
    classify_property_p,
    complement,
    complete,
    components,
    cycle,
    disjoint_union,
    empty,
    graph_join,
    is_ai_prime,
    is_connected,
    lemma_aux_check,
    lexicographic_sum,
    matches_template,
    neighborhoods,
    path,
    reduce_isolated,
    satisfies_property_p,
    template_graph,
)
from boolminor.hypergraph import contract, is_irreducible_by_contractions, is_isomorphic, polynomial_of


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(
            (1 << a) | (1 << b) for k, (a, b) in enumerate(pairs) if (mask >> k) & 1
        )
        yield Graph(n, edges)


def random_graph(rng, n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph.from_pairs(n, [p for p in pairs if rng.random() < 0.5])


# ---------------------------------------------------------------------------
# builders


def test_builders():
    assert is_isomorphic(graph_join(empty(2), empty(2)), cycle(4)) is not None
    assert complement(complete(4)) == empty(4)
    two_triangles = disjoint_union(complete(3), complete(3))
    assert two_triangles.vertex_count == 6 and len(two_triangles.edges) == 6
    assert complement(complement(path(4))) == path(4)
    with pytest.raises(ValueError):
        complete(0)
    with pytest.raises(ValueError):
        cycle(2)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_sets(3, [(1, 2, 3)])
    with pytest.raises(ValueError):
        Graph.from_sets(3, [()])


def test_reduce_isolated():
    g = disjoint_union(complete(3), empty(2))
    r = reduce_isolated(g)
    assert is_isomorphic(r, complete(3)) is not None
    assert reduce_isolated(empty(4)).vertex_count == 0
    assert reduce_isolated(cycle(5)) == cycle(5)


# ---------------------------------------------------------------------------
# ai-decomposition


def test_ai_decomposition_examples():
    d = ai_decomposition(cycle(4))
    assert d.components == ((1, 3), (2, 4))
    assert is_isomorphic(d.quotient, complete(2)) is not None

    d = ai_decomposition(cycle(5))
    assert all(len(b) == 1 for b in d.components)
    assert is_isomorphic(d.quotient, cycle(5)) is not None
    assert is_ai_prime(cycle(5))

    d = ai_decomposition(path(3))
    assert d.components == ((1, 3), (2,))
    assert is_isomorphic(d.quotient, complete(2)) is not None


def test_ai_reconstruction_exact():
    rng = random.Random(59)
    graphs_to_try = [cycle(4), cycle(5), path(3), complete(4), graph_join(complete(2), empty(3))]
    graphs_to_try += [random_graph(rng, n) for n in (4, 5, 6) for _ in range(20)]
    for g in graphs_to_try:
        d = ai_decomposition(g)
        assert lexicographic_sum(d.components, d.quotient) == g
        assert is_ai_prime(d.quotient)


# ---------------------------------------------------------------------------
# property (P)


def test_property_p_examples():
    assert satisfies_property_p(cycle(5))
    assert satisfies_property_p(complete(4))
    assert not satisfies_property_p(cycle(6))


def test_classify_property_p_examples():
    assert classify_property_p(cycle(4)).kind is PropertyPKind.C4
    assert classify_property_p(path(3)).kind is PropertyPKind.PATH3
    got = classify_property_p(complete(5))
    assert got.kind is PropertyPKind.COMPLETE and got.n == 5
    assert classify_property_p(cycle(6)) is None


def test_property_p_sweep_small():
    # the single-vertex graph satisfies (P) vacuously and is out of scope
    for n in range(2, 6):
        for g in all_graphs(n):
            fam = classify_property_p(g)
            assert satisfies_property_p(g) == (fam is not None)


# ---------------------------------------------------------------------------
# join-irreducible classification


def test_classify_examples():
    assert classify_join_irreducible(
        disjoint_union(complete(3), complete(3))
    ) == JIGraphClass(JIKind.DISJOINT_TRIANGLES, (2,))
    assert classify_join_irreducible(cycle(5)) == JIGraphClass(JIKind.C5)
    assert classify_join_irreducible(path(3)) == JIGraphClass(
        JIKind.EMPTY_JOIN_EMPTY, (1, 2)
    )
    assert classify_join_irreducible(complete(2)) == JIGraphClass(JIKind.COMPLETE, (2,))
    assert classify_join_irreducible(cycle(4)) == JIGraphClass(
        JIKind.BALANCED_MULTIPARTITE, (2, 2)
    )
    assert classify_join_irreducible(
        graph_join(complete(2), empty(4))
    ) == JIGraphClass(JIKind.K2_JOIN_EMPTY, (4,))
    assert classify_join_irreducible(path(4)).kind is JIKind.NOT_IRREDUCIBLE
    assert classify_join_irreducible(empty(3)).kind is JIKind.NOT_IRREDUCIBLE


def test_classify_ignores_isolated_vertices():
    g = disjoint_union(cycle(5), empty(2))
    assert classify_join_irreducible(g) == JIGraphClass(JIKind.C5)


def test_classification_matches_templates():
    rng = random.Random(61)
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            cls = classify_join_irreducible(g)
            if cls.irreducible:
                assert matches_template(g, cls)
    for _ in range(60):
        g = random_graph(rng, 6)
        cls = classify_join_irreducible(g)
        if cls.irreducible:
            assert matches_template(g, cls)


def test_classify_agrees_with_direct_small():
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            cls = classify_join_irreducible(g)
            direct = bfcore.is_irreducible_direct(polynomial_of(g)) is not None
            by_contr = is_irreducible_by_contractions(g)
            assert cls.irreducible == direct == by_contr


def test_ji_side_conditions():
    with pytest.raises(ValueError):
        JIGraphClass(JIKind.DISJOINT_TRIANGLES, (1,))
    with pytest.raises(ValueError):
        JIGraphClass(JIKind.EMPTY_JOIN_EMPTY, (3, 3))
    with pytest.raises(ValueError):
        JIGraphClass(JIKind.BALANCED_MULTIPARTITE, (1, 2))
    for kind, params, message in ((JIKind.C5, (5,), "C5 takes 0 parameters"), (JIKind.COMPLETE, (), "takes 1 parameters")):
        with pytest.raises(ValueError, match=message):
            JIGraphClass(kind, params)
    str(JIGraphClass(JIKind.K2_JOIN_EMPTY, (2,)))


def test_template_graph_shapes():
    assert is_isomorphic(
        template_graph(JIGraphClass(JIKind.EMPTY_JOIN_EMPTY, (2, 3))),
        graph_join(empty(2), empty(3)),
    )
    assert template_graph(JIGraphClass(JIKind.BALANCED_MULTIPARTITE, (3, 2))).vertex_count == 6
    with pytest.raises(ValueError):
        template_graph(JIGraphClass(JIKind.NOT_IRREDUCIBLE))
    # no graph matches the non-irreducible tag, which has no template
    assert not matches_template(cycle(4), JIGraphClass(JIKind.NOT_IRREDUCIBLE))


# ---------------------------------------------------------------------------
# connected structure facts


def test_connected_irreducible_quotient_is_complete_or_c5():
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            if not is_connected(g) or not g.edges:
                continue
            if not is_irreducible_by_contractions(g):
                continue
            q = ai_decomposition(g).quotient
            qn = q.vertex_count
            q_complete = len(q.edges) == qn * (qn - 1) // 2 and qn >= 2
            q_c5 = qn == 5 and all(
                m.bit_count() == 2 for m in neighborhoods(q)
            )
            assert q_complete or q_c5


def test_c5_quotient_blowups_not_irreducible():
    quotient = cycle(5)
    for total in range(6, 9):
        for sizes in itertools.product(range(1, 5), repeat=5):
            if sum(sizes) != total or max(sizes) < 2:
                continue
            blocks = []
            nxt = 1
            for s in sizes:
                blocks.append(tuple(range(nxt, nxt + s)))
                nxt += s
            g = lexicographic_sum(tuple(blocks), quotient)
            assert is_connected(g)
            d = ai_decomposition(g)
            assert is_isomorphic(d.quotient, cycle(5)) is not None
            assert not is_irreducible_by_contractions(g)


def test_lemma_aux_examples():
    assert lemma_aux_check(complete(4))
    assert lemma_aux_check(cycle(5))
    with pytest.raises(ValueError):
        lemma_aux_check(disjoint_union(complete(2), complete(2)))


def test_lemma_aux_exhaustive_small():
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            if is_connected(g) and g.vertex_count >= 2:
                assert lemma_aux_check(g)


def oracle_lemma_aux_check(g):
    """The contraction probe over renumbered ``contract`` copies."""

    def no_isolated(pair):
        he = contract(g, pair)
        return support_mask(he.edges).bit_count() == he.vertex_count

    n = g.vertex_count
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    edge_pairs = {tuple(sorted((a + 1, b + 1))) for e in g.edges for a, b in [bits_of(e)]}
    nonedges = [p for p in all_pairs if p not in edge_pairs]
    if not any(no_isolated(p) for p in nonedges):
        return True
    return any(no_isolated(p) for p in edge_pairs)


def test_lemma_aux_matches_renumbering_oracle():
    # every labeled graph on 2..5 vertices, one per isomorphism class on 6
    # (all 26,704 labeled connected ones on 6 would take about 1.7 s)
    checked = 0
    for n in range(2, 7):
        pairs = list(graphs._pair_ends(n))
        masks = range(1 << len(pairs)) if n < 6 else bfcore._orbit_partition(pairs, n)[1]
        for mask in masks:
            g = Graph(n, frozenset(pairs[k] for k in bits_of(mask)))
            if is_connected(g):
                assert lemma_aux_check(g) == oracle_lemma_aux_check(g)
                checked += 1
    assert checked == 1 + 4 + 38 + 728 + 112


def test_components():
    g = disjoint_union(complete(3), path(2))
    assert len(components(g)) == 2
    assert is_connected(cycle(6))
    assert not is_connected(empty(2))


# ---------------------------------------------------------------------------
# the neighborhoods decoded at construction


def naive_neighborhoods(g):
    nb = [0] * g.vertex_count
    for a, b in g.edge_pairs():
        nb[a - 1] |= 1 << (b - 1)
        nb[b - 1] |= 1 << (a - 1)
    return nb


def decode_cases():
    for n in range(1, 6):
        yield from all_graphs(n)
    rng = random.Random(83)
    for _ in range(2000):
        yield random_graph(rng, 7)


def test_decoded_neighborhoods_match_naive_decode():
    for g in decode_cases():
        assert neighborhoods(g) == naive_neighborhoods(g)


def test_neighborhoods_returns_a_fresh_list():
    for g in decode_cases():
        n = g.vertex_count
        before = (classify_join_irreducible(g), satisfies_property_p(g))
        nb = neighborhoods(g)
        nb[:] = [(1 << n) - 1 - (1 << v) for v in range(n)]
        assert neighborhoods(g) is not nb
        assert (classify_join_irreducible(g), satisfies_property_p(g)) == before
        assert neighborhoods(g) == naive_neighborhoods(g)


def test_decoded_tuple_is_not_a_field():
    for g in decode_cases():
        twin = Graph(g.vertex_count, g.edges)
        object.__setattr__(twin, "_nb", ())
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert hash(g) == hash((g.vertex_count, g.edges))
        assert repr(g) == f"Graph(vertex_count={g.vertex_count}, edges={g.edges!r})"


def test_graph_rejects_edges_without_two_vertices():
    for edge in (0b1, 0b100, 0b111, 0b1011, 0b1100001):
        with pytest.raises(ValueError, match="exactly two distinct vertices"):
            Graph(7, frozenset({0b11, edge}))
    assert neighborhoods(Graph(7, frozenset({0b1000001}))) == [64, 0, 0, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# classification on the core vertex mask


def relabeled(g, perm):
    return Graph(
        g.vertex_count,
        frozenset((1 << perm[a - 1]) | (1 << perm[b - 1]) for a, b in g.edge_pairs()),
    )


def test_classify_invariant_under_isolated_vertices_and_relabeling():
    rng = random.Random(89)
    for _ in range(500):
        g = random_graph(rng, 7)
        cls = classify_join_irreducible(g)
        perm = list(range(7))
        rng.shuffle(perm)
        assert classify_join_irreducible(reduce_isolated(g)) == cls
        assert classify_join_irreducible(disjoint_union(g, empty(2))) == cls
        assert classify_join_irreducible(relabeled(g, perm)) == cls


@pytest.mark.parametrize(
    "g, expected",
    [
        (disjoint_union(complete(4), empty(3)), JIGraphClass(JIKind.COMPLETE, (4,))),
        (disjoint_union(empty(2), complete(2)), JIGraphClass(JIKind.COMPLETE, (2,))),
        (Graph.from_pairs(5, [(1, 3), (1, 5), (3, 5)]), JIGraphClass(JIKind.COMPLETE, (3,))),
        (
            disjoint_union(disjoint_union(complete(3), empty(1)), complete(3)),
            JIGraphClass(JIKind.DISJOINT_TRIANGLES, (2,)),
        ),
        (
            Graph.from_pairs(7, [(1, 3), (3, 5), (5, 7), (7, 2), (2, 1)]),
            JIGraphClass(JIKind.C5),
        ),
        (disjoint_union(empty(2), cycle(5)), JIGraphClass(JIKind.C5)),
        # a triangle beside a path of three is not two triangles
        (disjoint_union(complete(3), path(3)), JIGraphClass(JIKind.NOT_IRREDUCIBLE)),
        # five vertices of degree two that are not one cycle
        (
            disjoint_union(complete(3), complete(2)),
            JIGraphClass(JIKind.NOT_IRREDUCIBLE),
        ),
    ],
)
def test_classify_pinned_cores(g, expected):
    assert classify_join_irreducible(g) == expected
