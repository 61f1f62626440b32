"""Hypergraph mirror: bijection, quotient maps, contraction, isomorphism."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_all_isomorphic, per_node_isomorphisms
from strategies import small_hypergraphs, symmetric_hypergraphs

from boolminor import bfcore, designs, hypergraph
from boolminor.bfcore import TruthTable, Zhegalkin, support_mask
from boolminor.formats import format_polynomial
from boolminor.graphs import complete, path
from boolminor.hypergraph import (
    Hypergraph,
    VertexMap,
    automorphisms,
    collapse_map,
    compose_quotients,
    contract,
    contraction_classes,
    ess_drop_analysis,
    hypergraph_of,
    is_2set_transitive,
    is_irreducible_by_contractions,
    is_isomorphic,
    lemma_condition_holds,
    polynomial_of,
    support,
    support_reduce,
    verify_quotient_map,
)


def H(n, *edges):
    return Hypergraph.from_sets(n, edges)


def random_hypergraph(rng, n):
    return Hypergraph(n, frozenset(bfcore.bits_of(rng.getrandbits(1 << n))))


def test_out_of_range_edges_name_the_largest():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(0, 6)
        inside = {rng.randrange(1 << n) for _ in range(rng.randint(0, 4))}
        beyond = rng.sample(range(1 << n, 1 << (n + 4)), 2)
        with pytest.raises(ValueError, match=rf"^edge names vertex {max(beyond).bit_length()}, beyond {n}$"):
            Hypergraph(n, frozenset(inside | set(beyond)))


# ---------------------------------------------------------------------------
# the bijection with polynomials


def test_worked_examples():
    h1 = H(3)
    h2 = H(3, (1, 2), ())
    h3 = H(3, (1, 2), (1, 3), (2, 3))
    assert polynomial_of(h1) == Zhegalkin(3, frozenset())
    assert polynomial_of(h2) == Zhegalkin.from_sets(3, [(1, 2), ()])
    assert polynomial_of(h3) == Zhegalkin.from_sets(3, [(1, 2), (1, 3), (2, 3)])


def test_bijection_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for em in range(1 << (1 << n)):
            h = Hypergraph(n, frozenset(bfcore.bits_of(em)))
            assert hypergraph_of(polynomial_of(h)) == h
    for _ in range(100):
        p = Zhegalkin(5, frozenset(rng.sample(range(32), rng.randrange(0, 20))))
        assert polynomial_of(hypergraph_of(p)) == p


def test_support():
    assert support(H(3, (1, 2), ())) == {1, 2}
    assert support(H(3)) == frozenset()
    assert support(H(3, (1, 2), (1, 3), (2, 3))) == {1, 2, 3}


def test_support_reduce_keeps_empty_edge():
    h = H(4, (2, 3), ())
    r = support_reduce(h)
    assert r.vertex_count == 2 and r.edge_sets() == frozenset({frozenset({1, 2}), frozenset()})


# ---------------------------------------------------------------------------
# quotient maps


def test_quotient_identity():
    h = H(3, (1, 2), (1, 3))
    assert verify_quotient_map(VertexMap.identity(3), h, h)


def test_quotient_triangle_collapse():
    h3 = H(3, (1, 2), (1, 3), (2, 3))
    target = H(2, (1,))
    assert verify_quotient_map(VertexMap(3, 2, (1, 1, 2)), h3, target)


def test_quotient_cancellation():
    hp = H(2, (1,), (2,))
    h = H(1)
    assert verify_quotient_map(VertexMap(2, 1, (1, 1)), hp, h)


def test_quotient_arity_mismatch():
    with pytest.raises(ValueError):
        verify_quotient_map(VertexMap(2, 2, (1, 2)), H(3, (1, 2)), H(2))


def test_vertex_map_refuses_a_partial_or_out_of_range_image():
    with pytest.raises(ValueError, match="image must assign every source vertex"):
        VertexMap(2, 2, (1,))
    for image, bad in (((1, 3), 3), ((0, 1), 0)):
        with pytest.raises(ValueError, match=rf"^image value must be in 1\.\.2, got {bad}$"):
            VertexMap(2, 2, image)


def test_compose_quotients():
    ident = VertexMap.identity(3)
    assert compose_quotients(ident, ident) == ident
    h3 = H(3, (1, 2), (1, 3), (2, 3))
    mid = H(2, (1,))
    m1 = VertexMap(3, 2, (1, 1, 2))
    m2 = VertexMap(2, 1, (1, 1))
    end = H(1, (1,))
    assert verify_quotient_map(m2, mid, end)
    composite = compose_quotients(m1, m2)
    assert verify_quotient_map(composite, h3, end)
    with pytest.raises(ValueError):
        compose_quotients(m2, m1)


def test_quotient_composed_with_isomorphism():
    h = H(3, (1, 2), (2, 3))
    rot = VertexMap(3, 3, (2, 3, 1))
    target = Hypergraph(3, frozenset(rot.apply_mask(e) for e in h.edges))
    assert verify_quotient_map(rot, h, target)


def test_composite_quotient_chains_sampled():
    rng = random.Random(31)
    for _ in range(40):
        h = random_hypergraph(rng, 5)
        i, j = sorted(rng.sample(range(1, 6), 2))
        m1 = collapse_map(5, i, j)
        h1 = contract(h, (i, j))
        a, b = sorted(rng.sample(range(1, 5), 2))
        m2 = collapse_map(4, a, b)
        h2 = contract(h1, (a, b))
        assert verify_quotient_map(m1, h, h1)
        assert verify_quotient_map(m2, h1, h2)
        assert verify_quotient_map(compose_quotients(m1, m2), h, h2)


# ---------------------------------------------------------------------------
# contraction


def test_contract_examples():
    h3 = H(3, (1, 2), (1, 3), (2, 3))
    assert contract(h3, (1, 2)).edge_sets() == frozenset({frozenset({1})})
    two = H(2, (1,), (2,))
    assert contract(two, (1, 2)).edges == frozenset()
    far = H(4, (3, 4), (1, 2))
    assert contract(far, (1, 2)).edge_sets() == frozenset(
        {frozenset({2, 3}), frozenset({1})}
    )


def test_collapse_map_is_quotient_onto_contraction():
    rng = random.Random(37)
    for n in (2, 3):
        for em in range(1 << (1 << n)):
            h = Hypergraph(n, frozenset(bfcore.bits_of(em)))
            for i, j in itertools.combinations(range(1, n + 1), 2):
                assert verify_quotient_map(collapse_map(n, i, j), h, contract(h, (i, j)))
    # collapse_map is the one route to a contraction that skips _identify_masks
    for n in range(4, 9):
        for _ in range(25):
            h = random_hypergraph(rng, n)
            i, j = rng.sample(range(1, n + 1), 2)
            assert verify_quotient_map(collapse_map(n, i, j), h, contract(h, (i, j)))


def test_contract_matches_identify_via_tables():
    # independent route: identify coordinates pointwise on the truth table
    rng = random.Random(41)
    for n in (2, 3, 4):
        cases = (
            range(1 << (1 << n))
            if n <= 3
            else [rng.getrandbits(16) for _ in range(300)]
        )
        for em in cases:
            h = Hypergraph(n, frozenset(bfcore.bits_of(em)))
            table = bfcore.truth_table_from_zhegalkin(polynomial_of(h))
            for i, j in itertools.combinations(range(1, n + 1), 2):
                bits = 0
                for point in range(1 << n):
                    moved = (
                        point | (1 << (j - 1))
                        if (point >> (i - 1)) & 1
                        else point & ~(1 << (j - 1))
                    )
                    if table.value(moved):
                        bits |= 1 << point
                identified = bfcore.zhegalkin_from_truth_table(TruthTable(n, bits))
                contracted = polynomial_of(contract(h, (i, j)))
                assert bfcore.is_equivalent(contracted, identified)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_contract_agrees_with_identify(data):
    # identify keeps x_hi as a dummy; dropping it and shifting the variables
    # above hi down by one must give the contraction
    n = data.draw(st.integers(2, 7))
    h = Hypergraph(n, data.draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=30)))
    pair = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    lo, hi = sorted(pair)
    renumbered = set()
    for m in bfcore.identify(polynomial_of(h), lo, hi).monomials:
        out = 0
        for v in range(1, n + 1):
            if m >> (v - 1) & 1:
                assert v != hi
                out |= 1 << (v - 1 if v < hi else v - 2)
        renumbered.add(out)
    assert polynomial_of(contract(h, tuple(pair))) == Zhegalkin(n - 1, frozenset(renumbered))


def test_contract_rejects_degenerate_pair():
    h = H(3, (1, 2))
    for pair, message in (((2, 2), "two distinct"), ((0, 1), "must exist"), ((1, 4), "must exist")):
        for call in (
            lambda: contract(h, pair),
            lambda: collapse_map(3, *pair),
            lambda: ess_drop_analysis(h, pair),
        ):
            with pytest.raises(ValueError, match=message):
                call()


# ---------------------------------------------------------------------------
# isomorphism and automorphisms


def test_isomorphic_examples():
    h = H(3, (1, 2), (1, 3))
    assert is_isomorphic(h, h) is not None
    embedded = H(4, (2, 3), (2, 4), (3, 4))
    triangle = H(3, (1, 2), (1, 3), (2, 3))
    assert is_isomorphic(support_reduce(embedded), triangle) is not None
    assert is_isomorphic(H(3, (1, 2)), H(3, (1, 2), (1, 3))) is None


def test_isomorphism_mapping_is_edge_preserving():
    rng = random.Random(43)
    for _ in range(60):
        h = random_hypergraph(rng, 5)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        vmap = VertexMap(5, 5, tuple(perm))
        h2 = Hypergraph(5, frozenset(vmap.apply_mask(e) for e in h.edges))
        found = is_isomorphic(h, h2)
        assert found is not None
        assert frozenset(found.apply_mask(e) for e in h.edges) == h2.edges


def test_isomorphism_respects_empty_edge():
    assert is_isomorphic(H(2, ()), H(2, (1,))) is None
    assert is_isomorphic(H(2, (), (1,)), H(2, (), (2,))) is not None


def test_automorphisms_edgeless_and_triangle():
    assert len(automorphisms(H(4))) == 24
    tri = H(3, (1, 2), (1, 3), (2, 3))
    group = automorphisms(tri)
    assert len(group) == 6
    images = {g.image for g in group}
    assert (1, 2, 3) in images
    # closed under composition and inverses
    for g1 in group:
        assert tuple(sorted(g1.image)) == (1, 2, 3)
        for g2 in group:
            assert compose_quotients(g1, g2).image in images


def test_fano_automorphism_group_order():
    assert len(automorphisms(designs.fano_plane())) == 168


def test_automorphism_cap():
    # the refusal names the cap and the refused vertex count
    with pytest.raises(ValueError, match="^automorphism search is capped at 13 vertices, got 14$"):
        automorphisms(H(14))
    with pytest.raises(ValueError, match="^automorphism search is capped at 13 vertices, got 14$"):
        is_2set_transitive(H(14))


@settings(max_examples=300, deadline=None)
@given(symmetric_hypergraphs(), st.data())
def test_group_summary_matches_enumeration(h, data):
    # the summary reads the group off the canonical search; the oracle
    # enumerates it with the isomorphism engine
    n = h.vertex_count
    group = automorphisms(h)
    orbit = {frozenset(g.image[:2]) for g in group}
    pair_transitive = n < 3 or len(orbit) == n * (n - 1) // 2
    assert hypergraph._automorphism_summary(h) == (len(group), pair_transitive)
    assert is_2set_transitive(h) == pair_transitive

    relabel = VertexMap(n, n, tuple(data.draw(st.permutations(range(1, n + 1)))))
    h2 = Hypergraph(n, frozenset(relabel.apply_mask(e) for e in h.edges))
    found = is_isomorphic(h, h2)
    assert found is not None
    assert frozenset(found.apply_mask(e) for e in h.edges) == h2.edges


def masks(sets):
    return frozenset(sum(1 << v for v in s) for s in sets)


PAIRS13 = list(itertools.combinations(range(13), 2))


@pytest.mark.parametrize(
    "edges, order, pair_transitive",
    [
        # K(4)_13 minus one edge: Sym(4) x Sym(9)
        (masks(itertools.combinations(range(13), 4)) - {0b1111}, 8_709_120, False),
        # K_13 minus a 6-edge matching: 2^6 x 6!
        (masks(PAIRS13) - masks((2 * i, 2 * i + 1) for i in range(6)), 46_080, False),
        # the Paley graph on 13 points: x -> ax + b, a a nonzero square
        (masks((a, b) for a, b in PAIRS13 if pow(b - a, 6, 13) == 1), 78, False),
        (designs.cyclic_sts13().edges, 39, False),
        (frozenset([(1 << 13) - 1]), 6_227_020_800, True),
    ],
)
def test_group_summary_at_the_vertex_cap(edges, order, pair_transitive):
    h = Hypergraph(13, edges)
    assert hypergraph._automorphism_summary(h) == (order, pair_transitive)


def draw_hypergraph(data):
    """A hypergraph on up to 6 vertices, the top few isolated, with the
    constant term or not."""
    n = data.draw(st.integers(1, 6))
    # the top ``isolated`` vertices carry no edge
    isolated = data.draw(st.integers(0, n - 1))
    edges = set(data.draw(st.lists(st.integers(1, (1 << (n - isolated)) - 1), max_size=12)))
    if data.draw(st.booleans()):
        edges.add(0)
    return Hypergraph(n, frozenset(edges))


def draw_image(data, h):
    """A relabeled copy of ``h``, that copy with toggled edges, or ``h``
    itself, with the case drawn."""
    n = h.vertex_count
    relabel = VertexMap(n, n, tuple(data.draw(st.permutations(range(1, n + 1)))))
    edges = {relabel.apply_mask(e) for e in h.edges}
    case = data.draw(st.sampled_from(("relabeled", "toggled", "self")))
    if case == "toggled":
        # the edge counts differ unless as many toggles add as remove
        edges ^= set(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)))
    return (h if case == "self" else Hypergraph(n, frozenset(edges))), case


def planned_isomorphisms(h1, h2):
    """Every bijection of the planned search, behind this test's own screen
    of edge counts, constant terms and sorted vertex profiles."""
    n = h1.vertex_count
    if len(h1.edges) != len(h2.edges) or (0 in h1.edges) != (0 in h2.edges):
        return []
    inc1, prof1 = hypergraph._incidence(h1.edges, n)
    inc2, prof2 = hypergraph._incidence(h2.edges, n)
    if sorted(prof1) != sorted(prof2):
        return []
    return list(hypergraph._matches(hypergraph._plan(inc1, prof1), inc2, prof2, h2.edges))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_planned_search_yields_the_per_node_search_sequence(data):
    h1 = draw_hypergraph(data)
    h2, case = draw_image(data, h1)
    got = planned_isomorphisms(h1, h2)
    assert got == list(per_node_isomorphisms(h1, h2))
    if case != "toggled":
        assert got


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_is_isomorphic_returns_the_per_node_first_bijection(data):
    h1 = draw_hypergraph(data)
    h2, case = draw_image(data, h1)
    found = is_isomorphic(h1, h2)
    first = next(per_node_isomorphisms(h1, h2), None)
    if first is None:
        assert found is None and case == "toggled"
    else:
        assert found == VertexMap(h1.vertex_count, h1.vertex_count, tuple(b.bit_length() for b in first))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_driver_yields_each_members_per_node_first_bijection(data):
    h1 = draw_hypergraph(data)
    members = [h1] + [draw_image(data, h1)[0] for _ in range(data.draw(st.integers(0, 4)))]
    expected = []
    for h in members[1:]:
        expected.append(next(per_node_isomorphisms(h1, h), None))
        if expected[-1] is None:
            break
    read = []

    def edge_sets():
        for h in members:
            read.append(h)
            yield h.edges

    assert list(hypergraph._first_bijections(h1.vertex_count, edge_sets())) == expected
    # nothing is read past the first member without a bijection
    assert len(read) == min(len(members), 1 + len(expected))


def test_2set_transitivity():
    assert is_2set_transitive(designs.fano_plane())
    assert is_2set_transitive(H(3, (1, 2), (1, 3), (2, 3)))
    assert not is_2set_transitive(H(3, (1, 2)))


def test_2set_transitive_zoo_is_irreducible():
    zoo = [complete(n) for n in range(2, 7)]
    zoo += [designs.fano_plane(), designs.affine_plane_order3()]
    for h in zoo:
        if support(h) == frozenset(range(1, h.vertex_count + 1)) and h.vertex_count >= 2:
            assert is_2set_transitive(h)
            assert is_irreducible_by_contractions(h)


# ---------------------------------------------------------------------------
# contraction classes and the irreducibility criterion


def test_contraction_classes_triangle():
    part = contraction_classes(H(3, (1, 2), (1, 3), (2, 3)))
    assert len(part.classes) == 1
    assert part.classes[0].pairs == ((1, 2), (1, 3), (2, 3))
    assert part.classes[0].ess == 1


def test_contraction_classes_path():
    # contracting an edge leaves x1 + x1*x2; the endpoint pair cancels to 0
    part = contraction_classes(Hypergraph(3, path(3).edges))
    by_pairs = {c.pairs: c.ess for c in part.classes}
    assert by_pairs == {((1, 2), (2, 3)): 2, ((1, 3),): 0}


def test_contraction_classes_composite_has_two_top_classes():
    composite = hypergraph_of(
        Zhegalkin.from_sets(
            4,
            [(1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)],
        )
    )
    part = contraction_classes(composite)
    top = max(c.ess for c in part.classes)
    assert sum(1 for c in part.classes if c.ess == top) >= 2


def test_contraction_classes_come_in_first_pair_order():
    # five classes, their ess not monotone: the order is that of each
    # class's first pair, as the one-step grouping yields them
    h = hypergraph_of(Zhegalkin.from_sets(4, [(1, 2), (2, 3), (3, 4), (1,)]))
    got = [(c.pairs, format_polynomial(c.canon), c.ess) for c in contraction_classes(h).classes]
    assert got == [
        (((1, 2),), "x1*x2 + x1*x3", 3),
        (((1, 3), (2, 4)), "x1*x2 + x1", 2),
        (((1, 4),), "x1*x2 + x1*x3 + x2*x3 + x1", 3),
        (((2, 3),), "x1*x2 + x1*x3 + x1 + x2", 3),
        (((3, 4),), "x1*x3 + x2*x3 + x1 + x2", 3),
    ]


def isomorphism_classes(h):
    """Support pairs grouped by isomorphism of their contractions, pair by pair."""
    groups = []
    for pair in itertools.combinations(sorted(support(h)), 2):
        he = contract(h, pair)
        for rep, members in groups:
            if is_isomorphic(rep, he) is not None:
                members.append(pair)
                break
        else:
            groups.append((he, [pair]))
    return [
        (tuple(members), bfcore.canonical_form(polynomial_of(rep)), len(support(rep)))
        for rep, members in groups
    ]


def test_contraction_classes_match_isomorphism_grouping():
    rng = random.Random(59)
    cases = [
        Hypergraph(n, frozenset(bfcore.bits_of(em))) for n in (2, 3) for em in range(1 << (1 << n))
    ]
    for n in (4, 5, 6):
        for _ in range(30):
            sparse = rng.sample(range(1 << n), rng.randrange(1, 2 * n))
            cases += [random_hypergraph(rng, n), Hypergraph(n, frozenset(sparse))]
    for h in cases:
        if len(support(h)) >= 2:
            got = [(c.pairs, c.canon, c.ess) for c in contraction_classes(h).classes]
            assert got == isomorphism_classes(h)


def test_contraction_classes_requires_support():
    with pytest.raises(ValueError):
        contraction_classes(H(3, ()))


def test_irreducible_by_contractions_examples():
    assert is_irreducible_by_contractions(H(3, (1, 2), (1, 3), (2, 3)))
    assert is_irreducible_by_contractions(H(2, (1, 2)))
    composite = hypergraph_of(
        Zhegalkin.from_sets(
            4,
            [(1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)],
        )
    )
    assert not is_irreducible_by_contractions(composite)


def test_criterion_equals_class_partition_form():
    rng = random.Random(47)
    for em in range(1 << 8):
        h = Hypergraph(3, frozenset(bfcore.bits_of(em)))
        if len(support(h)) >= 2:
            assert is_irreducible_by_contractions(h) == lemma_condition_holds(
                contraction_classes(h)
            )
    for _ in range(150):
        h = random_hypergraph(rng, 4)
        if len(support(h)) >= 2:
            assert is_irreducible_by_contractions(h) == lemma_condition_holds(
                contraction_classes(h)
            )


def oracle_is_irreducible_by_contractions(h):
    """The criterion over renumbered contractions, as ``contract`` builds them."""
    pairs = list(itertools.combinations(sorted(support(h)), 2))
    if not pairs:
        return False
    contractions = [contract(h, pair) for pair in pairs]
    esses = [support_mask(he.edges).bit_count() for he in contractions]
    top = max(esses)
    return oracle_all_isomorphic(he for he, e in zip(contractions, esses) if e == top)


@settings(max_examples=200, deadline=None)
@given(small_hypergraphs())
def test_criterion_in_place_matches_renumbering_oracle(h):
    assert is_irreducible_by_contractions(h) == oracle_is_irreducible_by_contractions(h)


@settings(max_examples=300, deadline=None)
@given(small_hypergraphs(), st.data())
def test_group_check_matches_the_pairwise_oracle(h, data):
    n = h.vertex_count
    case = data.draw(st.sampled_from(("contractions", "top contractions", "copies", "count", "constant")))
    if case.endswith("contractions"):
        group = [bfcore._identify_masks(h.edges, i, j) for i, j in itertools.combinations(range(n), 2)]
        if case == "top contractions" and group:
            top = max(support_mask(m).bit_count() for m in group)
            group = [m for m in group if support_mask(m).bit_count() == top]
    else:
        group = []
        for _ in range(data.draw(st.integers(1, 4))):
            relabel = VertexMap(n, n, tuple(data.draw(st.permutations(range(1, n + 1)))))
            group.append(frozenset(relabel.apply_mask(e) for e in h.edges))
        last = set(group[-1])
        if case == "count":
            # toggle one nonempty edge: the constant term stays
            last ^= {data.draw(st.integers(1, (1 << n) - 1))}
        elif case == "constant":
            # toggle the empty edge, and a nonempty edge the other way
            last ^= {0}
            present = 0 in last
            toggles = [e for e in range(1, 1 << n) if (e in last) == present]
            if not toggles:
                return
            last ^= {data.draw(st.sampled_from(toggles))}
            assert len(last) == len(group[0])
        group.append(frozenset(last))
    expected = oracle_all_isomorphic(Hypergraph(n, m) for m in group)
    assert hypergraph._all_isomorphic(n, iter(group)) == expected
    if case == "copies":
        assert expected
    elif case in ("count", "constant"):
        assert not expected


def count_plans(monkeypatch):
    """Every source-side preparation of the search, recorded as it runs."""
    plans = []
    plan = hypergraph._plan

    def counted(*args):
        plans.append(args)
        return plan(*args)

    monkeypatch.setattr(hypergraph, "_plan", counted)
    return plans


def test_group_check_plans_the_first_member_once(monkeypatch):
    plans = count_plans(monkeypatch)
    k8 = Hypergraph(8, complete(8).edges)
    # all 28 pair contractions of K8 are isomorphic: a K6 plus a pendant singleton
    contractions = (bfcore._identify_masks(k8.edges, i, j) for i, j in itertools.combinations(range(8), 2))
    assert hypergraph._all_isomorphic(8, contractions)
    assert len(plans) == 1
    assert is_irreducible_by_contractions(k8)
    assert len(plans) == 2

    plans.clear()
    tri = H(3, (1, 2), (1, 3), (2, 3))

    def members():
        yield tri.edges
        yield tri.edges - {0b11}
        raise AssertionError("the group check read past the first miss")

    assert not hypergraph._all_isomorphic(3, members())
    assert plans == []


def test_criterion_screens_top_edge_counts_before_planning(monkeypatch):
    plans = count_plans(monkeypatch)
    # x1 + x3 + x4 + x1x2: the top-ess identifications have 2, 2, 4 and 4
    # edges, so a check in order would plan for the second one
    h = H(4, (1,), (3,), (4,), (1, 2))
    merged = [bfcore._identify_masks(h.edges, i, j) for i, j in itertools.combinations(range(4), 2)]
    top = max(support_mask(m).bit_count() for m in merged)
    assert [len(m) for m in merged if support_mask(m).bit_count() == top] == [2, 2, 4, 4]
    assert not is_irreducible_by_contractions(h)
    assert plans == []


# ---------------------------------------------------------------------------
# essential-arity drop analysis


def test_ess_drop_examples():
    xor = H(2, (1,), (2,))
    rep = ess_drop_analysis(xor, (1, 2))
    assert rep.drop == 2 and rep.le_isolated and not rep.isolated_vertices

    majority = H(3, (1, 2), (1, 3), (2, 3))
    rep = ess_drop_analysis(majority, (1, 2))
    assert rep.drop == 2 and not rep.le_isolated and rep.isolated_vertices == (3,)
    assert rep.vertex_conditions == ((3, True),)

    conj = H(2, (1, 2))
    rep = ess_drop_analysis(conj, (1, 2))
    assert rep.drop == 1 and not rep.le_isolated and not rep.isolated_vertices


def test_ess_drop_conditions_match_reality():
    rng = random.Random(53)
    for n in (2, 3):
        for em in range(1 << (1 << n)):
            h = Hypergraph(n, frozenset(bfcore.bits_of(em)))
            for pair in itertools.combinations(range(1, n + 1), 2):
                rep = ess_drop_analysis(h, pair)
                assert rep.le_isolated == rep.le_parity_condition
                assert all(ok for _, ok in rep.vertex_conditions)
    for _ in range(120):
        h = random_hypergraph(rng, 5)
        i, j = sorted(rng.sample(range(1, 6), 2))
        rep = ess_drop_analysis(h, (i, j))
        assert rep.le_isolated == rep.le_parity_condition
        assert all(ok for _, ok in rep.vertex_conditions)
        he = contract(h, (i, j))
        assert rep.drop == support_mask(h.edges).bit_count() - support_mask(he.edges).bit_count()
