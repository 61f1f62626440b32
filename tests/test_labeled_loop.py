"""The labeled-graph loop on one stepped neighborhood list, and the private
classifier bodies it calls, against the per-mask ``Graph`` oracles."""

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boolminor import bfcore, graphs, verify
from boolminor.graphs import Graph
from oracles import (
    oracle_classify_join_irreducible,
    oracle_classify_property_p,
    oracle_labeled_shard,
    oracle_satisfies_property_p,
)


@functools.lru_cache(maxsize=None)
def true_verdicts(n):
    """The orbit representative of every mask, and each one's verdict."""
    rep_of, reps = bfcore._orbit_partition(list(graphs._pair_ends(n)), n)
    return rep_of, dict(verify._rep_oracle_shard((n, reps))["verdicts"])


def jobs(n, verdicts_of, rep_of, pieces):
    total = 1 << (n * (n - 1) // 2)
    return [(n, s, e, rep_of[s:e], verdicts_of) for s, e in verify._split_range(total, pieces)]


def test_shard_matches_the_graph_oracle_on_every_mask_up_to_six_vertices():
    for n in range(1, 7):
        rep_of, verdicts = true_verdicts(n)
        # the true verdicts, then every third one flipped, so records appear
        flipped = {rep: v != (k % 3 == 0) for k, (rep, v) in enumerate(sorted(verdicts.items()))}
        for table in (verdicts, flipped):
            for job in jobs(n, table, rep_of, 3):
                assert verify._labeled_shard(job) == oracle_labeled_shard(job)


def test_shard_matches_the_graph_oracle_on_seeded_ranges_not_from_zero():
    rng = random.Random(2113)
    total = 1 << 21
    for _ in range(4):
        start = rng.randrange(1, total - 3000)
        stop = start + rng.randrange(1, 3000)
        # a verdict per mask parity: every disagreement becomes a record
        job = (7, start, stop, [m & 1 for m in range(start, stop)], {0: False, 1: True})
        out = verify._labeled_shard(job)
        assert out == oracle_labeled_shard(job)
        assert out["mismatches"]


def test_all_pass_shard_builds_no_graph(monkeypatch):
    calls = []
    build = verify._graph_from_mask

    def counting(n, mask, pairs):
        calls.append(mask)
        return build(n, mask, pairs)

    monkeypatch.setattr(verify, "_graph_from_mask", counting)
    rep_of, verdicts = true_verdicts(5)
    out = verify._labeled_shard((5, 0, 1 << 10, rep_of[: 1 << 10], verdicts))
    assert not out["mismatches"] and not out["p_mismatches"]
    assert sum(out["ji_counter"].values()) == 1 << 10
    assert calls == []


def test_public_classifiers_wrap_the_private_bodies():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = Graph.from_pairs(n, [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        assert graphs.classify_join_irreducible(g) == graphs._classify_join_irreducible(g._nb)
        assert graphs.satisfies_property_p(g) == graphs._satisfies_property_p(g._nb)
        assert graphs.classify_property_p(g) == graphs._classify_property_p(g._nb, len(g.edges))


def test_the_not_irreducible_class_is_shared():
    assert graphs.classify_join_irreducible(graphs.path(4)) is graphs.NOT_IRREDUCIBLE
    assert graphs.classify_join_irreducible(graphs.empty(3)) is graphs.NOT_IRREDUCIBLE
    assert str(graphs.NOT_IRREDUCIBLE) == "NotIrreducible"
    assert str(graphs.JIGraphClass(graphs.JIKind.EMPTY_JOIN_EMPTY, (1, 3))) == "EmptyJoinEmpty(1,3)"


@st.composite
def labeled_graphs(draw, max_vertices=9):
    """Up to ``max_vertices`` vertices, relabeled at random.  Uniform graphs
    seldom fall in a family, so most draws start from one: a complete
    multipartite graph, disjoint cycles, or a path, with isolated vertices
    beside it and often one pair toggled."""
    n = draw(st.integers(1, max_vertices))
    kind = draw(st.sampled_from(("random", "multipartite", "cycles", "path")))
    pairs = set()
    if kind == "random":
        pairs = {p for p in itertools.combinations(range(n), 2) if draw(st.booleans())}
    elif kind == "multipartite":
        part = [draw(st.integers(0, n - 1)) for _ in range(draw(st.integers(0, n)))]
        pairs = {(a, b) for a, b in itertools.combinations(range(len(part)), 2) if part[a] != part[b]}
    elif kind == "cycles":
        v = 0
        for length in draw(st.lists(st.sampled_from((3, 3, 4, 5)), min_size=1, max_size=3)):
            if v + length > max_vertices:
                break
            pairs |= {tuple(sorted((v + k, v + (k + 1) % length))) for k in range(length)}
            v += length
        n = max(n, v)
    else:
        pairs = {(k, k + 1) for k in range(draw(st.integers(0, n - 1)))}
    if n >= 2 and draw(st.booleans()):
        pairs ^= {tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))))}
    perm = draw(st.permutations(range(n)))
    return Graph(n, frozenset(1 << perm[a] | 1 << perm[b] for a, b in pairs))


@settings(max_examples=400, deadline=None)
@given(labeled_graphs())
def test_bodies_match_the_oracles(g):
    for nb in (g._nb, list(g._nb)):
        assert graphs._classify_join_irreducible(nb) == oracle_classify_join_irreducible(g)
        assert graphs._satisfies_property_p(nb) == oracle_satisfies_property_p(g)
        fam = graphs._classify_property_p(nb, len(g.edges))
        assert fam == oracle_classify_property_p(g)
