"""The bit-sliced quotient-map oracle against the walk over every map.

``verify._brute_quotient`` is the oracle that ``verify correspondence``
checks ``bfcore.is_minor`` against.  It evaluates all n2^n1 vertex maps at
once, one bit per map; here it must return exactly the first map (in
``itertools.product`` order) that the plain one-map-at-a-time walk finds, or
None, so the sweep's public ``verify_quotient_map`` check sees the same map.
Its exact-image tables are built once per size pair; the body that split the
lanes on every call is kept in ``oracles`` and must agree map for map.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolminor import verify
from oracles import names_in, oracle_brute_quotient

oracle = verify._brute_quotient


def walk_oracle(edge_mask1, n1, n2):
    """Each edge mask that some map folds edge_mask1 onto, with the first such
    map in product order."""
    edges = [[v for v in range(n1) if e >> v & 1] for e in range(1 << n1) if edge_mask1 >> e & 1]
    first = {}
    for image in itertools.product(range(n2), repeat=n1):
        folded = 0
        for vertices in edges:
            im = 0
            for v in vertices:
                im |= 1 << image[v]
            folded ^= 1 << im
        first.setdefault(folded, image)
    return first


def test_walk_oracle_is_independent_of_verify():
    assert not names_in(walk_oracle.__code__) & {"verify", "oracle", "bfcore"}


def test_exhaustive_universe_to_three_vertices():
    for n1 in (1, 2, 3):
        for em1 in range(1 << (1 << n1)):
            for n2 in (1, 2, 3):
                first = walk_oracle(em1, n1, n2)
                targets = range(1 << (1 << n2))
                expected = [first.get(em2) for em2 in targets]
                assert oracle(em1, n1, targets, n2) == expected, (n1, em1, n2)


def test_seeded_pairs_at_four_and_five_vertices():
    rng = random.Random(20081)
    related = 0
    for idx in range(300):
        n1, n2 = rng.choice((4, 5)), rng.choice((4, 5))
        em1 = rng.getrandbits(1 << n1)
        first = walk_oracle(em1, n1, n2)
        # every third pair is forced related: a mask some map reaches
        em2 = rng.choice(sorted(first)) if idx % 3 == 0 else rng.getrandbits(1 << n2)
        expected = first.get(em2)
        assert oracle(em1, n1, [em2], n2) == [expected], (n1, em1, n2, em2)
        related += expected is not None
    assert related >= 100


@pytest.mark.parametrize(
    "em1, n1, targets, n2, expected",
    [
        # no edges fold onto no edges under every map, so the first map
        (0, 4, [0, 1, 2], 3, [(0, 0, 0, 0), None, None]),
        # no smaller-side edges: the larger side's edges must cancel in pairs
        (0b0110, 2, [0], 1, [(0, 0)]),
        (0b0110, 2, [0], 2, [(0, 0)]),
        (0b0010, 2, [0], 3, [None]),
        # the constant edge alone lands on the empty set under every map
        (1, 3, [1, 2, 0], 2, [(0, 0, 0), None, None]),
        # one target vertex: each nonempty edge lands on {1}, bit 1
        (0b1110, 2, [0b10, 0b01, 0b11], 1, [(0, 0), None, None]),
        (0b1111, 2, [0b11, 0b10], 1, [(0, 0), None]),
        # fewer source than target vertices: x1 + x2 + x1*x2 onto x2 + x3 + x2*x3
        (0b1110, 2, [0b101_0100, 0b1110], 3, [(1, 2), (0, 1)]),
        # x1 + x2 onto x1 + x3, but not onto x1 + x2 + x3
        (0b0110, 2, [0b1_0010, 0b1_0110], 3, [(0, 2), None]),
        # a target mask beyond the 2^n2 possible edges is never reached
        (0b0010, 1, [0b1_0000], 2, [None]),
    ],
)
def test_pinned_edge_cases(em1, n1, targets, n2, expected):
    assert oracle(em1, n1, targets, n2) == expected
    first = walk_oracle(em1, n1, n2)
    assert expected == [first.get(em2) for em2 in targets]


@pytest.mark.parametrize("n1, n2", [(0, 3), (6, 3), (8, 8), (3, 0), (3, 6), (2, 8)])
def test_cap_is_checked_before_any_lane_table(n1, n2, monkeypatch):
    lane_tables = []
    monkeypatch.setattr(verify, "_lane_tables", lambda *sizes: lane_tables.append(sizes))
    images = verify._exact_images.cache_info()
    with pytest.raises(ValueError, match=r"n[12] must be in 1\.\.5"):
        oracle(1, n1, [1], n2)
    assert lane_tables == []
    # no image table was built or looked up
    assert verify._exact_images.cache_info() == images


def fold(edge_mask1, n1, image):
    """The edge mask that ``image`` folds ``edge_mask1`` onto."""
    folded = 0
    for e in range(1 << n1):
        if edge_mask1 >> e & 1:
            folded ^= 1 << sum({1 << image[v] for v in range(n1) if e >> v & 1})
    return folded


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_image_tables_match_the_split_per_call_body(data):
    n1, n2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    em1 = data.draw(st.integers(0, (1 << (1 << n1)) - 1))
    targets = data.draw(st.lists(st.integers(0, (1 << (1 << n2)) - 1), max_size=6))
    # a target that some map reaches, so a map and not only None is compared
    image = data.draw(st.tuples(*[st.integers(0, n2 - 1)] * n1))
    targets.append(fold(em1, n1, image))
    found = oracle(em1, n1, targets, n2)
    assert found == oracle_brute_quotient(em1, n1, targets, n2)
    assert found[-1] is not None


def test_image_tables_match_the_split_per_call_body_on_the_seeded_pairs():
    # the sweep's sampled pairs at its default seed, drawn as its shard draws them
    related = 0
    for idx in range(1000):
        rng = random.Random(f"{verify.DEFAULT_SEED}:corr:{idx}")
        n1 = rng.choice((4, 5))
        n2 = rng.choice((4, 5))
        em1 = rng.getrandbits(1 << n1)
        if idx % 3 == 0:
            em2 = fold(em1, n1, tuple(rng.randrange(n2) for _ in range(n1)))
        else:
            em2 = rng.getrandbits(1 << n2)
        found = oracle(em1, n1, [em2], n2)
        assert found == oracle_brute_quotient(em1, n1, [em2], n2), (n1, em1, n2, em2)
        related += found != [None]
    assert related >= 333


def test_each_image_table_is_built_once_per_size_pair():
    verify._exact_images.cache_clear()
    assert verify.correspondence_sweep(samples=1000, workers=1).ok
    info = verify._exact_images.cache_info()
    # the 9 exhaustive size pairs on 1..3 vertices, the 4 sampled ones on 4..5
    assert info.currsize <= 13
    assert info.misses == info.currsize
