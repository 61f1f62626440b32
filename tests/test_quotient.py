"""The bit-sliced quotient-map oracle against the walk over every map.

``verify._brute_quotient`` is the oracle that ``verify correspondence``
checks ``bfcore.is_minor`` against.  It evaluates all n2^n1 vertex maps at
once, one bit per map; here it must return exactly the first map (in
``itertools.product`` order) that the plain one-map-at-a-time walk finds, or
None, so the sweep's public ``verify_quotient_map`` check sees the same map.
"""

import itertools
import random

import pytest

from boolminor import verify
from oracles import names_in

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
def test_cap_is_checked_before_any_lane_table(n1, n2):
    built = verify._lane_tables.cache_info().currsize
    with pytest.raises(ValueError, match=r"n[12] must be in 1\.\.5"):
        oracle(1, n1, [1], n2)
    assert verify._lane_tables.cache_info().currsize == built
