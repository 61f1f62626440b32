"""The orbit engine behind the graph sweep and the poset, against n! permutations."""

import itertools

import pytest

from boolminor import bfcore
from boolminor.bfcore import Zhegalkin, bits_of, canonical_form
from oracles import names_in


def permutation_oracle(positions, n):
    """Orbit minimum of every vector, by applying all n! point permutations."""
    index = {p: k for k, p in enumerate(positions)}
    moves = []
    for perm in itertools.permutations(range(n)):
        moved = []
        for p in positions:
            image = 0
            for v in range(n):
                if p >> v & 1:
                    image |= 1 << perm[v]
            moved.append(index[image])
        moves.append(moved)
    least = []
    for vector in range(1 << len(positions)):
        images = []
        for moved in moves:
            image = 0
            for k, target in enumerate(moved):
                if vector >> k & 1:
                    image |= 1 << target
            images.append(image)
        least.append(min(images))
    return least


def test_oracle_stays_independent_of_bfcore():
    # the oracle checks bfcore's orbit search, so it must not run bfcore code
    names = names_in(permutation_oracle.__code__)
    assert not names & {"bfcore", "fold", "_orbit_partition", "_mask_tables"}
    for name in names:
        assert getattr(globals().get(name), "__module__", None) != bfcore.__name__


def pair_positions(n):
    return [1 << a | 1 << b for a, b in itertools.combinations(range(n), 2)]


def subset_positions(n):
    return list(range(1 << n))


@pytest.mark.parametrize(
    "positions, n",
    [(pair_positions(n), n) for n in range(1, 6)]
    + [(subset_positions(n), n) for n in range(1, 4)],
)
def test_orbit_partition_matches_permutations(positions, n):
    rep_of, reps = bfcore._orbit_partition(positions, n)
    least = permutation_oracle(positions, n)
    assert list(rep_of) == least
    assert reps == sorted(set(least))


def test_anf_orbits_are_the_four_variable_classes():
    # the orbits of the 2^16 ANF vectors are exactly the classes of the
    # poset, and of the one-step identifications of up to five variables
    rep_of, reps = bfcore._anf_orbits(4)

    def form(vector):
        return canonical_form(Zhegalkin(4, frozenset(bits_of(vector))))

    rep_forms = {rep: form(rep) for rep in reps}
    assert len(reps) == 3984
    assert len(set(rep_forms.values())) == 3984
    for vector in range(1 << 16):
        assert form(vector) == rep_forms[rep_of[vector]]
