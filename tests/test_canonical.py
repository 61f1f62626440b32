"""The prefix-pruned canonical form against the ess! relabeling walk."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolminor import bfcore
from boolminor.bfcore import Zhegalkin, canonical_form

canonical = bfcore._canonical_reduced.__wrapped__


def walk_oracle(reduced, ess):
    """Lexicographically least sorted monomial tuple over all ess! relabelings."""
    best = None
    for perm in itertools.permutations(range(ess)):
        image = []
        for m in reduced:
            out = 0
            for b in range(ess):
                if m >> b & 1:
                    out |= 1 << perm[b]
            image.append(out)
        image.sort()
        if best is None or image < best:
            best = image
    return tuple(best)


def test_oracle_stays_independent_of_bfcore():
    # the oracle checks bfcore's canonical form, so it must not run bfcore code
    names = set(walk_oracle.__code__.co_names)
    assert not names & {"bfcore", "fold", "canonical", "canonical_form"}
    for name in names:
        assert getattr(globals().get(name), "__module__", None) != bfcore.__name__


@st.composite
def full_support_sets(draw, min_ess=2, max_ess=7, max_size=24):
    """A monomial set on bits 0..ess-1 that uses every one of them."""
    ess = draw(st.integers(min_ess, max_ess))
    monomials = draw(st.frozensets(st.integers(0, (1 << ess) - 1), max_size=max_size))
    # one more monomial on the bits the draw left out keeps the support full
    missing = (1 << ess) - 1
    for m in monomials:
        missing &= ~m
    return monomials | ({missing} if missing else set()), ess


@settings(max_examples=150, deadline=None)
@given(full_support_sets())
def test_canonical_matches_walk(case):
    reduced, ess = case
    assert canonical(reduced, ess) == walk_oracle(reduced, ess)


def pair_masks(pairs):
    return frozenset(1 << a | 1 << b for a, b in pairs)


def complete(n):
    return pair_masks(itertools.combinations(range(n), 2)), n


def cycle(n):
    return pair_masks((i, (i + 1) % n) for i in range(n)), n


def multipartite(*sizes):
    starts = list(itertools.accumulate(sizes, initial=0))
    parts = [range(starts[i], starts[i + 1]) for i in range(len(sizes))]
    return pair_masks(
        (a, b) for p, q in itertools.combinations(parts, 2) for a in p for b in q
    ), starts[-1]


def single_block(n):
    return frozenset([(1 << n) - 1]), n


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


@pytest.mark.parametrize(
    "reduced, ess",
    [
        complete(5),
        complete(8),
        cycle(5),
        cycle(8),
        multipartite(2, 2, 2),
        multipartite(2, 3, 3),
        single_block(6),
        single_block(8),
        (frozenset(1 << a | 1 << b | 1 << c for a, b, c in FANO), 7),
        # the Fano plane with the constant monomial and its points
        (frozenset([0] + [1 << v for v in range(7)] + [1 << a | 1 << b | 1 << c for a, b, c in FANO]), 7),
    ],
)
def test_canonical_matches_walk_on_symmetric_families(reduced, ess):
    assert canonical(reduced, ess) == walk_oracle(reduced, ess)


@settings(max_examples=150, deadline=None)
@given(full_support_sets(min_ess=1, max_ess=bfcore.CANONICAL_MAX_ESS), st.data())
def test_canonical_form_invariant_under_relabeling_and_dummies(case, data):
    reduced, ess = case
    arity = data.draw(st.integers(ess, ess + 4))
    image = data.draw(st.permutations(range(arity)))[:ess]
    moved = frozenset(sum(1 << image[b] for b in range(ess) if m >> b & 1) for m in reduced)
    assert canonical_form(Zhegalkin(arity, moved)) == canonical_form(Zhegalkin(ess, reduced))
