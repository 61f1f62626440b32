"""The prefix-pruned canonical form against the ess! relabeling walk."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import names_in
from strategies import symmetric_masks

from boolminor import bfcore
from boolminor.bfcore import Zhegalkin, canonical_form


def canonical(reduced, ess):
    """The canonical tuple of the search under test, uncached."""
    return bfcore._canonical_search(reduced, ess)[0]


def walk_minimum(reduced, ess):
    """The least sorted monomial tuple over all ess! relabelings, and the
    number of relabelings that reach it."""
    best, count = None, 0
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
            best, count = image, 1
        elif image == best:
            count += 1
    return tuple(best), count


def walk_oracle(reduced, ess):
    """Lexicographically least sorted monomial tuple over all ess! relabelings."""
    return walk_minimum(reduced, ess)[0]


def twin_factor(reduced, ess):
    """The product of |T|! over the twin classes T (variables whose swap
    fixes the monomial set): a class member with t smaller twins adds the
    factor t + 1."""
    factor = 1
    for v in range(ess):
        smaller_twins = 0
        for u in range(v):
            swapped = set()
            for m in reduced:
                bu, bv = m >> u & 1, m >> v & 1
                swapped.add(m & ~(1 << u | 1 << v) | bu << v | bv << u)
            smaller_twins += swapped == set(reduced)
        factor *= smaller_twins + 1
    return factor


def test_oracle_stays_independent_of_bfcore():
    # the oracles check bfcore's canonical search, so they must not run bfcore code
    for oracle in (walk_minimum, walk_oracle, twin_factor):
        names = names_in(oracle.__code__)
        assert not names & {"bfcore", "fold", "canonical", "canonical_form"}
        for name in names:
            assert getattr(globals().get(name), "__module__", None) != bfcore.__name__


def with_full_support(monomials, ess):
    """The set plus one monomial on the bits 0..ess-1 it leaves out, if any."""
    missing = (1 << ess) - 1
    for m in monomials:
        missing &= ~m
    return monomials | ({missing} if missing else set())


@st.composite
def full_support_sets(draw, min_ess=2, max_ess=7, max_size=24):
    """A monomial set on bits 0..ess-1 that uses every one of them."""
    ess = draw(st.integers(min_ess, max_ess))
    monomials = draw(st.frozensets(st.integers(0, (1 << ess) - 1), max_size=max_size))
    return with_full_support(monomials, ess), ess


@settings(max_examples=150, deadline=None)
@given(full_support_sets())
def test_canonical_matches_walk(case):
    reduced, ess = case
    assert canonical(reduced, ess) == walk_oracle(reduced, ess)


@st.composite
def symmetric_sets(draw, max_ess=6):
    """A symmetric monomial set on bits 0..ess-1, its support kept full."""
    monomials, ess = draw(symmetric_masks(max_ess))
    return with_full_support(monomials, ess), ess


@settings(max_examples=300, deadline=None)
@given(st.one_of(full_support_sets(min_ess=0, max_ess=6), symmetric_sets()))
def test_search_leaves_are_the_twin_ascending_relabelings_to_the_minimum(case):
    # every relabeling reaching the least tuple is a leaf times one ordering
    # of each twin class, so the tied leaves count the group
    reduced, ess = case
    canon, leaves = bfcore._canonical_search(reduced, ess)
    least, reaching = walk_minimum(reduced, ess)
    assert canon == least
    assert len(leaves) * twin_factor(reduced, ess) == reaching
    assert len(set(leaves)) == len(leaves)
    for leaf in leaves:
        image = sorted(sum(1 << k for k in range(ess) if m >> leaf[k] & 1) for m in reduced)
        assert tuple(image) == least


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
