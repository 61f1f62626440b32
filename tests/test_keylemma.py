"""The two sides of the key lemma, against the bodies they replaced.

The direct side (``bfcore._irreducible_cover`` over the lazy lower-cover
scan ``bfcore._maximal_one_steps``) and the contraction side
(``hypergraph._irreducible_by_contractions``) both stop early, on the fact
that no identification keeps more than ess - 1 essential variables.  Here
each must agree with its former full-scan body, kept in ``oracles``.  The
direct side's oracle groups the pairs on monomial sets with the uncached
canonical search, so it shares no step of the packed walk it checks.
"""

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolminor import bfcore, verify
from boolminor import hypergraph as hg
from boolminor.bfcore import Zhegalkin, bits_of
from oracles import names_in, oracle_irreducible_by_contractions, oracle_maximal_one_steps, oracle_one_step_groups


def oracle_cover(f):
    covers = list(itertools.islice(oracle_maximal_one_steps(f), 2))
    return covers[0] if len(covers) == 1 else None


def test_scan_oracle_shares_no_step_of_the_packed_walk():
    walk = {
        "_one_step_groups", "_identifications", "_class_of", "_canonical_reduced", "_identify_vec", "is_minor",
    }
    assert "oracle_one_step_groups" in names_in(oracle_maximal_one_steps.__code__)
    for oracle in (oracle_maximal_one_steps, oracle_one_step_groups):
        assert not names_in(oracle.__code__) & walk, oracle.__name__


@st.composite
def scan_functions(draw):
    """A function on 1-7 variables, some often unused (the zero and
    constant functions among them), or a 63-variable polynomial with at
    most five essential variables on random positions."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        live = draw(st.integers(0, (1 << n) - 1))
        masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=14))
        return Zhegalkin(n, frozenset(m & live for m in masks))
    ess = draw(st.integers(0, 5))
    positions = draw(st.permutations(range(63)))[:ess]
    images = [1 << p for p in positions]
    masks = draw(st.frozensets(st.integers(0, (1 << ess) - 1), max_size=14))
    return Zhegalkin(63, frozenset(bfcore.fold(m, images) for m in masks))


@settings(max_examples=400, deadline=None)
@given(scan_functions())
@example(Zhegalkin(3, frozenset()))
@example(Zhegalkin(3, frozenset({0})))
@example(Zhegalkin(63, frozenset({1 << 62 | 1 << 40 | 1, 1 << 7})))
def test_lazy_scan_yields_the_sorted_scan_classes_in_order(f):
    expected = list(oracle_maximal_one_steps(f))
    keys = list(bfcore._maximal_one_steps(*bfcore._packed(f.monomials)))
    assert [bfcore._class_poly(key) for key in keys] == expected
    # the scan takes a vector with dummy variables as it is
    if f.arity <= 7:
        assert list(bfcore._maximal_one_steps(bfcore._pack(f.monomials), f.arity)) == keys
    assert bfcore.is_irreducible_direct(f) == oracle_cover(f)


def check_both_sides(em, n):
    f = Zhegalkin(n, frozenset(bits_of(em)))
    cover = bfcore._irreducible_cover(em, n)
    assert (None if cover is None else bfcore._class_poly(cover)) == oracle_cover(f), f
    by_contr = hg._irreducible_by_contractions(frozenset(bits_of(em)), n)
    assert by_contr == oracle_irreducible_by_contractions(hg.Hypergraph(n, f.monomials)), f


def test_private_bodies_match_their_oracles_exhaustively_to_three_vertices():
    for n in (1, 2, 3):
        for em in range(1 << (1 << n)):
            check_both_sides(em, n)


def test_private_bodies_match_their_oracles_on_seeded_draws():
    rng = random.Random(22)
    for n, draws in ((4, 400), (5, 60)):
        for _ in range(draws):
            check_both_sides(rng.getrandbits(1 << n), n)
    # sparse draws, so that the top group is often a single class
    for _ in range(300):
        n = rng.choice((4, 5))
        monomials = {rng.randrange(1 << n) for _ in range(rng.randint(1, 5))}
        check_both_sides(bfcore._pack(monomials), n)


def test_the_scan_stops_at_the_second_top_class(monkeypatch):
    # x1*x2*x3 + x4: the pairs (1,2) and (1,3) both give x*y + z, and (1,4)
    # gives x*y*z + x, a second class of ess 3, so the verdict needs three
    # of the six identifications
    calls = []
    identify_vec = bfcore._identify_vec
    monkeypatch.setattr(bfcore, "_identify_vec", lambda *args: calls.append(args) or identify_vec(*args))
    assert bfcore._irreducible_cover(bfcore._pack({0b0111, 0b1000}), 4) is None
    assert [args[1:3] for args in calls] == [(0, 1), (0, 2), (0, 3)]


def test_keylemma_canonical_searches_stay_bounded(monkeypatch):
    # a drift-free count of the sweep's work: canonical searches over n <= 4
    # and 1,000 samples at n = 5; the full grouping of every pair made
    # 3,409, the lazy scan makes 1,606; a vector with a dummy variable is
    # support-reduced before the cache, so each entry is one search
    calls = []
    search = bfcore._canonical_search
    monkeypatch.setattr(bfcore, "_canonical_search", lambda *args: calls.append(args) or search(*args))
    bfcore._canonical_reduced.cache_clear()
    result = verify.contraction_criterion_sweep(4, 1000, workers=1)
    assert not result.failures
    assert 0 < len(calls) <= 1606
    assert bfcore._canonical_reduced.cache_info().currsize == len(calls)
