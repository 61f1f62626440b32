"""Core representation and minor-order tests.

Expected values marked by hand computations were frozen after checking them
against the independent oracles in this file (pointwise evaluation for the
polynomial transform, table-level coordinate copying for identification).
"""

import contextlib
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolminor import bfcore, hypergraph, poset, verify
from boolminor.bfcore import (
    GapClass,
    GapTag,
    MinorWitness,
    TruthTable,
    Zhegalkin,
    arity_gap,
    canonical_form,
    classify_gap,
    essential_arity,
    essential_variables,
    identify,
    is_equivalent,
    is_irreducible_direct,
    is_minor,
    substitute,
    truth_table_from_zhegalkin,
    zhegalkin_from_truth_table,
)
from boolminor.hypergraph import Hypergraph
from oracles import names_in, oracle_arity_gap, oracle_classify_gap, oracle_mobius, oracle_one_step_groups


def poly(arity, *monos):
    return Zhegalkin.from_sets(arity, monos)


def eval_table(p: Zhegalkin) -> int:
    """Independent oracle: evaluate the polynomial at every point."""
    bits = 0
    for point in range(1 << p.arity):
        if p.evaluate(point):
            bits |= 1 << point
    return bits


def table_identify(table: TruthTable, i: int, j: int) -> TruthTable:
    """Independent oracle: copy coordinate i onto coordinate j pointwise."""
    bits = 0
    for point in range(1 << table.arity):
        if (point >> (i - 1)) & 1:
            moved = point | (1 << (j - 1))
        else:
            moved = point & ~(1 << (j - 1))
        if table.value(moved):
            bits |= 1 << point
    return TruthTable(table.arity, bits)


# ---------------------------------------------------------------------------
# truth tables


def test_truth_table_decode_matches_the_bit_loop():
    # the linear decode against bits_of on the Moebius transform
    rng = random.Random(43)
    for arity in range(1, 11):
        size = 1 << arity
        for bits in (0, (1 << size) - 1, *(rng.getrandbits(size) for _ in range(5))):
            table = TruthTable(arity, bits)
            anf = bfcore._mobius(bits, arity)
            assert zhegalkin_from_truth_table(table).monomials == frozenset(bfcore.bits_of(anf))


def test_mobius_matches_the_division_body():
    # stage masks from the per-arity byte-pattern table, against the long
    # division of the all-ones word
    rng = random.Random(59)
    for arity in range(1, 11):
        size = 1 << arity
        for bits in (0, 1, (1 << size) - 1, *(rng.getrandbits(size) for _ in range(6))):
            assert bfcore._mobius(bits, arity) == oracle_mobius(bits, arity)


def test_byte_pack_matches_the_shift_pack():
    # the linear pack of truth_table_from_zhegalkin against _pack
    rng = random.Random(53)
    for arity in range(13):
        size = 1 << arity
        for count in (0, 1, size, *(rng.randint(0, size) for _ in range(4))):
            monomials = frozenset(rng.sample(range(size), count))
            assert bfcore._pack_bytes(monomials, arity) == bfcore._pack(monomials)
    wide = frozenset(rng.sample(range(1 << 20), 3000)) | {0, (1 << 20) - 1}
    assert bfcore._pack_bytes(wide, 20) == bfcore._pack(wide)
    # a repeated monomial cancels, as in _pack
    assert bfcore._pack_bytes([5, 9, 5], 4) == bfcore._pack([5, 9, 5]) == 1 << 9


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(2, 16)
    with pytest.raises(ValueError):
        TruthTable(21, 0)
    with pytest.raises(ValueError, match="names x3, beyond arity 2"):
        Zhegalkin(2, frozenset([0b100]))
    t = TruthTable.from_bits([0, 1, 1, 0])
    assert t.arity == 2 and t.bits == 0b0110
    assert t.values() == [0, 1, 1, 0]
    for values, message in (([0, 1, 1], "power of two"), ([1], "power of two"), ([0, 2], "must be 0/1, got 2")):
        with pytest.raises(ValueError, match=message):
            TruthTable.from_bits(values)


def test_bounds_echo_a_huge_value_by_its_bit_length():
    # str() of a 5,000-digit int would raise Python's own digit-limit error
    for call, message in (
        (lambda: Zhegalkin(10**30, frozenset()), "arity must be in 1..63, got a 100-bit integer"),
        (lambda: TruthTable(10**5000, 0), "arity must be in 1..20, got a 16610-bit integer"),
        (lambda: Hypergraph(10**5000, frozenset()), "vertex count must be in 0..63, got a 16610-bit integer"),
        (lambda: poset.enumerate_classes(10**5000), "max_ess must be in 0..4, got a 16610-bit integer"),
        (lambda: bfcore.mask_of([-(10**5000)]), "variable index must be in 1..63, got a negative 16610-bit integer"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_an_out_of_range_mask_set_names_its_largest_or_negative_mask():
    with pytest.raises(ValueError, match="^monomial names x5, beyond arity 3$"):
        Zhegalkin(3, {1, 8, 16})
    for call in (lambda: Zhegalkin(2, {-1}), lambda: Hypergraph(3, {-1}), lambda: Zhegalkin(2, {-1, 64})):
        with pytest.raises(ValueError, match="^a mask must be nonnegative, got -1$"):
            call()


def test_witness_and_gap_class_refuse_malformed_values():
    for blocks, message in ((((1,), ()), "nonempty"), (((1, 2), (2, 3)), "pairwise disjoint")):
        with pytest.raises(ValueError, match=message):
            MinorWitness(blocks)
    for tag, constant, message in (
        (GapTag.GAP_ONE, 0, "GapOne carries no constant"),
        (GapTag.TRIANGLE, None, "carry a constant in"),
        (GapTag.LINEAR_SUM, 2, "carry a constant in"),
    ):
        with pytest.raises(ValueError, match=message):
            GapClass(tag, constant)


def test_hex_convention():
    # x1 is the least significant bit of the index; hex prints MSB first
    assert TruthTable.from_hex("8", 2).values() == [0, 0, 0, 1]
    assert TruthTable.from_hex("E8", 3).to_hex() == "E8"
    assert TruthTable(1, 0b10).to_hex() == "2"


# ---------------------------------------------------------------------------
# polynomial <-> table


def test_projection_transform():
    assert zhegalkin_from_truth_table(TruthTable(1, 0b10)) == poly(1, (1,))


def test_conjunction_transform():
    assert zhegalkin_from_truth_table(TruthTable.from_hex("8", 2)) == poly(2, (1, 2))


def test_majority_transform():
    majority = poly(3, (1, 2), (1, 3), (2, 3))
    assert eval_table(majority) == 0xE8
    assert zhegalkin_from_truth_table(TruthTable.from_hex("E8", 3)) == majority
    assert truth_table_from_zhegalkin(majority).to_hex() == "E8"


def test_constant_tables():
    assert truth_table_from_zhegalkin(Zhegalkin(1, frozenset())).values() == [0, 0]
    assert truth_table_from_zhegalkin(poly(1, ())).values() == [1, 1]


def test_round_trip_exhaustive_small():
    for arity in (1, 2, 3):
        for bits in range(1 << (1 << arity)):
            t = TruthTable(arity, bits)
            p = zhegalkin_from_truth_table(t)
            assert eval_table(p) == bits
            assert truth_table_from_zhegalkin(p) == t


def test_round_trip_sampled_large():
    rng = random.Random(7)
    for arity in range(4, 13):
        for _ in range(20):
            t = TruthTable(arity, rng.getrandbits(1 << arity))
            assert truth_table_from_zhegalkin(zhegalkin_from_truth_table(t)) == t


# ---------------------------------------------------------------------------
# essential variables, substitution, identification


def test_essential_variables():
    assert essential_variables(poly(3, (1, 2), (1, 3), (2, 3))) == {1, 2, 3}
    assert essential_variables(poly(1, ())) == frozenset()
    assert essential_variables(poly(5, (2,))) == {2}


def test_substitute_examples():
    assert substitute(poly(2, (1, 2)), {1: 1, 2: 1}, 1) == poly(1, (1,))
    assert substitute(poly(2, (1,), (2,)), {1: 1, 2: 1}, 1) == Zhegalkin(1, frozenset())
    majority = poly(3, (1, 2), (1, 3), (2, 3))
    assert substitute(majority, {1: 1, 2: 1, 3: 2}, 2) == poly(2, (1,))


def test_substitute_errors():
    with pytest.raises(ValueError, match="variable 2 unmapped"):
        substitute(poly(2, (1, 2)), {1: 1}, 2)
    with pytest.raises(ValueError, match=r"^the image of x2 must be in 1\.\.2, got 3$"):
        substitute(poly(2, (1, 2)), {1: 1, 2: 3}, 2)
    for arity in (0, 64):
        with pytest.raises(ValueError, match=rf"^target arity must be in 1\.\.63, got {arity}$"):
            substitute(poly(2, (1, 2)), {1: 1, 2: 1}, arity)


def test_substitute_composes():
    rng = random.Random(11)
    for _ in range(30):
        p = Zhegalkin(4, frozenset(rng.sample(range(16), rng.randrange(0, 12))))
        s1 = {v: rng.randrange(1, 4) for v in range(1, 5)}
        s2 = {v: rng.randrange(1, 5) for v in range(1, 4)}
        composed = {v: s2[s1[v]] for v in range(1, 5)}
        two_step = substitute(substitute(p, s1, 3), s2, 4)
        one_step = substitute(p, composed, 4)
        assert eval_table(two_step) == eval_table(one_step)


def test_identify_examples():
    majority = poly(3, (1, 2), (1, 3), (2, 3))
    assert identify(majority, 1, 2).monomials == poly(3, (1,)).monomials
    disj = poly(2, (1,), (2,), (1, 2))
    assert identify(disj, 1, 2) == poly(2, (1,))
    assert identify(poly(2, (1, 2)), 1, 2) == poly(2, (1,))
    for (i, j), message in (((2, 2), "two distinct"), ((0, 1), "must exist"), ((3, 4), "must exist")):
        with pytest.raises(ValueError, match=message):
            identify(majority, i, j)


def test_identify_matches_table_oracle():
    rng = random.Random(13)
    for _ in range(50):
        t = TruthTable(4, rng.getrandbits(16))
        i, j = rng.sample(range(1, 5), 2)
        via_poly = identify(zhegalkin_from_truth_table(t), i, j)
        assert eval_table(via_poly) == table_identify(t, i, j).bits


# ---------------------------------------------------------------------------
# equivalence and canonical forms


def test_equivalence_examples():
    assert is_equivalent(poly(2, (1, 2), (1,)), poly(2, (1, 2), (2,)))
    assert is_equivalent(poly(2, (1, 2)), poly(5, (1, 2)))
    # the two maximal minors of (x1 or x2) and (x3 or x4) are not equivalent
    a = poly(4, (1, 3), (1, 4), (1, 3, 4))
    b = poly(4, (1, 4), (2,), (1, 2, 4))
    assert not is_equivalent(a, b)
    # constants and single-variable functions go through the same gate
    assert is_equivalent(poly(1, ()), poly(3, ()))
    assert is_equivalent(poly(1, (1,), ()), poly(3, (2,), ()))
    assert not is_equivalent(Zhegalkin(2, frozenset()), poly(2, ()))
    assert not is_equivalent(poly(2, (1,), ()), poly(2, (2,)))


def test_canonical_form_examples():
    assert canonical_form(poly(3, (2, 3))) == poly(2, (1, 2))
    assert canonical_form(poly(2, (1, 2), (2,))) == poly(2, (1, 2), (1,))
    assert canonical_form(poly(7, ())) == poly(1, ())


def test_canonical_cap_refuses_before_work():
    cap = bfcore.CANONICAL_MAX_ESS
    over = poly(cap + 1, *[(i, i % (cap + 1) + 1) for i in range(1, cap + 2)])
    for call in (
        lambda: canonical_form(over),
        lambda: is_minor(poly(2, (1, 2)), over),
        lambda: bfcore.one_step_identification_classes(over),
        lambda: is_irreducible_direct(over),
        # every contraction of one 11-vertex block keeps 10 essential variables
        lambda: hypergraph.contraction_classes(Hypergraph.from_sets(cap + 2, [range(1, cap + 3)])),
    ):
        with pytest.raises(ValueError, match=f"capped at {cap} essential variables"):
            call()
    # dummy variables do not count toward the cap
    assert canonical_form(Zhegalkin(cap + 5, frozenset([1 << (cap + 4)]))) == poly(1, (1,))


def test_one_step_groups_refuse_a_wide_support_at_entry():
    cap = bfcore.CANONICAL_MAX_ESS
    # its packed vector would have 2^63 bits
    wide = Hypergraph.from_sets(63, [range(1, 64)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"capped at {cap} essential variables"):
        hypergraph.contraction_classes(wide)
    assert time.perf_counter() - start < 1.0
    # an identification drops at most two essential variables, so a support
    # of cap + 2 passes the entry check: the linear sum loses both
    # identified variables on every pair
    n = cap + 2
    linear = hypergraph.contraction_classes(Hypergraph.from_sets(n, [(v,) for v in range(1, n + 1)]))
    assert [(len(c.pairs), c.ess) for c in linear.classes] == [(n * (n - 1) // 2, cap)]


def test_canonical_form_idempotent_and_class_constant():
    rng = random.Random(17)
    for _ in range(40):
        p = Zhegalkin(4, frozenset(rng.sample(range(16), rng.randrange(0, 10))))
        c = canonical_form(p)
        assert canonical_form(c) == c
        perm = list(range(1, 5))
        rng.shuffle(perm)
        q = substitute(p, dict(zip(range(1, 5), perm)), 4)
        q = Zhegalkin(6, q.monomials)  # add dummies
        assert canonical_form(q) == c
        assert is_equivalent(p, q)
        assert (canonical_form(p) == canonical_form(q)) == is_equivalent(p, q)


# ---------------------------------------------------------------------------
# the minor order


def test_minor_examples():
    w = is_minor(poly(1, (1,)), poly(2, (1, 2)))
    assert w == MinorWitness(((1, 2),))
    composite = poly(
        4, (1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)
    )
    minor_b = poly(4, (1, 4), (2,), (1, 2, 4))
    assert is_minor(minor_b, composite) is not None
    assert is_minor(poly(2, (1,), (2,)), poly(2, (1, 2))) is None


def test_minor_witness_blocks_cover_essentials():
    composite = poly(
        4, (1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)
    )
    w = is_minor(poly(4, (1, 4), (2,), (1, 2, 4)), composite)
    flat = sorted(v for block in w.blocks for v in block)
    assert flat == [1, 2, 3, 4]


def check_witness(f, g, expect_minor):
    """A witness of ``is_minor(g, f)``, applied to f, must give g back."""
    w = is_minor(g, f)
    assert w is not None or not expect_minor
    if w is None:
        return
    sigma = {v: v for v in range(1, f.arity + 1)}
    for block in w.blocks:
        for v in block:
            sigma[v] = block[0]
    assert is_equivalent(substitute(f, sigma, f.arity), g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_minor_witness_reproduces_g(data):
    arity = data.draw(st.integers(1, 6))
    f = Zhegalkin(arity, data.draw(st.frozensets(st.integers(0, (1 << arity) - 1), max_size=20)))
    target = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        # an image of f under a variable map is a minor of f
        image = data.draw(st.lists(st.integers(1, target), min_size=arity, max_size=arity))
        check_witness(f, substitute(f, dict(enumerate(image, 1)), target), True)
    else:
        g = Zhegalkin(target, data.draw(st.frozensets(st.integers(0, (1 << target) - 1), max_size=20)))
        check_witness(f, g, False)


def test_witness_where_profiles_tie():
    # a collapse of f with g's vertex profiles that is not equivalent to g
    # comes before the witness in the partition order
    f = Zhegalkin(6, frozenset({0, 1, 2, 3, 4, 9, 11, 34}))
    check_witness(f, substitute(f, dict(enumerate([1, 2, 2, 3, 1, 4], 1)), 4), True)


def oracle_partitions(items: tuple[int, ...], min_blocks: int):
    """The recursive set-partition walk ``is_minor`` replaced with its RGS
    table: partitions of ``items`` by block count, then lexicographically."""
    n = len(items)
    for k in range(min_blocks, n + 1):
        yield from oracle_rgs_exact(items, [0] * n, 1, 0, k)


def oracle_rgs_exact(items, rgs, pos, mx, k):
    n = len(items)
    if pos == n:
        if mx + 1 == k:
            blocks: list[list[int]] = [[] for _ in range(k)]
            for idx, cls in enumerate(rgs):
                blocks[cls].append(items[idx])
            yield tuple(tuple(b) for b in blocks)
        return
    # not enough positions left to open the remaining classes
    if (k - 1 - mx) > (n - pos):
        return
    for c in range(min(mx + 1, k - 1) + 1):
        rgs[pos] = c
        yield from oracle_rgs_exact(items, rgs, pos + 1, max(mx, c), k)


def oracle_is_minor(g: Zhegalkin, f: Zhegalkin):
    """The former ``is_minor`` loop: collapse each block of an oracle
    partition onto its first variable, then reduce and compare classes."""
    fvars = tuple(sorted(essential_variables(f)))
    g_reduced, g_ess = bfcore._reduce_masks(g.monomials)
    if g_ess > len(fvars):
        return None
    if not fvars:
        return MinorWitness(()) if g_reduced == f.monomials else None
    g_canon = bfcore._canonical_search(g_reduced, g_ess)[0]
    for blocks in oracle_partitions(fvars, max(g_ess, 1)):
        images = [0] * f.arity
        for block in blocks:
            for v in block:
                images[v - 1] = 1 << (block[0] - 1)
        c_reduced, c_ess = bfcore._reduce_masks(bfcore.map_monomials(f.monomials, images))
        if c_ess == g_ess and bfcore._canonical_search(c_reduced, c_ess)[0] == g_canon:
            return MinorWitness(blocks)
    return None


def test_rgs_table_matches_partition_oracle():
    for n in range(1, 8):
        items = tuple(range(1, n + 1))
        for min_blocks in range(1, n + 1):
            decoded = []
            for rgs in bfcore._rgs_table(n):
                if max(rgs) + 1 >= min_blocks:
                    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
                    for v, b in zip(items, rgs):
                        blocks[b].append(v)
                    decoded.append(tuple(map(tuple, blocks)))
            assert decoded == list(oracle_partitions(items, min_blocks)), (n, min_blocks)


def test_minor_witness_matches_oracle():
    rng = random.Random(29)
    related = 0
    for _ in range(400):
        n = rng.randint(4, 7)
        f = Zhegalkin(n, frozenset(rng.getrandbits(n) for _ in range(rng.randint(2, 10))))
        m = rng.randint(1, 5)
        if rng.random() < 0.5:
            # folding f under a variable map gives a minor of f
            g = Zhegalkin(m, bfcore.map_monomials(f.monomials, [1 << rng.randrange(m) for _ in range(n)]))
        else:
            g = Zhegalkin(m, frozenset(rng.getrandbits(m) for _ in range(rng.randint(1, 6))))
        w = is_minor(g, f)
        assert w == oracle_is_minor(g, f), (f, g)
        related += w is not None
    assert 150 <= related <= 300


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_screen_keeps_every_witness_of_the_search(data):
    # the screen may only refuse pairs the partition walk refuses too
    n = data.draw(st.integers(1, 5))
    f = Zhegalkin(n, data.draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12)))
    m = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        # folding f under a variable map gives a minor of f
        images = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        g = Zhegalkin(m, bfcore.map_monomials(f.monomials, [1 << b for b in images]))
    else:
        g = Zhegalkin(m, data.draw(st.frozensets(st.integers(0, (1 << m) - 1), max_size=12)))
    assert is_minor(g, f) == bfcore._minor_search(g, f), (f, g)


def test_the_screen_leaves_few_correspondence_pairs_to_the_search(monkeypatch):
    # a drift-free count of the walk's work: of the sweep's 77,176 calls,
    # 11,101 pass the screen, and dropping any one of its five tests lets
    # at least 232 more through
    calls = []
    search = bfcore._minor_search
    monkeypatch.setattr(bfcore, "_minor_search", lambda g, f: calls.append(1) or search(g, f))
    result = verify.correspondence_sweep(samples=1000, workers=1)
    assert result.ok
    assert len(calls) <= 11_101


def test_minor_reflexive():
    for bits in range(16):
        p = zhegalkin_from_truth_table(TruthTable(2, bits))
        w = is_minor(p, p)
        assert w is not None
        assert all(len(b) == 1 for b in w.blocks)


def test_fact2_exhaustive_arity3():
    tables = [zhegalkin_from_truth_table(TruthTable(3, b)) for b in range(256)]
    for g in tables:
        for f in tables:
            w = is_minor(g, f)
            if w is None:
                continue
            eg, ef = essential_arity(g), essential_arity(f)
            assert eg <= ef
            assert (eg == ef) == is_equivalent(g, f)


def test_fact2_sampled_arity4():
    rng = random.Random(19)
    for _ in range(300):
        g = zhegalkin_from_truth_table(TruthTable(4, rng.getrandbits(16)))
        f = zhegalkin_from_truth_table(TruthTable(4, rng.getrandbits(16)))
        if is_minor(g, f) is None:
            continue
        assert essential_arity(g) <= essential_arity(f)
        if essential_arity(g) == essential_arity(f):
            assert is_equivalent(g, f)


def test_minor_transitive_on_chained_witnesses():
    rng = random.Random(23)
    for _ in range(60):
        f = zhegalkin_from_truth_table(TruthTable(4, rng.getrandbits(16)))
        fvars = sorted(essential_variables(f))
        if len(fvars) < 2:
            continue
        i, j = rng.sample(fvars, 2)
        g = identify(f, i, j)
        assert is_minor(g, f) is not None
        gvars = sorted(essential_variables(g))
        if len(gvars) < 2:
            continue
        a, b = rng.sample(gvars, 2)
        h = identify(g, a, b)
        assert is_minor(h, g) is not None
        assert is_minor(h, f) is not None


# ---------------------------------------------------------------------------
# arity gap


def test_gap_examples():
    assert arity_gap(poly(2, (1,), (2,))) == 2
    assert arity_gap(poly(3, (1, 2), (1, 3), (2, 3))) == 2
    assert arity_gap(poly(2, (1, 2), (1,), (2,))) == 1


def test_gap_requires_two_essential():
    with pytest.raises(ValueError):
        arity_gap(poly(2, (1,)))
    with pytest.raises(ValueError):
        classify_gap(poly(1, ()))


@st.composite
def gap_functions(draw):
    """A function on 1-7 variables, some often unused, or a sparse
    63-variable polynomial: up to 30 monomials of degree 1-6 on random
    variables, sometimes with a constant term."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        live = draw(st.integers(0, (1 << n) - 1))
        masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=14))
        return Zhegalkin(n, frozenset(m & live for m in masks))
    monomial = st.frozensets(st.integers(1, 63), min_size=1, max_size=6).map(bfcore.mask_of)
    masks = draw(st.frozensets(monomial, max_size=30))
    return Zhegalkin(63, masks | ({0} if draw(st.booleans()) else set()))


@contextlib.contextmanager
def pair_scans_refused():
    """``_identify_masks`` and ``_identify_vec``, the two pair
    identifications, raise while the block runs."""

    def refuse(*args):
        raise AssertionError("a pair was identified")

    with mock.patch.object(bfcore, "_identify_masks", refuse), mock.patch.object(bfcore, "_identify_vec", refuse):
        yield


@settings(max_examples=300, deadline=None)
@given(gap_functions())
@example(Zhegalkin(63, frozenset({1 << 62, 1 << 3})))
@example(Zhegalkin(63, frozenset({1 << 62 | 1 << 40, 1 << 62 | 1, 1 << 40 | 1, 0})))
@example(Zhegalkin(63, frozenset({1 << 62 | 1 << 40, 1 << 62})))
@example(poly(3, (1, 2), (3,)))  # a product and a single outside it
@example(poly(4, (1, 2), (2, 3), (3, 4)))  # three products, not a triangle
def test_arity_gap_matches_the_full_scan_and_identifies_no_pair(f):
    with pair_scans_refused():
        outcome = gap_outcome(arity_gap, f)
    assert outcome == gap_outcome(oracle_arity_gap, f)


def test_arity_gap_on_the_worst_case_of_the_pair_scan():
    # x1..x40 as linear terms plus 20,000 monomials of degree 2-6 on
    # x41..x63: the first 39 pairs each cancel two variables, so a scan that
    # stops at the first pair keeping ess - 1 still identifies 40 pairs
    rng = random.Random(13)
    monomials = {1 << v for v in range(40)}
    while len(monomials) < 20_040:
        monomials.add(bfcore.mask_of(rng.sample(range(41, 64), rng.randint(2, 6))))
    f = Zhegalkin(63, frozenset(monomials))
    start = time.perf_counter()
    with pair_scans_refused():
        assert arity_gap(f) == 1
    assert time.perf_counter() - start < 0.5


def test_classify_gap_examples():
    c = classify_gap(poly(3, (1,), (2,), (3,), ()))
    assert (c.tag, c.constant) == (GapTag.LINEAR_SUM, 1)
    c = classify_gap(poly(2, (1, 2), (1,)))
    assert (c.tag, c.constant) == (GapTag.XY_PLUS_X, 0)
    c = classify_gap(poly(3, (1, 2), (1, 3), (2, 3), (1,), (2,)))
    assert (c.tag, c.constant) == (GapTag.TRIANGLE_LINEAR, 0)
    # permuted single choice must still match
    c = classify_gap(poly(3, (1, 2), (1, 3), (2, 3), (1,), (3,)))
    assert c.tag == GapTag.TRIANGLE_LINEAR


def test_gap_classification_agrees_exhaustive_arity3():
    gap2 = 0
    for bits in range(256):
        p = zhegalkin_from_truth_table(TruthTable(3, bits))
        if essential_arity(p) < 2:
            continue
        gap = oracle_arity_gap(p)
        assert gap in (1, 2)
        assert (classify_gap(p).tag is not GapTag.GAP_ONE) == (gap == 2)
        gap2 += gap == 2
    # by family shape: linear sums 6+2, product-plus-factor 12, triangle 2,
    # triangle-plus-linear 6
    assert gap2 == 28


def gap_outcome(gap_of, f):
    try:
        result = gap_of(f)
    except ValueError as err:
        return str(err)
    return (result.tag, result.constant) if isinstance(result, bfcore.GapClass) else result


def test_gap_oracles_stay_independent_of_the_family_match():
    # the family match is what both gap oracles check, so neither may read it
    family = {"_gap_family", "classify_gap", "_classify_gap_vec", "arity_gap"}
    assert not names_in(oracle_arity_gap.__code__) & (family | {"GapTag"})
    assert not names_in(oracle_classify_gap.__code__) & family


def test_classify_gap_matches_the_old_body_exhaustive_arity3():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            f = zhegalkin_from_truth_table(TruthTable(n, bits))
            assert gap_outcome(classify_gap, f) == gap_outcome(oracle_classify_gap, f), f


@st.composite
def gap_family_draws(draw):
    """A function on 4-8 variables spread over x1..x63: a relabeled gap-two
    family member, or a near miss (a single outside the product, a path or
    star instead of a triangle), or random terms of degree mostly at most
    2; then, often, one more term toggled in."""
    ess = draw(st.integers(4, 8))
    bits = [1 << p for p in draw(st.permutations(range(bfcore.MAX_POLY_ARITY)))[:ess]]
    var = st.sampled_from(bits)
    shape = draw(st.sampled_from(("linear", "xy+x", "triangle", "triangle+linear", "random")))
    if shape == "linear":
        terms = draw(st.lists(var, min_size=2, max_size=ess, unique=True))
    elif shape == "xy+x":
        a, b = draw(st.lists(var, min_size=2, max_size=2, unique=True))
        terms = [a | b, draw(var)]
    elif shape.startswith("triangle"):
        if draw(st.booleans()):
            a, b, c = draw(st.lists(var, min_size=3, max_size=3, unique=True))
            terms = [a | b, b | c, a | c]
        else:
            pair = st.lists(var, min_size=2, max_size=2, unique=True).map(sum)
            terms = draw(st.lists(pair, min_size=3, max_size=3, unique=True))
        if shape == "triangle+linear":
            terms += draw(st.lists(var, min_size=2, max_size=2, unique=True))
    else:
        degree = st.sampled_from((0, 1, 1, 1, 2, 2, 2, 2, 3))
        term = degree.flatmap(lambda d: st.lists(var, min_size=d, max_size=d, unique=True).map(sum))
        terms = draw(st.lists(term, max_size=8))
    terms += draw(st.lists(st.sampled_from((0,)), max_size=1))  # the constant
    extra = st.lists(var, min_size=1, max_size=3, unique=True).map(sum)
    terms += draw(st.lists(extra, max_size=1))
    monomials = set()
    for m in terms:
        monomials ^= {m}
    return Zhegalkin(bfcore.MAX_POLY_ARITY, frozenset(monomials))


@settings(max_examples=400, deadline=None)
@given(gap_family_draws())
def test_classify_gap_matches_the_old_body_on_spread_supports(f):
    assert gap_outcome(classify_gap, f) == gap_outcome(oracle_classify_gap, f)


def gap_two_members(n):
    """Every member of the four gap-two families on x1..xn, both constants."""
    for c in (0, 1):
        const = [()] * c
        for k in range(2, n + 1):
            for vs in itertools.combinations(range(1, n + 1), k):
                yield poly(n, *const, *((v,) for v in vs))
        for a, b in itertools.permutations(range(1, n + 1), 2):
            yield poly(n, *const, (a, b), (a,))
        for a, b, c3 in itertools.combinations(range(1, n + 1), 3):
            triangle = [(a, b), (b, c3), (a, c3)]
            yield poly(n, *const, *triangle)
            for s, t in itertools.combinations((a, b, c3), 2):
                yield poly(n, *const, *triangle, (s,), (t,))


def packed_gap_cases():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield n, bfcore._mobius(bits, n)
    rng = random.Random(47)
    for n in (4, 5, 6):
        for _ in range(300):
            yield n, bfcore._mobius(rng.getrandbits(1 << n), n)
    for n in (4, 6):
        for f in gap_two_members(n):
            yield n, pack(f.monomials)


def test_packed_arity_gap_and_arity_gap_match_the_full_scan():
    families = 0
    for n, vec in packed_gap_cases():
        f = Zhegalkin(n, frozenset(bfcore.bits_of(vec)))
        expected = gap_outcome(oracle_arity_gap, f)
        # the vector body answers None where the oracle refuses
        vec_gap = bfcore._arity_gap_vec(vec, n)
        low_ess = "arity gap requires at least two essential variables"
        assert (low_ess if vec_gap is None else vec_gap) == expected, f
        assert gap_outcome(arity_gap, f) == expected, f
        families += expected == 2 and classify_gap(f).tag is not GapTag.GAP_ONE
    # the members at n = 4 and n = 6 alone, per family and constant
    assert families >= 2 * (11 + 12 + 4 + 12) + 2 * (57 + 30 + 20 + 60)


def test_packed_classify_gap_matches_the_old_body():
    high = 0
    for n, vec in packed_gap_cases():
        f = Zhegalkin(n, frozenset(bfcore.bits_of(vec)))
        expected = gap_outcome(oracle_classify_gap, f)
        assert gap_outcome(lambda _: bfcore._classify_gap_vec(vec, n), f) == expected, f
        high += any(m.bit_count() > 2 for m in f.monomials)
    assert high > 1000


def test_packed_arity_gap_stops_at_the_first_gap_one_pair(monkeypatch):
    calls = []
    identify_vec = bfcore._identify_vec
    monkeypatch.setattr(bfcore, "_identify_vec", lambda *args: calls.append(args) or identify_vec(*args))
    stopped_early = 0
    for n, vec in packed_gap_cases():
        f = Zhegalkin(n, frozenset(bfcore.bits_of(vec)))
        fvars = sorted(essential_variables(f))
        if len(fvars) < 2:
            continue
        pairs = list(itertools.combinations(fvars, 2))
        # the pairs up to the first that keeps ess - 1, or all of them
        drops = [essential_arity(identify(f, i, j)) for i, j in pairs]
        expected = drops.index(len(fvars) - 1) + 1 if len(fvars) - 1 in drops else len(pairs)
        calls.clear()
        bfcore._arity_gap_vec(vec, n)
        assert len(calls) == expected, f
        stopped_early += expected < len(pairs)
    assert stopped_early > 1000


# ---------------------------------------------------------------------------
# irreducibility, direct definition


def test_irreducible_direct_examples():
    assert is_irreducible_direct(poly(2, (1, 2))) == poly(1, (1,))
    composite = poly(
        4, (1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)
    )
    assert is_irreducible_direct(composite) is None
    assert is_irreducible_direct(poly(1, (1,))) is None
    assert is_irreducible_direct(poly(1, ())) is None


def test_irreducible_cover_dominates_all_one_steps():
    rng = random.Random(29)
    seen = 0
    for _ in range(400):
        f = zhegalkin_from_truth_table(TruthTable(4, rng.getrandbits(16)))
        cover = is_irreducible_direct(f)
        if cover is None:
            continue
        seen += 1
        fvars = sorted(essential_variables(f))
        for i, j in itertools.combinations(fvars, 2):
            assert is_minor(identify(f, i, j), cover) is not None
    assert seen >= 3


def test_conjunctions_and_disjunctions_irreducible():
    for n in range(2, 6):
        conj = poly(n, tuple(range(1, n + 1)))
        cover = is_irreducible_direct(conj)
        assert cover is not None and essential_arity(cover) == n - 1
        disj_bits = sum(1 << point for point in range(1, 1 << n))
        disj = zhegalkin_from_truth_table(TruthTable(n, disj_bits))
        assert is_irreducible_direct(disj) is not None


# ---------------------------------------------------------------------------
# one-step identification classes on the packed ANF vector


def pack(monomials) -> int:
    """The ANF vector of a monomial set: bit m for monomial m."""
    return sum(1 << m for m in monomials)


@st.composite
def spread_monomials(draw):
    """Monomials on ``ess`` variables placed on random bits of a wider
    arity, so the support is rarely contiguous: arity 1-7 for the orbit
    table, or ess 5-11 for the canonical path and its cap."""
    if draw(st.booleans()):
        arity = draw(st.integers(1, 7))
        ess = draw(st.integers(1, arity))
    else:
        ess = draw(st.integers(5, bfcore.CANONICAL_MAX_ESS + 2))
        arity = draw(st.integers(ess, ess + 3))
    positions = draw(st.permutations(range(arity)))[:ess]
    images = [1 << p for p in positions]
    small = st.integers(0, (1 << ess) - 1)
    return frozenset(bfcore.fold(m, images) for m in draw(st.frozensets(small, min_size=1, max_size=14)))


def outcome(groups_of, monomials):
    try:
        return list(groups_of(monomials).items())
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(spread_monomials())
def test_packed_one_step_groups_match_the_set_oracle(monomials):
    # same keys, same pairs in the caller's labels, same insertion order,
    # and the same cap error at the same pair
    assert outcome(bfcore._one_step_groups, monomials) == outcome(oracle_one_step_groups, monomials)


def test_class_lookup_names_any_vector_within_a_bounded_cache(monkeypatch):
    assert bfcore._canonical_reduced.cache_info().maxsize == 1 << 16
    # an orbit minimum, another member of its orbit, and a vector with a
    # dummy variable, up to ess 9
    cap = bfcore.CANONICAL_MAX_ESS
    for monomials in ({0b11, 0b100}, {0b110, 0b1}, {0b10100, 0}, {(1 << cap) - 1, 1 << (cap - 1), 0}):
        reduced, ess = bfcore._reduce_masks(frozenset(monomials))
        assert bfcore._class_of(pack(monomials)) == (bfcore._canonical_search(reduced, ess)[0], ess)
    searched = []
    monkeypatch.setattr(bfcore, "_canonical_search", lambda *args: searched.append(args))
    # one monomial on cap + 1 variables: a 2^(cap+1)-bit vector
    with pytest.raises(ValueError, match=f"capped at {cap} essential variables"):
        bfcore._class_of(pack([(1 << (cap + 1)) - 1]))
    assert searched == []


@st.composite
def vectors_with_dummies(draw):
    """The packed vector of a function on 1-7 variables, some of them
    often unused: the monomials are drawn on the live variables only."""
    n = draw(st.integers(1, 7))
    live = draw(st.integers(0, (1 << n) - 1))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=12))
    return pack({m & live for m in masks})


@settings(max_examples=300, deadline=None)
@given(vectors_with_dummies())
def test_class_lookup_matches_the_uncached_search(vec):
    reduced, ess = bfcore._reduce_masks(frozenset(bfcore.bits_of(vec)))
    assert bfcore._class_of(vec) == (bfcore._canonical_search(reduced, ess)[0], ess)


def test_one_class_is_searched_once(monkeypatch):
    # the orbit table names every relabeling on x1..x4, and a dummy variable
    # hands the lookup on to the support-reduced vector
    calls = []
    search = bfcore._canonical_search
    monkeypatch.setattr(bfcore, "_canonical_search", lambda *args: calls.append(args) or search(*args))
    bfcore._canonical_reduced.cache_clear()
    f = [0b0011, 0b0110, 0b1101, 0b1000, 0]
    keys = set()
    for perm in itertools.permutations(range(4)):
        keys.add(bfcore._class_of(pack(bfcore.fold(m, [1 << p for p in perm]) for m in f)))
    for n in range(5, 8):
        for positions in itertools.combinations(range(n), 4):
            keys.add(bfcore._class_of(pack(bfcore.fold(m, [1 << p for p in positions]) for m in f)))
    assert len(keys) == 1 and len(calls) == 1


def test_a_wide_support_is_refused_before_it_is_packed(monkeypatch):
    # packed, a 63-variable support would be a 2^63-bit int
    def no_lookup(vec):
        raise AssertionError("looked up")

    monkeypatch.setattr(bfcore, "_class_of", no_lookup)
    wide = poly(63, tuple(range(1, 64)))
    start = time.perf_counter()
    assert is_minor(wide, poly(3, (1, 2, 3))) is None
    with pytest.raises(ValueError, match="capped at"):
        canonical_form(wide)
    with pytest.raises(ValueError, match="capped at"):
        is_minor(poly(3, (1, 2, 3)), wide)
    # the cap is checked before the screen, which would refuse this pair
    with pytest.raises(ValueError, match="capped at"):
        is_minor(Zhegalkin(1, frozenset({0})), wide)
    assert time.perf_counter() - start < 1.0


@given(st.integers(1, 6), st.data())
def test_packed_identification_matches_the_set_identification(n, data):
    vec = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    monomials = frozenset(bfcore.bits_of(vec))
    for bi, bj in itertools.combinations(range(n), 2):
        assert bfcore._identify_vec(vec, bi, bj, n) == pack(bfcore._identify_masks(monomials, bi, bj))


@given(st.integers(1, 6), st.data())
def test_dropping_dummy_variables_matches_support_reduction(n, data):
    live = data.draw(st.integers(0, (1 << n) - 1))
    masks = data.draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=20))
    monomials = frozenset(m & live for m in masks)
    vec, width = pack(monomials), n
    for k in reversed(range(n)):
        if not any(m >> k & 1 for m in monomials):
            vec = bfcore._drop_var(vec, k, width)
            width -= 1
    reduced, ess = bfcore._reduce_masks(monomials)
    assert (vec, width) == (pack(reduced), ess)
