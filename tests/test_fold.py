"""The bit-fold primitive and its call sites, against set-based recomputation."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolminor import bfcore, designs, verify
from boolminor.bfcore import vars_of
from boolminor.hypergraph import Hypergraph, VertexMap, support_reduce
from oracles import names_in


@st.composite
def hypergraphs(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    edges = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=16))
    return Hypergraph(n, edges)


@st.composite
def vertex_maps(draw, source_count):
    target_count = draw(st.integers(1, 8))
    image = draw(
        st.lists(st.integers(1, target_count), min_size=source_count, max_size=source_count)
    )
    return VertexMap(source_count, target_count, tuple(image))


def renumbered(sets, kept):
    rank = {v: i + 1 for i, v in enumerate(sorted(kept))}
    return frozenset(frozenset(rank[v] for v in s) for s in sets)


@given(st.data())
def test_fold_single_bit_images(data):
    n = data.draw(st.integers(1, 16))
    image = data.draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    folded = bfcore.fold(mask, [1 << (t - 1) for t in image])
    assert vars_of(folded) == {image[v - 1] for v in vars_of(mask)}


@given(hypergraphs(), st.data())
def test_apply_mask(h, data):
    vmap = data.draw(vertex_maps(h.vertex_count))
    for e in h.edges:
        assert vars_of(vmap.apply_mask(e)) == {vmap.apply_vertex(v) for v in vars_of(e)}


@given(hypergraphs())
def test_support_reduce(h):
    kept = frozenset().union(*h.edge_sets())
    reduced = support_reduce(h)
    assert reduced.vertex_count == len(kept)
    assert reduced.edge_sets() == renumbered(h.edge_sets(), kept)


@given(hypergraphs(min_vertices=2), st.data())
def test_delete_pair(h, data):
    n = h.vertex_count
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n).filter(lambda v: v != i))
    kept = set(range(1, n + 1)) - {i, j}
    deleted = designs.delete_pair(h, (i, j))
    assert deleted.vertex_count == n - 2
    assert deleted.edge_sets() == renumbered(
        (s for s in h.edge_sets() if not s & {i, j}), kept
    )


@given(st.data())
def test_mask_tables(data):
    pair_count = data.draw(st.integers(1, 10))
    table = data.draw(st.permutations(range(pair_count)))
    lo = data.draw(st.integers(0, pair_count))
    tl, th = bfcore._mask_tables(table, pair_count, lo)
    assert len(tl) == 1 << lo and len(th) == 1 << (pair_count - lo)
    mask = data.draw(st.integers(0, (1 << pair_count) - 1))
    image = tl[mask & ((1 << lo) - 1)] | th[mask >> lo]
    assert vars_of(image) == {table[v - 1] + 1 for v in vars_of(mask)}


def test_brute_quotient_oracle_stays_independent_of_bfcore():
    # the oracle checks bfcore's minor test, so neither it nor any verify
    # helper it calls (the lane and image tables, the sample generator's
    # fold) may run bfcore code
    pending = [verify._brute_quotient, verify._parity_fold]
    seen = set()
    while pending:
        fn = pending.pop()
        fn = getattr(fn, "__wrapped__", fn)  # under lru_cache
        seen.add(fn.__name__)
        names = names_in(fn.__code__)
        assert not names & {"bfcore", "fold"}, fn.__name__
        for name in names:
            obj = getattr(verify, name, None)
            assert getattr(obj, "__module__", None) != bfcore.__name__, (fn.__name__, name)
            if getattr(obj, "__module__", None) == verify.__name__ and name not in seen:
                pending.append(obj)
    assert {"_brute_quotient", "_exact_images", "_lane_tables"} <= seen


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_negative_mask_is_refused_not_walked():
    # mask & -mask never clears a negative mask's bits
    with deadline(2):
        for mask in (-1, -6, -(1 << 70)):
            for call in (lambda: bfcore.bits_of(mask), lambda: bfcore.fold(mask, [1] * 80)):
                with pytest.raises(ValueError, match="a mask must be nonnegative, got (-|a negative)"):
                    call()
    # the echo names a huge mask by its size
    with pytest.raises(ValueError, match="got a negative 1001-bit integer$"):
        bfcore.bits_of(-(1 << 1000))
