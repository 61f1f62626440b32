"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from boolminor.hypergraph import Hypergraph, VertexMap


@st.composite
def symmetric_masks(draw, max_bits):
    """A mask set on bits 0..m-1 that often has a nontrivial symmetry group.

    Uniform random sets almost never do, so most draws are built to: a full
    k-uniform layer with a few masks toggled (twin-rich groups), disjoint
    copies of one small set, or every rotation of one or two masks (groups
    the twin transpositions do not generate).  The empty mask is added at
    random.  Returns the masks and m; bits of 0..m-1 may stay unused.
    """
    m = draw(st.integers(0, max_bits))
    kind = draw(st.sampled_from(("layer", "copies", "rotations", "random"))) if m else "random"
    full = (1 << m) - 1
    if kind == "layer":
        k = draw(st.integers(0, m))
        masks = {e for e in range(1 << m) if e.bit_count() == k}
        for e in draw(st.lists(st.integers(0, full), max_size=2)):
            masks ^= {e}
    elif kind == "copies" and m > 1:
        copies = draw(st.integers(2, m))
        size = m // copies
        base = draw(st.frozensets(st.integers(1, (1 << size) - 1), max_size=4))
        masks = {e << (c * size) for c in range(copies) for e in base}
    elif kind == "rotations" and m > 2:
        base = draw(st.frozensets(st.integers(1, full), max_size=2))
        masks = {(e << r | e >> (m - r)) & full for e in base for r in range(m)}
    else:
        masks = set(draw(st.frozensets(st.integers(0, full), max_size=12)))
    if draw(st.booleans()):
        masks.add(0)
    return frozenset(masks), m


@st.composite
def symmetric_hypergraphs(draw, max_vertices=7):
    """A symmetric edge set, isolated vertices beside it, all relabeled."""
    edges, m = draw(symmetric_masks(max_vertices))
    n = draw(st.integers(m, max_vertices))
    relabel = VertexMap(n, n, tuple(draw(st.permutations(range(1, n + 1)))))
    return Hypergraph(n, frozenset(relabel.apply_mask(e) for e in edges))


@st.composite
def small_hypergraphs(draw, max_vertices=6):
    """1..max_vertices vertices, the empty edge and isolated vertices allowed;
    half the draws are symmetric, so several pair contractions often tie at
    the top essential arity."""
    if draw(st.booleans()):
        return draw(symmetric_hypergraphs(max_vertices).filter(lambda h: h.vertex_count))
    n = draw(st.integers(1, max_vertices))
    return Hypergraph(n, draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=16)))
