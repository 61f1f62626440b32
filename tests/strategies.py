"""Hypothesis strategies shared by the test modules."""

import json

from hypothesis import strategies as st

from boolminor import designs, formats
from boolminor.bfcore import Zhegalkin, truth_table_from_zhegalkin
from boolminor.graphs import Graph
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


# Characters the input probe inserts: the grammar's own tokens, the JSON
# punctuation, whitespace, a NUL and a non-ASCII letter, beside any
# character at all.
_PROBE_TOKENS = tuple("x*+-:,[]{}\" \n\t\x00é01") + ("tt:", "arity=", "x64", '"n"', '"edges"', "true", "null")

# the JSON values a probe swaps in for a document's value, of every type
_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 70), max_size=3),
    st.dictionaries(st.sampled_from(("n", "edges")), st.integers(0, 3), max_size=2),
)


@st.composite
def probe_seed_texts(draw):
    """A valid CLI input: a polynomial, a truth table, a hypergraph
    document, a graph line or a design name."""
    kind = draw(st.sampled_from(("polynomial", "table", "document", "graph", "design")))
    if kind == "design":
        return draw(st.sampled_from(sorted(designs.builtin_instances()) + sorted(designs.catalog_documents().values())))
    h = draw(small_hypergraphs())
    if kind == "document":
        return formats.format_hypergraph_doc(h)
    if kind == "graph":
        pairs = draw(st.frozensets(st.tuples(st.integers(1, h.vertex_count), st.integers(1, h.vertex_count))))
        return formats.format_graph_line(Graph.from_pairs(h.vertex_count, {p for p in pairs if p[0] != p[1]}))
    poly = Zhegalkin(h.vertex_count, h.edges)
    if kind == "table":
        return formats.format_truth_table(truth_table_from_zhegalkin(poly))
    return formats.format_polynomial(poly)


def _swap_json_type(draw, text):
    """``text`` with one value of its JSON document swapped for a drawn
    value of any type; ``text`` as it is when it is no JSON.  The depth is
    drawn first (the whole document, a field, an edge, a vertex), so the
    many vertices do not crowd out the rest."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    levels = [[(None, None)]]  # (container, key) of each value, by depth
    nodes = [doc]
    while nodes:
        level = []
        for node in nodes:
            keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
            level += [(node, key) for key in keys]
        if level:
            levels.append(level)
        nodes = [node[key] for node, key in level]
    node, key = draw(st.sampled_from(draw(st.sampled_from(levels))))
    value = draw(_json_values)
    if node is None:
        return json.dumps(value)
    node[key] = value
    return json.dumps(doc)


@st.composite
def mutated_inputs(draw):
    """A valid CLI input after one to three mutations: an inserted, deleted
    or duplicated span, a spliced digit run of 20 to 5,000 digits, or, in
    a JSON document, a value swapped for one of another type."""
    text = draw(probe_seed_texts())
    for _ in range(draw(st.integers(1, 3))):
        ops = ("insert", "delete", "duplicate", "digits")
        # a document is type-swapped as often as it is byte-mutated
        op = draw(st.sampled_from(ops + ("json",) * len(ops) if text.startswith("{") else ops))
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        if op == "insert":
            text = text[:i] + draw(st.one_of(st.sampled_from(_PROBE_TOKENS), st.characters())) + text[i:]
        elif op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        elif op == "digits":
            text = text[:i] + draw(st.sampled_from("0123456789")) * draw(st.integers(20, 5000)) + text[i:]
        else:
            text = _swap_json_type(draw, text)
    return text
