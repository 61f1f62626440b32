"""Simple graphs: constructions, autonomous independent sets, and the
classifier of graphs whose Boolean function is join-irreducible.

A graph is a hypergraph whose edges all have exactly two vertices, so the
whole hypergraph toolbox (contraction, isomorphism, the irreducibility
tests) applies unchanged.

The three classifiers the labeled-graph sweep runs on every graph have
private bodies over the neighborhood masks alone (``_classify_join_irreducible``,
``_satisfies_property_p``, ``_classify_property_p``); the public functions are
one-line wrappers that pass a graph's ``_nb``.  So the sweep can step one
neighborhood list from graph to graph and build no ``Graph`` per graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .bfcore import _identify_masks, bits_of, fold, mask_of, support_mask
from .hypergraph import Hypergraph, is_isomorphic, support_reduce


@lru_cache(maxsize=None)
def _pair_ends(n: int) -> dict[int, tuple[int, int, int, int]]:
    """Each pair mask of vertices 0..n-1, in ``itertools.combinations``
    order, mapped to ``(a, 1 << b, b, 1 << a)`` for its ends a < b: what
    the edge adds to the neighborhood of each end.  Built on first use and
    shared by every caller in the process; read it, never mutate it."""
    return {1 << a | 1 << b: (a, 1 << b, b, 1 << a) for a, b in itertools.combinations(range(n), 2)}


class Graph(Hypergraph):
    """A hypergraph with 2-element edges only (no loops, no empty edge).

    Construction decodes the open neighborhoods once into the read-only
    tuple ``_nb`` (index 0 = vertex 1), looking each edge up in the pair
    table of its vertex count.  Every classifier reads ``_nb`` only: the
    public ones hand it to their private bodies.  It is not a dataclass
    field, so equality, hashing and ``repr`` ignore it.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        ends = _pair_ends(self.vertex_count)
        nb = [0] * self.vertex_count
        try:
            for e in self.edges:
                a, bit_b, b, bit_a = ends[e]
                nb[a] |= bit_b
                nb[b] |= bit_a
        except KeyError:
            raise ValueError("graph edges must join exactly two distinct vertices") from None
        object.__setattr__(self, "_nb", tuple(nb))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        return cls(n, frozenset(mask_of(pair) for pair in pairs))

    def edge_pairs(self) -> list[tuple[int, int]]:
        out = []
        for e in sorted(self.edges):
            a, b = bits_of(e)
            out.append((a + 1, b + 1))
        return sorted(out)


def neighborhoods(g: Graph) -> list[int]:
    """Open neighborhood of each vertex as a bitmask (index 0 = vertex 1).

    A fresh list, so changing it leaves the graph's own tuple alone.
    """
    return list(g._nb)


# ---------------------------------------------------------------------------
# builders


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError("graph constructions need at least one vertex")


def complete(n: int) -> Graph:
    _require_positive(n)
    return Graph(n, frozenset(_pair_ends(n).keys()))


def empty(n: int) -> Graph:
    _require_positive(n)
    return Graph(n, frozenset())


def path(n: int) -> Graph:
    _require_positive(n)
    return Graph.from_pairs(n, ((k, k + 1) for k in range(1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    pairs = [(k, k + 1) for k in range(1, n)] + [(n, 1)]
    return Graph.from_pairs(n, pairs)


def complement(g: Graph) -> Graph:
    return Graph(g.vertex_count, frozenset(_pair_ends(g.vertex_count).keys()) - g.edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.vertex_count
    shifted = frozenset(e << shift for e in g2.edges)
    return Graph(shift + g2.vertex_count, g1.edges | shifted)


def graph_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    base = disjoint_union(g1, g2)
    cross = frozenset(
        (1 << a) | (1 << (g1.vertex_count + b))
        for a in range(g1.vertex_count)
        for b in range(g2.vertex_count)
    )
    return Graph(base.vertex_count, base.edges | cross)


# ---------------------------------------------------------------------------
# connectivity and isolated vertices


def _components(nb, within: int) -> list[int]:
    """Connected components of the vertex set ``within`` as bitmasks,
    sorted by lowest vertex; ``within`` must be closed under ``nb``."""
    out = []
    rest = within
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = fold(frontier, nb)
            frontier = nxt & ~comp
            comp |= nxt
        rest &= ~comp
        out.append(comp)
    return out


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitmasks, sorted by lowest vertex."""
    return _components(g._nb, (1 << g.vertex_count) - 1)


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def reduce_isolated(g: Graph) -> Graph:
    """Delete degree-0 vertices; may return the graph on zero vertices."""
    reduced = support_reduce(g)
    return Graph(reduced.vertex_count, reduced.edges)


# ---------------------------------------------------------------------------
# autonomous independent sets


@dataclass(frozen=True)
class AiDecomposition:
    """Partition into maximal autonomous independent sets plus the quotient.

    Vertices share a block exactly when they are nonadjacent with identical
    neighborhoods; the quotient graph on the blocks is ai-prime and the
    original graph is the lexicographic sum of its blocks over the quotient.
    """

    components: tuple[tuple[int, ...], ...]
    quotient: Graph


def ai_decomposition(g: Graph) -> AiDecomposition:
    nb = g._nb
    by_nb: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        by_nb.setdefault(nb[v], []).append(v + 1)
    blocks = sorted(by_nb.values())
    index_of = {v: bi for bi, block in enumerate(blocks) for v in block}
    qedges = set()
    for e in g.edges:
        a, b = bits_of(e)
        ba, bb = index_of[a + 1], index_of[b + 1]
        if ba != bb:
            qedges.add((1 << ba) | (1 << bb))
    quotient = Graph(len(blocks), frozenset(qedges))
    if not is_ai_prime(quotient):
        raise AssertionError("ai quotient failed to be prime; decomposition is broken")
    return AiDecomposition(tuple(tuple(b) for b in blocks), quotient)


def is_ai_prime(g: Graph) -> bool:
    """No two vertices are nonadjacent with identical neighborhoods."""
    return len(set(g._nb)) == g.vertex_count


def lexicographic_sum(components: tuple[tuple[int, ...], ...], quotient: Graph) -> Graph:
    """Blow each quotient vertex up into an independent set; rebuilds the graph."""
    n = sum(len(block) for block in components)
    edges = set()
    for e in quotient.edges:
        qa, qb = bits_of(e)
        for a in components[qa]:
            for b in components[qb]:
                edges.add((1 << (a - 1)) | (1 << (b - 1)))
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# property (P): every nonedge has a common neighbor of degree two


def _satisfies_property_p(nb) -> bool:
    """Every nonedge {a, b} has a common neighbor of degree two.

    The vertices that share a degree-two neighbor with a are the union of
    those neighbors' neighborhoods, so each vertex a strikes them off its
    non-neighbors; the scan stops at the first vertex with one left, which
    for most graphs is the first vertex.
    """
    full = (1 << len(nb)) - 1
    for a, m in enumerate(nb):
        rest = full & ~m & ~(1 << a)
        nbrs = m
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            c = nb[low.bit_length() - 1]
            if c.bit_count() == 2:
                rest &= ~c
        if rest:
            return False
    return True


def satisfies_property_p(g: Graph) -> bool:
    return _satisfies_property_p(g._nb)


class PropertyPKind(Enum):
    COMPLETE = "Kn"
    C5 = "C5"
    C4 = "C4"
    PATH3 = "Path3"


@dataclass(frozen=True)
class PropertyPClass:
    kind: PropertyPKind
    n: Optional[int] = None


def _classify_property_p(nb, edge_count: int) -> Optional[PropertyPClass]:
    """Which of the four property-(P) families the graph is: K_n, Path3, C4
    or C5.

    The family is read off the edge count and the degree sequence alone,
    without testing (P): a cycle has at least three vertices, so a 2-regular
    graph on four or five vertices is C4 or C5.  Any other graph returns None.
    So comparing the result with :func:`satisfies_property_p` checks both
    directions of the theorem that, on at least two vertices, these four
    families are exactly the graphs with (P).  The single-vertex graph
    satisfies (P) vacuously but belongs to no family and returns None.
    """
    n = len(nb)
    if n < 2:
        return None
    if edge_count == n * (n - 1) // 2:
        return PropertyPClass(PropertyPKind.COMPLETE, n)
    if n > 5:
        return None
    degrees = sorted(m.bit_count() for m in nb)
    if n == 3 and degrees == [1, 1, 2]:
        return PropertyPClass(PropertyPKind.PATH3)
    if n == 4 and degrees == [2, 2, 2, 2]:
        return PropertyPClass(PropertyPKind.C4)
    if n == 5 and degrees == [2] * 5:
        return PropertyPClass(PropertyPKind.C5)
    return None


def classify_property_p(g: Graph) -> Optional[PropertyPClass]:
    return _classify_property_p(g._nb, len(g.edges))


# ---------------------------------------------------------------------------
# join-irreducible graphs


class JIKind(Enum):
    DISJOINT_TRIANGLES = "DisjointTriangles"
    C5 = "C5"
    K2_JOIN_EMPTY = "K2JoinEmpty"
    COMPLETE = "Complete"
    EMPTY_JOIN_EMPTY = "EmptyJoinEmpty"
    BALANCED_MULTIPARTITE = "BalancedMultipartite"
    NOT_IRREDUCIBLE = "NotIrreducible"


_JI_PARAM_COUNT = {
    JIKind.DISJOINT_TRIANGLES: 1,
    JIKind.C5: 0,
    JIKind.K2_JOIN_EMPTY: 1,
    JIKind.COMPLETE: 1,
    JIKind.EMPTY_JOIN_EMPTY: 2,
    JIKind.BALANCED_MULTIPARTITE: 2,
    JIKind.NOT_IRREDUCIBLE: 0,
}


@dataclass(frozen=True)
class JIGraphClass:
    kind: JIKind
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.params) != _JI_PARAM_COUNT[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_JI_PARAM_COUNT[self.kind]} parameters")
        k, p = self.kind, self.params
        ok = True
        if k in (JIKind.DISJOINT_TRIANGLES, JIKind.K2_JOIN_EMPTY, JIKind.COMPLETE):
            ok = p[0] >= 2
        elif k is JIKind.EMPTY_JOIN_EMPTY:
            ok = 1 <= p[0] < p[1]
        elif k is JIKind.BALANCED_MULTIPARTITE:
            ok = p[0] >= 2 and p[1] >= 2
        if not ok:
            raise ValueError(f"parameters {p} violate the side conditions of {k.value}")
        inner = ",".join(str(x) for x in p)
        object.__setattr__(self, "_str", f"{k.value}({inner})" if p else k.value)

    @property
    def irreducible(self) -> bool:
        return self.kind is not JIKind.NOT_IRREDUCIBLE

    def __str__(self) -> str:
        return self._str


NOT_IRREDUCIBLE = JIGraphClass(JIKind.NOT_IRREDUCIBLE)


def _classify_join_irreducible(nb) -> JIGraphClass:
    """Match the isolated-vertex-free core against the six irreducible families.

    The core is the union of the neighborhoods, the vertices of nonzero
    degree.  The complete multipartite test runs first and stops at the
    first vertex whose non-neighbors (itself included) are not its part:
    in a complete multipartite graph the part of v is exactly that set.
    A complete multipartite core has two or more parts, so it is connected,
    and testing it before the components changes no verdict.  Components
    are computed only when every core vertex has degree two, since only
    disjoint triangles and C5 remain.
    """
    core = 0
    for m in nb:
        core |= m
    if not core:
        return NOT_IRREDUCIBLE
    parts = set()
    placed = 0
    rest = core
    while rest:
        bit = rest & -rest
        rest ^= bit
        pm = core & ~nb[bit.bit_length() - 1]
        # the recorded parts are disjoint, so a placed vertex's set must be
        # one of them, and a new vertex's set must miss them all
        if placed & bit:
            if pm not in parts:
                break
        elif pm & placed:
            break
        else:
            parts.add(pm)
            placed |= pm
    else:
        sizes = sorted(pm.bit_count() for pm in parts)
        r = len(sizes)
        if sizes[-1] == 1:
            return JIGraphClass(JIKind.COMPLETE, (r,))
        if r == 3 and sizes[1] == 1:
            return JIGraphClass(JIKind.K2_JOIN_EMPTY, (sizes[2],))
        if r == 2 and sizes[0] < sizes[1]:
            return JIGraphClass(JIKind.EMPTY_JOIN_EMPTY, (sizes[0], sizes[1]))
        if sizes[0] == sizes[-1]:
            return JIGraphClass(JIKind.BALANCED_MULTIPARTITE, (r, sizes[0]))
        return NOT_IRREDUCIBLE
    for m in nb:
        if m and m.bit_count() != 2:
            return NOT_IRREDUCIBLE
    comps = _components(nb, core)
    if len(comps) > 1:
        # every vertex has degree two, so a 3-vertex component is a triangle
        if all(comp.bit_count() == 3 for comp in comps):
            return JIGraphClass(JIKind.DISJOINT_TRIANGLES, (len(comps),))
        return NOT_IRREDUCIBLE
    if core.bit_count() == 5:
        return JIGraphClass(JIKind.C5)
    return NOT_IRREDUCIBLE


def classify_join_irreducible(g: Graph) -> JIGraphClass:
    return _classify_join_irreducible(g._nb)


def template_graph(cls: JIGraphClass) -> Graph:
    """A concrete representative of a join-irreducible family."""
    k, p = cls.kind, cls.params
    if k is JIKind.DISJOINT_TRIANGLES:
        g = complete(3)
        for _ in range(p[0] - 1):
            g = disjoint_union(g, complete(3))
        return g
    if k is JIKind.C5:
        return cycle(5)
    if k is JIKind.K2_JOIN_EMPTY:
        return graph_join(complete(2), empty(p[0]))
    if k is JIKind.COMPLETE:
        return complete(p[0])
    if k is JIKind.EMPTY_JOIN_EMPTY:
        return graph_join(empty(p[0]), empty(p[1]))
    if k is JIKind.BALANCED_MULTIPARTITE:
        g = empty(p[1])
        for _ in range(p[0] - 1):
            g = graph_join(g, empty(p[1]))
        return g
    raise ValueError("no template for the non-irreducible tag")


def matches_template(g: Graph, cls: JIGraphClass) -> bool:
    if not cls.irreducible:
        return False
    return is_isomorphic(reduce_isolated(g), template_graph(cls)) is not None


# ---------------------------------------------------------------------------
# contraction probe used by the verification sweeps


def lemma_aux_check(g: Graph) -> bool:
    """If some nonedge contraction keeps every vertex covered, some edge
    contraction must as well; returns whether that implication holds.

    Contractions are read in place, the identified-away vertex left isolated,
    so one covers its n - 1 vertices when n - 1 bits stay in the support."""
    if not is_connected(g):
        raise ValueError("the contraction probe is defined for connected graphs")
    n = g.vertex_count

    def covered(pair: int) -> bool:
        return support_mask(_identify_masks(g.edges, *bits_of(pair))).bit_count() == n - 1

    if not any(covered(p) for p in _pair_ends(n) if p not in g.edges):
        return True
    return any(covered(e) for e in g.edges)
