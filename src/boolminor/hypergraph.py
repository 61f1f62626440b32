"""Hypergraphs as the combinatorial twin of multilinear GF(2) polynomials.

Vertices are 1..n and a hyperedge is a vertex-set bitmask, so a hypergraph
and a polynomial are literally the same data (edges = monomials, the empty
edge = the constant monomial 1).  The module carries the minor machinery on
the hypergraph side: quotient maps, pair contraction, isomorphism and
automorphism search, and the contraction-class irreducibility test.

Contracting a pair is identifying two variables: ``contract`` and
``ess_drop_analysis`` run on ``bfcore._identify_masks``, and
``contraction_classes`` is ``bfcore``'s one-step grouping with its pairs.

Isolated vertices are kept; support reduction is an explicit step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import bfcore
from .bfcore import Zhegalkin, bits_of, mask_of, popcount, support_mask, vars_of

MAX_VERTICES = 63
AUTOMORPHISM_MAX_VERTICES = 13


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a duplicate-free set of hyperedge bitmasks.

    ``vertex_count`` 0 is allowed only as the result of reducing an edgeless
    value; every ordinary construction uses at least one vertex.
    """

    vertex_count: int
    edges: frozenset[int]

    def __post_init__(self) -> None:
        if not 0 <= self.vertex_count <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        top = 1 << self.vertex_count
        for e in self.edges:
            if not 0 <= e < top:
                raise ValueError(f"edge names vertex {e.bit_length()}, beyond {self.vertex_count}")

    @classmethod
    def from_sets(cls, vertex_count: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(vertex_count, frozenset(mask_of(e) for e in edges))

    def edge_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(vars_of(e) for e in self.edges)


@dataclass(frozen=True)
class VertexMap:
    """A total map {1..source_count} -> {1..target_count}."""

    source_count: int
    target_count: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.source_count:
            raise ValueError("image must assign every source vertex")
        for t in self.image:
            if not 1 <= t <= self.target_count:
                raise ValueError(f"image value {t} outside 1..{self.target_count}")

    def apply_vertex(self, v: int) -> int:
        return self.image[v - 1]

    def apply_mask(self, mask: int) -> int:
        return bfcore.fold(mask, [1 << (t - 1) for t in self.image])

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls(n, n, tuple(range(1, n + 1)))


@dataclass(frozen=True)
class ContractionClass:
    """One block of the pair partition: pairs whose contractions are isomorphic."""

    pairs: tuple[tuple[int, int], ...]
    canon: Zhegalkin
    ess: int


@dataclass(frozen=True)
class ContractionClassPartition:
    support: frozenset[int]
    classes: tuple[ContractionClass, ...]


# ---------------------------------------------------------------------------
# the polynomial bijection


def polynomial_of(h: Hypergraph) -> Zhegalkin:
    if h.vertex_count < 1:
        raise ValueError("a polynomial needs at least one variable")
    return Zhegalkin(h.vertex_count, h.edges)


def hypergraph_of(p: Zhegalkin) -> Hypergraph:
    return Hypergraph(p.arity, p.monomials)


def support(h: Hypergraph) -> frozenset[int]:
    return vars_of(support_mask(h.edges))


def support_reduce(h: Hypergraph) -> Hypergraph:
    """Drop isolated vertices, renumbering the support contiguously."""
    edges, ess = bfcore._reduce_masks(h.edges)
    return h if ess == h.vertex_count else Hypergraph(ess, edges)


# ---------------------------------------------------------------------------
# quotient maps


def verify_quotient_map(m: VertexMap, hp: Hypergraph, h: Hypergraph) -> bool:
    """Check the parity condition: each target edge has an odd preimage count.

    Only images of hp's edges can have nonzero count, so folding them with
    cancellation and comparing against h's edge set is the whole check.
    """
    if m.source_count != hp.vertex_count or m.target_count != h.vertex_count:
        raise ValueError("vertex map does not fit the given hypergraphs")
    images = [1 << (t - 1) for t in m.image]
    return bfcore.map_monomials(hp.edges, images) == h.edges


def compose_quotients(m1: VertexMap, m2: VertexMap) -> VertexMap:
    """The composite map applying m1 first, then m2."""
    if m1.target_count != m2.source_count:
        raise ValueError("maps are not composable: range mismatch")
    return VertexMap(
        m1.source_count,
        m2.target_count,
        tuple(m2.image[t - 1] for t in m1.image),
    )


# ---------------------------------------------------------------------------
# contraction of a vertex pair


def _check_pair(n: int, i: int, j: int) -> tuple[int, int]:
    """The pair ascending, once it names two distinct vertices of 1..n."""
    if i == j:
        raise ValueError("contraction needs two distinct vertices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("contracted vertices must exist")
    return min(i, j), max(i, j)


def collapse_map(n: int, i: int, j: int) -> VertexMap:
    """The canonical quotient map onto the contraction: i,j -> l_e, rest kept.

    The merged vertex takes index min(i,j); vertices above max(i,j) shift
    down by one so the vertex set stays contiguous.
    """
    lo, hi = _check_pair(n, i, j)
    return VertexMap(n, n - 1, tuple(lo if v in (i, j) else v - (v > hi) for v in range(1, n + 1)))


def contract(h: Hypergraph, pair: tuple[int, int]) -> Hypergraph:
    """Identify the two vertices of ``pair``, numbered as :func:`collapse_map` maps them."""
    i, j = pair
    lo, hi = _check_pair(h.vertex_count, i, j)
    below = (1 << (hi - 1)) - 1
    merged = bfcore._identify_masks(h.edges, lo - 1, hi - 1)
    return Hypergraph(h.vertex_count - 1, frozenset(m & below | (m >> 1) & ~below for m in merged))


# ---------------------------------------------------------------------------
# isomorphism and automorphisms


def _vertex_profiles(edges: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """Per vertex bit 0..n-1, the ascending sizes of the edges through it:
    a relabeling-invariant fingerprint, compared sorted."""
    prof: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        size = popcount(e)
        for b in bits_of(e):
            prof[b].append(size)
    return [tuple(sorted(p)) for p in prof]


def _isomorphisms(h1: Hypergraph, h2: Hypergraph) -> Iterator[tuple[int, ...]]:
    """Lazily yield every edge-preserving vertex bijection h1 -> h2.

    Each is an image tuple of single-bit masks (vertex v+1 goes to vertex
    w+1 when entry v is ``1 << w``), in backtracking search order; a caller
    that wants one bijection stops after the first.  Nothing is searched
    unless the constant terms and the sorted vertex profiles agree.
    """
    n = h1.vertex_count
    if (0 in h1.edges) != (0 in h2.edges):
        return
    if n == 0:
        yield ()
        return
    edges1, edges2 = h1.edges, h2.edges
    prof1 = _vertex_profiles(edges1, n)
    prof2 = _vertex_profiles(edges2, n)
    if sorted(prof1) != sorted(prof2):
        return
    inc1: list[list[int]] = [[] for _ in range(n)]
    inc2: list[list[int]] = [[] for _ in range(n)]
    for e in edges1:
        for b in bits_of(e):
            inc1[b].append(e)
    for e in edges2:
        for b in bits_of(e):
            inc2[b].append(e)

    # single-bit images both ways, so an edge maps through bfcore.fold
    img = [0] * n
    pre = [0] * n
    full = (1 << n) - 1

    def search(assigned: int, image_mask: int) -> Iterator[tuple[int, ...]]:
        if assigned == full:
            yield tuple(img)
            return
        # most-constrained vertex first: completing edges prunes hardest
        best_v, best_score = -1, None
        for v in range(n):
            if assigned >> v & 1:
                continue
            rest = ~(assigned | 1 << v)
            completed = sum(1 for e in inc1[v] if e & rest == 0)
            score = (-completed, -len(inc1[v]), v)
            if best_score is None or score < best_score:
                best_v, best_score = v, score
        v = best_v
        vbit = 1 << v
        new_assigned = assigned | vbit
        closing = [e for e in inc1[v] if e & ~new_assigned == 0]
        for w in range(n):
            wbit = 1 << w
            if image_mask & wbit or prof1[v] != prof2[w]:
                continue
            img[v] = wbit
            pre[w] = vbit
            new_image = image_mask | wbit
            ok = all(bfcore.fold(e, img) in edges2 for e in closing)
            if ok:
                for e2 in inc2[w]:
                    if e2 & ~new_image == 0 and bfcore.fold(e2, pre) not in edges1:
                        ok = False
                        break
            if ok:
                yield from search(new_assigned, new_image)
            img[v] = pre[w] = 0

    yield from search(0, 0)


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> Optional[VertexMap]:
    """An edge-preserving vertex bijection, or None.

    Both hypergraphs must have the same vertex count; reduce supports first
    when comparing values with different numbers of isolated vertices.
    """
    n = h1.vertex_count
    if n != h2.vertex_count:
        return None
    found = next(_isomorphisms(h1, h2), None)
    return None if found is None else VertexMap(n, n, tuple(b.bit_length() for b in found))


def _automorphism_images(h: Hypergraph) -> Iterator[tuple[int, ...]]:
    """The lazy automorphism search, refused above the vertex cap."""
    if h.vertex_count > AUTOMORPHISM_MAX_VERTICES:
        raise ValueError(
            f"automorphism search is capped at {AUTOMORPHISM_MAX_VERTICES} vertices"
        )
    return _isomorphisms(h, h)


def automorphisms(h: Hypergraph) -> list[VertexMap]:
    """Every edge-preserving vertex permutation, identity included."""
    n = h.vertex_count
    return [
        VertexMap(n, n, tuple(b.bit_length() for b in found))
        for found in sorted(_automorphism_images(h))
    ]


def _automorphism_summary(h: Hypergraph) -> tuple[int, bool]:
    """|Aut(h)| and whether Aut(h) moves {1, 2} onto every vertex pair.

    One pass over the group keeps only a count and the orbit of {1, 2} as
    two-bit masks; no group element is stored.
    """
    n = h.vertex_count
    order, orbit = 0, set()
    for img in _automorphism_images(h):
        order += 1
        orbit.add(sum(img[:2]))
    return order, n < 3 or len(orbit) == n * (n - 1) // 2


def is_2set_transitive(h: Hypergraph) -> bool:
    """Does the automorphism group move any vertex pair to any other?"""
    return _automorphism_summary(h)[1]


# ---------------------------------------------------------------------------
# contraction classes and irreducibility


def _all_isomorphic(hs: Iterable[Hypergraph]) -> bool:
    """Is every hypergraph isomorphic to the first?  Stops at the first miss.

    Isomorphy is transitive, so comparing against the first decides whether
    all members are pairwise isomorphic.
    """
    it = iter(hs)
    first = next(it, None)
    if first is None:
        return True
    return all(is_isomorphic(first, h) is not None for h in it)


def _support_pairs(h: Hypergraph) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(support(h)), 2))


def contraction_classes(h: Hypergraph) -> ContractionClassPartition:
    """Partition the support pairs by isomorphism of their contractions.

    Contractions of one hypergraph share a vertex count, so they are
    isomorphic exactly when their canonical forms agree: the classes are the
    one-step identification classes together with their pairs.
    """
    sup = support(h)
    if len(sup) < 2:
        raise ValueError("contraction classes need a support of at least two vertices")
    classes = [
        ContractionClass(tuple(pairs), Zhegalkin(max(ess, 1), frozenset(canon)), ess)
        for (canon, ess), pairs in bfcore._one_step_groups(h.edges).items()
    ]
    classes.sort(key=lambda c: c.pairs[0])
    return ContractionClassPartition(support=sup, classes=tuple(classes))


def lemma_condition_holds(partition: ContractionClassPartition) -> bool:
    """Is there a class whose contractions strictly dominate all others in ess?"""
    top = max(c.ess for c in partition.classes)
    return sum(1 for c in partition.classes if c.ess == top) == 1


def is_irreducible_by_contractions(h: Hypergraph) -> bool:
    """Irreducibility via contraction classes.

    The criterion asks for a pair class whose contractions have strictly
    larger essential arity than every other pair's; equivalently the pairs
    achieving the maximal essential arity must form a single isomorphism
    class, which is all this checks.
    """
    pairs = _support_pairs(h)
    if not pairs:
        return False
    contractions = [contract(h, pair) for pair in pairs]
    esses = [popcount(support_mask(he.edges)) for he in contractions]
    top = max(esses)
    return _all_isomorphic(he for he, e in zip(contractions, esses) if e == top)


# ---------------------------------------------------------------------------
# essential-arity drop analysis


@dataclass(frozen=True)
class EssDropReport:
    """Why contracting ``pair`` dropped the essential arity by ``drop``.

    ``le_isolated`` flags the merged vertex ending up outside the support;
    ``le_parity_condition`` is the equivalent cancellation condition computed
    straight from the edges.  ``isolated_vertices`` lists other support
    vertices that became isolated, each with its evaluated edge condition.
    """

    pair: tuple[int, int]
    drop: int
    le_isolated: bool
    le_parity_condition: bool
    isolated_vertices: tuple[int, ...]
    vertex_conditions: tuple[tuple[int, bool], ...]


def ess_drop_analysis(h: Hypergraph, pair: tuple[int, int]) -> EssDropReport:
    i, j = pair
    lo, hi = _check_pair(h.vertex_count, i, j)
    # no renumbering: vertex v stays at bit v-1, the merged vertex at lo
    after_sup = support_mask(bfcore._identify_masks(h.edges, lo - 1, hi - 1))
    sup_before = support_mask(h.edges)
    drop = popcount(sup_before) - popcount(after_sup)

    e_mask = (1 << (i - 1)) | (1 << (j - 1))
    ibit, jbit = 1 << (i - 1), 1 << (j - 1)
    edges = h.edges

    le_isolated = not (after_sup >> (lo - 1)) & 1

    # merged vertex isolated iff every residue F meets an even number of
    # the three possible donors F|{i}, F|{j}, F|{i,j}
    residues = {e & ~e_mask for e in edges if e & e_mask}
    le_parity = all(
        sum(1 for cand in (f | ibit, f | jbit, f | e_mask) if cand in edges) % 2 == 0
        for f in residues
    )

    isolated: list[int] = []
    conditions: list[tuple[int, bool]] = []
    for b in bits_of(sup_before):
        v = b + 1
        if v in (i, j) or after_sup >> b & 1:
            continue
        isolated.append(v)
        vbit = 1 << b
        through_v = [e for e in edges if e & vbit]
        cond = all(e & e_mask for e in through_v) and all(
            sum(1 for cand in (s | e_mask, s | ibit, s | jbit) if cand in edges) % 2 == 0
            for s in {e & ~e_mask for e in through_v}
        )
        conditions.append((v, cond))
    return EssDropReport(
        pair=(i, j),
        drop=drop,
        le_isolated=le_isolated,
        le_parity_condition=le_parity,
        isolated_vertices=tuple(isolated),
        vertex_conditions=tuple(conditions),
    )
