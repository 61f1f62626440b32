"""Hypergraphs as the combinatorial twin of multilinear GF(2) polynomials.

Vertices are 1..n and a hyperedge is a vertex-set bitmask, so a hypergraph
and a polynomial are literally the same data (edges = monomials, the empty
edge = the constant monomial 1).  The module carries the minor machinery on
the hypergraph side: quotient maps, pair contraction, isomorphism and
automorphism search, and the contraction-class irreducibility test.

Contracting a pair is identifying two variables (``bfcore._identify_masks``).
``contract`` is the renumbered public form; the contraction checks and
``ess_drop_analysis`` read the identified edges on the parent's vertex set,
the identified-away vertex left isolated (neither ess nor isomorphism class
moves).  ``contraction_classes`` is ``bfcore``'s one-step grouping, which
identifies on the packed ANF vector instead.  The contraction criterion
(``_irreducible_by_contractions``) identifies on edge sets and decides by
the isomorphism search, so it stays independent of the direct definition
it is compared with, ``bfcore``'s lazy lower-cover scan on the vector.
Both sides stop early on one trivial bound, not on the lemma: a
contraction loses a vertex, so none keeps more than |support| - 1.

The isomorphism search has a source side (``_plan``), prepared once per
source, and a target side (``_matches``).  ``_first_bijections`` drives
both for ``is_isomorphic`` and for the group check behind the contraction
and Steiner checks (``_all_isomorphic``): it screens every member, plans
the first once, and stops at the first miss.  It is the one group screen:
callers hand it whole groups, unscreened.

Isolated vertices are kept; support reduction is an explicit step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import bfcore
from .bfcore import Zhegalkin, bits_of, mask_of, support_mask, vars_of

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
        bfcore._check_range("vertex count", self.vertex_count, 0, MAX_VERTICES)
        object.__setattr__(self, "edges", frozenset(self.edges))
        top = 1 << self.vertex_count
        for e in self.edges:
            if not 0 <= e < top:
                raise bfcore._mask_beyond(self.edges, f"edge names vertex {{}}, beyond {self.vertex_count}")

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
            bfcore._check_range("image value", t, 1, self.target_count)

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


def collapse_map(n: int, i: int, j: int) -> VertexMap:
    """The canonical quotient map onto the contraction: i,j -> l_e, rest kept.

    The merged vertex takes index min(i,j); vertices above max(i,j) shift
    down by one so the vertex set stays contiguous.
    """
    lo, hi = bfcore._check_pair(n, i, j)
    return VertexMap(n, n - 1, tuple(lo if v in (i, j) else v - (v > hi) for v in range(1, n + 1)))


def contract(h: Hypergraph, pair: tuple[int, int]) -> Hypergraph:
    """Identify the two vertices of ``pair``, numbered as :func:`collapse_map` maps them."""
    lo, hi = bfcore._check_pair(h.vertex_count, *pair)
    merged = bfcore._identify_masks(h.edges, lo - 1, hi - 1)
    keep = (1 << h.vertex_count) - 1 ^ 1 << (hi - 1)
    return Hypergraph(h.vertex_count - 1, bfcore._relabel(merged, keep))


# ---------------------------------------------------------------------------
# isomorphism and automorphisms


def _incidence(edges: Iterable[int], n: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Per vertex bit 0..n-1, the edges through it, and their ascending
    sizes: the vertex profile, a relabeling-invariant fingerprint compared
    sorted."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        for b in bits_of(e):
            inc[b].append(e)
    return inc, [tuple(sorted(map(int.bit_count, es))) for es in inc]


def _plan(
    inc: list[list[int]], profiles: list[tuple[int, ...]]
) -> list[tuple[int, list[int], tuple[int, ...]]]:
    """The source side of the search, prepared once per source from its
    :func:`_incidence`.

    One step per depth: the vertex placed there, the source edges it closes
    (all their vertices placed), and its profile, which names its candidate
    images in a target.  Most-constrained vertex first, since completing
    edges prunes hardest.  The score depends only on which vertices are
    assigned, so every branch takes this same order.
    """
    n = len(inc)
    plan = []
    assigned = 0
    for _ in range(n):
        v = min(
            (u for u in range(n) if not assigned >> u & 1),
            key=lambda u: (-sum(1 for e in inc[u] if e & ~(assigned | 1 << u) == 0), -len(inc[u]), u),
        )
        assigned |= 1 << v
        plan.append((v, [e for e in inc[v] if e & ~assigned == 0], profiles[v]))
    return plan


def _matches(
    plan: list[tuple[int, list[int], tuple[int, ...]]],
    inc: list[list[int]],
    profiles: list[tuple[int, ...]],
    edges: frozenset[int],
) -> Iterator[tuple[int, ...]]:
    """The target side: lazily yield every edge-preserving bijection from the
    planned source onto ``edges``, given the target's :func:`_incidence`,
    whose profiles sort equal to the source's.

    Each is an image tuple of single-bit masks (vertex v+1 goes to vertex
    w+1 when entry v is ``1 << w``), in backtracking search order; a caller
    that wants one bijection stops after the first.
    """
    n = len(inc)
    with_profile: dict[tuple[int, ...], list[int]] = {}
    for w, p in enumerate(profiles):
        with_profile.setdefault(p, []).append(w)
    steps = [(v, closing, with_profile[p]) for v, closing, p in plan]
    # single-bit images, so an edge maps through bfcore.fold
    img = [0] * n

    def search(depth: int, image_mask: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(img)
            return
        v, closing, candidates = steps[depth]
        for w in candidates:
            if image_mask >> w & 1:
                continue
            img[v] = 1 << w
            new_image = image_mask | 1 << w
            # the closing edges map one-to-one into the target edges through
            # w inside the new image, so equal counts make that map onto
            if all(bfcore.fold(e, img) in edges for e in closing) and len(closing) == sum(
                1 for e2 in inc[w] if e2 & ~new_image == 0
            ):
                yield from search(depth + 1, new_image)

    yield from search(0, 0)


def _first_bijections(
    n: int, members: Iterable[frozenset[int]]
) -> Iterator[Optional[tuple[int, ...]]]:
    """Per edge set on vertices 1..n after the first, the first bijection
    from the first member onto it that :func:`_matches` yields; None at the
    first member with none, after which ``members`` is read no further.

    A member is screened by its edge count and constant term, then by its
    sorted vertex profiles; the first member's plan is built once, when a
    member first passes both screens.
    """
    it = iter(members)
    first = next(it, None)
    if first is None:
        return
    size, constant = len(first), 0 in first
    inc1, prof1 = _incidence(first, n)
    shape = sorted(prof1)
    plan = None
    for edges in it:
        found = None
        if len(edges) == size and (0 in edges) == constant:
            inc2, prof2 = _incidence(edges, n)
            if sorted(prof2) == shape:
                if plan is None:
                    plan = _plan(inc1, prof1)
                found = next(_matches(plan, inc2, prof2, edges), None)
        yield found
        if found is None:
            return


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> Optional[VertexMap]:
    """An edge-preserving vertex bijection, or None.

    Both hypergraphs must have the same vertex count; reduce supports first
    when comparing values with different numbers of isolated vertices.
    """
    n = h1.vertex_count
    if n != h2.vertex_count:
        return None
    (found,) = _first_bijections(n, (h1.edges, h2.edges))
    return None if found is None else VertexMap(n, n, tuple(b.bit_length() for b in found))


def _check_automorphism_cap(h: Hypergraph) -> None:
    if h.vertex_count > AUTOMORPHISM_MAX_VERTICES:
        raise ValueError(
            f"automorphism search is capped at {AUTOMORPHISM_MAX_VERTICES} vertices"
        )


def automorphisms(h: Hypergraph) -> list[VertexMap]:
    """Every edge-preserving vertex permutation, identity included."""
    _check_automorphism_cap(h)
    n = h.vertex_count
    # a hypergraph passes every screen against itself
    inc, prof = _incidence(h.edges, n)
    return [
        VertexMap(n, n, tuple(b.bit_length() for b in found))
        for found in sorted(_matches(_plan(inc, prof), inc, prof, h.edges))
    ]


def _automorphism_summary(h: Hypergraph) -> tuple[int, bool]:
    """|Aut(h)| and whether Aut(h) moves {1, 2} onto every vertex pair.

    Read off the canonical search of the support: its tied leaves are the
    twin-ascending relabelings onto the least form, one per coset of the
    twin group, so |Aut| = leaves x prod |twin class|! x (isolated)!.  The
    maps first leaf^-1 . leaf, with the twin transpositions, generate the
    group on the support, and {1, 2} is closed under them.  A group that
    fixes a proper nonempty support moves no support pair onto a pair
    outside it.
    """
    _check_automorphism_cap(h)
    n = h.vertex_count
    reduced, ess = bfcore._reduce_masks(h.edges)
    _, leaves = bfcore._canonical_search(reduced, ess)
    lower_twins = bfcore._lower_twins(reduced, ess)
    order = len(leaves) * math.factorial(n - ess)
    for lower in lower_twins:
        order *= lower.bit_count() + 1
    if n < 3 or ess == 0:
        return order, True
    if ess < n:
        return order, False
    generators = []
    for leaf in leaves[1:]:
        gen = [0] * n
        for o, o0 in zip(leaf, leaves[0]):
            gen[o] = 1 << o0
        generators.append(gen)
    for v, lower in enumerate(lower_twins):
        if lower:
            u = (lower & -lower).bit_length() - 1
            swap = [1 << b for b in range(n)]
            swap[u], swap[v] = swap[v], swap[u]
            generators.append(swap)
    orbit = {0b11}
    frontier = [0b11]
    while frontier:
        pair = frontier.pop()
        for gen in generators:
            image = bfcore.fold(pair, gen)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return order, len(orbit) == n * (n - 1) // 2


def is_2set_transitive(h: Hypergraph) -> bool:
    """Does the automorphism group move any vertex pair to any other?"""
    return _automorphism_summary(h)[1]


# ---------------------------------------------------------------------------
# contraction classes and irreducibility


def _all_isomorphic(n: int, members: Iterable[frozenset[int]]) -> bool:
    """Is every edge set on vertices 1..n isomorphic to the first, and so,
    isomorphy being transitive, are all members pairwise isomorphic?"""
    return None not in _first_bijections(n, members)


def contraction_classes(h: Hypergraph) -> ContractionClassPartition:
    """Partition the support pairs by isomorphism of their contractions.

    Contractions of one hypergraph share a vertex count, so they are
    isomorphic exactly when their canonical forms agree: the classes are the
    one-step identification classes together with their pairs.
    """
    sup = support(h)
    if len(sup) < 2:
        raise ValueError("contraction classes need a support of at least two vertices")
    # the groups come in the order of their first pairs
    classes = tuple(
        ContractionClass(tuple(pairs), bfcore._class_poly(key), key[1])
        for key, pairs in bfcore._one_step_groups(h.edges).items()
    )
    return ContractionClassPartition(support=sup, classes=classes)


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
    return _irreducible_by_contractions(h.edges, h.vertex_count)


def _irreducible_by_contractions(edges: frozenset[int], n: int) -> bool:
    """The body of :func:`is_irreducible_by_contractions` on the edge set of
    a hypergraph on vertices 1..n.

    A contraction loses one of its two vertices, so none keeps more than
    |support| - 1 essential vertices, and the contractions that keep that
    many are the top group whenever there is one: the scan stops at the
    first of them whose edge count or constant term differs from the first
    one's, a second isomorphism class.  Any other top group goes whole to
    the group check, whose one screen rejects such a member as well.
    """
    sup = bits_of(support_mask(edges))
    most = len(sup) - 1
    merged = []
    screen = None
    for i, j in itertools.combinations(sup, 2):
        m = bfcore._identify_masks(edges, i, j)
        ess = support_mask(m).bit_count()
        if ess == most:
            if screen is None:
                screen = (len(m), 0 in m)
            elif screen != (len(m), 0 in m):
                return False
        merged.append((m, ess))
    if not merged:
        return False
    top = max(ess for _, ess in merged)
    return _all_isomorphic(n, [m for m, ess in merged if ess == top])


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
    lo, hi = bfcore._check_pair(h.vertex_count, i, j)
    # no renumbering: vertex v stays at bit v-1, the merged vertex at lo
    after_sup = support_mask(bfcore._identify_masks(h.edges, lo - 1, hi - 1))
    sup_before = support_mask(h.edges)
    drop = sup_before.bit_count() - after_sup.bit_count()

    e_mask = (1 << (i - 1)) | (1 << (j - 1))
    ibit, jbit = 1 << (i - 1), 1 << (j - 1)
    edges = h.edges

    le_isolated = not (after_sup >> (lo - 1)) & 1

    def cancels(f: int) -> bool:
        # residue F meets an even number of the donors F|{i}, F|{j}, F|{i,j}
        return sum(1 for cand in (f | ibit, f | jbit, f | e_mask) if cand in edges) % 2 == 0

    # merged vertex isolated iff every residue cancels
    le_parity = all(cancels(f) for f in {e & ~e_mask for e in edges if e & e_mask})

    isolated: list[int] = []
    conditions: list[tuple[int, bool]] = []
    for b in bits_of(sup_before):
        v = b + 1
        if v in (i, j) or after_sup >> b & 1:
            continue
        isolated.append(v)
        vbit = 1 << b
        through_v = [e for e in edges if e & vbit]
        cond = all(e & e_mask for e in through_v) and all(cancels(e & ~e_mask) for e in through_v)
        conditions.append((v, cond))
    return EssDropReport(
        pair=(i, j),
        drop=drop,
        le_isolated=le_isolated,
        le_parity_condition=le_parity,
        isolated_vertices=tuple(isolated),
        vertex_conditions=tuple(conditions),
    )
