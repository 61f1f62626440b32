"""Brute-force oracles shared by the test modules."""

import functools
import itertools
import types
from collections import Counter

from boolminor import bfcore, graphs, verify
from boolminor import hypergraph as hg
from boolminor.bfcore import GapClass, GapTag, Zhegalkin, bits_of
from boolminor.formats import format_graph_line
from boolminor.graphs import JIGraphClass, JIKind


def names_in(code: types.CodeType) -> set[str]:
    """The global and attribute names a code object reads, nested code
    (lambdas, comprehensions, generators) included: the independence
    guards read an oracle through this, not through ``co_names`` alone."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= names_in(const)
    return names


def per_node_isomorphisms(h1, h2):
    """The search as it was before its vertex order was planned up front:
    the most-constrained vertex is rescored at every node, and a preimage
    array checks the new image's edges in reverse.  Kept as the oracle for
    the yield sequence of the planned search (``hypergraph._matches``) and
    for the bijection ``hypergraph.is_isomorphic`` returns; it calls
    nothing in ``boolminor``."""
    n = h1.vertex_count
    if (0 in h1.edges) != (0 in h2.edges):
        return
    if n == 0:
        yield ()
        return
    edges1, edges2 = h1.edges, h2.edges

    def profiles(edges):
        prof = [[] for _ in range(n)]
        for e in edges:
            for b in range(n):
                if e >> b & 1:
                    prof[b].append(bin(e).count("1"))
        return [tuple(sorted(p)) for p in prof]

    prof1, prof2 = profiles(edges1), profiles(edges2)
    if sorted(prof1) != sorted(prof2):
        return
    inc1 = [[e for e in edges1 if e >> b & 1] for b in range(n)]
    inc2 = [[e for e in edges2 if e >> b & 1] for b in range(n)]

    def fold(mask, images):
        return sum(images[b] for b in range(n) if mask >> b & 1)

    img = [0] * n
    pre = [0] * n
    full = (1 << n) - 1

    def search(assigned, image_mask):
        if assigned == full:
            yield tuple(img)
            return
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
            ok = all(fold(e, img) in edges2 for e in closing)
            if ok:
                for e2 in inc2[w]:
                    if e2 & ~new_image == 0 and fold(e2, pre) not in edges1:
                        ok = False
                        break
            if ok:
                yield from search(new_assigned, new_image)
            img[v] = pre[w] = 0

    yield from search(0, 0)


def oracle_all_isomorphic(hs):
    """Is every hypergraph isomorphic to the first?  The per-node search
    against the first member, stopping at the first miss: the group check
    with no screen and no shared plan."""
    it = iter(hs)
    first = next(it, None)
    if first is None:
        return True
    return all(
        h.vertex_count == first.vertex_count and next(per_node_isomorphisms(first, h), None) is not None
        for h in it
    )


def oracle_mobius(bits, arity):
    """``bfcore._mobius`` as it was before its stage masks came from the
    per-arity table: each stage's mask is a long division of the all-ones
    word, quadratic in its 2^arity bits."""
    size = 1 << arity
    full = (1 << size) - 1
    step = 1
    while step < size:
        two = step << 1
        pattern = (full // ((1 << two) - 1)) * ((1 << step) - 1)
        bits ^= (bits & pattern) << step
        step = two
    return bits & full


def oracle_one_step_groups(monomials):
    """``bfcore._one_step_groups`` as it was before it walked the packed
    vector: every support pair identified on monomial sets, reduced, and
    canonicalized by the uncached search."""
    groups = {}
    sup = bfcore.support_mask(monomials)
    for i, j in itertools.combinations([b + 1 for b in bits_of(sup)], 2):
        reduced, ess = bfcore._reduce_masks(bfcore._identify_masks(monomials, i - 1, j - 1))
        bfcore._check_canonical_ess(ess)
        groups.setdefault((bfcore._canonical_search(reduced, ess)[0], ess), []).append((i, j))
    return groups


def oracle_maximal_one_steps(f: Zhegalkin):
    """The lower-cover scan as it was before it walked the packed vector
    lazily: every support pair grouped by the set-based
    ``oracle_one_step_groups`` first, the groups stably sorted by descending
    ess, and each class kept unless it lies below a kept class of higher
    ess, asked of the unscreened minor search.  It shares no step of the
    walk it checks."""
    bfcore._check_canonical_ess(bfcore.essential_arity(f))
    found = []
    for canon, ess in sorted(oracle_one_step_groups(f.monomials), key=lambda key: -key[1]):
        cls = Zhegalkin(max(ess, 1), frozenset(canon))
        if not any(m_ess > ess and bfcore._minor_search(cls, m) is not None for m, m_ess in found):
            found.append((cls, ess))
            yield cls


def oracle_irreducible_by_contractions(h):
    """The contraction criterion as it was before it stopped at a split top
    group: every support pair contracted, the top essential arity taken over
    all of them, and its group screened and searched."""
    pairs = itertools.combinations(bits_of(bfcore.support_mask(h.edges)), 2)
    merged = [bfcore._identify_masks(h.edges, i, j) for i, j in pairs]
    if not merged:
        return False
    esses = [bfcore.support_mask(m).bit_count() for m in merged]
    top = max(esses)
    group = [m for m, e in zip(merged, esses) if e == top]
    if len({(len(m), 0 in m) for m in group}) > 1:
        return False
    return hg._all_isomorphic(h.vertex_count, group)


def oracle_arity_gap(f: Zhegalkin) -> int:
    """The arity gap by its definition, the drop under the best of all
    support pairs: the set-side check of both ``bfcore.arity_gap``, which
    reads the gap off the family match, and the brute-force gap
    ``bfcore._arity_gap_vec``, which stops at the first pair that keeps
    ess - 1 variables."""
    fvars = sorted(bfcore.essential_variables(f))
    if len(fvars) < 2:
        raise ValueError("arity gap requires at least two essential variables")
    pairs = itertools.combinations(fvars, 2)
    best_after = max(
        bfcore.support_mask(bfcore._identify_masks(f.monomials, i - 1, j - 1)).bit_count() for i, j in pairs
    )
    return len(fvars) - best_after


def oracle_classify_gap(f: Zhegalkin) -> GapClass:
    """The gap-two family match on the support-reduced monomials, with every
    degree counted: ``classify_gap`` as it was before it read the monomials
    as they are and stopped at the first of degree 3 or more."""
    reduced, ess = bfcore._reduce_masks(f.monomials)
    if ess < 2:
        raise ValueError("gap classification requires at least two essential variables")
    constant = 1 if 0 in reduced else 0
    body = [m for m in reduced if m]
    singles = [m for m in body if m.bit_count() == 1]
    doubles = [m for m in body if m.bit_count() == 2]
    sizes = sorted(m.bit_count() for m in body)

    if len(singles) == len(body) >= 2:
        return GapClass(GapTag.LINEAR_SUM, constant)
    if sizes == [1, 2] and singles[0] & doubles[0] == singles[0]:
        return GapClass(GapTag.XY_PLUS_X, constant)
    triangle = len(doubles) == 3 and bfcore.support_mask(doubles).bit_count() == 3
    if sizes == [2, 2, 2] and triangle:
        return GapClass(GapTag.TRIANGLE, constant)
    if sizes == [1, 1, 2, 2, 2] and triangle:
        tri_support = bfcore.support_mask(doubles)
        if (
            singles[0] != singles[1]
            and singles[0] & tri_support
            and singles[1] & tri_support
        ):
            return GapClass(GapTag.TRIANGLE_LINEAR, constant)
    return GapClass(GapTag.GAP_ONE)


def two_pass_graph(n, edges):
    """``graphs.Graph(n, edges)`` as it was built before its pair-table
    decode became the edge check: the hypergraph check first (the vertex
    count, then every mask in range), then the decode, which refuses a
    non-pair.  Kept as the oracle for the one-pass constructor's graphs and
    refusals; the result is a ``Graph``, so it compares with one directly."""
    g = object.__new__(graphs.Graph)
    object.__setattr__(g, "vertex_count", n)
    object.__setattr__(g, "edges", edges)
    hg.Hypergraph.__post_init__(g)
    ends = graphs._pair_ends(g.vertex_count)
    nb = [0] * g.vertex_count
    try:
        for e in g.edges:
            a, bit_b, b, bit_a = ends[e]
            nb[a] |= bit_b
            nb[b] |= bit_a
    except KeyError:
        raise ValueError("graph edges must join exactly two distinct vertices") from None
    object.__setattr__(g, "_nb", tuple(nb))
    return g


def oracle_multipartite_parts(nb, within):
    """Sorted part sizes when the vertices ``within`` induce a complete
    multipartite graph, else None: every vertex's non-neighbors (itself
    included) grouped first, each group checked after the full scan."""
    parts = {}
    rest = within
    while rest:
        bit = rest & -rest
        rest ^= bit
        pm = within & ~nb[bit.bit_length() - 1]
        parts[pm] = parts.get(pm, 0) | bit
    for pm, members in parts.items():
        if pm != members:
            return None
    return sorted(pm.bit_count() for pm in parts)


def oracle_classify_join_irreducible(g):
    """``classify_join_irreducible`` as it was before its body stopped at the
    first vertex that breaks the multipartite test: the components of the
    core first, then the full-scan part test, then C5."""
    nb = g._nb
    core = 0
    for v, m in enumerate(nb):
        if m:
            core |= 1 << v
    if not core:
        return JIGraphClass(JIKind.NOT_IRREDUCIBLE)
    comps = graphs._components(nb, core)
    if len(comps) > 1:
        for comp in comps:
            # three vertices with degree sum 6 are a triangle
            if comp.bit_count() != 3 or sum(nb[v].bit_count() for v in bits_of(comp)) != 6:
                return JIGraphClass(JIKind.NOT_IRREDUCIBLE)
        return JIGraphClass(JIKind.DISJOINT_TRIANGLES, (len(comps),))
    sizes = oracle_multipartite_parts(nb, core)
    if sizes is not None:
        r = len(sizes)
        if all(s == 1 for s in sizes):
            return JIGraphClass(JIKind.COMPLETE, (r,))
        if r == 3 and sizes[0] == sizes[1] == 1 and sizes[2] >= 2:
            return JIGraphClass(JIKind.K2_JOIN_EMPTY, (sizes[2],))
        if r == 2 and sizes[0] < sizes[1]:
            return JIGraphClass(JIKind.EMPTY_JOIN_EMPTY, (sizes[0], sizes[1]))
        if r >= 2 and sizes[0] == sizes[-1] >= 2:
            return JIGraphClass(JIKind.BALANCED_MULTIPARTITE, (r, sizes[0]))
        return JIGraphClass(JIKind.NOT_IRREDUCIBLE)
    if core.bit_count() == 5 and all(m.bit_count() == 2 for m in nb if m):
        return JIGraphClass(JIKind.C5)
    return JIGraphClass(JIKind.NOT_IRREDUCIBLE)


def oracle_satisfies_property_p(g):
    """Every nonedge {a, b} has a common neighbor of degree two, pair by pair."""
    n = g.vertex_count
    adj = {frozenset(p) for p in g.edge_pairs()}
    degree = Counter(v for p in adj for v in p)
    return all(
        frozenset((a, b)) in adj
        or any(degree[c] == 2 and {a, c} in adj and {b, c} in adj for c in range(1, n + 1))
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    )


def oracle_classify_property_p(g):
    """The property-(P) family by isomorphism with its template graph."""
    n = g.vertex_count
    if n >= 2 and g == graphs.complete(n):
        return graphs.PropertyPClass(graphs.PropertyPKind.COMPLETE, n)
    templates = {
        3: (graphs.path(3), graphs.PropertyPKind.PATH3),
        4: (graphs.cycle(4), graphs.PropertyPKind.C4),
        5: (graphs.cycle(5), graphs.PropertyPKind.C5),
    }
    if n in templates and graphs.is_isomorphic(g, templates[n][0]) is not None:
        return graphs.PropertyPClass(templates[n][1])
    return None


# the lane tables as the former body read them, cached: the package builds
# them once per image table and keeps only the image tables
lane_tables = functools.cache(verify._lane_tables)


def oracle_brute_quotient(edge_mask1, n1, targets, n2):
    """``verify._brute_quotient`` as it was before its exact-image tables
    were built once per size pair: for each edge of the larger side, every
    call splits all n2^n1 map lanes by the exact image of that edge, one
    target vertex at a time.  Kept as the oracle of the cached tables."""
    table = lane_tables(n1, n2)
    full = (1 << n2**n1) - 1
    parity = [0] * (1 << n2)
    for e in range(1 << n1):
        if not edge_mask1 >> e & 1:
            continue
        vertex_lanes = [table[v] for v in range(n1) if e >> v & 1]
        exact = {0: full}
        for w in range(n2):
            hit = 0
            for lanes in vertex_lanes:
                hit |= lanes[w]
            split = {}
            for t, lane in exact.items():
                on = lane & hit
                if on:
                    split[t | 1 << w] = on
                if on != lane:
                    split[t] = lane ^ on
            exact = split
        for t, lane in exact.items():
            parity[t] ^= lane
    found = []
    for em2 in targets:
        maps = 0 if em2 >> (1 << n2) else full
        for t, p in enumerate(parity):
            if not maps:
                break
            maps &= p if em2 >> t & 1 else ~p
        if not maps:
            found.append(None)
            continue
        i = (maps & -maps).bit_length() - 1
        found.append(tuple(i // n2 ** (n1 - 1 - v) % n2 for v in range(n1)))
    return found


def oracle_labeled_shard(job):
    """The labeled loop as it was before it stepped one neighborhood list:
    a ``Graph`` per mask, the public property-(P) classifiers, and the
    components-first join-irreducible oracle above."""
    n, start, stop, rep_slice, verdicts = job
    pairs = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)]
    ji_counter = Counter()
    p_counter = Counter()
    mismatches = []
    p_mismatches = []
    for m in range(start, stop):
        g = graphs.Graph(n, frozenset(pairs[k] for k in bits_of(m)))
        cls = oracle_classify_join_irreducible(g)
        expected = verdicts[rep_slice[m - start]]
        ji_counter[str(cls)] += 1
        if cls.irreducible != expected:
            mismatches.append(
                {
                    "sweep": "graphs",
                    "graph": format_graph_line(g),
                    "classified": str(cls),
                    "irreducible_oracle": bool(expected),
                }
            )
        if n >= 2:
            sat = graphs.satisfies_property_p(g)
            fam = graphs.classify_property_p(g)
            if sat != (fam is not None):
                p_mismatches.append(
                    {
                        "sweep": "property-p",
                        "graph": format_graph_line(g),
                        "satisfies": sat,
                        "family": None if fam is None else fam.kind.value,
                    }
                )
            if fam is not None:
                p_counter[fam.kind.value] += 1
    return {
        "ji_counter": ji_counter,
        "p_counter": p_counter,
        "mismatches": mismatches,
        "p_mismatches": p_mismatches,
    }
