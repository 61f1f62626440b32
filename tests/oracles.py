"""Brute-force oracles shared by the test modules."""

from boolminor import bfcore
from boolminor.bfcore import GapClass, GapTag, Zhegalkin


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
