"""Brute-force oracles shared by the test modules."""

from boolminor import bfcore
from boolminor.bfcore import GapClass, GapTag, Zhegalkin
from boolminor.hypergraph import is_isomorphic


def oracle_all_isomorphic(hs):
    """Is every hypergraph isomorphic to the first?  Pairwise ``is_isomorphic``
    against the first member, stopping at the first miss: the group check as
    it was before it planned the first member's search once."""
    it = iter(hs)
    first = next(it, None)
    if first is None:
        return True
    return all(is_isomorphic(first, h) is not None for h in it)


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
