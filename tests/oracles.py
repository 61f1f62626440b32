"""Brute-force oracles shared by the test modules."""

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
