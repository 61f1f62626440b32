"""The `labeled7` benchmark step: classify seeded labeled 7-vertex graphs.

Usage: python3 perfbench/labeled7.py MASKS_FILE

MASKS_FILE holds native unsigned 32-bit edge masks (``array("I")`` bytes);
bit k of a mask is the k-th pair of ``itertools.combinations(range(7), 2)``.
Every graph goes through the public classifiers that the labeled loop of
``verify graphs`` runs on each mask: ``classify_join_irreducible``,
``satisfies_property_p`` and ``classify_property_p``.  The step prints the
family counts, one FAIL line per graph whose property-(P) test disagrees with
its property-(P) classification, and ``ok`` or ``FAILED``; it exits 1 on any
disagreement.

The classifiers are looked up on the ``graphs`` module at call time, so a
traced run can rebind them.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter

from boolminor import graphs

N = 7
PAIR_MASKS = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(N), 2)]


def read_masks(path: str) -> array:
    masks = array("I")
    with open(path, "rb") as fh:
        masks.frombytes(fh.read())
    return masks


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: labeled7.py MASKS_FILE", file=sys.stderr)
        return 2
    masks = read_masks(argv[0])
    families: Counter = Counter()
    property_p: Counter = Counter()
    failures = 0
    for mask in masks:
        edges = []
        mm = mask
        while mm:
            low = mm & -mm
            edges.append(PAIR_MASKS[low.bit_length() - 1])
            mm ^= low
        g = graphs.Graph(N, frozenset(edges))
        families[str(graphs.classify_join_irreducible(g))] += 1
        sat = graphs.satisfies_property_p(g)
        fam = graphs.classify_property_p(g)
        if sat != (fam is not None):
            failures += 1
            print(f"FAIL property-p mask={mask} satisfies={sat} family={fam}")
        if fam is not None:
            property_p[fam.kind.value] += 1
    print(f"{len(masks)} labeled graphs on {N} vertices")
    print("families: " + " ".join(f"{k}={v}" for k, v in sorted(families.items())))
    print("property-P: " + " ".join(f"{k}={v}" for k, v in sorted(property_p.items())))
    print("ok" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
