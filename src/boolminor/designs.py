"""2-designs and Steiner systems: recognition, pair deletion, monomorphy.

A 2-(n,k,lambda) design is a k-uniform hypergraph in which every pair of
distinct points lies in exactly lambda blocks; lambda = 1 makes it a
Steiner system, and block size 3 a Steiner triple system.  For Steiner
systems, irreducibility of the associated Boolean function, isomorphy of
all pair contractions, and -2-monomorphy (all two-point deletions
isomorphic) are equivalent; the report type checks them (the first two
by one run of the contraction criterion) plus 2-set transitivity of the
automorphism group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bfcore import _check_pair, _relabel
from .hypergraph import (
    AUTOMORPHISM_MAX_VERTICES,
    Hypergraph,
    is_irreducible_by_contractions,
    _all_isomorphic,
    _automorphism_summary,
)


@dataclass(frozen=True)
class DesignParams:
    """Point count, block size, and the uniform pair-coverage count."""

    n: int
    k: int
    lambda_: int


def design_parameters(h: Hypergraph) -> Optional[DesignParams]:
    """The 2-(n,k,lambda) parameters, or None if the hypergraph is no design."""
    n = h.vertex_count
    if n < 2 or not h.edges:
        return None
    sizes = {e.bit_count() for e in h.edges}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    if k < 2:
        return None
    lam = None
    for a, b in itertools.combinations(range(n), 2):
        pair = (1 << a) | (1 << b)
        cover = sum(1 for e in h.edges if e & pair == pair)
        if lam is None:
            lam = cover
        elif cover != lam:
            return None
    return DesignParams(n, k, lam)


def is_steiner(h: Hypergraph) -> bool:
    params = design_parameters(h)
    return params is not None and params.lambda_ == 1


def is_steiner_triple(h: Hypergraph) -> bool:
    params = design_parameters(h)
    return params is not None and params.lambda_ == 1 and params.k == 3


def replication_number(params: DesignParams) -> int:
    """Blocks through each point: lambda (n-1) / (k-1), a classical identity."""
    num = params.lambda_ * (params.n - 1)
    if num % (params.k - 1):
        raise ValueError("inconsistent design parameters")
    return num // (params.k - 1)


def delete_pair(h: Hypergraph, pair: tuple[int, int]) -> Hypergraph:
    """Induced sub-hypergraph on V minus the pair: blocks avoiding both points.

    Remaining vertices are renumbered contiguously (isomorphism class is
    unaffected).
    """
    n = h.vertex_count
    i, j = _check_pair(n, *pair)
    e_mask = (1 << (i - 1)) | (1 << (j - 1))
    keep = (1 << n) - 1 ^ e_mask
    return Hypergraph(n - 2, _relabel((e for e in h.edges if not e & e_mask), keep))


def is_minus2_monomorphic(h: Hypergraph) -> bool:
    """Are all two-point deletions pairwise isomorphic?

    Each deletion is read in place, on the n vertices with the two deleted
    points left isolated; :func:`delete_pair` is the renumbered form.
    """
    n = h.vertex_count
    if n < 2:
        raise ValueError("-2-monomorphy needs at least two vertices")
    pairs = (1 << i | 1 << j for i, j in itertools.combinations(range(n), 2))
    return _all_isomorphic(n, (frozenset(e for e in h.edges if not e & pair) for pair in pairs))


@dataclass(frozen=True)
class SteinerReport:
    """The three equivalent irreducibility conditions plus the group flags.

    ``consistent`` records that the three conditions agreed; a False value
    is a reportable finding, never silently patched.  2-set transitivity
    and -2-monomorphy are both printed and deliberately never asserted
    against each other (whether they coincide for Steiner triple systems is
    open).

    ``irreducible`` and ``contractions_isomorphic`` are one run of the
    contraction criterion, whose top group here is every pair contraction:
    with blocks of 3 or more points no two blocks share two points, so no
    contraction cancels an edge and each keeps n - 1 points; with blocks of
    2 the system is K_n, whose contractions are all alike.
    ``irreducible == minus2_monomorphic`` is the check that carries the
    paper's claim.  The tests also compare ``irreducible`` with the direct
    definition on every catalog instance within ``bfcore.CANONICAL_MAX_ESS``
    points.
    """

    name: str
    params: DesignParams
    irreducible: bool
    contractions_isomorphic: bool
    minus2_monomorphic: bool
    two_set_transitive: Optional[bool]
    aut_order: Optional[int]

    @property
    def consistent(self) -> bool:
        return self.irreducible == self.contractions_isomorphic == self.minus2_monomorphic

    def structured(self) -> dict:
        """The parameters, the three conditions and the group flags as plain data."""
        p = self.params
        return {
            "params": [p.n, p.k, p.lambda_],
            "irreducible": self.irreducible,
            "contractions_isomorphic": self.contractions_isomorphic,
            "minus2_monomorphic": self.minus2_monomorphic,
            "two_set_transitive": self.two_set_transitive,
            "aut_order": self.aut_order,
        }

    def lines(self) -> list[str]:
        p = self.params
        ts = "n/a" if self.two_set_transitive is None else str(self.two_set_transitive)
        ao = "n/a" if self.aut_order is None else str(self.aut_order)
        return [
            f"{self.name}: 2-({p.n},{p.k},{p.lambda_})",
            f"  irreducible={self.irreducible}"
            f" contractions-isomorphic={self.contractions_isomorphic}"
            f" minus2-monomorphic={self.minus2_monomorphic}",
            f"  2-set-transitive={ts} aut-order={ao}",
            f"  conditions-agree={self.consistent}",
        ]


def steiner_report(h: Hypergraph, name: str = "steiner-system") -> SteinerReport:
    params = design_parameters(h)
    if params is None or params.lambda_ != 1:
        raise ValueError("the report is defined for Steiner systems only")
    aut_order: Optional[int] = None
    two_set: Optional[bool] = None
    if h.vertex_count <= AUTOMORPHISM_MAX_VERTICES:
        aut_order, two_set = _automorphism_summary(h)
    irreducible = is_irreducible_by_contractions(h)
    return SteinerReport(
        name=name,
        params=params,
        irreducible=irreducible,
        contractions_isomorphic=irreducible,
        minus2_monomorphic=is_minus2_monomorphic(h),
        two_set_transitive=two_set,
        aut_order=aut_order,
    )


# ---------------------------------------------------------------------------
# shipped instances


def fano_plane() -> Hypergraph:
    blocks = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    return Hypergraph.from_sets(7, blocks)


def affine_plane_order3() -> Hypergraph:
    """The twelve lines of the 3x3 grid; point (r,c) is 3r + c + 1."""
    blocks = []
    for r in range(3):
        blocks.append(tuple(3 * r + c + 1 for c in range(3)))
    for c in range(3):
        blocks.append(tuple(3 * r + c + 1 for r in range(3)))
    for slope in (1, 2):
        for d in range(3):
            blocks.append(tuple(3 * r + ((slope * r + d) % 3) + 1 for r in range(3)))
    return Hypergraph.from_sets(9, blocks)


def cyclic_sts13() -> Hypergraph:
    """A cyclic Steiner triple system on 13 points from two base blocks.

    Developed from {1,2,5} and {1,3,8} under rotation mod 13; included as a
    Steiner triple system whose automorphism group is not 2-set transitive.
    """
    blocks = set()
    for base in ((1, 2, 5), (1, 3, 8)):
        for t in range(13):
            blocks.add(tuple(sorted(((x - 1 + t) % 13) + 1 for x in base)))
    return Hypergraph.from_sets(13, sorted(blocks))


def builtin_instances() -> dict[str, Hypergraph]:
    return {
        "fano": fano_plane(),
        "ag23": affine_plane_order3(),
        "sts13": cyclic_sts13(),
    }


def catalog_documents() -> dict[str, str]:
    """The shipped instances serialized in the hypergraph document format."""
    from .formats import format_hypergraph_doc

    return {
        name: format_hypergraph_doc(h, indent=2) + "\n"
        for name, h in builtin_instances().items()
    }


def small_steiner_catalog() -> dict[str, Hypergraph]:
    """Small known Steiner systems and every :func:`builtin_instances` entry.

    Complete graphs on 2..7 points are the k=2 systems, and a single block
    covering all of 3..9 points is the degenerate k=n system.  The shipped
    instances add the Fano plane, the affine plane of order 3 and the
    13-point cyclic triple system.
    """
    from .graphs import complete

    catalog: dict[str, Hypergraph] = {}
    for n in range(2, 8):
        g = complete(n)
        catalog[f"K{n}"] = Hypergraph(g.vertex_count, g.edges)
    for n in range(3, 10):
        catalog[f"single-block-{n}"] = Hypergraph(n, frozenset([(1 << n) - 1]))
    return catalog | builtin_instances()
