"""Boolean functions and the variable-identification minor quasi-order.

A function lives in two interchangeable representations: a truth table
(the 2^n evaluation bits) and a multilinear GF(2) polynomial (a set of
monomials, also called the algebraic normal form).  Conventions, fixed once
and used everywhere:

* point indices: x_k is bit k-1 of the index, so x_1 is the least
  significant bit;
* monomials: a bitmask with bit k-1 set when x_k occurs; the empty mask 0
  is the constant monomial 1; the empty monomial *set* is the zero
  polynomial;
* hex serialization of truth tables writes the most significant bit first.

Truth-table operations are capped at arity 20, polynomial-only operations
at 63 variables (a monomial must fit a machine word), and canonical forms
and minor tests at 9 essential variables (their searches grow with the tied
partial relabelings, up to ess! of them).
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

MAX_TABLE_ARITY = 20
MAX_POLY_ARITY = 63
CANONICAL_MAX_ESS = 9  # checked at entry; near-symmetric sets tie most partial relabelings


# ---------------------------------------------------------------------------
# bitmask helpers


def popcount(x: int) -> int:
    return x.bit_count()


def bits_of(mask: int) -> list[int]:
    """0-based positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(variables: Iterable[int]) -> int:
    """Bitmask of 1-based variable indices."""
    m = 0
    for v in variables:
        # checked before the shift: a huge index would build a huge int
        if not 1 <= v <= MAX_POLY_ARITY:
            # the echo is bounded too: a 4,000-digit index would fill the error line
            big = isinstance(v, int) and abs(v) >= 10**20
            shown = f"a {v.bit_length()}-bit integer" if big else v
            raise ValueError(f"variable index must be in 1..{MAX_POLY_ARITY}, got {shown}")
        m |= 1 << (v - 1)
    return m


def vars_of(mask: int) -> frozenset[int]:
    """1-based variable indices of a bitmask."""
    return frozenset(b + 1 for b in bits_of(mask))


def fold(mask: int, images: Sequence[int]) -> int:
    """The OR of ``images[b]`` over the set bits ``b`` of ``mask``.

    ``images`` holds bit masks, so this applies a per-bit substitution to
    one mask: a monomial under a variable map, an edge under a vertex map,
    a pair mask under a vertex permutation.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= images[low.bit_length() - 1]
        mask ^= low
    return out


def map_monomials(monomials: Iterable[int], images: list[int]) -> frozenset[int]:
    """Apply a per-variable substitution to a set of monomial masks.

    ``images[b]`` is the monomial mask substituted for variable bit ``b``;
    duplicates produced by the substitution cancel over GF(2).
    """
    acc: set[int] = set()
    for m in monomials:
        im = fold(m, images)
        # GF(2): equal monomials cancel in pairs
        if im in acc:
            acc.discard(im)
        else:
            acc.add(im)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function as its 2^arity evaluation bits packed into an int.

    Bit i of ``bits`` is f at the point whose coordinates are the binary
    digits of i (x_1 least significant).
    """

    arity: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_TABLE_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_TABLE_ARITY}, got {self.arity}")
        size = 1 << self.arity
        if not 0 <= self.bits < (1 << size):
            raise ValueError("truth-table bits out of range for the declared arity")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "TruthTable":
        vals = list(values)
        n = len(vals).bit_length() - 1
        if len(vals) != 1 << n or n < 1:
            raise ValueError("bit vector length must be a power of two, at least 2")
        bits = 0
        for i, v in enumerate(vals):
            if v not in (0, 1, True, False):
                raise ValueError(f"truth-table entries must be 0/1, got {v!r}")
            if v:
                bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_hex(cls, text: str, arity: int) -> "TruthTable":
        return cls(arity, int(text, 16))

    def to_hex(self) -> str:
        width = ((1 << self.arity) + 3) // 4
        return format(self.bits, f"0{width}X")

    def value(self, point: int) -> int:
        return (self.bits >> point) & 1

    def values(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(1 << self.arity)]


@dataclass(frozen=True)
class Zhegalkin:
    """A multilinear GF(2) polynomial: a set of monomial bitmasks."""

    arity: int
    monomials: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_POLY_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_POLY_ARITY}, got {self.arity}")
        object.__setattr__(self, "monomials", frozenset(self.monomials))
        top = 1 << self.arity
        for m in self.monomials:
            if not 0 <= m < top:
                raise ValueError(f"monomial names x{m.bit_length()}, beyond arity {self.arity}")

    @classmethod
    def from_sets(cls, arity: int, monomials: Iterable[Iterable[int]]) -> "Zhegalkin":
        return cls(arity, frozenset(mask_of(mono) for mono in monomials))

    def evaluate(self, point: int) -> int:
        """Pointwise value; the point is a bitmask of true variables."""
        acc = 0
        for m in self.monomials:
            if m & point == m:
                acc ^= 1
        return acc


@dataclass(frozen=True)
class MinorWitness:
    """A partition of the essential variables of the larger function.

    Each block collapses to a single variable of the minor; blocks are stored
    ascending and ordered by their smallest member.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("witness blocks must be nonempty")
            if set(block) & seen:
                raise ValueError("witness blocks must be pairwise disjoint")
            seen.update(block)


class GapTag(Enum):
    LINEAR_SUM = "LinearSum"
    XY_PLUS_X = "XYplusX"
    TRIANGLE = "Triangle"
    TRIANGLE_LINEAR = "TriangleLinear"
    GAP_ONE = "GapOne"


@dataclass(frozen=True)
class GapClass:
    """Which of the four gap-two polynomial families a function matches."""

    tag: GapTag
    constant: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tag is GapTag.GAP_ONE:
            if self.constant is not None:
                raise ValueError("GapOne carries no constant")
        elif self.constant not in (0, 1):
            raise ValueError("gap-two families carry a constant in {0, 1}")


# ---------------------------------------------------------------------------
# truth table <-> polynomial

def _mobius(bits: int, arity: int) -> int:
    """In-place binary Moebius transform; an involution on 2^arity-bit words."""
    size = 1 << arity
    full = (1 << size) - 1
    step = 1
    while step < size:
        two = step << 1
        pattern = (full // ((1 << two) - 1)) * ((1 << step) - 1)
        bits ^= (bits & pattern) << step
        step = two
    return bits & full


def zhegalkin_from_truth_table(table: TruthTable) -> Zhegalkin:
    """The unique multilinear GF(2) polynomial evaluating to the table."""
    anf = _mobius(table.bits, table.arity)
    return Zhegalkin(table.arity, frozenset(bits_of(anf)))


def truth_table_from_zhegalkin(poly: Zhegalkin) -> TruthTable:
    """Inverse of :func:`zhegalkin_from_truth_table`."""
    if poly.arity > MAX_TABLE_ARITY:
        raise ValueError(f"truth tables are capped at arity {MAX_TABLE_ARITY}")
    anf = 0
    for m in poly.monomials:
        anf |= 1 << m
    return TruthTable(poly.arity, _mobius(anf, poly.arity))


# ---------------------------------------------------------------------------
# essential variables, substitution, identification


def support_mask(monomials: Iterable[int]) -> int:
    s = 0
    for m in monomials:
        s |= m
    return s


def essential_variables(poly: Zhegalkin) -> frozenset[int]:
    """Variables that actually occur, i.e. the union of the monomials."""
    return vars_of(support_mask(poly.monomials))


def essential_arity(poly: Zhegalkin) -> int:
    return popcount(support_mask(poly.monomials))


def substitute(poly: Zhegalkin, sigma: Mapping[int, int], arity: int) -> Zhegalkin:
    """Replace each variable i by x_sigma(i) and reduce over GF(2).

    ``sigma`` must be total on 1..poly.arity with values in 1..arity.
    """
    if not 1 <= arity <= MAX_POLY_ARITY:
        raise ValueError(f"target arity must be in 1..{MAX_POLY_ARITY}")
    images = []
    for v in range(1, poly.arity + 1):
        if v not in sigma:
            raise ValueError(f"substitution is not total: variable {v} unmapped")
        t = sigma[v]
        if not 1 <= t <= arity:
            raise ValueError(f"substitution sends {v} to {t}, outside 1..{arity}")
        images.append(1 << (t - 1))
    return Zhegalkin(arity, map_monomials(poly.monomials, images))


def identify(poly: Zhegalkin, i: int, j: int) -> Zhegalkin:
    """Identify variable j with variable i (j becomes inessential)."""
    if i == j:
        raise ValueError("degenerate identification: the variables must differ")
    if not (1 <= i <= poly.arity and 1 <= j <= poly.arity):
        raise ValueError("identified variables must not exceed the arity")
    return Zhegalkin(poly.arity, _identify_masks(poly.monomials, i - 1, j - 1))


def _identify_masks(monomials: frozenset[int], bi: int, bj: int) -> frozenset[int]:
    """The one pair identification: bit ``bj`` into bit ``bi`` (0-based), over GF(2)."""
    acc: set[int] = set()
    jbit = 1 << bj
    ibit = 1 << bi
    for m in monomials:
        if m & jbit:
            m = (m ^ jbit) | ibit
        if m in acc:
            acc.discard(m)
        else:
            acc.add(m)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# equivalence and canonical forms


def _reduce_masks(monomials: frozenset[int]) -> tuple[frozenset[int], int]:
    """Relabel the occurring variables onto bits 0..ess-1, order preserved."""
    sup = support_mask(monomials)
    if sup == 0:
        return monomials, 0
    positions = bits_of(sup)
    ess = len(positions)
    if positions == list(range(ess)):
        return monomials, ess
    images = [0] * (positions[-1] + 1)
    for new, old in enumerate(positions):
        images[old] = 1 << new
    reduced = frozenset(fold(m, images) for m in monomials)
    return reduced, ess


def _check_canonical_ess(ess: int) -> None:
    """Refuse a canonical form above the cap before its search starts."""
    if ess > CANONICAL_MAX_ESS:
        raise ValueError(
            f"canonical form is capped at {CANONICAL_MAX_ESS} essential variables, got {ess}"
        )


def _lower_twins(reduced: frozenset[int], ess: int) -> list[int]:
    """Per variable bit, the mask of smaller bits it is a twin of.

    Bits u and v are twins when swapping them fixes the monomial set.
    Twinship is an equivalence relation, since (u w) = (u v)(v w)(u v).
    """
    lower = [0] * ess
    for v in range(ess):
        for u in range(v):
            swap = 1 << u | 1 << v
            if all(m ^ swap in reduced for m in reduced if (m >> u ^ m >> v) & 1):
                lower[v] |= 1 << u
    return lower


@lru_cache(maxsize=1 << 16)
def _canonical_reduced(reduced: frozenset[int], ess: int) -> tuple[int, ...]:
    """Lexicographically least sorted monomial tuple over relabelings.

    ``reduced`` must already use bits 0..ess-1.  Old variables are placed on
    new bits 0, 1, 2, ... in turn.  Every relabeled set has the same size,
    so the least sorted tuple is the one whose lowest differing element is
    its own; once new bits 0..k-1 are placed, every image element below 2^k
    is fixed.  Placing old bit o on new bit k adds the block of monomials
    inside the placed bits plus o, each with bit k set.  A depth-first
    search follows only the least blocks of each node, ties included, cuts
    every path whose blocks exceed those of the least complete path found
    so far, and of a twin class tries only the smallest unplaced member.
    """
    if ess <= 1:
        return tuple(sorted(reduced))
    lower_twins = _lower_twins(reduced, ess)
    sentinel = (1 << ess,)  # ends each block: a block that extends a tied one is the lesser
    path: list[tuple[int, ...]] = []
    best: list[tuple[int, ...]] = []

    def place(k: int, unplaced: int, pending: tuple[tuple[int, int], ...]) -> None:
        # pending: per unfinished monomial, its unplaced old bits and the
        # image of its placed ones
        nonlocal best
        kbit = 1 << k
        last: dict[int, list[int]] = {}  # monomials with one unplaced bit left, by that bit
        for rest, img in pending:
            if not rest & (rest - 1):
                last.setdefault(rest, []).append(img | kbit)
        least: Optional[tuple[int, ...]] = None
        for o in bits_of(unplaced):
            if unplaced & lower_twins[o]:
                continue
            ob = 1 << o
            block = tuple(sorted(last.get(ob, ()))) + sentinel
            if least is None or block < least:
                least, ties = block, [ob]
            elif block == least:
                ties.append(ob)
        path.append(least)
        if not best or path <= best[: k + 1]:
            if k == ess - 1:
                best = path.copy()
            else:
                for ob in ties:
                    place(
                        k + 1,
                        unplaced ^ ob,
                        tuple(
                            (rest ^ ob, img | kbit) if rest & ob else (rest, img)
                            for rest, img in pending
                            if rest != ob
                        ),
                    )
        path.pop()

    place(0, (1 << ess) - 1, tuple((m, 0) for m in reduced if m))
    return tuple([0] * (0 in reduced) + [m for block in best for m in block[:-1]])


def canonical_form(poly: Zhegalkin) -> Zhegalkin:
    """The distinguished representative of the equivalence class of ``poly``.

    Essential variables are relabeled 1..ess; among all relabelings the one
    whose ascending monomial-mask sequence is lexicographically least wins.
    Constants canonicalize at arity 1.
    """
    reduced, ess = _reduce_masks(poly.monomials)
    _check_canonical_ess(ess)
    canon = _canonical_reduced(reduced, ess)
    return Zhegalkin(max(ess, 1), frozenset(canon))


def is_equivalent(f: Zhegalkin, g: Zhegalkin) -> bool:
    """Equality up to permutation of essential variables and dummy addition.

    Delegates to hypergraph isomorphism on the support-reduced associated
    hypergraphs; functions of different declared arity compare fine.
    """
    from . import hypergraph as hg

    r1, e1 = _reduce_masks(f.monomials)
    r2, e2 = _reduce_masks(g.monomials)
    return hg.is_isomorphic(hg.Hypergraph(e1, r1), hg.Hypergraph(e2, r2)) is not None


# ---------------------------------------------------------------------------
# the minor quasi-order


def _partitions(items: tuple[int, ...], min_blocks: int):
    """Partitions of ``items`` ordered by block count, then lexicographically.

    Yields tuples of tuples; the coarsest admissible partitions come first,
    which makes the first witness found deterministic.
    """
    n = len(items)
    if n == 0:
        if min_blocks <= 0:
            yield ()
        return
    for k in range(max(1, min_blocks), n + 1):
        rgs = [0] * n
        yield from _rgs_exact(items, rgs, 1, 0, k)


def _rgs_exact(items, rgs, pos, mx, k):
    n = len(items)
    if pos == n:
        if mx + 1 == k:
            blocks: list[list[int]] = [[] for _ in range(k)]
            for idx, cls in enumerate(rgs):
                blocks[cls].append(items[idx])
            yield tuple(tuple(b) for b in blocks)
        return
    # not enough positions left to open the remaining classes
    if (k - 1 - mx) > (n - pos):
        return
    for c in range(min(mx + 1, k - 1) + 1):
        rgs[pos] = c
        yield from _rgs_exact(items, rgs, pos + 1, max(mx, c), k)


def is_minor(g: Zhegalkin, f: Zhegalkin) -> Optional[MinorWitness]:
    """Witness that g arises from f by identifying variables, or None.

    Searches partitions of the essential variables of f, coarsest first;
    a partition is a witness when collapsing each block to one variable
    yields a polynomial equivalent to g.
    """
    fvars = tuple(sorted(essential_variables(f)))
    _check_canonical_ess(len(fvars))
    g_reduced, g_ess = _reduce_masks(g.monomials)
    if g_ess > len(fvars):
        return None
    if not fvars:
        return MinorWitness(()) if g_reduced == f.monomials else None
    g_canon = _canonical_reduced(g_reduced, g_ess)
    for blocks in _partitions(fvars, max(g_ess, 1)):
        images = [0] * f.arity
        for block in blocks:
            rep = 1 << (block[0] - 1)
            for v in block:
                images[v - 1] = rep
        candidate = map_monomials(f.monomials, images)
        c_reduced, c_ess = _reduce_masks(candidate)
        if c_ess == g_ess and _canonical_reduced(c_reduced, c_ess) == g_canon:
            return MinorWitness(blocks)
    return None


def arity_gap(f: Zhegalkin) -> int:
    """Minimum essential-arity drop over all one-step identifications.

    Defined only for ess >= 2; the result is always 1 or 2.
    """
    fvars = sorted(essential_variables(f))
    if len(fvars) < 2:
        raise ValueError("arity gap requires at least two essential variables")
    best_after = -1
    for i, j in itertools.combinations(fvars, 2):
        after = popcount(support_mask(_identify_masks(f.monomials, i - 1, j - 1)))
        if after > best_after:
            best_after = after
    return len(fvars) - best_after


def classify_gap(f: Zhegalkin) -> GapClass:
    """Match the function against the four gap-two polynomial families.

    The match is on the support-reduced monomial structure, which is the
    same thing as matching the canonical form up to variable permutation.
    """
    reduced, ess = _reduce_masks(f.monomials)
    if ess < 2:
        raise ValueError("gap classification requires at least two essential variables")
    constant = 1 if 0 in reduced else 0
    body = [m for m in reduced if m]
    singles = [m for m in body if popcount(m) == 1]
    doubles = [m for m in body if popcount(m) == 2]
    sizes = sorted(popcount(m) for m in body)

    if len(singles) == len(body) >= 2:
        return GapClass(GapTag.LINEAR_SUM, constant)
    if sizes == [1, 2] and singles[0] & doubles[0] == singles[0]:
        return GapClass(GapTag.XY_PLUS_X, constant)
    triangle = len(doubles) == 3 and popcount(support_mask(doubles)) == 3
    if sizes == [2, 2, 2] and triangle:
        return GapClass(GapTag.TRIANGLE, constant)
    if sizes == [1, 1, 2, 2, 2] and triangle:
        tri_support = support_mask(doubles)
        if (
            singles[0] != singles[1]
            and singles[0] & tri_support
            and singles[1] & tri_support
        ):
            return GapClass(GapTag.TRIANGLE_LINEAR, constant)
    return GapClass(GapTag.GAP_ONE)


def _one_step_groups(
    monomials: frozenset[int],
) -> dict[tuple[tuple[int, ...], int], list[tuple[int, int]]]:
    """Support pairs (1-based, ascending) grouped by the (canonical tuple, ess)
    of their identification; groups keep the order of their first pair."""
    groups: dict[tuple[tuple[int, ...], int], list[tuple[int, int]]] = {}
    sup = support_mask(monomials)
    for i, j in itertools.combinations([b + 1 for b in bits_of(sup)], 2):
        reduced, ess = _reduce_masks(_identify_masks(monomials, i - 1, j - 1))
        _check_canonical_ess(ess)
        groups.setdefault((_canonical_reduced(reduced, ess), ess), []).append((i, j))
    return groups


def one_step_identification_classes(f: Zhegalkin) -> list[Zhegalkin]:
    """Canonical forms of f with one pair of essential variables identified."""
    _check_canonical_ess(essential_arity(f))
    groups = _one_step_groups(f.monomials)
    classes = [Zhegalkin(max(ess, 1), frozenset(canon)) for canon, ess in groups]
    return sorted(classes, key=lambda p: (essential_arity(p), sorted(p.monomials)))


def is_irreducible_direct(f: Zhegalkin) -> Optional[Zhegalkin]:
    """The canonical dominating strict minor of f, if one exists.

    Every strict minor lies below some one-step identification, so f is
    irreducible exactly when one one-step class sits above all the others.
    A dominating class must be the unique class of maximal essential arity;
    only that candidate needs testing.
    """
    classes = one_step_identification_classes(f)
    if not classes:
        return None
    top_ess = max(essential_arity(c) for c in classes)
    top = [c for c in classes if essential_arity(c) == top_ess]
    if len(top) > 1:
        return None
    champion = top[0]
    for other in classes:
        if other is champion:
            continue
        if is_minor(other, champion) is None:
            return None
    return champion


# ---------------------------------------------------------------------------
# orbits under point permutations


def _mask_tables(table: list[int], width: int, lo: int) -> tuple[list[int], list[int]]:
    """Image lookups for the low ``lo`` and the high bits of a ``width``-bit vector
    whose bit k moves to bit ``table[k]``."""
    images = [1 << t for t in table]
    low, high = images[:lo], images[lo:]
    tl = [fold(m, low) for m in range(1 << lo)]
    th = [fold(m, high) for m in range(1 << (width - lo))]
    return tl, th


def _orbit_partition(positions: Sequence[int], n: int) -> tuple[array, list[int]]:
    """Orbit minimum of every vector, and the minima ascending, under the
    permutations of points 0..n-1; bit k of a vector stands for the point-set
    mask ``positions[k]`` (pair masks: labeled graphs; all subsets: ANF
    vectors).  Breadth-first search along the adjacent transpositions."""
    width = len(positions)
    index = {p: k for k, p in enumerate(positions)}
    lo = min(width, 11)
    lomask = (1 << lo) - 1
    tables = []
    for k in range(n - 1):
        swapped = [1 << v for v in range(n)]
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        tables.append(_mask_tables([index[fold(p, swapped)] for p in positions], width, lo))
    total = 1 << width
    rep_of = array("l", [0]) * total
    visited = bytearray(total)
    reps = []
    for m0 in range(total):
        if visited[m0]:
            continue
        visited[m0] = 1
        rep_of[m0] = m0
        reps.append(m0)
        frontier = [m0]
        while frontier:
            nxt = []
            for m in frontier:
                ml = m & lomask
                mh = m >> lo
                for tl, th in tables:
                    nm = tl[ml] | th[mh]
                    if not visited[nm]:
                        visited[nm] = 1
                        rep_of[nm] = m0
                        nxt.append(nm)
            frontier = nxt
    return rep_of, reps
