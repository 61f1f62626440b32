"""Boolean functions and the variable-identification minor quasi-order.

A function lives in two interchangeable representations: a truth table
(the 2^n evaluation bits) and a multilinear GF(2) polynomial (a set of
monomials, also called the algebraic normal form).  Internally a third one,
the packed ANF vector (an int whose bit m is set when monomial m occurs, the
Moebius transform of the truth table), keys the one cache of canonical forms
and makes identifying two variables four masked shifts; a function on x1..x4
is looked up by its minimum in the 4-variable orbit table.  Conventions,
fixed once and used everywhere:

* point indices: x_k is bit k-1 of the index, so x_1 is the least
  significant bit;
* monomials: a bitmask with bit k-1 set when x_k occurs; the empty mask 0
  is the constant monomial 1; the empty monomial *set* is the zero
  polynomial;
* hex serialization of truth tables writes the most significant bit first.

Truth-table operations are capped at arity 20, polynomial-only operations
at 63 variables (a monomial must fit a machine word), and canonical forms
and minor tests at 9 essential variables (a canonical search grows with the
tied partial relabelings, and ``is_minor`` walks at most Bell(ess) set
partitions, 21,147 at the cap).  ``is_minor`` first screens the pair by
invariants that identification keeps or never raises: the constant term,
the parity of the monomial count, the count, the degree and ess.  On
``verify correspondence --samples 1000`` it refuses 86% of the calls
before any partition is folded.  Every module checks its bounds with
``_check_range`` and its vertex or variable pairs with ``_check_pair``.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

MAX_TABLE_ARITY = 20
MAX_POLY_ARITY = 63
CANONICAL_MAX_ESS = 9  # checked at entry; near-symmetric sets tie most partial relabelings


# ---------------------------------------------------------------------------
# bitmask helpers


def _shown_int(value: int) -> object:
    """An int for an error message, as its bit length when it is huge."""
    if not isinstance(value, int) or abs(value) < 10**20:
        return value
    return f"a {'negative ' * (value < 0)}{value.bit_length()}-bit integer"


def _check_range(name: str, value: int, low: int, high: int | None = None) -> None:
    """The one bound rule: ``value`` in low..high (no upper end when None),
    refused before any work with ``<name> must be in <low>..<high>, got <value>``."""
    # written as one negated test, so that a NaN is refused too
    if not (low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {_shown_int(value)}")


def _check_pair(n: int, i: int, j: int) -> tuple[int, int]:
    """The one pair rule: the pair ascending, once it names two distinct members
    of 1..n (variables to identify, vertices to contract or delete)."""
    if i == j:
        raise ValueError(f"a pair needs two distinct members, got {_shown_int(i)} twice")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair members must exist in 1..{n}, got {_shown_int(i)} and {_shown_int(j)}")
    return min(i, j), max(i, j)


def _negative_mask(mask: int) -> ValueError:
    # a negative mask never runs out of set bits, so it is refused, not walked
    return ValueError(f"a mask must be nonnegative, got {_shown_int(mask)}")


def _mask_beyond(masks: Iterable[int], message: str) -> ValueError:
    """The error for a mask set with a mask out of its width: a negative mask
    first, else ``message`` with ``{}`` the top member of the largest mask."""
    low = min(masks)
    if low < 0:
        return _negative_mask(low)
    return ValueError(message.format(max(masks).bit_length()))


def bits_of(mask: int) -> list[int]:
    """0-based positions of the set bits, ascending."""
    if mask < 0:
        raise _negative_mask(mask)
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
        # checked inline before the shift (a huge index would build a huge int)
        if not 1 <= v <= MAX_POLY_ARITY:
            _check_range("variable index", v, 1, MAX_POLY_ARITY)
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
    if mask < 0:
        raise _negative_mask(mask)
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
        _check_range("arity", self.arity, 1, MAX_TABLE_ARITY)
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
        # both tests inline (every identification builds one); the calls only word the refusal
        if not 1 <= self.arity <= MAX_POLY_ARITY:
            _check_range("arity", self.arity, 1, MAX_POLY_ARITY)
        object.__setattr__(self, "monomials", frozenset(self.monomials))
        top = 1 << self.arity
        for m in self.monomials:
            if not 0 <= m < top:
                raise _mask_beyond(self.monomials, f"monomial names x{{}}, beyond arity {self.arity}")

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
    """In-place binary Moebius transform; an involution on 2^arity-bit words.

    Stage k adds each point's value into the point with bit k also set.
    """
    for k, vm in enumerate(_var_masks(arity)):
        bits ^= bits << (1 << k) & vm
    return bits


def zhegalkin_from_truth_table(table: TruthTable) -> Zhegalkin:
    """The unique multilinear GF(2) polynomial evaluating to the table."""
    anf = _mobius(table.bits, table.arity)
    # bin() decodes in linear time; bits_of is quadratic in a 2^20-bit word
    return Zhegalkin(table.arity, frozenset(m for m, c in enumerate(reversed(bin(anf))) if c == "1"))


def truth_table_from_zhegalkin(poly: Zhegalkin) -> TruthTable:
    """Inverse of :func:`zhegalkin_from_truth_table`."""
    if poly.arity > MAX_TABLE_ARITY:
        raise ValueError(f"truth tables are capped at arity {MAX_TABLE_ARITY}")
    return TruthTable(poly.arity, _mobius(_pack_bytes(poly.monomials, poly.arity), poly.arity))


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
    return support_mask(poly.monomials).bit_count()


def substitute(poly: Zhegalkin, sigma: Mapping[int, int], arity: int) -> Zhegalkin:
    """Replace each variable i by x_sigma(i) and reduce over GF(2).

    ``sigma`` must be total on 1..poly.arity with values in 1..arity.
    """
    _check_range("target arity", arity, 1, MAX_POLY_ARITY)
    images = []
    for v in range(1, poly.arity + 1):
        if v not in sigma:
            raise ValueError(f"substitution is not total: variable {v} unmapped")
        t = sigma[v]
        _check_range(f"the image of x{v}", t, 1, arity)
        images.append(1 << (t - 1))
    return Zhegalkin(arity, map_monomials(poly.monomials, images))


def identify(poly: Zhegalkin, i: int, j: int) -> Zhegalkin:
    """Identify variable j with variable i (j becomes inessential)."""
    _check_pair(poly.arity, i, j)
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
# packed ANF vectors: bit m of an int is monomial m


def _pack(monomials: Iterable[int]) -> int:
    """The vector of some monomials; equal ones cancel in pairs (GF(2))."""
    vec = 0
    for m in monomials:
        vec ^= 1 << m
    return vec


def _pack_bytes(monomials: Iterable[int], n: int) -> int:
    """``_pack`` of monomials on n variables through a byte buffer: linear,
    where one shift per monomial is quadratic on a 2^20-bit word."""
    buf = bytearray((1 << n) + 7 >> 3)
    for m in monomials:
        buf[m >> 3] ^= 1 << (m & 7)
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=None)
def _var_masks(n: int) -> tuple[int, ...]:
    """Per variable bit k < n, the vector positions whose monomial holds it
    (equally, the truth-table points where x_{k+1} is true): 2^k clear bits,
    then 2^k set ones, repeated.  Each is one byte pattern repeated, so a
    2^20-bit word is built in linear time."""
    size = 1 << n
    out = []
    for k in range(n):
        if k < 3:
            unit = bytes(((0xAA, 0xCC, 0xF0)[k],))
        else:
            half = 1 << (k - 3)
            unit = bytes(half) + b"\xff" * half
        word = int.from_bytes(unit * max((size >> 3) // len(unit), 1), "little")
        # below 8 bits the one byte is cut to the word
        out.append(word & (1 << size) - 1 if size < 8 else word)
    return tuple(out)


def _identify_vec(vec: int, bi: int, bj: int, n: int) -> int:
    """``_identify_masks`` on the vector of an n-variable function, bi < bj.

    The monomials without bit bj stay put; those with it lose it and gain
    bit bi, a move down by 2^bj - 2^bi or, holding bit bi already, by 2^bj.
    """
    vm = _var_masks(n)
    moved = vec & vm[bj]
    kept_i = moved & vm[bi]
    return vec ^ moved ^ (moved ^ kept_i) >> ((1 << bj) - (1 << bi)) ^ kept_i >> (1 << bj)


def _drop_var(vec: int, k: int, n: int) -> int:
    """The (n-1)-variable vector of ``vec`` with the dummy variable bit k
    left out, the bits above k moving down one.

    The 2^k-bit chunks alternate between kept and empty; each step merges
    neighboring runs of kept chunks, doubling their width.
    """
    vm = _var_masks(n)
    for b in range(k + 1, n):
        vec |= vec >> (1 << (b - 1))
        vec ^= vec & vm[b]
    return vec


# ---------------------------------------------------------------------------
# equivalence and canonical forms


def _relabel(monomials: Iterable[int], keep: int) -> frozenset[int]:
    """Move the bits of ``keep`` onto bits 0, 1, 2, ... in order.

    Every monomial must lie inside ``keep``, so none cancels: the one
    renumbering of surviving variables (support reduction, contraction,
    pair deletion).
    """
    images = [0] * keep.bit_length()
    for new, old in enumerate(bits_of(keep)):
        images[old] = 1 << new
    return frozenset(fold(m, images) for m in monomials)


def _reduce_masks(monomials: frozenset[int]) -> tuple[frozenset[int], int]:
    """Relabel the occurring variables onto bits 0..ess-1, order preserved."""
    sup = support_mask(monomials)
    ess = sup.bit_count()
    if sup == (1 << ess) - 1:
        return monomials, ess
    return _relabel(monomials, sup), ess


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


def _canonical_search(
    reduced: frozenset[int], ess: int
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Lexicographically least sorted monomial tuple over relabelings, and
    the relabelings that reach it.

    ``reduced`` must already use bits 0..ess-1.  Old variables are placed on
    new bits 0, 1, 2, ... in turn.  Every relabeled set has the same size,
    so the least sorted tuple is the one whose lowest differing element is
    its own; once new bits 0..k-1 are placed, every image element below 2^k
    is fixed.  Placing old bit o on new bit k adds the block of monomials
    inside the placed bits plus o, each with bit k set.  A depth-first
    search follows only the least blocks of each node, ties included, cuts
    every path whose blocks exceed those of the least complete path found
    so far, and of a twin class tries only the smallest unplaced member.

    The tied leaves are the placements (old bit per new bit) whose blocks
    equal the final least ones: every relabeling reaching the least tuple
    that places each twin class in ascending order, none of them cut.
    """
    if ess <= 1:
        return tuple(sorted(reduced)), [tuple(range(ess))]
    lower_twins = _lower_twins(reduced, ess)
    sentinel = (1 << ess,)  # ends each block: a block that extends a tied one is the lesser
    path: list[tuple[int, ...]] = []
    placed = [0] * ess  # old bit per new bit, on the current path
    best: list[tuple[int, ...]] = []
    leaves: list[tuple[int, ...]] = []

    def place(k: int, unplaced: int, pending: tuple[tuple[int, int], ...]) -> None:
        # pending: per unfinished monomial, its unplaced old bits and the
        # image of its placed ones
        nonlocal best, leaves
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
                # the one unplaced bit goes on the last new bit
                placed[k] = unplaced.bit_length() - 1
                if path == best:
                    leaves.append(tuple(placed))
                else:
                    best, leaves = path.copy(), [tuple(placed)]
            else:
                for ob in ties:
                    placed[k] = ob.bit_length() - 1
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
    return tuple([0] * (0 in reduced) + [m for block in best for m in block[:-1]]), leaves


def _class_of(vec: int) -> tuple[tuple[int, ...], int]:
    """The (canonical tuple, ess) of the packed ANF vector ``vec``.  Below
    2^16 (x1..x4 only) its 4-variable orbit minimum, which is always
    support-reduced, stands in for it."""
    if vec < 1 << 16:
        vec = _anf_orbits(4)[0][vec]
    return _canonical_reduced(vec)


@lru_cache(maxsize=1 << 16)
def _canonical_reduced(vec: int) -> tuple[tuple[int, ...], int]:
    """:func:`_class_of`, cached.  An ess above the cap is refused before the
    search; a dummy variable defers to the support-reduced vector's entry."""
    reduced, ess = _reduce_masks(frozenset(bits_of(vec)))
    _check_canonical_ess(ess)
    if _pack(reduced) != vec:
        return _class_of(_pack(reduced))
    return _canonical_search(reduced, ess)[0], ess


def _packed(poly: Zhegalkin) -> tuple[int, int]:
    """The vector of the support-reduced ``poly`` and its ess.  An ess above
    the cap is refused first: a 63-variable support would pack to 2^63 bits."""
    reduced, ess = _reduce_masks(poly.monomials)
    _check_canonical_ess(ess)
    return _pack(reduced), ess


def _class_poly(key: tuple[tuple[int, ...], int]) -> Zhegalkin:
    """The canonical representative named by a (canonical tuple, ess) key;
    constants at arity 1."""
    canon, ess = key
    return Zhegalkin(max(ess, 1), frozenset(canon))


def canonical_form(poly: Zhegalkin) -> Zhegalkin:
    """The distinguished representative of the equivalence class of ``poly``.

    Essential variables are relabeled 1..ess; among all relabelings the one
    whose ascending monomial-mask sequence is lexicographically least wins.
    Constants canonicalize at arity 1.
    """
    return _class_poly(_class_of(_packed(poly)[0]))


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


@lru_cache(maxsize=None)
def _rgs_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The Bell(n) set partitions of n items as restricted growth strings
    (entry i is the block of item i, blocks numbered by first item),
    ordered by block count, then lexicographically: coarsest first."""
    level: list[tuple[int, ...]] = [()]
    for _ in range(n):
        level = [r + (c,) for r in level for c in range(max(r, default=-1) + 2)]
    # each level is built in lexicographic order, which the stable sort keeps
    return tuple(sorted(level, key=max))


def _degree(monomials: frozenset[int]) -> int:
    return max((m.bit_count() for m in monomials), default=0)


def is_minor(g: Zhegalkin, f: Zhegalkin) -> Optional[MinorWitness]:
    """Witness that g arises from f by identifying variables, or None.

    After the cap check on f, a screen refuses g before any partition is
    folded.  Identifying, permuting and adding dummies keep the constant
    term f(0,...,0) and the parity of the monomial count (f(1,...,1)),
    never add a monomial and never raise the degree or ess, so g is refused
    when its constant term or count parity differs from f's, or its count,
    degree or ess exceeds f's.  The first two are the poset's four blocks.
    The rest goes to :func:`_minor_search`.
    """
    f_ess = essential_arity(f)
    _check_canonical_ess(f_ess)
    gm, fm = g.monomials, f.monomials
    if (
        (0 in gm) != (0 in fm)
        or (len(gm) ^ len(fm)) & 1
        or len(gm) > len(fm)
        or _degree(gm) > _degree(fm)
        or essential_arity(g) > f_ess
    ):
        return None
    return _minor_search(g, f)


def _minor_search(g: Zhegalkin, f: Zhegalkin) -> Optional[MinorWitness]:
    """:func:`is_minor` without its screen, for an f within the cap.

    Searches partitions of the essential variables of f, coarsest first;
    a partition is a witness when collapsing each block to one variable
    yields a polynomial equivalent to g.  The checks that the screen would
    pass by construction call it directly.
    """
    f_reduced, f_ess = _reduce_masks(f.monomials)
    g_reduced, g_ess = _reduce_masks(g.monomials)
    if g_ess > f_ess:
        # unscreened callers may hand a g too wide to pack
        return None
    if not f_ess:
        return MinorWitness(()) if g_reduced == f_reduced else None
    g_class = _class_of(_pack(g_reduced))
    var_masks = _var_masks(f_ess)
    table = _rgs_table(f_ess)
    for rgs in itertools.islice(table, bisect_left(table, g_ess - 1, key=max), None):
        # block b collapses onto bit b; a variable may cancel, leaving a dummy
        images = [1 << b for b in rgs]
        c = _pack(fold(m, images) for m in f_reduced)
        if sum(1 for vm in var_masks if c & vm) == g_ess and _class_of(c) == g_class:
            blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
            for v, b in zip(sorted(essential_variables(f)), rgs):
                blocks[b].append(v)
            return MinorWitness(tuple(map(tuple, blocks)))
    return None


def arity_gap(f: Zhegalkin) -> int:
    """Minimum essential-arity drop over all one-step identifications.

    Defined only for ess >= 2; the result is 1, or 2 exactly on the four
    families that :func:`classify_gap` names (Couceiro & Lehtonen 2007), so
    it is read off that match and identifies no pair.  The ``gap`` sweep
    checks it against the brute-force gap, ``_arity_gap_vec``.
    """
    if essential_arity(f) < 2:
        raise ValueError("arity gap requires at least two essential variables")
    return 1 if classify_gap(f).tag is GapTag.GAP_ONE else 2


def _arity_gap_vec(vec: int, n: int) -> int | None:
    """The brute-force gap, on the ANF vector of an n-variable function;
    None below two essential variables, where no gap is defined.

    An identification removes the identified-away variable, so no pair
    keeps more than ess - 1 variables: the scan stops at the first pair
    that does, with gap 1.
    """
    vm = _var_masks(n)
    support = [k for k in range(n) if vec & vm[k]]
    ess = len(support)
    if ess < 2:
        return None
    best_after = -1
    for bi, bj in itertools.combinations(support, 2):
        w = _identify_vec(vec, bi, bj, n)
        after = sum(1 for k in support if w & vm[k])
        if after == ess - 1:
            return 1
        if after > best_after:
            best_after = after
    return ess - best_after


def classify_gap(f: Zhegalkin) -> GapClass:
    """Match the function against the four gap-two polynomial families."""
    return _gap_family(f.monomials)


@lru_cache(maxsize=None)
def _high_degree(n: int) -> int:
    """The vector positions on n variables whose monomial has degree 3 or more."""
    return _pack_bytes((m for m in range(1 << n) if m.bit_count() > 2), n)


def _classify_gap_vec(vec: int, n: int) -> GapClass:
    """``classify_gap`` on the ANF vector of an n-variable function: one
    mask test settles every function with a monomial of degree 3 or more."""
    if vec & _high_degree(n):
        return GapClass(GapTag.GAP_ONE)
    return _gap_family(bits_of(vec))


def _gap_family(monomials: Iterable[int]) -> GapClass:
    """The body of :func:`classify_gap` over monomial masks.

    Every family has degree at most 2 and is told apart by its degrees and
    the variables its monomials share, which no relabeling changes, so the
    match reads the monomials as they are and stops at the first of degree
    3 or more.
    """
    constant = 0
    singles: list[int] = []
    doubles: list[int] = []
    for m in monomials:
        degree = m.bit_count()
        if degree > 2:
            return GapClass(GapTag.GAP_ONE)
        if degree == 2:
            doubles.append(m)
        elif degree:
            singles.append(m)
        else:
            constant = 1
    if support_mask(singles + doubles).bit_count() < 2:
        raise ValueError("gap classification requires at least two essential variables")

    if not doubles:
        return GapClass(GapTag.LINEAR_SUM, constant)
    if len(singles) == len(doubles) == 1 and singles[0] & doubles[0]:
        return GapClass(GapTag.XY_PLUS_X, constant)
    tri_support = support_mask(doubles)
    if len(doubles) == 3 and tri_support.bit_count() == 3:
        if not singles:
            return GapClass(GapTag.TRIANGLE, constant)
        if len(singles) == 2 and all(s & tri_support for s in singles):
            return GapClass(GapTag.TRIANGLE_LINEAR, constant)
    return GapClass(GapTag.GAP_ONE)


def _identifications(vec: int, n: int) -> Iterator[tuple[int, int, tuple[tuple[int, ...], int]]]:
    """Lazily, per support pair bi < bj (0-based, ascending) of the vector
    of an n-variable function, the pair and the (canonical tuple, ess) key
    of its identification, the identified-away x_{bj+1} dropped.  Dummy
    variables in ``vec`` are fine: the lookup names any vector."""
    vm = _var_masks(n)
    for bi, bj in itertools.combinations([k for k in range(n) if vec & vm[k]], 2):
        yield bi, bj, _class_of(_drop_var(_identify_vec(vec, bi, bj, n), bj, n))


def _one_step_groups(
    monomials: frozenset[int],
) -> dict[tuple[tuple[int, ...], int], list[tuple[int, int]]]:
    """Support pairs (1-based, ascending, in the caller's labels) grouped by
    the (canonical tuple, ess) key of their identification; groups keep the
    order of their first pair.

    The pairs are those :func:`_identifications` walks on the packed vector
    of the support-reduced function.
    """
    reduced, n = _reduce_masks(monomials)
    # an identification drops at most two essential variables (the arity
    # gap), so a wider support would fail every pair's cap: refuse it
    # before its 2^n-bit vector is built
    _check_canonical_ess(n - 2)
    labels = [b + 1 for b in bits_of(support_mask(monomials))]
    groups: dict[tuple[tuple[int, ...], int], list[tuple[int, int]]] = {}
    for bi, bj, key in _identifications(_pack(reduced), n):
        groups.setdefault(key, []).append((labels[bi], labels[bj]))
    return groups


def one_step_identification_classes(f: Zhegalkin) -> list[Zhegalkin]:
    """Canonical forms of f with one pair of essential variables identified."""
    _check_canonical_ess(essential_arity(f))
    classes = [_class_poly(key) for key in _one_step_groups(f.monomials)]
    return sorted(classes, key=lambda p: (essential_arity(p), sorted(p.monomials)))


def _maximal_one_steps(vec: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The maximal one-step identification classes of the function with the
    n-variable vector ``vec`` (dummy variables allowed), as (canonical
    tuple, ess) keys, highest ess first.

    These are the lower covers of f's class.  An identification loses the
    identified-away variable, so no class keeps more than ess(f) - 1
    essential variables, and a class that keeps that many is maximal: it is
    yielded as soon as its first pair is identified, and a caller that stops
    early identifies no further pair.  A strict minor has strictly fewer
    essential variables, so distinct classes of equal ess are incomparable,
    and by transitivity a lower class is dominated exactly when it lies
    below a maximal class of higher ess, all of which come before it; those
    are checked once every pair is identified.  Ties in ess keep the order
    of their first pairs, that of ``_one_step_groups``.
    """
    most = sum(1 for vm in _var_masks(n) if vec & vm) - 1
    top: list[tuple[tuple[int, ...], int]] = []
    lower: dict[tuple[tuple[int, ...], int], None] = {}
    for _, _, key in _identifications(vec, n):
        if key[1] < most:
            lower[key] = None
        elif key not in top:
            top.append(key)
            yield key
    found = [(_class_poly(key), key[1]) for key in top]
    for key in sorted(lower, key=lambda key: -key[1]):
        cls = _class_poly(key)
        if not any(m_ess > key[1] and is_minor(cls, m) is not None for m, m_ess in found):
            found.append((cls, key[1]))
            yield key


def _irreducible_cover(vec: int, n: int) -> Optional[tuple[tuple[int, ...], int]]:
    """:func:`is_irreducible_direct` on the vector of an n-variable function
    (dummy variables allowed): the key of the one maximal class, or None.
    The scan stops at the second maximal class."""
    covers = list(itertools.islice(_maximal_one_steps(vec, n), 2))
    return covers[0] if len(covers) == 1 else None


def is_irreducible_direct(f: Zhegalkin) -> Optional[Zhegalkin]:
    """The canonical dominating strict minor of f, if one exists.

    Every strict minor lies below some one-step identification, so f is
    irreducible exactly when its one-step classes have a single maximal one.
    """
    cover = _irreducible_cover(*_packed(f))
    return None if cover is None else _class_poly(cover)


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


@lru_cache(maxsize=None)
def _anf_orbits(n: int) -> tuple[array, list[int]]:
    """``_orbit_partition`` of the ANF vectors on n variables, built on first
    use and shared by every caller in the process; read it, never mutate it.
    At n = 4 the orbits are exactly the classes of ess <= 4."""
    return _orbit_partition(range(1 << n), n)
