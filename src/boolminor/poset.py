"""Desk-scale enumeration of the quotient poset of Boolean function classes.

The classes of functions on up to four variables are the orbits of their
ANF vectors (bit m set when monomial m occurs) under variable permutations:
``bfcore._anf_orbits`` splits the 2^16 vectors, the same table that names
the one-step identification classes, and one canonical form per orbit
names each class.  Each class record carries its essential
arity, arity gap, parity block, lower covers (the maximal strict minors),
level, and irreducibility verdict.  The four blocks come from two
minor-invariant bits: the parity of the number of nonconstant monomials and
the constant term.

The record cache holds machine data, not export text: each class by its
packed ANF vector in hex, and its lower covers by the positions of their
records in the same file, so writing and reading it format and parse no
polynomial.
"""

from __future__ import annotations

import os
import stat
import zlib
from dataclasses import dataclass
from enum import Enum
from functools import cache
from operator import attrgetter
from typing import Callable, Iterable, Optional

from . import bfcore
from .bfcore import Zhegalkin, bits_of, essential_arity, support_mask

MAX_ENUM_ESS = 4

_CACHE_HEADER = "#boolminor-classes v3"
# the cache at MAX_ENUM_ESS is 128,334 bytes; a longer file is stale
_CACHE_MAX_BYTES = 1 << 20


class Block(Enum):
    ZERO = "Zero"
    ONE = "One"
    PROJECTION = "Projection"
    NEGATED_PROJECTION = "NegatedProjection"


def block_of(poly: Zhegalkin) -> Block:
    return _block(len(poly.monomials), 0 in poly.monomials)


def _block(count: int, constant: int) -> Block:
    """The block of a function with ``count`` monomials, the constant
    monomial among them when ``constant`` is 1 (or True)."""
    if (count - constant) % 2 == 0:
        return Block.ONE if constant else Block.ZERO
    return Block.NEGATED_PROJECTION if constant else Block.PROJECTION


@dataclass(frozen=True)
class ClassRecord:
    """One equivalence class of the minor order, by canonical representative."""

    canon: Zhegalkin
    ess: int
    gap: Optional[int]
    block: Block
    level: int
    level_provisional: bool
    lower_covers: tuple[Zhegalkin, ...]

    @property
    def irreducible(self) -> bool:
        """A class is irreducible when it has a unique lower cover."""
        return len(self.lower_covers) == 1

    def key(self) -> frozenset[int]:
        return self.canon.monomials


def _sorted_covers(f: Zhegalkin) -> tuple[Zhegalkin, ...]:
    """The lower covers of f's class (its maximal one-step classes), ordered
    by sorted monomials."""
    keys = bfcore._maximal_one_steps(*bfcore._packed(f.monomials))
    return tuple(sorted(map(bfcore._class_poly, keys), key=lambda p: sorted(p.monomials)))


def lower_covers(canon: Zhegalkin, universe: Iterable[ClassRecord]) -> tuple[Zhegalkin, ...]:
    """Maximal strict-minor classes of a canonical form.

    The universe must contain every class of smaller essential arity; the
    one-step identification classes are looked up there to catch gaps.
    """
    known = {r.key() for r in universe}
    for cls in bfcore.one_step_identification_classes(canon):
        if cls.monomials not in known:
            raise ValueError("universe is incomplete: missing a one-step class")
    return _sorted_covers(canon)


def enumerate_classes(max_ess: int, cache_path: Optional[str] = None) -> tuple[ClassRecord, ...]:
    """One record per class of functions on ``max_ess`` variables, by orbit."""
    bfcore._check_range("max_ess", max_ess, 0, MAX_ENUM_ESS)
    if cache_path and os.path.exists(cache_path):
        cached = _read_cache(cache_path, max_ess)
        if cached is not None:
            return cached
    records = _compute_records(max_ess)
    if cache_path:
        _write_cache(cache_path, max_ess, records)
    return records


def _compute_records(max_ess: int) -> tuple[ClassRecord, ...]:
    arity = max(max_ess, 1)
    canons: dict[frozenset[int], Zhegalkin] = {}
    for anf in bfcore._anf_orbits(arity)[1]:
        canon = bfcore._class_poly(bfcore._class_of(anf))
        canons[canon.monomials] = canon
    if max_ess == 0:
        # only the two constants exist below arity 1
        canons = {
            k: v for k, v in canons.items() if essential_arity(v) == 0
        }

    covers = {key: _sorted_covers(canon) for key, canon in canons.items()}

    layers = _levels_by_depth({k: [c.monomials for c in cov] for k, cov in covers.items()})
    levels_map = {k: depth for depth, layer in enumerate(layers) for k in layer}

    records = []
    for key, canon in canons.items():
        ess = essential_arity(canon)
        gap = bfcore.arity_gap(canon) if ess >= 2 else None
        cov = covers[key]
        records.append(
            ClassRecord(
                canon=canon,
                ess=ess,
                gap=gap,
                block=block_of(canon),
                level=levels_map[key],
                level_provisional=(ess == max_ess),
                lower_covers=cov,
            )
        )
    records.sort(key=lambda r: (r.ess, sorted(r.canon.monomials)))
    return tuple(records)


def _levels_by_depth(
    covers: dict[frozenset[int], list[frozenset[int]]],
) -> list[list[frozenset[int]]]:
    """Level the keys of a ``key -> cover keys`` map by longest-chain depth.

    A key sits at level 0 when none of its cover keys is in the map, else
    one above its deepest cover key in the map; cover keys outside the map
    are ignored.  Each level is ordered by its sorted monomials.
    """
    depth: dict[frozenset[int], int] = {}

    def depth_of(key: frozenset[int]) -> int:
        d = depth.get(key)
        if d is None:
            depth[key] = -1  # on the current chain until its depth is known
            d = depth[key] = 1 + max((depth_of(ck) for ck in covers[key] if ck in covers), default=-1)
        elif d < 0:
            raise AssertionError("cycle detected while leveling the class poset")
        return d

    for key in covers:
        depth_of(key)
    out: list[list[frozenset[int]]] = [[] for _ in range(1 + max(depth.values(), default=-1))]
    for key, d in depth.items():
        out[d].append(key)
    return [sorted(layer, key=sorted) for layer in out]


def levels(universe: Iterable[ClassRecord]) -> list[tuple[ClassRecord, ...]]:
    """Partition a downward-closed universe into levels by longest-chain depth."""
    by_key = {r.key(): r for r in universe}
    covers = {k: [c.monomials for c in r.lower_covers] for k, r in by_key.items()}
    return [tuple(by_key[k] for k in layer) for layer in _levels_by_depth(covers)]


# ---------------------------------------------------------------------------
# export


def export(universe: Iterable[ClassRecord], format: str = "dot") -> str:
    recs = sorted(universe, key=lambda r: (r.ess, sorted(r.canon.monomials)))
    if format == "dot":
        text = _renderer()
        lines = ["digraph classes {"]
        for r in recs:
            lines.append(f'  "{text(r.canon)}";')
        for r in recs:
            for cov in r.lower_covers:
                lines.append(f'  "{text(cov)}" -> "{text(r.canon)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "structured":
        return _render_records(recs)
    raise ValueError(f"unknown export format {format!r}")


def _renderer() -> Callable[[Zhegalkin], str]:
    """``format_polynomial``, memoized for one export: a class recurs as
    many records' cover."""
    from .formats import format_polynomial

    return cache(format_polynomial)


def _fields(r: ClassRecord) -> list[str]:
    """The ess, gap, block and level fields of a record's line."""
    gap = "-" if r.gap is None else str(r.gap)
    level = f"{r.level}+" if r.level_provisional else str(r.level)
    return [str(r.ess), gap, r.block.value, level]


def _render_records(recs: list[ClassRecord]) -> str:
    text = _renderer()
    lines = []
    for r in recs:
        cov = ";".join(text(c) for c in r.lower_covers) or "-"
        lines.append("\t".join([text(r.canon), *_fields(r), cov]))
    return "\n".join(lines) + "\n"


def _checksum(body: bytes) -> str:
    # CRC-32 catches any edit of up to 32 consecutive bits; hashlib.sha256
    # would load OpenSSL, about 3.4 MB of resident memory per process
    return f"{zlib.crc32(body):08x}"


def _write_cache(path: str, max_ess: int, records: tuple[ClassRecord, ...]) -> None:
    """Write the records, one line each: the canonical form's packed ANF
    vector in lowercase hex, the ess, gap, block and level fields, and the
    lower covers as the 0-based positions of their records (``-`` for none)."""
    position = {r.canon.monomials: i for i, r in enumerate(records)}
    lines = []
    for r in records:
        cov = ",".join(str(position[c.monomials]) for c in r.lower_covers) or "-"
        lines.append("\t".join([f"{bfcore._pack(r.canon.monomials):x}", *_fields(r), cov]))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    head = f"{_CACHE_HEADER} max_ess={max_ess} count={len(records)} crc32={_checksum(body)}\n"
    # a per-process name, created exclusively: a file already there is never
    # opened, since a FIFO would block the open until a reader came
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(head.encode("utf-8") + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# the reader maps these over each line's covers: cheaper than a generator
# per record, 3,984 records at max_ess 4
_level = attrgetter("level")
_canon = attrgetter("canon")


def _read_cache(path: str, max_ess: int) -> Optional[tuple[ClassRecord, ...]]:
    """The cached records, or None when the cache is stale or unparsable.

    An older format version, a body whose CRC-32 differs from the header's
    or a file longer than ``_CACHE_MAX_BYTES`` is stale, even when every
    line would still parse, and so is a malformed line.  A vector must be
    its own lowercase hex rendering within the vector width, 2^max_ess bits
    (2 at max_ess 0); a cover must be the canonical decimal position of an
    earlier record, and reads as that record's canonical form.  The other
    fields must be what the writer writes for the vector and its covers:
    the ess is the support's size, the block the vector's, the gap ``-``
    below ess 2 and ``1`` or ``2`` from there, and the level one above the
    deepest cover's (0 with none), with ``+`` exactly at ess == max_ess.  A path
    that is not a regular file (a FIFO would block the read, a device would
    never end) raises ValueError.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"cache path {path!r} is not a regular file")
    with open(path, "rb") as fh:
        data = fh.read(_CACHE_MAX_BYTES + 1)
    if len(data) > _CACHE_MAX_BYTES:
        return None
    head, _, raw_body = data.partition(b"\n")
    try:
        words = head.decode("utf-8").split()
        lines = raw_body.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    if words[:2] != _CACHE_HEADER.split():
        return None
    fields = dict(part.split("=", 1) for part in words[2:] if "=" in part)
    if fields.get("crc32") != _checksum(raw_body):
        return None
    body = [line for line in lines if line.strip()]
    if fields.get("max_ess") != str(max_ess) or fields.get("count") != str(len(body)):
        return None
    width = 1 << max(max_ess, 1)  # one bit per monomial
    # each record so far by its position in canonical decimal, the one
    # spelling of a cover
    earlier: dict[str, ClassRecord] = {}
    try:
        for line in body:
            vec_s, ess_s, gap_s, block_s, level_s, cov_s = line.split("\t")
            canon = _hex_canon(vec_s, width)
            covers = [] if cov_s == "-" else [earlier[c] for c in cov_s.split(",")]
            ess = support_mask(canon.monomials).bit_count()
            record = ClassRecord(
                canon=canon,
                ess=ess,
                gap=None if ess < 2 else {"1": 1, "2": 2}[gap_s],  # else KeyError
                block=_block(len(canon.monomials), 0 in canon.monomials),
                level=1 + max(map(_level, covers), default=-1),
                level_provisional=(ess == max_ess),
                lower_covers=tuple(map(_canon, covers)),
            )
            # the ess, block and level fields, and whether a gap is there,
            # follow from the vector and the covers
            if _fields(record) != [ess_s, gap_s, block_s, level_s]:
                raise ValueError("a field disagrees with the vector or its covers")
            earlier[str(len(earlier))] = record
    except (KeyError, ValueError):
        # a malformed line makes the whole cache stale
        return None
    return tuple(earlier.values())


def _hex_canon(text: str, width: int) -> Zhegalkin:
    """The canonical form a cache line names by its vector, at the arity of
    its largest variable (1 for a constant)."""
    # refused by length first: int() and bits_of never see a long digit run
    if len(text) > max(width >> 2, 1):
        raise ValueError("a vector wider than the cache's")
    vec = int(text, 16)
    if f"{vec:x}" != text or vec >> width:
        raise ValueError(f"{text!r} is not a vector of the cache")
    monomials = frozenset(bits_of(vec))
    return Zhegalkin(max(support_mask(monomials).bit_length(), 1), monomials)
