"""Class enumeration, covers, levels, blocks, cache, and export."""

import itertools
import os
import random
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boolminor import bfcore, cli, poset, verify
from boolminor.bfcore import TruthTable, Zhegalkin, bits_of, zhegalkin_from_truth_table
from boolminor.formats import format_polynomial, parse_polynomial
from boolminor.poset import (
    Block,
    block_of,
    enumerate_classes,
    export,
    levels,
    lower_covers,
)


def poly(arity, *monos):
    return Zhegalkin.from_sets(arity, monos)


def swap_table(bits: int) -> int:
    # independent class oracle for two variables: exchange the mixed points
    out = bits & 0b1001
    out |= ((bits >> 1) & 1) << 2
    out |= ((bits >> 2) & 1) << 1
    return out


def test_enumerate_smallest():
    assert len(enumerate_classes(0)) == 2
    recs = enumerate_classes(1)
    assert len(recs) == 4
    assert {r.block for r in recs} == set(Block)
    assert all(r.level == 0 for r in recs)
    assert all(not r.lower_covers and not r.irreducible for r in recs)


def test_enumerate_two_variables_against_table_orbits():
    recs = enumerate_classes(2)
    assert len(recs) == 12
    # independent count: orbits of the 16 binary tables under the swap
    orbits = {min(b, swap_table(b)) for b in range(16)}
    assert len(orbits) == 12


def test_enumerate_three_variables_count():
    assert len(enumerate_classes(3)) == 80


def test_block_of():
    assert block_of(poly(1)) is Block.ZERO
    assert block_of(poly(1, ())) is Block.ONE
    assert block_of(poly(1, (1,))) is Block.PROJECTION
    assert block_of(poly(2, (1, 2), (1,), ())) is Block.ONE
    assert block_of(poly(3, (1, 2), (1, 3), (2, 3), ())) is Block.NEGATED_PROJECTION


def test_block_invariant_on_sampled_tables():
    rng = random.Random(71)
    for _ in range(200):
        p = zhegalkin_from_truth_table(TruthTable(4, rng.getrandbits(16)))
        fvars = sorted(bfcore.essential_variables(p))
        if len(fvars) < 2:
            continue
        i, j = rng.sample(fvars, 2)
        assert block_of(bfcore.identify(p, i, j)) is block_of(p)
        assert block_of(bfcore.canonical_form(p)) is block_of(p)


def test_lower_covers_examples():
    universe = enumerate_classes(3)
    conj = bfcore.canonical_form(poly(2, (1, 2)))
    covs = lower_covers(conj, universe)
    assert covs == (poly(1, (1,)),)

    proj = poly(1, (1,))
    assert lower_covers(proj, universe) == ()


def test_lower_covers_composite_has_at_least_two():
    universe = enumerate_classes(4)
    composite = bfcore.canonical_form(
        poly(4, (1, 3), (1, 4), (1, 3, 4), (2, 3), (2, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4))
    )
    assert len(lower_covers(composite, universe)) >= 2


def test_lower_covers_incomplete_universe():
    with pytest.raises(ValueError):
        lower_covers(bfcore.canonical_form(poly(2, (1, 2))), enumerate_classes(0))


def test_cover_gap_law():
    universe = enumerate_classes(3)
    by_key = {r.key(): r for r in universe}
    for r in universe:
        for cov in r.lower_covers:
            assert r.gap is not None
            assert r.ess == by_key[cov.monomials].ess + r.gap


def test_levels_partition():
    universe = enumerate_classes(2)
    lv = levels(universe)
    assert len(lv[0]) == 4
    assert sum(len(x) for x in lv) == 12
    for depth, layer in enumerate(lv):
        for rec in layer:
            assert rec.level == depth


def strip_levels(covers):
    """The minimal-stripping leveling the poset once used, kept as the
    oracle: a key enters the current level once every key strictly below it
    (through cover keys in the map) has been placed."""
    strict_lower = {}

    def lower_set(key):
        if key in strict_lower:
            return strict_lower[key]
        acc = set()
        for ck in covers[key]:
            if ck in covers:
                acc.add(ck)
                acc |= lower_set(ck)
        strict_lower[key] = acc
        return acc

    remaining = set(covers)
    out = []
    while remaining:
        current = sorted((k for k in remaining if not (lower_set(k) & remaining)), key=sorted)
        out.append(current)
        remaining -= set(current)
    return out


@pytest.fixture(scope="module")
def classes4():
    return enumerate_classes(4)


def old_render_records(recs):
    """The structured rendering as it was before it formatted each class
    once: every canonical form and every cover formatted where it occurs."""
    lines = []
    for r in recs:
        gap = "-" if r.gap is None else str(r.gap)
        level = f"{r.level}+" if r.level_provisional else str(r.level)
        cov = ";".join(format_polynomial(c) for c in r.lower_covers) or "-"
        lines.append("\t".join([format_polynomial(r.canon), str(r.ess), gap, r.block.value, level, cov]))
    return "\n".join(lines) + "\n"


def v2_read(text):
    """The records as the v2 cache read them, each line of the structured
    rendering parsed by ``parse_polynomial``, kept as the oracle of the v4
    read."""
    records = []
    for line in text.splitlines():
        canon, ess, gap, block, level, cov = line.split("\t")
        records.append(
            poset.ClassRecord(
                canon=parse_polynomial(canon),
                ess=int(ess),
                gap=None if gap == "-" else int(gap),
                block=Block(block),
                level=int(level.rstrip("+")),
                level_provisional=level.endswith("+"),
                lower_covers=() if cov == "-" else tuple(parse_polynomial(c) for c in cov.split(";")),
            )
        )
    return records


def test_rendering_memo_and_cache_read_keep_every_record(classes4, tmp_path):
    text = poset._render_records(list(classes4))
    rendered = text.split("\n")
    expected = old_render_records(classes4).split("\n")
    assert len(rendered) == len(expected)
    # line by line: pytest's diff of the whole text would take minutes
    for got, want in zip(rendered, expected):
        assert got == want
    cache = tmp_path / "classes.tsv"
    poset._write_cache(str(cache), 4, classes4)
    read = poset._read_cache(str(cache), 4)
    assert read == classes4
    oracle = v2_read(text)
    assert len(read) == len(oracle)
    for got, want in zip(read, oracle):
        assert got == want


def test_cache_write_and_read_format_and_parse_no_polynomial(classes4, tmp_path, monkeypatch):
    from boolminor import formats

    def refuse(*args):
        raise AssertionError("the record cache handled polynomial text")

    for module, name in ((formats, "parse_polynomial"), (formats, "format_polynomial"), (poset, "_render_records")):
        monkeypatch.setattr(module, name, refuse)
    cache = tmp_path / "classes.tsv"
    assert enumerate_classes(4, cache_path=str(cache)) == classes4
    # the size the byte bound is set against
    assert cache.stat().st_size == 62_678
    monkeypatch.setattr(poset, "_compute_records", refuse)
    assert enumerate_classes(4, cache_path=str(cache)) == classes4


def test_depth_levels_match_minimal_stripping(classes4):
    covers = {r.key(): [c.monomials for c in r.lower_covers] for r in classes4}
    layers = poset._levels_by_depth(covers)
    assert [len(layer) for layer in layers] == [4, 14, 88, 3878]
    assert layers == strip_levels(covers)
    rng = random.Random(29)
    keys = sorted(covers, key=sorted)
    for _ in range(50):
        sub = {k: covers[k] for k in rng.sample(keys, rng.randint(1, 400))}
        assert poset._levels_by_depth(sub) == strip_levels(sub)


def test_every_record_field_matches_an_independent_derivation(classes4, monkeypatch):
    # computed and cached records share one builder, so a read that equals
    # a computed record no longer checks its fields: each is derived here
    # another way
    covers = {r.key(): [c.monomials for c in r.lower_covers] for r in classes4}
    depth = {k: d for d, layer in enumerate(poset._levels_by_depth(covers)) for k in layer}
    stripped = {k: d for d, layer in enumerate(strip_levels(covers)) for k in layer}
    for r in classes4:
        monomials = r.canon.monomials
        assert r.gap == bfcore._arity_gap_vec(bfcore._pack(monomials), r.canon.arity)
        assert r.level == depth[r.key()] == stripped[r.key()]
        assert r.block is poset._block(len(monomials), 0 in monomials)
        assert r.ess == bfcore.essential_arity(r.canon)
        assert r.level_provisional == (r.ess == 4)

    def refuse(*args):
        raise AssertionError("the records were leveled by a second pass")

    # the records are leveled as they are built
    monkeypatch.setattr(poset, "_levels_by_depth", refuse)
    assert poset._compute_records(4) == classes4


def test_levels_refuse_a_cover_cycle():
    a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
    with pytest.raises(AssertionError, match="cycle"):
        poset._levels_by_depth({a: [b], b: [c], c: [a]})
    with pytest.raises(AssertionError, match="cycle"):
        poset._levels_by_depth({a: [a]})


def all_pairs_covers(f):
    """The all-pairs scan the poset's covers once came from, kept as the
    oracle: a one-step class is a cover unless it is a minor of another."""
    classes = bfcore.one_step_identification_classes(f)
    maximal = [
        a for a in classes if not any(b is not a and bfcore._minor_search(a, b) is not None for b in classes)
    ]
    return tuple(sorted(maximal, key=lambda p: sorted(p.monomials)))


def champion_cover(f):
    """The champion loop ``is_irreducible_direct`` once ran, kept as the
    oracle: the unique one-step class of top ess, if every other class lies
    below it."""
    classes = bfcore.one_step_identification_classes(f)
    if not classes:
        return None
    top_ess = max(bfcore.essential_arity(c) for c in classes)
    top = [c for c in classes if bfcore.essential_arity(c) == top_ess]
    if len(top) > 1:
        return None
    if any(c is not top[0] and bfcore._minor_search(c, top[0]) is None for c in classes):
        return None
    return top[0]


def test_cover_scan_matches_all_pairs_and_champion_oracles(classes4):
    for r in classes4:
        assert r.lower_covers == all_pairs_covers(r.canon), r.canon
        assert bfcore.is_irreducible_direct(r.canon) == champion_cover(r.canon), r.canon
    rng = random.Random(113)
    # dense functions mostly tie at the top ess; sparse ones reach the
    # minor checks below a unique top class
    five = [Zhegalkin(5, frozenset(bits_of(rng.getrandbits(32)))) for _ in range(100)]
    five += [Zhegalkin(5, frozenset(rng.sample(range(32), rng.randint(2, 8)))) for _ in range(200)]
    verdicts = set()
    for f in five:
        covers = poset._sorted_covers(f)
        assert covers == all_pairs_covers(f), f
        cover = bfcore.is_irreducible_direct(f)
        assert cover == champion_cover(f), f
        verdicts.add(len(covers) == 1)
        assert (cover is not None) == (len(covers) == 1)
    assert verdicts == {False, True}


def test_irreducibility_matches_unique_cover(classes4):
    # the poset sweep compares the record's verdict with the contraction
    # criterion only; its agreement with the direct definition lives here
    for r in classes4:
        direct = bfcore.is_irreducible_direct(r.canon) is not None
        assert r.irreducible == direct == (len(r.lower_covers) == 1)


def test_poset_sweep_runs_no_second_cover_scan(monkeypatch):
    def refuse(vec, n):
        raise AssertionError("the poset sweep scanned the covers a record already holds")

    monkeypatch.setattr(bfcore, "_irreducible_cover", refuse)
    assert verify.poset_sweep(3).ok


def test_poset_sweep_asks_the_unscreened_search_across_blocks(monkeypatch):
    # is_minor's screen refuses every pair across blocks, so a cross-block
    # check through it would pass by construction
    crossed = []
    search = bfcore._minor_search

    def counted(g, f):
        blocks = {poset._block(len(p.monomials), 0 in p.monomials) for p in (g, f)}
        if len(blocks) == 2:
            crossed.append((g, f))
        return search(g, f)

    monkeypatch.setattr(bfcore, "_minor_search", counted)
    result = verify.poset_sweep(2)
    samples = int(result.lines[-1].rsplit(": ", 1)[1])
    assert samples > 300 and len(crossed) == 2 * samples


def test_provisional_flag():
    recs = enumerate_classes(2)
    assert all(r.level_provisional == (r.ess == 2) for r in recs)


def test_export_dot():
    recs = enumerate_classes(1)
    doc = export(recs, format="dot")
    assert doc.count('";') == 4 and "->" not in doc

    recs12 = enumerate_classes(2)
    doc12 = export(recs12, format="dot")
    edges = [line for line in doc12.splitlines() if "->" in line]
    expected = sum(len(r.lower_covers) for r in recs12)
    assert len(edges) == expected

    assert export([], format="dot") == "digraph classes {\n}\n"
    with pytest.raises(ValueError):
        export(recs, format="html")


def test_dot_export_renders_each_class_once(monkeypatch):
    from boolminor import formats

    rendered = []
    render = formats.format_polynomial
    monkeypatch.setattr(formats, "format_polynomial", lambda p: rendered.append(p) or render(p))
    recs = enumerate_classes(3)
    export(recs, format="dot")
    assert len(rendered) == len(set(rendered)) == len(recs)


def test_export_structured_round_trips_canon():
    recs = enumerate_classes(2)
    doc = export(recs, format="structured")
    canon_texts = [line.split("\t")[0] for line in doc.strip().splitlines()]
    assert len(canon_texts) == 12
    for r, text in zip(recs, canon_texts):
        assert parse_polynomial(text) == r.canon


def verify_argv(cache, max_ess):
    return ["verify", "poset", "--max-ess", str(max_ess), "--cache", str(cache)]


def clean_run(tmp_path, capsys, max_ess):
    """At ``max_ess``: the records, the cache they write, and ``verify
    poset``'s stdout on that cache."""
    cache = tmp_path / f"clean-{max_ess}.tsv"
    recs = enumerate_classes(max_ess, cache_path=str(cache))
    assert cli.main(verify_argv(cache, max_ess)) == 0
    return max_ess, recs, cache.read_bytes(), capsys.readouterr().out


def assert_stale(cache, content, clean, capsys):
    """``content`` at ``cache`` is stale: it is recomputed and rewritten byte
    for byte, and ``verify poset`` on it prints the clean stdout."""
    max_ess, recs, written, clean_out = clean
    cache.write_bytes(content)
    assert poset._read_cache(str(cache), max_ess) is None
    assert enumerate_classes(max_ess, cache_path=str(cache)) == recs
    assert cache.read_bytes() == written
    cache.write_bytes(content)
    assert cli.main(verify_argv(cache, max_ess)) == 0
    assert capsys.readouterr().out == clean_out
    assert cache.read_bytes() == written
    # rewritten once: the next run reads it
    assert poset._read_cache(str(cache), max_ess) == recs


def headed(body, max_ess=2, version=4):
    """``body`` under a ``version`` header whose count and checksum match
    it, so that at the current version it reaches the line reader."""
    count = body.count(b"\n")
    crc = poset._checksum(body)
    return f"#boolminor-classes v{version} max_ess={max_ess} count={count} crc32={crc}\n".encode() + body


def v3_body(recs):
    """The body a v3 cache held for ``recs``: each line the vector, the ess,
    gap, block and level fields of the structured export, and the covers'
    positions."""
    position = {r.key(): i for i, r in enumerate(recs)}
    lines = []
    for r, line in zip(recs, poset._render_records(list(recs)).splitlines()):
        cov = ",".join(str(position[c.monomials]) for c in r.lower_covers) or "-"
        lines.append("\t".join([f"{bfcore._pack(r.canon.monomials):x}", *line.split("\t")[1:5], cov]))
    return ("\n".join(lines) + "\n").encode()


# x1, then x1*x2 covered by the record at position 0, as v4 lines and as
# the v3 lines that also held the ess, gap, block and level
LINE_X1 = b"2\t-\n"
V3_LINE_X1 = b"2\t1\t-\tProjection\t0\t-\n"


def x1x2_covered_by(index):
    return LINE_X1 + b"8\t" + index + b"\n"


def v3_x1x2_covered_by(index):
    return V3_LINE_X1 + b"8\t2\t1\tProjection\t1+\t" + index + b"\n"


# cover indices out of range (itself, or past the end), negative, or not a
# canonical decimal
BAD_INDICES = (b"1", b"2", b"-1", b"-0", b"+0", b"00", b" 0", b"0x0", b"0.0", b"a", b"")


def test_cache_round_trip(tmp_path, capsys):
    clean = clean_run(tmp_path, capsys, 2)
    _, recs, written, _ = clean
    cache = tmp_path / "classes.tsv"
    assert enumerate_classes(2, cache_path=str(cache)) == recs
    assert cache.read_bytes() == written
    assert enumerate_classes(2, cache_path=str(cache)) == recs
    head, body = written.split(b"\n", 1)
    assert head.startswith(b"#boolminor-classes v4 max_ess=2 count=12 crc32=")
    # a cache whose lines all parse is still stale when its body no longer
    # matches the header's checksum, or when it predates the checksum or
    # this format; v2 is the cache as the export text wrote it, v3 the
    # vectors and covers with the ess, gap, block and level fields
    tampered = body.rsplit(b"\t", 1)[0] + b"\t-\n"
    assert tampered != body
    # its lines parse: under its own checksum the tampered body reads
    cache.write_bytes(headed(tampered))
    assert poset._read_cache(str(cache), 2) is not None
    export_text = poset._render_records(list(recs)).encode()
    crc2 = poset._checksum(export_text).encode()
    v3 = v3_body(recs)
    # the v3 line of x1 + x2 + 1 with its gap 2 read as 1: under a matching
    # CRC the v3 reader took that gap on trust
    gap_line = b"7\t2\t2\tOne\t1+\t"
    assert v3.count(gap_line) == 1
    for content in (
        head + b"\n" + tampered,
        b"#boolminor-classes v1 max_ess=2 count=12\n" + body,
        head.replace(b"v4", b"v1", 1) + b"\n" + body,
        head.replace(b"v4", b"v3", 1) + b"\n" + body,
        b"#boolminor-classes v2 max_ess=2 count=12 crc32=" + crc2 + b"\n" + export_text,
        headed(v3, version=3),
        headed(v3.replace(gap_line, b"7\t2\t1\tOne\t1+\t"), version=3),
    ):
        assert_stale(cache, content, clean, capsys)
    # foreign or malformed content is recomputed and rewritten; each
    # malformed body also sits under a header whose count and checksum match
    # it, so at v4 it reaches the line reader
    malformed = (
        b"2\n",
        b"2\t-\t-\n",
        b"\xff\xfe\n",
        # wider than the 4-bit vector width at max_ess 2, by value or by padding
        b"10\t-\n",
        b"00000002\t-\n",
        *(x1x2_covered_by(i) for i in BAD_INDICES),
    )
    # the v3 lines, each refused by the v4 reader as much as by the version
    v3_malformed = (
        b"2\t1\n",
        b"2\t1\t-\tProjection\t0\t-\t-\n",
        b"2\t1\t-\tSideways\t0\t-\n",
        b"10\t1\t-\tProjection\t0\t-\n",
        b"00000002\t1\t-\tProjection\t0\t-\n",
        *(v3_x1x2_covered_by(i) for i in BAD_INDICES),
        # fields that disagree with the vector or its covers: x1 read back
        # with ess 3, gap 7 and a provisional level under a matching CRC
        b"2\t+3\t 7\tProjection\t0++\t-\n",
        # an ess that is not the support's size, or not its canonical decimal
        b"2\t2\t1\tProjection\t0\t-\n",
        b"2\t01\t-\tProjection\t0\t-\n",
        # the block of another vector
        b"2\t1\t-\tOne\t0\t-\n",
        # a gap below ess 2, none at ess 2, or one other than 1 and 2
        b"2\t1\t1\tProjection\t0\t-\n",
        *(V3_LINE_X1 + b"8\t2\t" + gap + b"\tProjection\t1+\t0\n" for gap in (b"-", b"0", b"3", b"01", b" 1")),
        # a level that is not one above the deepest cover's, or whose "+"
        # does not mark ess == max_ess
        b"2\t1\t-\tProjection\t1\t-\n",
        b"2\t1\t-\tProjection\t0+\t-\n",
        *(V3_LINE_X1 + b"8\t2\t1\tProjection\t" + level + b"\t0\n" for level in (b"0+", b"2+", b"1", b"01+")),
        # the well-formed v3 lines
        V3_LINE_X1,
        v3_x1x2_covered_by(b"0"),
    )
    for content in (
        b"#something-else\n",
        *(b"#boolminor-classes v1 max_ess=2 count=1\n" + body for body in malformed + v3_malformed),
        *(headed(body, version=3) for body in malformed + v3_malformed),
        *(headed(body) for body in malformed + v3_malformed),
    ):
        assert_stale(cache, content, clean, capsys)
    # the v4 lines read once the vector fits and the index is well formed
    cache.write_bytes(headed(LINE_X1))
    assert [r.canon for r in poset._read_cache(str(cache), 2)] == [poly(1, (1,))]
    cache.write_bytes(headed(x1x2_covered_by(b"0")))
    x1, x1x2 = poset._read_cache(str(cache), 2)
    assert (x1.canon, x1x2.canon, x1x2.lower_covers) == (poly(1, (1,)), poly(2, (1, 2)), (x1.canon,))
    # past the 2-bit width at max_ess 1, though within one hex digit
    clean1 = clean_run(tmp_path, capsys, 1)
    for content in (headed(b"4\t-\n", 1), headed(b"4\t1\t-\tProjection\t0\t-\n", 1, version=3)):
        assert_stale(cache, content, clean1, capsys)


def test_a_vector_that_is_not_its_own_rendering_is_stale(classes4, tmp_path, capsys):
    spellings = (b"0x1f", b"+1f", b"1_f", b"1F", b" 1f")
    assert {int(s, 16) for s in spellings} == {0x1F}
    # each spelling fits in the 4-digit width at max_ess 4, so the rendering
    # check, not the length, refuses it
    cache = tmp_path / "classes.tsv"
    poset._write_cache(str(cache), 4, classes4)
    body = cache.read_bytes().split(b"\n", 1)[1]
    assert body.startswith(b"0\t")  # the zero function's record
    for spelling in spellings:
        cache.write_bytes(headed(spelling + body[1:], 4))
        assert poset._read_cache(str(cache), 4) is None
    # at max_ess 3 the lowercase rendering reads, and each other spelling is
    # recomputed and rewritten; so is each spelling in a v3 line, whose
    # lowercase rendering is stale too
    rest, v3_rest = b"\t-\n", b"\t3\t1\tOne\t0+\t-\n"
    cache.write_bytes(headed(b"1f" + rest, 3))
    assert [r.canon for r in poset._read_cache(str(cache), 3)] == [Zhegalkin(3, frozenset(range(5)))]
    clean = clean_run(tmp_path, capsys, 3)
    for spelling in spellings:
        assert_stale(cache, headed(spelling + rest, 3), clean, capsys)
    for spelling in (b"1f", *spellings):
        for version in (3, 4):
            assert_stale(cache, headed(spelling + v3_rest, 3, version), clean, capsys)


def test_a_hex_run_at_the_byte_bound_is_refused_by_length(tmp_path, capsys, monkeypatch):
    clean = clean_run(tmp_path, capsys, 2)
    cache = tmp_path / "classes.tsv"
    parsed = []
    monkeypatch.setattr(poset, "int", lambda text, *base: parsed.append(text) or int(text, *base), raising=False)
    # one digit within the width reaches int() and reads
    cache.write_bytes(headed(b"f\t-\n"))
    assert [r.ess for r in poset._read_cache(str(cache), 2)] == [2]
    assert parsed == ["f"]
    # the v4 line, and the v3 line under either header
    for rest, version in ((b"\t-\n", 4), (b"\t1\t-\tProjection\t0\t-\n", 3), (b"\t1\t-\tProjection\t0\t-\n", 4)):
        head = len(headed(rest, version=version))
        content = headed(b"f" * (poset._CACHE_MAX_BYTES - head) + rest, version=version)
        assert len(content) == poset._CACHE_MAX_BYTES
        cache.write_bytes(content)
        parsed.clear()
        start = time.perf_counter()
        assert poset._read_cache(str(cache), 2) is None
        assert time.perf_counter() - start < 1
        # the run never reached int()
        assert parsed == []
        assert_stale(cache, content, clean, capsys)


def test_a_cache_written_at_another_max_ess_is_stale(tmp_path, capsys):
    # header, CRC and every line are valid, but they hold the classes of ess <= 2
    cache = tmp_path / "classes.tsv"
    assert cli.main(["poset", "--max-ess", "2", "--cache", str(cache)]) == 0
    assert cache.read_text().startswith("#boolminor-classes v4 max_ess=2 count=12 crc32=")
    capsys.readouterr()
    assert cli.main(["poset", "--max-ess", "3", "--cache", str(cache), "--export-format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out == poset.export(enumerate_classes(3), format="structured")
    assert len(out.splitlines()) == 80
    assert cache.read_text().startswith("#boolminor-classes v4 max_ess=3 count=80 crc32=")


def test_enumeration_reproducible():
    assert enumerate_classes(2) == enumerate_classes(2)


def test_cross_block_incomparability_small():
    recs = enumerate_classes(2)
    for a, b in itertools.combinations(recs, 2):
        if a.block is b.block:
            continue
        # the unscreened search: is_minor's screen refuses across blocks
        assert bfcore._minor_search(a.canon, b.canon) is None
        assert bfcore._minor_search(b.canon, a.canon) is None


def test_cache_path_that_is_not_a_regular_file_exits_2(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "boolminor.cli", "verify", "poset", "--max-ess", "2", "--cache", str(fifo)]
    run = subprocess.run(argv, env=env, capture_output=True, timeout=2)
    err = run.stderr.decode()
    assert run.returncode == 2 and run.stdout == b""
    assert err.splitlines() == [f"error: cache path {str(fifo)!r} is not a regular file"]
    with pytest.raises(ValueError, match="not a regular file"):
        enumerate_classes(2, cache_path=str(tmp_path))


def test_cache_write_never_opens_a_fifo_at_the_temp_name(tmp_path):
    # a FIFO blocks any open of its name until a reader comes, so the write
    # must never open a name that already exists
    cache = tmp_path / "c"
    os.mkfifo(tmp_path / "c.tmp")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "boolminor.cli", "poset", "--max-ess", "1", "--cache", str(cache)]
    run = subprocess.run(argv, env=env, capture_output=True, timeout=10)
    assert run.returncode == 0 and run.stderr == b""
    assert poset._read_cache(str(cache), 1) == enumerate_classes(1)
    # no temp file is left behind, and the FIFO is untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "c.tmp"]
    assert stat.S_ISFIFO((tmp_path / "c.tmp").stat().st_mode)


def test_a_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(poset.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        poset._write_cache(str(tmp_path / "c"), 1, enumerate_classes(1))
    assert list(tmp_path.iterdir()) == []


def test_oversize_cache_is_stale_and_read_within_the_bound(tmp_path, monkeypatch):
    cache = tmp_path / "classes.tsv"
    recs = enumerate_classes(2, cache_path=str(cache))
    written = cache.read_bytes()
    reads = []

    def recording_open(path, mode="r"):
        fh = open(path, mode)
        read = fh.read
        fh.read = lambda size=-1: reads.append(size) or read(size)
        return fh

    monkeypatch.setattr(poset, "open", recording_open, raising=False)
    # a valid cache followed by a sparse gigabyte of zeros
    with open(cache, "r+b") as fh:
        fh.truncate(1 << 30)
    assert poset._read_cache(str(cache), 2) is None
    assert enumerate_classes(2, cache_path=str(cache)) == recs
    assert cache.read_bytes() == written
    assert reads == [poset._CACHE_MAX_BYTES + 1] * 2
    # a cache exactly at the bound is still read
    monkeypatch.setattr(poset, "_CACHE_MAX_BYTES", len(written))
    assert poset._read_cache(str(cache), 2) == recs
    monkeypatch.setattr(poset, "_CACHE_MAX_BYTES", len(written) - 1)
    assert poset._read_cache(str(cache), 2) is None
