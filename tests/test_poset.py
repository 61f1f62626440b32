"""Class enumeration, covers, levels, blocks, cache, and export."""

import itertools
import os
import random
import stat
import subprocess
import sys
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


def test_rendering_and_reading_memos_keep_every_record(classes4, tmp_path):
    rendered = poset._render_records(list(classes4)).split("\n")
    expected = old_render_records(classes4).split("\n")
    assert len(rendered) == len(expected)
    # line by line: pytest's diff of the whole text would take minutes
    for got, want in zip(rendered, expected):
        assert got == want
    cache = tmp_path / "classes.tsv"
    poset._write_cache(str(cache), 4, classes4)
    assert poset._read_cache(str(cache), 4) == classes4


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


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "classes.tsv"
    recs = enumerate_classes(2, cache_path=str(cache))
    written = cache.read_text()
    again = enumerate_classes(2, cache_path=str(cache))
    assert again == recs
    head, body = written.split("\n", 1)
    assert head.startswith("#boolminor-classes v2 max_ess=2 count=12 crc32=")
    # a cache whose lines all parse is still stale when its body no longer
    # matches the header's checksum, or when it predates the checksum
    lines = body.splitlines()
    fields = lines[-1].split("\t")
    level = fields[4].rstrip("+")
    fields[4] = fields[4].replace(level, str((int(level) + 1) % 10))
    tampered = "\n".join(lines[:-1] + ["\t".join(fields)]) + "\n"
    assert poset._read_cache(str(cache), 2) == recs
    argv = ["verify", "poset", "--max-ess", "2", "--cache", str(cache)]
    assert cli.main(argv) == 0
    clean_out = capsys.readouterr().out
    stale = (
        head + "\n" + tampered,
        f"#boolminor-classes v1 max_ess=2 count=12\n{body}",
        head.replace("v2", "v1", 1) + "\n" + body,
    )
    for content in stale:
        cache.write_text(content)
        assert poset._read_cache(str(cache), 2) is None
        assert enumerate_classes(2, cache_path=str(cache)) == recs
        assert cache.read_text() == written
        cache.write_text(content)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == clean_out
        assert cache.read_text() == written
    # stale, foreign or malformed cache content is recomputed and rewritten;
    # each malformed body sits under a v2 header whose checksum matches it,
    # so it reaches the line parser
    def v2(body):
        crc = poset._checksum(body).encode()
        return b"#boolminor-classes v2 max_ess=2 count=1 crc32=" + crc + b"\n" + body

    header = b"#boolminor-classes v1 max_ess=2 count=1\n"
    malformed = (
        b"x1\t1\n",
        b"x1 +\t1\t-\tProjection\t0\t-\n",
        b"x1\t1\t-\tSideways\t0\t-\n",
        b"\xff\xfe\n",
    )
    for content in (
        b"#something-else\n",
        *(header + body for body in malformed),
        *(v2(body) for body in malformed),
    ):
        cache.write_bytes(content)
        assert poset._read_cache(str(cache), 2) is None
        fresh = enumerate_classes(2, cache_path=str(cache))
        assert fresh == recs
        assert cache.read_text() == written


def test_a_cache_written_at_another_max_ess_is_stale(tmp_path, capsys):
    # header, CRC and every line are valid, but they hold the classes of ess <= 2
    cache = tmp_path / "classes.tsv"
    assert cli.main(["poset", "--max-ess", "2", "--cache", str(cache)]) == 0
    assert cache.read_text().startswith("#boolminor-classes v2 max_ess=2 count=12 crc32=")
    capsys.readouterr()
    assert cli.main(["poset", "--max-ess", "3", "--cache", str(cache), "--export-format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out == poset.export(enumerate_classes(3), format="structured")
    assert len(out.splitlines()) == 80
    assert cache.read_text().startswith("#boolminor-classes v2 max_ess=3 count=80 crc32=")


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
