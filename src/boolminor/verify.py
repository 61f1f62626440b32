"""Exhaustive desk-scale verification sweeps.

Each sweep checks one package of claims and returns a :class:`VerifyResult`
whose rendered lines are byte-identical across runs and worker counts:
counts are merged deterministically and timing never goes into the output.
Randomized sampling derives every sample from a fixed default seed.

Every sharded phase runs one shard function through ``_run_shards``.  A
shard returns its counts and its finished failure records, and the records
are concatenated in job order, so the ``FAIL`` lines come out in the same
order at any worker count.  A sampled phase runs its exhaustive phase's
shard with a seed; ``seed=None`` means exhaustive.

A sweep's parameters are its flags: ``boolminor verify`` reads them off the
signatures in ``ALL_SWEEPS``.  Its worker count is its own ``workers``
argument alone (None means 1, below 1 is refused), clamped to the CPU
count; nothing here reads the environment.  At two workers or more a sweep
runs all its phases in one process pool, opened by ``_pool``: the one place
in the package that starts processes.

The labeled-graph sweep decomposes the 2^C(n,2) edge masks into orbits
under vertex permutations with ``bfcore._orbit_partition`` (the engine the
poset enumeration runs on ANF vectors, here fed the pair masks), evaluates
the expensive irreducibility oracles once per orbit representative, and
still runs the structural classifiers on every labeled mask.  Spot samples,
distinct masks drawn with a fixed seed (every mask at n <= 4), re-run the
oracle on their labeled graphs to confirm it is labeling-invariant.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import random
import signal
from collections import Counter
from dataclasses import dataclass, field

from . import bfcore, designs, graphs, poset
from . import hypergraph as hg
from .bfcore import TruthTable, Zhegalkin, _check_range, _orbit_partition, bits_of
from .formats import (
    format_graph_line,
    format_hypergraph_doc,
    format_polynomial,
    format_truth_table,
)

DEFAULT_SEED = 271828

# The largest size each sweep accepts; one more is out of desk reach.
GAP_MAX_ARITY = 4  # 5 means 2^32 truth tables
CORRESPONDENCE_MAX_VERTICES = 3  # 4 means about 4*10^9 exhaustive pairs
KEYLEMMA_MAX_VERTICES = 4  # 5 means 2^32 edge masks
GRAPHS_MAX_VERTICES = 7  # 8 means a 2 GiB orbit-representative array
QUOTIENT_MAX_VERTICES = 5  # the oracle's lanes at 8: 64 ints of 2^24 bits

_GRAPHS_SPOT_SAMPLES = 200  # seeded labeled masks per vertex count whose orbit verdict is re-checked


def resolve_workers(requested: int | None = None) -> int:
    """``requested``, or 1 when None, at most the CPU count; below 1 is refused."""
    if requested is None:
        return 1
    _check_range("workers", requested, 1)
    return min(requested, os.cpu_count() or 1)


@dataclass
class VerifyResult:
    name: str
    lines: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


@contextlib.contextmanager
def _pool(workers: int):
    """The one process pool of a sweep, or ``None`` at one worker.

    Every sharded phase of the sweep runs in it, so each worker keeps its
    caches from one phase to the next.  The workers are forked after the
    4-variable orbit table that names small classes is built, so they share
    it, and they ignore Ctrl-C: the parent alone stops.  Leaving the block
    cancels the shards not yet handed to a worker and waits for the rest.
    A worker that dies ends the sweep with a ``ChildProcessError`` (an
    ``OSError``) instead of a hang.
    """
    if workers <= 1:
        yield None
        return
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from multiprocessing import get_context

    bfcore._anf_orbits(4)
    pool = ProcessPoolExecutor(
        workers,
        mp_context=get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        yield pool
    except BrokenExecutor:
        raise ChildProcessError("a worker process died before its shard finished") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _run_shards(fn, jobs: list, pool) -> dict:
    """Run ``fn`` on every job, in the sweep's ``pool`` when it has one, and
    add the returned dicts key by key, in job order: ints and Counters sum,
    failure lists concatenate."""
    if pool is None:
        parts = map(fn, jobs)
    else:
        # not Executor.map: on an error it cancels the pending futures from
        # this thread, racing the pool's own thread, which fails them when a
        # worker dies; the shutdown in _pool cancels them in that thread
        parts = [future.result() for future in [pool.submit(fn, job) for job in jobs]]
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged[key] + value if key in merged else value
    return merged


def _split_range(total: int, pieces: int) -> list[tuple[int, int]]:
    """At most ``pieces`` ranges covering ``0..total``; a total of 0 gives one empty range."""
    pieces = max(1, min(pieces, total))
    step = max(1, (total + pieces - 1) // pieces)
    return [(s, min(s + step, total)) for s in range(0, max(total, 1), step)]


# ===========================================================================
# arity-gap sweep


def _gap_shard(job: tuple[int, int, int]) -> dict:
    arity, start, stop = job
    gap_counts: Counter = Counter()
    family_counts: Counter = Counter()
    low_ess = 0
    mismatches = []
    for table_bits in range(start, stop):
        # the ANF vector: bit m is set when monomial m occurs
        anf = bfcore._mobius(table_bits, arity)
        gap = bfcore._arity_gap_vec(anf, arity)
        if gap is None:
            low_ess += 1
            continue
        family = bfcore._classify_gap_vec(anf, arity)
        gap_counts[gap] += 1
        family_counts[family.tag.value] += 1
        bad_bound = gap not in (1, 2)
        bad_match = (family.tag is not bfcore.GapTag.GAP_ONE) != (gap == 2)
        if bad_bound or bad_match:
            mismatches.append(
                {
                    "sweep": "gap",
                    "table": format_truth_table(TruthTable(arity, table_bits)),
                    "polynomial": format_polynomial(Zhegalkin(arity, frozenset(bits_of(anf)))),
                    "gap": gap,
                    "family": family.tag.value,
                }
            )
    return {
        "gap_counts": gap_counts,
        "family_counts": family_counts,
        "low_ess": low_ess,
        "mismatches": mismatches,
    }


def gap_sweep(max_arity: int = GAP_MAX_ARITY, workers: int | None = None) -> VerifyResult:
    """Check the gap-two family classification against brute-force gaps."""
    _check_range("max_arity", max_arity, 1, GAP_MAX_ARITY)
    workers = resolve_workers(workers)
    total = 1 << (1 << max_arity)
    jobs = [(max_arity, s, e) for s, e in _split_range(total, workers * 8)]
    with _pool(workers) as pool:
        merged = _run_shards(_gap_shard, jobs, pool)
    gap_counts = merged["gap_counts"]
    family_counts = merged["family_counts"]
    low_ess = merged["low_ess"]
    failures = merged["mismatches"]
    lines = [f"{total} tables checked"]
    lines.append(f"skipped (fewer than two essential variables): {low_ess}")
    lines.append(
        "gap counts: " + " ".join(f"{g}->{gap_counts[g]}" for g in sorted(gap_counts))
    )
    lines.append(
        "family counts: "
        + " ".join(f"{k}={family_counts[k]}" for k in sorted(family_counts))
    )
    data = {
        "tables": total,
        "low_ess": low_ess,
        "gap_counts": dict(gap_counts),
        "family_counts": dict(family_counts),
    }
    return VerifyResult("gap", lines, failures, data)


# ===========================================================================
# function/hypergraph correspondence sweep


def _parity_fold(edges: list[int], image: tuple[int, ...]) -> int:
    """Edge mask of the parity image of ``edges`` under a 0-based vertex map.

    The seeded sample generator folds a random map with it to force a related
    pair; it stays independent of bfcore like the oracle it feeds.
    """
    acc = 0
    for e in edges:
        im = 0
        while e:
            low = e & -e
            im |= 1 << image[low.bit_length() - 1]
            e ^= low
        acc ^= 1 << im
    return acc


@functools.lru_cache(maxsize=None)
def _lane_tables(n1: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """``A[v][w]``: bit i set when map i sends vertex v to w.

    Maps are numbered in ``itertools.product`` order, vertex 0 most
    significant, so the lowest set lane is the first map in that order.
    """
    lanes = [[0] * n2 for _ in range(n1)]
    for i, image in enumerate(itertools.product(range(n2), repeat=n1)):
        for v, w in enumerate(image):
            lanes[v][w] |= 1 << i
    return tuple(map(tuple, lanes))


def _brute_quotient(edge_mask1: int, n1: int, targets, n2: int) -> list:
    """For each edge mask in ``targets``, the first vertex map (in
    ``itertools.product`` order) whose parity fold of ``edge_mask1`` equals
    it, or None.

    Exhaustive over all n2^n1 maps, bit-sliced: one int carries one bit
    (lane) per map.  ``parity[t]`` holds the maps under which an odd number
    of edges land exactly on the vertex set t, so the maps that fold onto a
    target are the AND over t of ``parity[t]`` or its complement.  This is
    the oracle the sweep checks ``bfcore.is_minor`` against: it must stay
    independent of bfcore, so it decodes ``edge_mask1`` itself.
    """
    # written out, not bfcore._check_range: the oracle runs no bfcore code
    for name, n in (("n1", n1), ("n2", n2)):
        if not 1 <= n <= QUOTIENT_MAX_VERTICES:
            raise ValueError(f"{name} must be in 1..{QUOTIENT_MAX_VERTICES}, got {n}")
    table = _lane_tables(n1, n2)
    full = (1 << n2**n1) - 1
    parity = [0] * (1 << n2)
    for e in range(1 << n1):
        if not edge_mask1 >> e & 1:
            continue
        vertex_lanes = [table[v] for v in range(n1) if e >> v & 1]
        # split the maps by the exact image of e, one target vertex at a time
        exact = {0: full}
        for w in range(n2):
            hit = 0
            for lanes in vertex_lanes:
                hit |= lanes[w]
            split = {}
            for t, lane in exact.items():
                on = lane & hit
                if on:
                    split[t | 1 << w] = on
                if on != lane:
                    split[t] = lane ^ on
            exact = split
        for t, lane in exact.items():
            parity[t] ^= lane
    found = []
    for em2 in targets:
        maps = 0 if em2 >> (1 << n2) else full
        for t, p in enumerate(parity):
            if not maps:
                break
            maps &= p if em2 >> t & 1 else ~p
        if not maps:
            found.append(None)
            continue
        i = (maps & -maps).bit_length() - 1  # the lowest lane is the first map
        found.append(tuple(i // n2 ** (n1 - 1 - v) % n2 for v in range(n1)))
    return found


def _correspondence_shard(job: tuple[int | None, int, int, int]) -> dict:
    """Larger sides ``start..stop`` of the hypergraphs on 1..``max_vertices``
    vertices, each against every one of them; or with a ``seed`` the seeded
    4..5-vertex pairs of those indices.  Brute-force quotient existence must
    equal the polynomial minor test; every 25th sample also runs a found map
    through ``verify_quotient_map``.  The oracle runs once per larger side
    and target vertex count, on all of that count's smaller sides in
    universe order, so pairs and records keep their order.  An exhaustive
    shard decodes every side once; the oracle decodes the larger side itself."""
    seed, max_vertices, start, stop = job
    if seed is None:
        smaller = []
        for n in range(1, max_vertices + 1):
            ems = range(1 << (1 << n))
            smaller.append((n, ems, [Zhegalkin(n, frozenset(bits_of(em))) for em in ems]))
        universe = [(n, em, p) for n, ems, polys in smaller for em, p in zip(ems, polys)]
    mismatches = []
    pairs = 0
    positives = 0
    for idx in range(start, stop):
        if seed is None:
            n1, em1, p1 = universe[idx]
        else:
            rng = random.Random(f"{seed}:corr:{idx}")
            n1 = rng.choice((4, 5))
            n2 = rng.choice((4, 5))
            em1 = rng.getrandbits(1 << n1)
            if idx % 3 == 0:
                # force a related pair: fold a random map's image of the larger side
                image = tuple(rng.randrange(n2) for _ in range(n1))
                em2 = _parity_fold(bits_of(em1), image)
            else:
                em2 = rng.getrandbits(1 << n2)
            smaller = [(n2, [em2], [Zhegalkin(n2, frozenset(bits_of(em2)))])]
            p1 = Zhegalkin(n1, frozenset(bits_of(em1)))
        for n2, targets, polys in smaller:
            for p2, found in zip(polys, _brute_quotient(em1, n1, targets, n2)):
                minor = bfcore.is_minor(p2, p1) is not None
                pairs += 1
                positives += found is not None
                kind = None
                if (found is not None) != minor:
                    kind = "correspondence"
                elif found is not None and seed is not None and idx % 25 == 0:
                    vmap = hg.VertexMap(n1, n2, tuple(t + 1 for t in found))
                    h1, h2 = hg.Hypergraph(n1, p1.monomials), hg.Hypergraph(n2, p2.monomials)
                    if not hg.verify_quotient_map(vmap, h1, h2):
                        kind = "correspondence-public-check"
                if kind:
                    mismatches.append(
                        {
                            "sweep": kind,
                            "larger": format_hypergraph_doc(hg.Hypergraph(n1, p1.monomials)),
                            "smaller": format_hypergraph_doc(hg.Hypergraph(n2, p2.monomials)),
                            "quotient_map_exists": found is not None,
                            "is_minor": minor,
                        }
                    )
    return {"pairs": pairs, "positives": positives, "mismatches": mismatches}


def correspondence_sweep(
    max_vertices: int = CORRESPONDENCE_MAX_VERTICES,
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> VerifyResult:
    """Quotient-map existence vs the polynomial minor relation, both directions."""
    _check_range("max_vertices", max_vertices, 1, CORRESPONDENCE_MAX_VERTICES)
    _check_range("samples", samples, 0)
    workers = resolve_workers(workers)
    universe_size = sum(1 << (1 << n) for n in range(1, max_vertices + 1))
    jobs = [
        (None, max_vertices, s, e) for s, e in _split_range(universe_size, workers * 4)
    ]
    sample_jobs = [(seed, max_vertices, s, e) for s, e in _split_range(samples, workers * 4)]
    with _pool(workers) as pool:
        merged = _run_shards(_correspondence_shard, jobs, pool)
        sampled = _run_shards(_correspondence_shard, sample_jobs, pool)
    pairs = merged["pairs"]
    positives = merged["positives"]
    failures = merged["mismatches"] + sampled["mismatches"]
    sample_positives = sampled["positives"]

    lines = [
        f"{pairs} exhaustive pairs checked (hypergraphs on 1..{max_vertices} vertices)",
        f"related pairs: {positives}",
        f"{samples} sampled pairs checked (4..5 vertices, seed {seed})",
        f"related sampled pairs: {sample_positives}",
    ]
    data = {
        "pairs": pairs,
        "positives": positives,
        "samples": samples,
        "sample_positives": sample_positives,
        "seed": seed,
    }
    return VerifyResult("correspondence", lines, failures, data)


# ===========================================================================
# contraction-criterion consistency sweep


def _criterion_shard(job: tuple[int | None, int, int, int]) -> dict:
    """Edge masks ``start..stop`` on ``n`` vertices, or with a ``seed`` the
    seeded samples of those indices."""
    seed, n, start, stop = job
    irreducible = 0
    mismatches = []
    for idx in range(start, stop):
        if seed is None:
            em = idx
        else:
            em = random.Random(f"{seed}:keylemma:{idx}").getrandbits(1 << n)
        # the edge mask is the ANF vector
        by_contr = hg._irreducible_by_contractions(frozenset(bits_of(em)), n)
        direct = bfcore._irreducible_cover(em, n) is not None
        irreducible += by_contr
        if by_contr != direct:
            mismatches.append(
                {
                    "sweep": "keylemma",
                    "hypergraph": format_hypergraph_doc(hg.Hypergraph(n, frozenset(bits_of(em)))),
                    "contraction_criterion": by_contr,
                    "direct_definition": direct,
                }
            )
    return {"checked": stop - start, "irreducible": irreducible, "mismatches": mismatches}


def contraction_criterion_sweep(
    max_vertices: int = KEYLEMMA_MAX_VERTICES,
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> VerifyResult:
    """Contraction-class irreducibility against the direct definition.

    A disagreement is a reportable finding: the sweep prints the offending
    hypergraph and fails, deciding neither side.
    """
    _check_range("max_vertices", max_vertices, 1, KEYLEMMA_MAX_VERTICES)
    _check_range("samples", samples, 0)
    workers = resolve_workers(workers)
    lines = []
    failures: list[dict] = []
    data: dict = {"per_vertex_count": {}, "seed": seed}
    sample_n = max_vertices + 1
    with _pool(workers) as pool:
        for n in range(1, max_vertices + 1):
            total = 1 << (1 << n)
            jobs = [(None, n, s, e) for s, e in _split_range(total, workers * 4)]
            merged = _run_shards(_criterion_shard, jobs, pool)
            checked = merged["checked"]
            irreducible = merged["irreducible"]
            failures += merged["mismatches"]
            lines.append(f"n={n}: {checked} hypergraphs checked, irreducible: {irreducible}")
            data["per_vertex_count"][n] = {"checked": checked, "irreducible": irreducible}
        jobs = [(seed, sample_n, s, e) for s, e in _split_range(samples, workers * 4)]
        merged = _run_shards(_criterion_shard, jobs, pool)
    checked = merged["checked"]
    irreducible = merged["irreducible"]
    failures += merged["mismatches"]
    lines.append(
        f"n={sample_n}: {checked} sampled hypergraphs checked, irreducible: {irreducible}"
    )
    data["samples"] = {"n": sample_n, "checked": checked, "irreducible": irreducible}
    return VerifyResult("keylemma", lines, failures, data)


# ===========================================================================
# labeled-graph sweep


def _graph_from_mask(n: int, mask: int, pairs: list[int]) -> graphs.Graph:
    return graphs.Graph(n, frozenset(pairs[k] for k in bits_of(mask)))


def _rep_oracle_shard(job: tuple[int, list[int]]) -> dict:
    """The irreducibility verdict of each orbit representative, and the
    failures of its oracle, classifier and structure probes."""
    n, reps = job
    pairs = list(graphs._pair_ends(n))
    verdicts = []
    failures = []
    for rep in reps:
        g = _graph_from_mask(n, rep, pairs)
        by_contr = hg.is_irreducible_by_contractions(g)
        direct = bfcore.is_irreducible_direct(hg.polynomial_of(g)) is not None
        cls = graphs.classify_join_irreducible(g)
        verdicts.append((rep, by_contr))
        if by_contr != direct:
            failures.append(
                {
                    "sweep": "graphs-oracle",
                    "n": n,
                    "rep": rep,
                    "contraction_criterion": by_contr,
                    "direct_definition": direct,
                }
            )
        probes: list[str] = []
        if cls.irreducible and not graphs.matches_template(g, cls):
            probes.append("classification does not match its template graph")
        connected = graphs.is_connected(g) and g.vertex_count >= 2
        if connected:
            if not graphs.lemma_aux_check(g):
                probes.append("edge-contraction probe failed")
            if by_contr:
                fam = graphs.classify_property_p(graphs.ai_decomposition(g).quotient)
                if fam is None or fam.kind not in (graphs.PropertyPKind.COMPLETE, graphs.PropertyPKind.C5):
                    probes.append("irreducible connected graph with a bad ai quotient")
            if not graphs.is_ai_prime(g):
                in_families = cls.kind in (
                    graphs.JIKind.K2_JOIN_EMPTY,
                    graphs.JIKind.EMPTY_JOIN_EMPTY,
                    graphs.JIKind.BALANCED_MULTIPARTITE,
                )
                if by_contr != in_families:
                    probes.append("non-prime connected case disagrees with its families")
        failures += ({"sweep": "graphs-probe", "n": n, "rep": rep, "probe": p} for p in probes)
    return {"verdicts": verdicts, "failures": failures}


def _labeled_shard(job) -> dict:
    """The three classifiers on every mask of ``start..stop``, ascending.

    One neighborhood list steps from mask m - 1 to m by flipping the pairs
    of ``m ^ (m - 1)`` (the first step decodes the whole start mask), and
    the classifiers' private bodies read it as it is.  A ``Graph`` is built
    only for a failure record.
    """
    n, start, stop, rep_slice, verdicts = job
    pairs = list(graphs._pair_ends(n))
    flips = list(graphs._pair_ends(n).values())
    classify = graphs._classify_join_irreducible
    satisfies = graphs._satisfies_property_p
    family = graphs._classify_property_p
    ji_counter: Counter = Counter()
    p_counter: Counter = Counter()
    mismatches = []
    p_mismatches = []
    nb = [0] * n
    prev = 0
    for m, rep in zip(range(start, stop), rep_slice, strict=True):
        diff = m ^ prev
        prev = m
        while diff:
            low = diff & -diff
            diff ^= low
            a, bit_b, b, bit_a = flips[low.bit_length() - 1]
            nb[a] ^= bit_b
            nb[b] ^= bit_a
        cls = classify(nb)
        expected = verdicts[rep]
        ji_counter[str(cls)] += 1
        if cls.irreducible != expected:
            mismatches.append(
                {
                    "sweep": "graphs",
                    "graph": format_graph_line(_graph_from_mask(n, m, pairs)),
                    "classified": str(cls),
                    "irreducible_oracle": bool(expected),
                }
            )
        if n >= 2:
            sat = satisfies(nb)
            fam = family(nb, m.bit_count())
            if sat != (fam is not None):
                p_mismatches.append(
                    {
                        "sweep": "property-p",
                        "graph": format_graph_line(_graph_from_mask(n, m, pairs)),
                        "satisfies": sat,
                        "family": None if fam is None else fam.kind.value,
                    }
                )
            if fam is not None:
                p_counter[fam.kind.value] += 1
    return {
        "ji_counter": ji_counter,
        "p_counter": p_counter,
        "mismatches": mismatches,
        "p_mismatches": p_mismatches,
    }


def _c5_blowup_check() -> list[dict]:
    """No connected graph on <= 8 vertices with a C5 quotient over a
    non-trivial block structure is irreducible."""
    failures = []
    quotient = graphs.cycle(5)
    for total in range(6, 9):
        for sizes in itertools.product(range(1, 5), repeat=5):
            if sum(sizes) != total or max(sizes) < 2:
                continue
            starts = itertools.accumulate(sizes, initial=1)
            blocks = tuple(tuple(range(a, a + s)) for a, s in zip(starts, sizes))
            g = graphs.lexicographic_sum(blocks, quotient)
            if hg.is_irreducible_by_contractions(g) or (
                bfcore.is_irreducible_direct(hg.polynomial_of(g)) is not None
            ):
                failures.append(
                    {
                        "sweep": "c5-blowup",
                        "graph": format_graph_line(g),
                        "sizes": list(sizes),
                    }
                )
    return failures


def graph_sweep(
    max_vertices: int = GRAPHS_MAX_VERTICES,
    workers: int | None = None,
    seed: int = DEFAULT_SEED,
) -> VerifyResult:
    """Join-irreducible classification and property (P) on all labeled graphs."""
    _check_range("max_vertices", max_vertices, 1, GRAPHS_MAX_VERTICES)
    workers = resolve_workers(workers)
    lines = []
    failures: list[dict] = []
    p_failures: list[dict] = []
    data: dict = {"per_vertex_count": {}, "seed": seed}
    with _pool(workers) as pool:
        for n in range(1, max_vertices + 1):
            pairs = list(graphs._pair_ends(n))
            total = 1 << len(pairs)
            rep_of, reps = _orbit_partition(pairs, n)

            rep_jobs = [(n, reps[s:e]) for s, e in _split_range(len(reps), workers * 4)]
            merged = _run_shards(_rep_oracle_shard, rep_jobs, pool)
            verdicts = dict(merged["verdicts"])
            failures += merged["failures"]

            labeled_jobs = [
                (n, start, stop, rep_of[start:stop], verdicts)
                for start, stop in _split_range(total, workers * 8)
            ]
            merged = _run_shards(_labeled_shard, labeled_jobs, pool)
            ji_counter = merged["ji_counter"]
            p_counter = merged["p_counter"]
            failures += merged["mismatches"]
            p_failures += merged["p_mismatches"]

            irreducible_labeled = sum(
                cnt for cls, cnt in ji_counter.items() if cls != "NotIrreducible"
            )
            lines.append(
                f"n={n}: {total} labeled graphs, {len(reps)} classes,"
                f" irreducible labeled: {irreducible_labeled}"
            )
            fam_line = " ".join(
                f"{cls}={cnt}" for cls, cnt in sorted(ji_counter.items()) if cls != "NotIrreducible"
            )
            lines.append(f"  families: {fam_line}" if fam_line else "  families: none")
            if n >= 2:
                p_line = " ".join(f"{k}={v}" for k, v in sorted(p_counter.items()))
                lines.append(f"  property-P: {p_line}" if p_line else "  property-P: none")
            data["per_vertex_count"][n] = {
                "labeled": total,
                "classes": len(reps),
                "families": dict(ji_counter),
                "property_p": dict(p_counter),
            }

            # seeded spot checks: the oracle must not depend on the labeling
            rng = random.Random(f"{seed}:spot:{n}")
            for m in rng.sample(range(total), min(_GRAPHS_SPOT_SAMPLES, total)):
                g = _graph_from_mask(n, m, pairs)
                if hg.is_irreducible_by_contractions(g) != verdicts[rep_of[m]]:
                    failures.append(
                        {
                            "sweep": "graphs-spot",
                            "graph": format_graph_line(g),
                            "orbit_verdict": bool(verdicts[rep_of[m]]),
                        }
                    )

    c5_failures = _c5_blowup_check()
    failures.extend(c5_failures)
    lines.append(f"C5-quotient blow-ups on <= 8 vertices: {len(c5_failures) or 'none'} irreducible")
    all_failures = failures + p_failures
    data["property_p_mismatches"] = len(p_failures)
    data["graph_mismatches"] = len(failures)
    return VerifyResult("graphs", lines, all_failures, data)


# ===========================================================================
# Steiner catalog report


def steiner_catalog_report() -> VerifyResult:
    """The three equivalent conditions on every shipped Steiner instance."""
    lines = []
    failures = []
    data: dict = {"instances": {}}
    catalog = designs.small_steiner_catalog()
    for name, h in sorted(catalog.items()):
        report = designs.steiner_report(h, name)
        lines.extend(report.lines())
        data["instances"][name] = report.structured()
        if not report.consistent:
            failures.append(
                {
                    "sweep": "steiner",
                    "instance": name,
                    "irreducible": report.irreducible,
                    "contractions_isomorphic": report.contractions_isomorphic,
                    "minus2_monomorphic": report.minus2_monomorphic,
                }
            )
        if report.two_set_transitive and not report.contractions_isomorphic:
            failures.append(
                {
                    "sweep": "steiner-2set",
                    "instance": name,
                    "detail": "2-set transitivity must force isomorphic contractions",
                }
            )
    return VerifyResult("steiner", lines, failures, data)


# ===========================================================================
# poset sweep


def poset_sweep(
    max_ess: int = poset.MAX_ENUM_ESS,
    cache_path: str | None = None,
    seed: int = DEFAULT_SEED,
) -> VerifyResult:
    """Structure checks over the enumerated class poset."""
    # level 0 holds the four one-per-block classes only from ess 1 on
    _check_range("max_ess", max_ess, 1, poset.MAX_ENUM_ESS)
    records = poset.enumerate_classes(max_ess, cache_path=cache_path)
    by_key = {r.key(): r for r in records}
    failures: list[dict] = []

    level0 = [r for r in records if r.level == 0]
    if len(level0) != 4 or {r.block for r in level0} != set(poset.Block):
        failures.append(
            {
                "sweep": "poset",
                "detail": "level 0 must be the four one-per-block classes",
                "level0": [format_polynomial(r.canon) for r in level0],
            }
        )

    counts: Counter = Counter()
    per_ess: Counter = Counter()
    for r in records:
        counts[(r.ess, r.block.value)] += 1
        per_ess[r.ess] += 1
        # parity block is preserved by every one-variable identification,
        # read off each child's vector: its monomial count and constant bit
        n = r.canon.arity
        vec = bfcore._pack(r.canon.monomials)
        for bi, bj in itertools.combinations(bits_of(bfcore.support_mask(r.canon.monomials)), 2):
            child = bfcore._identify_vec(vec, bi, bj, n)
            if poset._block(child.bit_count(), child & 1) is not r.block:
                failures.append(
                    {
                        "sweep": "poset-block",
                        "class": format_polynomial(r.canon),
                        "identified": format_polynomial(Zhegalkin(n, frozenset(bits_of(child)))),
                    }
                )
        for cov in r.lower_covers:
            cov_rec = by_key.get(cov.monomials)
            if cov_rec is None:
                failures.append(
                    {
                        "sweep": "poset-cover",
                        "class": format_polynomial(r.canon),
                        "detail": "cover outside the enumerated universe",
                    }
                )
                continue
            if r.gap is None or r.ess != cov_rec.ess + r.gap:
                failures.append(
                    {
                        "sweep": "poset-gap-law",
                        "class": format_polynomial(r.canon),
                        "cover": format_polynomial(cov),
                        "ess": r.ess,
                        "cover_ess": cov_rec.ess,
                        "gap": r.gap,
                    }
                )
        # the unique-cover verdict reads the direct definition's cover scan,
        # so the contraction criterion is the independent side
        by_contr = hg.is_irreducible_by_contractions(hg.hypergraph_of(r.canon))
        if r.irreducible != by_contr:
            failures.append(
                {
                    "sweep": "poset-irreducible",
                    "class": format_polynomial(r.canon),
                    "unique_cover": r.irreducible,
                    "contraction_criterion": by_contr,
                }
            )

    # no comparabilities across the four blocks; is_minor's screen refuses
    # every such pair by block, so the unscreened search is asked
    rng = random.Random(f"{seed}:poset")
    checked_pairs = 0
    for _ in range(500):
        a = rng.choice(records)
        b = rng.choice(records)
        if a.block is b.block:
            continue
        checked_pairs += 1
        if bfcore._minor_search(a.canon, b.canon) or bfcore._minor_search(b.canon, a.canon):
            failures.append(
                {
                    "sweep": "poset-blocks-incomparable",
                    "first": format_polynomial(a.canon),
                    "second": format_polynomial(b.canon),
                }
            )

    lines = [f"{len(records)} classes enumerated up to ess {max_ess}"]
    lines.append(
        "classes by ess: " + " ".join(f"{e}->{per_ess[e]}" for e in sorted(per_ess))
    )
    lines.append(
        "classes by (ess, block): "
        + " ".join(f"{e}/{b}={counts[(e, b)]}" for e, b in sorted(counts))
    )
    lines.append(f"cross-block incomparability samples: {checked_pairs}")
    data = {
        "classes": len(records),
        "by_ess": {str(k): v for k, v in per_ess.items()},
        "by_ess_block": {f"{e}/{b}": v for (e, b), v in counts.items()},
    }
    return VerifyResult("poset", lines, failures, data)


ALL_SWEEPS = {
    "gap": gap_sweep,
    "correspondence": correspondence_sweep,
    "keylemma": contraction_criterion_sweep,
    "graphs": graph_sweep,
    "steiner": steiner_catalog_report,
    "poset": poset_sweep,
}
