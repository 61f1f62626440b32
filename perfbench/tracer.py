"""Run one benchmark step in this process with the boolminor layers traced.

Usage:
    python3 perfbench/tracer.py SPANS_JSON cli ARG...       # boolminor.cli.main(ARGS)
    python3 perfbench/tracer.py SPANS_JSON labeled7 ARG...  # labeled7.main(ARGS)

Before the step starts, every function named in ``TRACED`` is replaced by a
wrapper in each ``boolminor`` module that binds it, so that calls through
``from .x import name`` bindings and through module-level dispatch tables
(``verify.ALL_SWEEPS``) are seen too.  The program itself is not changed.

A sweep makes millions of wrapped calls, too many to keep one record each.
Spans are therefore aggregated per call path: one node per distinct chain of
wrapped callers, holding the call count, total and self time, and the first
start and last end (seconds since the tracer started).  Self time is a
span's duration minus the time its wrapped children cover.  The nodes stay
in memory and are written to SPANS_JSON when the step returns, together with
the boundary counters: canonical-form cache totals, ``is_minor`` witnesses,
``is_isomorphic`` successes, automorphism group elements materialized, and
the ``enumerate_classes`` calls that ran no canonical-form miss.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent

TRACED: dict[str, tuple[str, ...]] = {
    "bfcore": (
        "one_step_identification_classes",
        "is_minor",
        "is_irreducible_direct",
        "arity_gap",
        "classify_gap",
        "zhegalkin_from_truth_table",
        "identify",
    ),
    "poset": ("enumerate_classes",),
    "formats": ("parse_polynomial", "format_polynomial"),
    "hypergraph": (
        "automorphisms",
        "is_2set_transitive",
        "is_isomorphic",
        "contraction_classes",
        "is_irreducible_by_contractions",
        "contract",
        "verify_quotient_map",
    ),
    "designs": ("steiner_report", "is_minus2_monomorphic", "delete_pair"),
    "graphs": (
        "classify_join_irreducible",
        "satisfies_property_p",
        "classify_property_p",
        "neighborhoods",
        "ai_decomposition",
        "lemma_aux_check",
        "lexicographic_sum",
    ),
    "verify": (
        "gap_sweep",
        "correspondence_sweep",
        "contraction_criterion_sweep",
        "graph_sweep",
        "steiner_catalog_report",
        "poset_sweep",
        "_brute_quotient",
        "_orbit_partition",
        "_graph_from_mask",
        "_c5_blowup_check",
    ),
    "cli": ("main",),
}


class _Node:
    __slots__ = ("id", "parent", "name", "children", "calls", "total", "self_time", "start", "end")

    def __init__(self, node_id: int, parent: int | None, name: str):
        self.id = node_id
        self.parent = parent
        self.name = name
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.start = -1.0
        self.end = 0.0


class Tracer:
    """Aggregated span tree plus boundary counters for one process."""

    def __init__(self) -> None:
        self.nodes = [_Node(0, None, "<root>")]
        # each frame is [node, child_seconds]
        self.stack: list[list] = [[self.nodes[0], 0.0]]
        self.counters = {
            "is_minor.witnesses": 0,
            "is_isomorphic.found": 0,
            "automorphisms.elements": 0,
            "enumerate_classes.cache_served": 0,
        }

    def _child(self, parent: _Node, name: str) -> _Node:
        node = _Node(len(self.nodes), parent.id, name)
        self.nodes.append(node)
        parent.children[name] = node
        return node

    def wrap(self, name: str, fn, observe=None):
        stack = self.stack
        clock = time.perf_counter
        child = self._child

        def traced(*args, **kwargs):
            frame = stack[-1]
            parent = frame[0]
            node = parent.children.get(name) or child(parent, name)
            mine = [node, 0.0]
            stack.append(mine)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                node.calls += 1
                node.total += duration
                node.self_time += duration - mine[1]
                if node.start < 0:
                    node.start = start - _T0
                node.end = end - _T0
                frame[1] += duration
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        import boolminor.cli  # noqa: F401  (loads every boolminor module)
        from boolminor import bfcore

        modules = [m for k, m in sorted(sys.modules.items()) if k == "boolminor" or k.startswith("boolminor.")]
        counters = self.counters
        canon_info = bfcore._canonical_reduced.cache_info

        def count(key, test):
            def observe(result):
                if test(result):
                    counters[key] += 1
            return observe

        def count_elements(result):
            counters["automorphisms.elements"] += len(result)

        observers = {
            "bfcore.is_minor": count("is_minor.witnesses", lambda r: r is not None),
            "hypergraph.is_isomorphic": count("is_isomorphic.found", lambda r: r is not None),
            "hypergraph.automorphisms": count_elements,
        }
        for mod_name, names in TRACED.items():
            module = sys.modules[f"boolminor.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                span = f"{mod_name}.{name}"
                target = original
                if span == "poset.enumerate_classes":
                    target = self._served_counter(original, canon_info)
                self._rebind(modules, original, self.wrap(span, target, observers.get(span)))

    def _served_counter(self, fn, canon_info):
        counters = self.counters

        def enumerate_classes(*args, **kwargs):
            before = canon_info().misses
            result = fn(*args, **kwargs)
            if canon_info().misses == before:
                counters["enumerate_classes.cache_served"] += 1
            return result

        return enumerate_classes

    @staticmethod
    def _rebind(modules, original, wrapped) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped

    def dump(self, path: str, wall_s: float) -> None:
        from boolminor import bfcore

        info = bfcore._canonical_reduced.cache_info()
        doc = {
            "wall_s": wall_s,
            "counters": dict(self.counters, **{"canon_cache.hits": info.hits, "canon_cache.misses": info.misses}),
            "nodes": [
                {
                    "id": n.id,
                    "parent": n.parent,
                    "name": n.name,
                    "calls": n.calls,
                    "total_s": n.total,
                    "self_s": n.self_time,
                    "start_s": n.start,
                    "end_s": n.end,
                }
                for n in self.nodes[1:]
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "labeled7"):
        print("usage: tracer.py SPANS_JSON {cli,labeled7} ARG...", file=sys.stderr)
        return 2
    spans_path, entry, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    if entry == "cli":
        import boolminor.cli as target
    else:
        sys.path.insert(0, str(BENCH_DIR))
        import labeled7 as target

        target.main = tracer.wrap("labeled7.main", target.main)
    try:
        rc = target.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, time.perf_counter() - _T0)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
