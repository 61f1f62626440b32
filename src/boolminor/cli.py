"""Command-line front end.

Verbs: convert, classify, gap, irreducible, iso, graph-classify,
steiner-check, poset, verify.  Inputs come from an inline argument, a file
(--file PATH), or standard input (`-`), exactly one, the last two read at
most ``_INPUT_MAX_BYTES`` characters deep.  Every verb but ``poset`` prints
through ``_emit``: plain text, or JSON with ``--format structured``.
Verification failures print one machine-readable record per line and exit
nonzero; malformed input exits with status 2, as does a sweep whose worker
process died, and Ctrl-C with status 130; each prints one line on stderr.

``verify`` has one sub-parser per sweep, its flags the parameters of the
sweep's signature (``_SWEEP_PARAMS``): a flag the sweep does not take exits
2, and one left out keeps the sweep's default.  A size above the sweep's
cap or a negative sample count exits 2 before any work, with a message
naming the flag.  The worker count comes from --workers alone: one when it
is left out, at most the CPU count, and a value below 1 exits 2 the same way.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional

from . import bfcore, designs, graphs, poset, verify
from . import hypergraph as hg
from .formats import (
    _shown,
    format_hypergraph_doc,
    format_polynomial,
    format_truth_table,
    parse_any_hypergraph,
    parse_any_polynomial,
    parse_graph,
)

# a truth table at the arity cap is about 262,000 characters
_INPUT_MAX_BYTES = 64 << 20


def _read_bounded(fh) -> str:
    """At most ``_INPUT_MAX_BYTES`` characters of ``fh``; a longer input is refused."""
    text = fh.read(_INPUT_MAX_BYTES + 1)
    if len(text) > _INPUT_MAX_BYTES:
        raise ValueError(f"input is longer than {_INPUT_MAX_BYTES} characters")
    return text


def _read_input(args) -> str:
    if len([s for s in (args.input, args.file) if s]) != 1:
        raise ValueError("give exactly one input source (inline, --file, or '-')")
    if args.input == "-":
        return _read_bounded(sys.stdin)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            return _read_bounded(fh)
    return args.input


def _emit(args, text_lines: list[str], structured: dict) -> None:
    if args.format == "structured":
        print(json.dumps(structured, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_convert(args) -> int:
    text = _read_input(args)
    poly = parse_any_polynomial(text, args.arity)
    if args.to == "polynomial":
        out = format_polynomial(poly)
    elif args.to == "table":
        out = format_truth_table(bfcore.truth_table_from_zhegalkin(poly))
    else:
        out = format_hypergraph_doc(hg.hypergraph_of(poly))
    _emit(args, [out], {args.to: out})
    return 0


def _cmd_classify(args) -> int:
    text = _read_input(args)
    poly = parse_any_polynomial(text, args.arity)
    canon = bfcore.canonical_form(poly)
    ess = bfcore.essential_arity(poly)
    block = poset.block_of(poly)
    info: dict = {
        "canonical": format_polynomial(canon),
        "ess": ess,
        "block": block.value,
    }
    lines = [
        f"canonical: {info['canonical']}",
        f"ess: {ess}",
        f"block: {block.value}",
    ]
    if ess >= 2:
        gap = bfcore.arity_gap(poly)
        family = bfcore.classify_gap(poly)
        info["gap"] = gap
        info["gap_family"] = family.tag.value
        if family.constant is not None:
            info["gap_constant"] = family.constant
        lines.append(f"gap: {gap}")
        lines.append(
            f"gap family: {family.tag.value}"
            + (f" (c={family.constant})" if family.constant is not None else "")
        )
    cover = bfcore.is_irreducible_direct(poly)
    info["irreducible"] = cover is not None
    lines.append(f"irreducible: {cover is not None}")
    if cover is not None:
        info["lower_cover"] = format_polynomial(cover)
        lines.append(f"unique lower cover: {format_polynomial(cover)}")
    _emit(args, lines, info)
    return 0


def _cmd_gap(args) -> int:
    text = _read_input(args)
    poly = parse_any_polynomial(text, args.arity)
    gap = bfcore.arity_gap(poly)
    family = bfcore.classify_gap(poly)
    line = f"gap: {gap}; family: {family.tag.value}"
    if family.constant is not None:
        line += f" (c={family.constant})"
    _emit(args, [line], {"gap": gap, "family": family.tag.value, "constant": family.constant})
    return 0


def _cmd_irreducible(args) -> int:
    text = _read_input(args)
    poly = parse_any_polynomial(text, args.arity)
    covers = poset._sorted_covers(poly)
    shown = [format_polynomial(p) for p in covers]
    if len(shown) == 1:
        lines = [f"irreducible; unique lower cover: {shown[0]}"]
        info = {"irreducible": True, "lower_cover": shown[0]}
    else:
        detail = f"maximal strict minors: {'; '.join(shown)}" if shown else "no strict minor exists"
        lines = [f"not irreducible; {detail}"]
        info = {"irreducible": False, "maximal_strict_minors": shown}
    _emit(args, lines, info)
    return 0


def _cmd_iso(args) -> int:
    h1 = parse_any_hypergraph(args.first)
    h2 = parse_any_hypergraph(args.second)
    if args.reduce_support:
        h1 = hg.support_reduce(h1)
        h2 = hg.support_reduce(h2)
    found = hg.is_isomorphic(h1, h2)
    if found is None:
        _emit(args, ["not isomorphic"], {"isomorphic": False})
        return 0
    mapping = {str(v + 1): found.image[v] for v in range(found.source_count)}
    _emit(
        args,
        ["isomorphic:" + "".join(f" {v}->{found.image[v - 1]}" for v in range(1, found.source_count + 1))],
        {"isomorphic": True, "mapping": mapping},
    )
    return 0


def _cmd_graph_classify(args) -> int:
    text = _read_input(args)
    g = parse_graph(text)
    cls = graphs.classify_join_irreducible(g)
    _emit(
        args,
        [str(cls)],
        {"class": cls.kind.value, "params": list(cls.params), "irreducible": cls.irreducible},
    )
    return 0


def _cmd_steiner_check(args) -> int:
    text = _read_input(args)
    builtin = designs.builtin_instances()
    if args.input in builtin:
        h, name = builtin[text], text
    else:
        h, name = parse_any_hypergraph(text), args.file or "input"
    params = designs.design_parameters(h)
    if params is None or params.lambda_ != 1:
        found = "no 2-design" if params is None else f"2-({params.n},{params.k},{params.lambda_})"
        _emit(args, [f"not a Steiner system ({found})"], {"steiner": False})
        return 1
    report = designs.steiner_report(h, name)
    structured = {**report.structured(), "conditions_agree": report.consistent}
    _emit(args, report.lines(), structured)
    return 0 if report.consistent else 1


def _cmd_poset(args) -> int:
    records = poset.enumerate_classes(args.max_ess, cache_path=args.cache)
    doc = poset.export(records, format=args.export_format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"{len(records)} classes written to {args.out}")
    else:
        sys.stdout.write(doc)
    return 0


# Each sweep's parameters and their flags, read from its signature once, at
# import: a wrapper put in ``verify.ALL_SWEEPS`` later (``perfbench/tracer.py``
# puts ``(*args, **kwargs)`` ones there) still gets the flags.  A flag is its
# parameter's name in dashes, taking an integer, but for the poset cache's
# path, which is --cache.
_SWEEP_PARAMS = {
    name: {
        param: "--cache" if param == "cache_path" else "--" + param.replace("_", "-")
        for param in inspect.signature(sweep).parameters
    }
    for name, sweep in verify.ALL_SWEEPS.items()
}


def _cmd_verify(args) -> int:
    flags = _SWEEP_PARAMS[args.sweep]
    kwargs = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    try:
        result = verify.ALL_SWEEPS[args.sweep](**kwargs)
    except ValueError as exc:
        # a bound message leads with the parameter; name the flag the user typed
        name, _, rest = str(exc).partition(" ")
        if name in kwargs:
            raise ValueError(f"{flags[name]} {rest}") from None
        raise
    _emit(
        args,
        result.lines
        + ["FAIL " + json.dumps(failure, sort_keys=True) for failure in result.failures]
        + ["ok" if result.ok else "FAILED"],
        {"sweep": result.name, "ok": result.ok, "data": result.data, "failures": result.failures},
    )
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# argument wiring


def _int_flag(text: str) -> int:
    """Every integer flag's type: past 20 digits it is refused before int(),
    and a refused value is echoed cut short."""
    if len(text.strip().lstrip("+-")) > 20:
        raise argparse.ArgumentTypeError(f"expected at most 20 digits, got {_shown(text)!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)!r}") from None


def _add_io(sub, with_arity: bool = True) -> None:
    sub.add_argument("input", nargs="?", help="inline input, or '-' for stdin")
    sub.add_argument("--file", help="read the input from a file")
    if with_arity:
        sub.add_argument("--arity", type=_int_flag, help="declared arity override")
    sub.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolminor",
        description="Boolean function minors, their hypergraph counterpart, and"
        " exhaustive desk-scale verification",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("convert", help="convert between polynomial, table, hypergraph")
    _add_io(p)
    p.add_argument("--to", choices=("polynomial", "table", "hypergraph"), required=True)
    p.set_defaults(fn=_cmd_convert)

    p = subs.add_parser("classify", help="canonical form, ess, block, gap, irreducibility")
    _add_io(p)
    p.set_defaults(fn=_cmd_classify)

    p = subs.add_parser("gap", help="arity gap and gap family")
    _add_io(p)
    p.set_defaults(fn=_cmd_gap)

    p = subs.add_parser("irreducible", help="irreducibility with covers or maximal minors")
    _add_io(p)
    p.set_defaults(fn=_cmd_irreducible)

    p = subs.add_parser("iso", help="hypergraph isomorphism between two inputs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--reduce-support", action="store_true", help="drop isolated vertices first")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=_cmd_iso)

    p = subs.add_parser("graph-classify", help="join-irreducible graph family")
    _add_io(p, with_arity=False)
    p.set_defaults(fn=_cmd_graph_classify)

    p = subs.add_parser("steiner-check", help="Steiner-system report (name or document)")
    _add_io(p, with_arity=False)
    p.set_defaults(fn=_cmd_steiner_check)

    p = subs.add_parser("poset", help="enumerate classes; export DOT or records")
    p.add_argument("--max-ess", type=_int_flag, default=poset.MAX_ENUM_ESS)
    p.add_argument("--cache", help="record cache file (resumable enumeration)")
    p.add_argument("--out", help="write the export to a path")
    p.add_argument("--export-format", choices=("dot", "structured"), default="dot")
    p.set_defaults(fn=_cmd_poset)

    p = subs.add_parser("verify", help="run an exhaustive verification sweep")
    sweeps = p.add_subparsers(dest="sweep", required=True)
    for name, flags in sorted(_SWEEP_PARAMS.items()):
        sp = sweeps.add_parser(name)
        for param, flag in flags.items():
            sp.add_argument(flag, dest=param, type=None if param == "cache_path" else _int_flag)
        sp.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
