"""Text formats: polynomial grammar, truth-table hex, hypergraph documents.

The polynomial grammar is a `+`-separated term list; a term is `1` or
`x<k>` factors separated by `*`; `0` alone denotes the zero polynomial;
whitespace is insignificant.  Truth tables read `tt:<HEX> arity=<n>` with
the most significant bit first.  Hypergraphs travel as JSON documents with
fields ``n`` and ``edges`` (ascending vertex arrays, sorted by size then
lexicographically; ``[]`` is the empty edge).  Graphs additionally accept
the compact line ``n: i-j, k-l, ...``.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .bfcore import MAX_POLY_ARITY, MAX_TABLE_ARITY, TruthTable, Zhegalkin, bits_of, vars_of
from .bfcore import zhegalkin_from_truth_table
from .graphs import Graph
from .hypergraph import MAX_VERTICES, Hypergraph, hypergraph_of, polynomial_of


class ParseError(ValueError):
    """Malformed input text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _shown(text: str) -> str:
    """``text`` for an error message, cut to 20 characters."""
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def _bounded_int(digits: str, limit: int, message: str, position: int) -> int:
    """The value of a digit string; above ``limit``, a ParseError with ``message``.

    The length test keeps int() off arbitrarily long digit strings.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise ParseError(message, position)
    return int(digits)


# ---------------------------------------------------------------------------
# polynomials

_FACTOR_RE = re.compile(r"^x(\d+)$")


def parse_polynomial(text: str, arity: Optional[int] = None) -> Zhegalkin:
    if not text.strip():
        raise ParseError("empty polynomial", 0)
    monomials: set[int] = set()
    max_var = 0
    chunks = text.split("+")
    offset = 0
    stripped = [c.strip() for c in chunks]
    if stripped == ["0"]:
        return Zhegalkin(1 if arity is None else arity, frozenset())
    for chunk in chunks:
        term = chunk.strip()
        pos = offset + len(chunk) - len(chunk.lstrip())
        offset += len(chunk) + 1
        if not term:
            raise ParseError("empty term", pos)
        if term == "0":
            raise ParseError("'0' is only valid as the whole polynomial", pos)
        if term == "1":
            mask = 0
        else:
            mask = 0
            fpos = pos
            for factor in term.split("*"):
                fact = factor.strip()
                m = _FACTOR_RE.match(fact)
                if not m:
                    raise ParseError(f"expected a factor like x3, got {_shown(fact)!r}", fpos)
                idx = _bounded_int(
                    m.group(1), MAX_POLY_ARITY, f"variable indices stop at x{MAX_POLY_ARITY}", fpos
                )
                if idx < 1:
                    raise ParseError("variable indices start at 1", fpos)
                mask |= 1 << (idx - 1)
                max_var = max(max_var, idx)
                fpos += len(factor) + 1
        if mask in monomials:
            monomials.discard(mask)
        else:
            monomials.add(mask)
    n = arity if arity is not None else max(max_var, 1)
    if n < max_var:
        raise ParseError(f"declared arity {n} below the largest variable x{max_var}", 0)
    return Zhegalkin(n, frozenset(monomials))


def format_polynomial(poly: Zhegalkin) -> str:
    if not poly.monomials:
        return "0"
    # higher degree first, then by variables; bits_of is already ascending
    terms = sorted((-m.bit_count(), bits_of(m)) for m in poly.monomials)
    return " + ".join("*".join(f"x{b + 1}" for b in bits) or "1" for _, bits in terms)


# ---------------------------------------------------------------------------
# truth tables

_TT_RE = re.compile(r"^tt:([0-9A-Fa-f]+)\s+arity=(\d+)$")
_HEX_RE = re.compile(r"^[0-9A-Fa-f]+$")


def parse_truth_table(text: str, arity: Optional[int] = None) -> TruthTable:
    """``tt:<HEX> arity=<n>``, or ``tt:<HEX>`` at the given ``arity``; the
    digits are checked against the arity before int() reads them."""
    s = text.strip()
    lead = len(text) - len(text.lstrip())
    m = _TT_RE.match(s)
    if m:
        pos = lead + m.start(2)
        arity = _bounded_int(m.group(2), MAX_TABLE_ARITY, f"arity must be in 1..{MAX_TABLE_ARITY}", pos)
        digits = m.group(1)
    elif s.startswith("tt:") and arity is not None:
        digits = s[3:].strip()
        if not _HEX_RE.match(digits):
            raise ParseError(f"expected hex digits after 'tt:', got {_shown(digits)!r}", lead + 3)
    else:
        raise ParseError("expected 'tt:<hex> arity=<n>'", 0)
    if not 1 <= arity <= MAX_TABLE_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_TABLE_ARITY}, got {arity}")
    significant = len(digits.lstrip("0"))
    if significant > ((1 << arity) + 3) // 4:
        message = f"{significant} significant hex digits exceed the {1 << arity}-bit table"
        raise ParseError(message, lead + 3)
    return TruthTable(arity, int(digits, 16))


def format_truth_table(table: TruthTable) -> str:
    return f"tt:{table.to_hex()} arity={table.arity}"


# ---------------------------------------------------------------------------
# hypergraph documents


def _sorted_edge_lists(h: Hypergraph) -> list[list[int]]:
    lists = [sorted(vars_of(e)) for e in h.edges]
    return sorted(lists, key=lambda e: (len(e), e))


def format_hypergraph_doc(h: Hypergraph, indent: Optional[int] = None) -> str:
    doc = {"edges": _sorted_edge_lists(h), "n": h.vertex_count}
    return json.dumps(doc, sort_keys=True, indent=indent)


def parse_hypergraph_doc(text: str) -> Hypergraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid hypergraph document: {exc.msg}", exc.pos) from exc
    except ValueError as exc:  # an integer past Python's int-string limit
        raise ParseError("invalid hypergraph document: a number is too long", 0) from exc
    except RecursionError as exc:
        raise ParseError("invalid hypergraph document: nested too deeply", 0) from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError("hypergraph document needs fields 'n' and 'edges'", 0)
    n = doc["n"]
    edges = doc["edges"]
    # type() and not isinstance(): a JSON true is a bool, which is an int
    if type(n) is not int:
        raise ParseError("'n' must be an integer", 0)
    if not isinstance(edges, list):
        raise ParseError("'edges' must be an array", 0)
    seen: set[frozenset[int]] = set()
    for k, edge in enumerate(edges, 1):
        if not isinstance(edge, list) or any(type(v) is not int for v in edge):
            raise ParseError(f"edge {k} must be an array of integer vertices", 0)
        key = frozenset(edge)  # an edge set would silently merge a repeat
        if len(key) < len(edge):
            raise ParseError(f"edge {k} repeats a vertex", 0)
        if key in seen:
            raise ParseError(f"edge {k} repeats an earlier edge", 0)
        seen.add(key)
    try:
        return Hypergraph.from_sets(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc


# ---------------------------------------------------------------------------
# graphs

_GRAPH_LINE_RE = re.compile(r"^(\d+)\s*:\s*(.*)$")


def parse_graph(text: str) -> Graph:
    s = text.strip()
    if s.startswith("{"):
        h = parse_hypergraph_doc(s)
        return Graph(h.vertex_count, h.edges)
    m = _GRAPH_LINE_RE.match(s)
    if not m:
        raise ParseError("expected 'n: i-j, k-l, ...' or a hypergraph document", 0)
    n = _bounded_int(m.group(1), MAX_VERTICES, f"vertex count must be in 0..{MAX_VERTICES}", 0)
    rest = m.group(2)
    offset = len(text) - len(text.lstrip()) + m.start(2)
    bad_index = f"vertex index must be in 1..{MAX_POLY_ARITY}, got "
    pairs = []
    if rest:
        for item in rest.split(","):
            part = item.strip()
            em = re.match(r"^(\d+)\s*-\s*(\d+)$", part)
            pos = offset + len(item) - len(item.lstrip())
            offset += len(item) + 1
            if not em:
                raise ParseError(f"expected an edge like 2-5, got {_shown(part)!r}", pos)
            a, b = (_bounded_int(d, MAX_POLY_ARITY, bad_index + _shown(d), pos) for d in em.groups())
            for v in (a, b):
                if not v:
                    raise ParseError(bad_index + "0", pos)
                if v > n:
                    raise ParseError(f"edge names vertex {v}, beyond {n}", pos)
            if a == b:
                raise ParseError("graph edges must join exactly two distinct vertices", pos)
            pairs.append(((min(a, b), max(a, b)), pos))
    # the edge set would silently merge a repeat, where a polynomial's GF(2)
    # sum cancels it; checked once every item is known good, so a bad item
    # reports first
    edges: set[tuple[int, int]] = set()
    for edge, pos in pairs:
        if edge in edges:
            raise ParseError(f"repeated edge {edge[0]}-{edge[1]}", pos)
        edges.add(edge)
    return Graph.from_pairs(n, edges)


def format_graph_line(g: Graph) -> str:
    pairs = ", ".join(f"{a}-{b}" for a, b in g.edge_pairs())
    return f"{g.vertex_count}: {pairs}" if pairs else f"{g.vertex_count}:"


# ---------------------------------------------------------------------------
# input detection for the CLI


def detect_kind(text: str) -> str:
    s = text.strip()
    if s.startswith("tt:"):
        return "table"
    if s.startswith("{"):
        return "hypergraph"
    if _GRAPH_LINE_RE.match(s):
        return "graph"
    return "polynomial"


def parse_any_polynomial(text: str, arity: Optional[int] = None) -> Zhegalkin:
    """Accept a polynomial, a truth table, a hypergraph document or a graph
    line; a declared ``arity`` other than the one the input states is refused."""
    kind = detect_kind(text)
    if kind == "polynomial":
        return parse_polynomial(text, arity)
    if kind == "table":
        poly = zhegalkin_from_truth_table(parse_truth_table(text, arity))
    else:
        poly = polynomial_of(parse_hypergraph_doc(text) if kind == "hypergraph" else parse_graph(text))
    if arity is not None and arity != poly.arity:
        raise ValueError(f"declared arity {arity} differs from the input's arity {poly.arity}")
    return poly


def parse_any_hypergraph(text: str) -> Hypergraph:
    """Accept a hypergraph document, a graph line, a polynomial or a table."""
    kind = detect_kind(text)
    if kind == "hypergraph":
        return parse_hypergraph_doc(text)
    if kind == "graph":
        return parse_graph(text)
    return hypergraph_of(parse_any_polynomial(text))
