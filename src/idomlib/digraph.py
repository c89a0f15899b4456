"""Core directed-graph representation, arc-list I/O, and the independence
and domination verifiers."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Digraph",
    "IdsReport",
    "ParseError",
    "ParsedArcList",
    "Subgraph",
    "format_arc_list",
    "induced_subgraph",
    "is_dominating",
    "is_ids",
    "is_independent",
    "out_closed_removal",
    "parse_digraph",
]


class ParseError(ValueError):
    """Malformed arc-list document."""


# The vertex cap of every graph: an empty adjacency costs about 146 bytes
# per vertex, so a graph at the cap holds about 28 MiB before its arcs.
_MAX_VERTICES = 200_000
# The arc cap of a generated graph, checked before its first arc is built:
# an arc costs about 113-128 bytes while a generator builds the graph, so a
# graph at the cap holds about 1.2 GiB.
_MAX_ARCS = 10**7


def _check_vertices(n: int, what: str = "graph") -> None:
    """Refuse ``n`` above the vertex cap; called before anything of size n
    is allocated."""
    if n > _MAX_VERTICES:
        raise ValueError(f"{what} on {n} vertices exceeds the vertex cap of {_MAX_VERTICES}")


class _Record:
    """Base of the records that are not tuples: a subclass names its fields
    in ``__slots__``, and is compared field by field and shown as
    ``Name(field=value, ...)``. Unhashable unless the subclass is immutable
    and defines ``__hash__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Digraph:
    """Immutable simple directed graph on vertices ``0 .. n-1``.

    Duplicate arcs collapse to a single arc and self-loops are rejected;
    antiparallel pairs ``(u, v)`` / ``(v, u)`` are allowed. The sorted
    adjacency lists are the only stored form, so equal graphs have identical
    adjacency structure; ``arcs`` is derived from them on first read.
    At most ``_MAX_VERTICES`` vertices.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        _check_vertices(n)
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {u}) is not allowed")
            out[u].append(v)
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, vs in enumerate(out):
            if len(vs) > 1:
                vs = out[u] = sorted(set(vs))
            for v in vs:
                inn[v].append(u)  # u ascends, so every in-list comes out sorted
        self.n = n
        self.m = sum(map(len, out))
        self.out_adj = tuple(map(tuple, out))
        self.in_adj = tuple(map(tuple, inn))

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, vs in enumerate(self.out_adj) for v in vs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out_adj == other.out_adj

    def __hash__(self) -> int:
        return hash((self.n, self.out_adj))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Per-vertex out-neighborhood as a bitmask (bit ``v`` is vertex ``v``)."""
        masks = []
        for vs in self.out_adj:
            m = 0
            for v in vs:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)


def _check_members(graph: Digraph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    if s and (min(s) < 0 or max(s) >= graph.n):
        v = next(v for v in s if not 0 <= v < graph.n)  # the first in set order
        raise ValueError(f"vertex {v} out of range for n={graph.n}")
    return s


def _violations(
    graph: Digraph, members: Iterable[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """(arcs inside the set, ascending; vertices outside it with no
    in-neighbor in it, ascending). Reads ``members`` once, then walks only
    their out-lists: O(n + sum of their out-degrees)."""
    s = _check_members(graph, members)
    n, out_adj = graph.n, graph.out_adj
    inside = bytearray(n)
    for u in s:
        inside[u] = 1
    covered = bytearray(inside)
    arcs = []
    for u in s:
        for v in out_adj[u]:
            if inside[v]:
                arcs.append((u, v))
            covered[v] = 1
    arcs.sort()
    undominated = [v for v in range(n) if not covered[v]] if 0 in covered else []
    return arcs, undominated


def is_independent(graph: Digraph, members: Iterable[int]) -> tuple[bool, list[tuple[int, int]]]:
    """Whether no arc has both endpoints in the set; returns (flag, the
    violating arcs in ascending order). O(n + sum of the members'
    out-degrees)."""
    bad = _violations(graph, members)[0]
    return (not bad, bad)


def is_dominating(graph: Digraph, members: Iterable[int]) -> tuple[bool, list[int]]:
    """Whether every vertex outside the set has an in-neighbor inside it.

    Returns (flag, the undominated vertices in ascending order). O(n + sum
    of the members' out-degrees).
    """
    bad = _violations(graph, members)[1]
    return (not bad, bad)


class IdsReport(NamedTuple):
    """Joint verdict of the independence and domination verifiers."""

    independent: bool
    dominating: bool
    independence_violations: tuple[tuple[int, int], ...]
    domination_violations: tuple[int, ...]

    @property
    def ids(self) -> bool:
        return self.independent and self.dominating


def is_ids(graph: Digraph, members: Iterable[int]) -> IdsReport:
    """Verify a candidate independent dominating set, with witness lists.
    One walk over the members' out-lists: O(n + sum of their out-degrees).
    ``members`` is read once, so any iterable will do."""
    arcs, undominated = _violations(graph, members)
    return IdsReport(not arcs, not undominated, tuple(arcs), tuple(undominated))


class Subgraph(NamedTuple):
    """A relabeled induced subgraph; ``old_ids[new] == old``."""

    graph: Digraph
    old_ids: tuple[int, ...]


def induced_subgraph(graph: Digraph, members: Iterable[int]) -> Subgraph:
    """Induced subgraph on the given vertices, relabeled to 0..k-1 in old-id
    order. Reads only the kept vertices' out-lists."""
    keep = sorted(_check_members(graph, members))
    index = {old: new for new, old in enumerate(keep)}
    out_adj = graph.out_adj
    arcs = [(index[u], index[v]) for u in keep for v in out_adj[u] if v in index]
    return Subgraph(Digraph(len(keep), arcs), tuple(keep))


def out_closed_removal(graph: Digraph, members: Iterable[int]) -> Subgraph:
    """Delete the set and all of its out-neighbors; relabeled remainder plus old-id map."""
    s = _check_members(graph, members)
    removed = set(s)
    for u in s:
        removed.update(graph.out_adj[u])
    return induced_subgraph(graph, (v for v in range(graph.n) if v not in removed))


def _ints(text: str, tokens: Iterable[str]) -> Iterator[int]:
    """The ``tokens`` of ``text`` as integers, each ASCII digits after an
    optional ``-``, with ASCII whitespace around them; ``int`` alone would
    also take ``+``, ``_``, non-ASCII digits and non-ASCII whitespace. The
    tokens are converted as they are read, so a token that is no number
    raises ``ValueError`` there."""
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"not ASCII decimals: {text!r}")
    return map(int, tokens)


# A parse splits about this many characters into lines at a time, so it
# holds one slice's lines, not a list of every line of the document.
_LINE_CHUNK = 4096


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, a slice at a time. Each slice ends just after
    a ``\\n``, which ends a line alone or after ``\\r``, so the lines of the
    slices are the lines of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


class ParsedArcList(NamedTuple):
    graph: Digraph
    duplicate_arcs: int


def parse_digraph(text: str) -> ParsedArcList:
    """Parse an arc-list document.

    Lines starting with ``#`` are comments and blank lines are tolerated.
    The first data line is ``n m``; exactly ``m`` data lines ``u v`` follow
    (0-indexed, ASCII decimals). Duplicate arcs collapse and are counted;
    self-loops, out-of-range ids, malformed lines and an ``n`` above the
    vertex cap are errors.
    """
    data = (
        (lineno, stripped)
        for lineno, raw in enumerate(_lines(text), 1)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    )
    header_line, header = next(data, (0, ""))
    if not header:
        raise ParseError("missing 'n m' header line")
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {header_line}: header must be 'n m'")
    try:
        n, m = _ints(header, parts)
    except ValueError:
        raise ParseError(f"line {header_line}: header must be two integers") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {header_line}: counts must be non-negative")
    try:
        _check_vertices(n)
    except ValueError as exc:
        raise ParseError(f"line {header_line}: {exc}") from None
    count, lineno, line = 0, 0, ""

    def arcs() -> Iterator[tuple[int, int]]:
        nonlocal count, lineno, line
        for count, (lineno, line) in enumerate(data, 1):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: arc line must be 'u v'")
            try:
                u, v = _ints(line, parts)
            except ValueError:
                raise ParseError(f"line {lineno}: arc endpoints must be integers") from None
            yield u, v

    # The constructor makes the only range and self-loop test. Its refusal,
    # like a malformed line, is reported once the wrong-count error, which
    # takes priority, has been ruled out.
    error = None
    try:
        graph = Digraph(n, arcs())
    except ParseError as exc:
        error = exc
    except ValueError:  # refused the arc of the line last read
        u, v = _ints(line, line.split())
        why = f"self-loop {u} {v}" if u == v else f"arc ({u}, {v}) out of range for n={n}"
        error = ParseError(f"line {lineno}: {why}")
    found = count + sum(1 for _ in data)
    if found != m:
        raise ParseError(f"expected {m} arc lines, found {found}")
    if error is not None:
        raise error
    return ParsedArcList(graph, count - graph.m)


def format_arc_list(graph: Digraph) -> str:
    """Normalized arc-list text: header then arcs sorted ascending, newline-terminated."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, vs in enumerate(graph.out_adj) for v in vs)
    return "\n".join(lines) + "\n"
