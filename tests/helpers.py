"""Shared test fixtures: definition-level oracles and hypothesis strategies.

The oracles here re-implement the set definitions directly from first
principles (double loops over the arc list, subset enumeration through
itertools) so the package's bitmask paths are checked against an
independent route.
"""

from __future__ import annotations

import random
from itertools import combinations

import hypothesis.strategies as st

from idomlib import (
    Digraph,
    ParseError,
    ParsedArcList,
    UndirectedGraph,
    induced_subgraph,
    period,
    random_digraph,
    sccs,
)


def independent_double_loop(graph: Digraph, members) -> bool:
    s = set(members)
    for u, v in graph.arcs:
        if u in s and v in s:
            return False
    return True


def dominating_double_loop(graph: Digraph, members) -> bool:
    s = set(members)
    for v in range(graph.n):
        if v in s:
            continue
        if not any((u, v) in graph.arcs for u in s):
            return False
    return True


def ids_report_by_arc_scan(graph: Digraph, members) -> tuple:
    """The fields of ``is_ids``: (independent, dominating, arcs inside the
    set, undominated vertices), from a scan of the whole arc list and a
    double loop over vertices and members."""
    s = set(members)
    arcs = tuple(sorted((u, v) for u, v in graph.arcs if u in s and v in s))
    undominated = tuple(
        v
        for v in range(graph.n)
        if v not in s and not any((u, v) in graph.arcs for u in s)
    )
    return (not arcs, not undominated, arcs, undominated)


class UnscannableArcs:
    """An arc set that answers membership and size but fails on iteration.

    Not a set subclass, so no set operation can read it without calling
    ``__iter__`` (which fails) or being refused with ``TypeError``."""

    def __init__(self, arcs) -> None:
        self._arcs = frozenset(arcs)

    def __contains__(self, arc) -> bool:
        return arc in self._arcs

    def __len__(self) -> int:
        return len(self._arcs)

    def __iter__(self):
        raise AssertionError("graph.arcs was scanned")


def without_arc_scans(graph: Digraph) -> Digraph:
    """The graph, with an ``arcs`` that fails any code reading all of it."""
    graph.arcs = UnscannableArcs(graph.arcs)
    return graph


def record_built_graphs(monkeypatch) -> list[Digraph]:
    """Every ``Digraph`` built from now on, in build order, through a
    ``monkeypatch`` wrapper around the constructor."""
    built: list[Digraph] = []
    init = Digraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Digraph, "__init__", recording_init)
    return built


def all_ids_by_enumeration(graph: Digraph) -> set[frozenset[int]]:
    """Every independent dominating set, via itertools subset enumeration."""
    found = set()
    vertices = range(graph.n)
    for size in range(graph.n + 1):
        for combo in combinations(vertices, size):
            if independent_double_loop(graph, combo) and dominating_double_loop(
                graph, combo
            ):
                found.add(frozenset(combo))
    return found


def min_undirected_ids_size(graph: UndirectedGraph) -> int:
    """Minimum undirected independent dominating set size (always exists)."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = graph.n
    for size in range(graph.n + 1):
        if size >= best:
            break
        for combo in combinations(range(graph.n), size):
            s = set(combo)
            if any(w in s for v in combo for w in adj[v]):
                continue
            if all(v in s or adj[v] & s for v in range(graph.n)):
                best = size
                break
    return best


def closure_by_rounds(graph: Digraph):
    """Source closure by whole rounds: rescan the alive set, take every
    source at once, delete their closed out-neighborhoods, repeat. Quadratic,
    and kept as the reference for ``forced_sources_closure``."""
    alive = set(range(graph.n))
    forced: set[int] = set()
    while True:
        sources = [v for v in alive if not any(u in alive for u in graph.in_adj[v])]
        if not sources:
            break
        forced.update(sources)
        for v in sources:
            alive.discard(v)
            alive.difference_update(graph.out_adj[v])
    residual, old_ids = induced_subgraph(graph, alive)
    return frozenset(forced), residual, old_ids


def antiparallel_chain(pairs: int) -> Digraph:
    """Antiparallel pairs {2i, 2i+1}; pair i feeds pair i-1 by one arc, so
    the condensation is a path of ``pairs`` components."""
    arcs = []
    for i in range(pairs):
        arcs += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]
        if i:
            arcs.append((2 * i, 2 * i - 2))
    return Digraph(2 * pairs, arcs)


def disjoint_union(*graphs: Digraph) -> Digraph:
    arcs = []
    offset = 0
    for g in graphs:
        arcs.extend((u + offset, v + offset) for u, v in g.arcs)
        offset += g.n
    return Digraph(offset, arcs)


def strongly_connected_samples(count: int, max_n: int = 12, seed_base: int = 700):
    """Strongly connected digraphs harvested from random instances: the
    largest SCC with at least 2 vertices, when there is one."""
    samples = []
    i = 0
    while len(samples) < count and i < count * 10:
        g = random_digraph(2 + (i % (max_n - 1)), 0.15 + 0.08 * (i % 5), seed_base + i)
        i += 1
        comps = [c for c in sccs(g).components if len(c) >= 2]
        if not comps:
            continue
        biggest = max(comps, key=len)
        sub, _ = induced_subgraph(g, biggest)
        samples.append(sub)
    assert len(samples) == count
    return samples


@st.composite
def digraphs(draw, max_n: int = 7):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Digraph(n)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Digraph(n, arcs)


@st.composite
def digraphs_with_subset(draw, max_n: int = 7):
    graph = draw(digraphs(max_n))
    if graph.n == 0:
        return graph, frozenset()
    members = draw(st.lists(st.integers(0, graph.n - 1), unique=True))
    return graph, frozenset(members)


@st.composite
def symmetric_arc_digraphs(draw, max_n: int = 11):
    """Digraphs whose asymmetric arcs are acyclic: random undirected edges,
    each doubled or oriented along a random vertex order."""
    n = draw(st.integers(1, max_n))
    rank = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(n) if rank[u] < rank[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    doubled = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arcs = [arc for (u, v), both in zip(edges, doubled) for arc in [(u, v)] + [(v, u)] * both]
    return Digraph(n, arcs)


@st.composite
def odd_cycle_free_digraphs(draw, max_n: int = 11):
    """Digraphs with no odd cycle, i.e. every component has an even period:
    arcs go down between blocks, or inside a block between its two
    colours, so every cycle stays in one block and alternates colours."""
    n = draw(st.integers(1, max_n))
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    colour = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if block[u] > block[v] or (block[u] == block[v] and colour[u] != colour[v])
    ]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Digraph(n, arcs)


def milp_has_ids(graph: Digraph) -> bool:
    """Whether the graph has an independent dominating set, decided by a 0-1
    program over its arc set that scipy's HiGHS solves: binary x_v,
    x_u + x_v <= 1 per arc u -> v, and x_v plus the x of v's in-neighbours
    at least 1 per vertex. Imports scipy on call, so the caller decides
    whether to skip without it."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    n, arcs = graph.n, sorted(graph.arcs)
    if not n:
        return True  # the empty set
    rows = [r for r in range(len(arcs)) for _ in (0, 1)]
    cols = [v for arc in arcs for v in arc]
    rows += [len(arcs) + v for v in range(n)] + [len(arcs) + v for _, v in arcs]
    cols += list(range(n)) + [u for u, _ in arcs]
    a = coo_array((np.ones(len(rows)), (rows, cols)), shape=(len(arcs) + n, n))
    lower = np.r_[np.zeros(len(arcs)), np.ones(n)]
    upper = np.r_[np.ones(len(arcs)), np.full(n, np.inf)]
    result = milp(
        np.zeros(n),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(a, lower, upper),
    )
    if result.status not in (0, 2):  # 0: feasible, 2: infeasible
        raise AssertionError(f"HiGHS gave no verdict: {result.message}")
    return result.status == 0


def parse_by_lines(text: str) -> ParsedArcList:
    """``parse_digraph`` as a list of the data lines, then a list of checked
    arcs, then the graph: each line is tested for shape, ASCII decimals,
    self-loop and range, in that order, only after the arc count has been
    checked. The reference for the streaming parser."""

    def decimals(line: str, tokens: list[str]):
        if not line.isascii() or "+" in line or "_" in line:
            raise ValueError(line)
        return map(int, tokens)

    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((lineno, stripped))
    if not data:
        raise ParseError("missing 'n m' header line")
    header_line, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {header_line}: header must be 'n m'")
    try:
        n, m = decimals(header, parts)
    except ValueError:
        raise ParseError(f"line {header_line}: header must be two integers") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {header_line}: counts must be non-negative")
    body = data[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} arc lines, found {len(body)}")
    arcs: list[tuple[int, int]] = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: arc line must be 'u v'")
        try:
            u, v = decimals(line, parts)
        except ValueError:
            raise ParseError(f"line {lineno}: arc endpoints must be integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: arc ({u}, {v}) out of range for n={n}")
        arcs.append((u, v))
    graph = Digraph(n, arcs)
    return ParsedArcList(graph, len(arcs) - graph.m)


# The seeded random generators with one ``rng.random()`` call per pair
# test, as they were written before the tests were drawn in bulk: the
# reference for the streams. Each returns the graph and the stream, left
# where the generator leaves its own.


def random_dag_by_calls(n: int, arc_prob: float, seed: int):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    arcs = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < arc_prob
    ]
    return Digraph(n, arcs), rng


def random_digraph_by_calls(n: int, arc_prob: float, seed: int):
    rng = random.Random(seed)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    ]
    return Digraph(n, arcs), rng


def random_layered_strong_by_calls(h: int, layer_size: int, arc_prob: float, seed: int):
    """Also the number of samples drawn; the graph is None when none of the
    64 samples has period h."""
    rng = random.Random(seed)
    s = layer_size
    vertex = lambda i, j: i * s + j
    for samples in range(1, 65):
        arcs = []
        for i in range(h):
            nxt = (i + 1) % h
            for j in range(s):
                target = (j + 1) % s if i == 0 else j
                arcs.append((vertex(i, j), vertex(nxt, target)))
        for i in range(h):
            nxt = (i + 1) % h
            for j in range(s):
                for j2 in range(s):
                    if rng.random() < arc_prob:
                        arcs.append((vertex(i, j), vertex(nxt, j2)))
        graph = Digraph(h * s, arcs)
        if period(graph) == h:  # the spanning cycle makes it strongly connected
            return graph, rng, samples
    return None, rng, 64


# Every line boundary that ``str.splitlines`` knows.
LINE_SEPARATORS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)


@st.composite
def messy_arc_documents(draw) -> str:
    """Arc-list documents with comments, blank lines, bad tokens and shapes,
    self-loops, out-of-range ids, duplicates, and a declared arc count that
    is usually right, joined by any mix of line separators."""
    n = draw(st.integers(0, 6))
    ids = st.integers(-2, n + 2)
    in_range = st.integers(0, max(n - 1, 0))  # repeats give duplicates and self-loops
    token = st.one_of(
        ids.map(str), st.sampled_from(["a", "1_0", "+1", "\u0662", "0x1", "1.0", "-"])
    )
    arc_line = st.tuples(in_range, in_range).map("{0[0]} {0[1]}".format)
    bad_line = st.one_of(
        st.tuples(ids, ids).map("{0[0]} {0[1]}".format),
        st.tuples(token, token).map(" ".join),
        st.lists(token, max_size=3).map(" ".join),
    )
    filler = st.sampled_from(["", "  ", "\t", "# comment", "  # indented", "#", "\x1f"])
    clean = draw(st.booleans())
    body_line = st.one_of(arc_line, filler) if clean else st.one_of(arc_line, filler, bad_line)
    body = draw(st.lists(body_line, max_size=12))
    found = sum(1 for line in body if line.strip() and not line.strip().startswith("#"))
    header = draw(
        st.one_of(
            st.just(f"{n} {found}"),
            st.just(f"{n} {found}"),
            st.sampled_from([found - 1, found + 1]).map(lambda m: f"{n} {m}"),
            st.sampled_from(["", "3", "a b", "1 2 3", "-1 0", "+2 0", "1_0 0", "2 \u0662"]),
        )
    )
    lines = draw(st.lists(filler, max_size=2)) + [header] + body
    gap = st.sampled_from(LINE_SEPARATORS)
    gaps = draw(st.lists(gap, min_size=len(lines) - 1, max_size=len(lines) - 1))
    end = draw(st.sampled_from(("", *LINE_SEPARATORS)))
    return "".join(line + gap for line, gap in zip(lines, [*gaps, end]))
