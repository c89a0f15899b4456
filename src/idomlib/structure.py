"""Strongly connected components, condensation, period, and layer structure."""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .digraph import Digraph

__all__ = [
    "Condensation",
    "LayerDecomposition",
    "SccDecomposition",
    "condensation",
    "cycle_gcd_oracle",
    "is_strongly_connected",
    "layer_decomposition",
    "period",
    "scc_period",
    "sccs",
]


class SccDecomposition(NamedTuple):
    """SCC partition of a digraph.

    ``components`` is listed in reverse topological order: every arc between
    two distinct components goes from a later-listed component to an
    earlier-listed one. Vertices within a component are sorted ascending.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _reaches_all(adj: tuple[tuple[int, ...], ...]) -> bool:
    """Whether vertex 0 reaches every vertex along ``adj``: one sweep."""
    seen = [False] * len(adj)
    seen[0] = True
    order = [0]
    visit = order.append
    for u in order:  # appended to as it is walked
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                visit(v)
    return len(order) == len(adj)


def is_strongly_connected(graph: Digraph) -> bool:
    """Whether the graph is strongly connected: vertex 0 reaches every
    vertex and every vertex reaches vertex 0 (the forward-backward test of
    Fleischer, Hendrickson & Pinar 2000), O(n + m) and no DFS. A single
    vertex is strongly connected and the empty graph is not; with 2 or more
    vertices, a vertex with no in-arc or no out-arc fails at once."""
    n = graph.n
    if n < 2:
        return n == 1
    out_adj, in_adj = graph.out_adj, graph.in_adj
    return all(in_adj) and all(out_adj) and _reaches_all(out_adj) and _reaches_all(in_adj)


def sccs(graph: Digraph) -> SccDecomposition:
    """Strongly connected components. A strongly connected graph is
    recognised by the two sweeps of ``is_strongly_connected`` and comes
    back as one component; any other graph goes through iterative Tarjan.
    O(n + m) either way.

    Tarjan visits vertices and neighbors in ascending order, so the output
    is deterministic; components come out in reverse topological order.
    """
    if is_strongly_connected(graph):
        return SccDecomposition((0,) * graph.n, (tuple(range(graph.n)),))
    return _tarjan(graph)


def _tarjan(graph: Digraph) -> SccDecomposition:
    """Iterative Tarjan (1972)."""
    n = graph.n
    out_adj = graph.out_adj
    index = [-1] * n  # n once the vertex's component is complete
    low = [0] * n
    component_of = [0] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(out_adj[root]))]
        while work:
            v, neighbors = work[-1]
            low_v = low[v]  # kept in low[v] while a child is open
            for w in neighbors:
                i = index[w]
                if i == -1:
                    low[v] = low_v
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(out_adj[w])))
                    break
                # on the stack: i < n; complete: no-op
                if i < low_v:
                    low_v = i
            else:
                work.pop()
                if low_v == index[v]:
                    c = len(components)
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        component_of[w] = c
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(comp)) if len(comp) > 1 else (v,))
                if work:
                    parent = work[-1][0]
                    if low_v < low[parent]:
                        low[parent] = low_v
    return SccDecomposition(tuple(component_of), tuple(components))


class Condensation(NamedTuple):
    """Acyclic quotient over component ids, plus the underlying SCC partition."""

    dag: Digraph
    scc: SccDecomposition

    def source_components(self) -> list[int]:
        """Component ids with no incoming arc from another component."""
        return [c for c in range(self.dag.n) if not self.dag.in_adj[c]]


def _condense(graph: Digraph, s: SccDecomposition) -> Condensation:
    if len(s.components) <= 1:  # no arc leaves a component: skip the out-lists
        return Condensation(Digraph(len(s.components)), s)
    cid = s.component_of
    arcs = [(cid[u], cid[v]) for u, vs in enumerate(graph.out_adj) for v in vs if cid[u] != cid[v]]
    return Condensation(Digraph(len(s.components), arcs), s)


def condensation(graph: Digraph) -> Condensation:
    return _condense(graph, sccs(graph))


def _buckets(keys: Sequence[int], h: int) -> list[list[int]]:
    """Vertex ``v`` in group ``keys[v] % h``; each group ascends."""
    groups: list[list[int]] = [[] for _ in range(h)]
    for v, key in enumerate(keys):
        groups[key % h].append(v)
    return groups


class _Analysis:
    """One structure pass over a graph: the period of every component (0
    for a single vertex) and the BFS level of every vertex from its
    component's lowest vertex, -1 throughout an acyclic graph and 0 on a
    single-vertex component of a cyclic one; ``level`` is read only on
    strongly connected graphs. SCCs, layers and condensation are built on read."""

    def __init__(
        self,
        graph: Digraph,
        periods: tuple[int, ...],
        level: list[int],
        scc: SccDecomposition | None = None,
    ) -> None:
        self.graph = graph
        self.periods = periods
        self.level = level
        if scc is not None:  # shadows the cached property
            self.scc = scc

    @cached_property
    def scc(self) -> SccDecomposition:
        return sccs(self.graph)

    @property
    def period(self) -> int:
        """gcd of all directed cycle lengths; 0 when the graph is acyclic."""
        return gcd(*self.periods)

    @property
    def strong(self) -> bool:
        return len(self.periods) == 1  # one period per component

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Of a strongly connected graph with an arc (else none): layer ``i``
        holds the vertices whose level is ``i`` mod the period, ascending."""
        h = self.periods[0] if self.strong else 0
        return tuple(map(tuple, _buckets(self.level, h))) if h else ()

    @cached_property
    def condensation(self) -> Condensation:
        return _condense(self.graph, self.scc)

    def strong_period(self) -> int:
        """The period of a strongly connected graph with at least one arc."""
        if self.graph.n == 0:
            raise ValueError("empty graph has no period")
        if not self.strong:
            raise ValueError("graph is not strongly connected")
        if self.graph.n == 1:
            raise ValueError("single vertex contains no directed cycle")
        return self.periods[0]


def _acyclic(out_adj: tuple[tuple[int, ...], ...], in_adj: tuple[tuple[int, ...], ...]) -> bool:
    """Whether peeling vertices of in-degree 0, with in-degree counters,
    removes every vertex (Kahn 1962): O(n + m)."""
    indeg = list(map(len, in_adj))
    order = [v for v, d in enumerate(indeg) if not d]
    peel = order.append
    for u in order:  # appended to as it is walked
        for v in out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                peel(v)
    return len(order) == len(indeg)


def _analyze(graph: Digraph) -> _Analysis:
    """Periods and BFS levels, O(n + m). A graph with a source and a sink,
    as every nonempty acyclic graph has, is peeled first; if that removes
    every vertex, it is acyclic and no SCCs are computed. Otherwise one
    ``sccs`` call, then a single vertex gets level 0 and each nontrivial
    component one ``_bfs_period`` from its lowest vertex, sinks first."""
    out_adj, in_adj = graph.out_adj, graph.in_adj
    level = [-1] * graph.n
    if not all(in_adj) and not all(out_adj) and _acyclic(out_adj, in_adj):
        return _Analysis(graph, (0,) * graph.n, level)
    s = sccs(graph)
    label = s.component_of
    periods = []
    for c, comp in enumerate(s.components):
        level[comp[0]] = 0
        periods.append(_bfs_period(out_adj, label, c, comp[0], level) if len(comp) > 1 else 0)
    return _Analysis(graph, tuple(periods), level, s)


def _bfs_period(
    out_adj: tuple[tuple[int, ...], ...], label: tuple[int, ...], c: int, root: int,
    level: list[int],
) -> int:
    """BFS levels of component ``c`` from ``root`` (level 0) and its period,
    the gcd over its arcs (u, v) of level(u)+1-level(v). An arc leaving ``c``
    ends in a component levelled before it, so only non-tree arcs are tested."""
    h = 0
    queue = [root]
    for u in queue:  # appended to as it is walked: breadth first
        next_level = level[u] + 1
        for v in out_adj[u]:
            lv = level[v]
            if lv < 0:
                level[v] = next_level
                queue.append(v)
            elif lv != next_level and label[v] == c:  # a difference of 0 adds nothing
                h = gcd(h, next_level - lv)
    return h


def scc_period(graph: Digraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected digraph.

    Computed from BFS levels: the gcd over arcs (u, v) of level(u)+1-level(v).
    """
    return _analyze(graph).strong_period()


def period(graph: Digraph) -> int:
    """gcd of all directed cycle lengths; 0 when the graph is acyclic.

    Every cycle lives inside a strongly connected component, so this is the
    gcd of the per-component periods over components with at least 2 vertices.
    """
    return _analyze(graph).period


class LayerDecomposition(NamedTuple):
    """Partition of a strongly connected digraph into ``h`` layers such that
    every arc goes from layer ``i`` to layer ``(i + 1) mod h``."""

    h: int
    layer_of: tuple[int, ...]
    layers: tuple[frozenset[int], ...]


def layer_decomposition(graph: Digraph) -> LayerDecomposition:
    """Layers of a strongly connected digraph: BFS level from vertex 0, mod h.

    Vertex 0 always lands in layer 0. Every residue class is nonempty because
    each vertex has an out-neighbor one layer onward.
    """
    analysis = _analyze(graph)
    h = analysis.strong_period()
    layer_of = tuple(lv % h for lv in analysis.level)
    return LayerDecomposition(h, layer_of, tuple(map(frozenset, analysis.layers)))


def cycle_gcd_oracle(graph: Digraph, max_n: int = 12) -> int:
    """gcd of the lengths of all directed simple cycles, by exhaustive DFS.

    Independent of the BFS-level period computation; guarded to small graphs.
    Returns 0 when the graph is acyclic.
    """
    if graph.n > max_n:
        raise ValueError(f"n={graph.n} exceeds the oracle guard of {max_n}")
    g = 0
    onpath = [False] * graph.n

    def explore(start: int, v: int, length: int) -> bool:
        # enumerate each cycle once: rooted at its smallest vertex
        nonlocal g
        for w in graph.out_adj[v]:
            if w == start:
                g = gcd(g, length + 1)
                if g == 1:
                    return True
            elif w > start and not onpath[w]:
                onpath[w] = True
                done = explore(start, w, length + 1)
                onpath[w] = False
                if done:
                    return True
        return False

    for s in range(graph.n):
        if explore(s, s, 0):
            return 1
    return g
