"""Strongly connected components, condensation, period, and layer structure."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class SccDecomposition:
    """SCC partition of a digraph.

    ``components`` is listed in reverse topological order: every arc between
    two distinct components goes from a later-listed component to an
    earlier-listed one. Vertices within a component are sorted ascending.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _tarjan(
    out_adj: tuple[tuple[int, ...], ...],
    roots: Iterable[int],
    index: list[int],
    low: list[int],
) -> list[tuple[int, ...]]:
    """Iterative Tarjan over the subgraph induced by the vertices whose
    ``index`` entry is -1; every other entry must be ``len(index)``.

    Roots and neighbors are visited in the given order. A finished vertex
    gets ``index`` ``len(index)`` again, so it reads like an outside vertex
    and the array is ready for the next call. Components come out in reverse
    topological order, each sorted ascending.
    """
    done = len(index)
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in roots:
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            descended = False
            neighbors = out_adj[v]
            while ptr < len(neighbors):
                w = neighbors[ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    descended = True
                    break
                # on the stack: index[w] < done; finished or outside: no-op
                if index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    index[w] = done
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def sccs(graph: Digraph) -> SccDecomposition:
    """Strongly connected components via iterative Tarjan.

    Vertices and neighbors are visited in ascending order, so the output is
    deterministic; components come out in reverse topological order.
    """
    n = graph.n
    components = _tarjan(graph.out_adj, range(n), [-1] * n, [0] * n)
    component_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            component_of[v] = ci
    return SccDecomposition(tuple(component_of), tuple(components))


def is_strongly_connected(graph: Digraph) -> bool:
    return graph.n > 0 and len(sccs(graph).components) == 1


@dataclass(frozen=True)
class Condensation:
    """Acyclic quotient over component ids, plus the underlying SCC partition."""

    dag: Digraph
    scc: SccDecomposition

    def source_components(self) -> list[int]:
        """Component ids with no incoming arc from another component."""
        return [c for c in range(self.dag.n) if not self.dag.in_adj[c]]


def _condense(graph: Digraph, s: SccDecomposition) -> Condensation:
    arcs = {
        (s.component_of[u], s.component_of[v])
        for (u, v) in graph.arcs
        if s.component_of[u] != s.component_of[v]
    }
    return Condensation(Digraph(len(s.components), arcs), s)


def condensation(graph: Digraph) -> Condensation:
    return _condense(graph, sccs(graph))


def _period_layers(
    out_adj: tuple[tuple[int, ...], ...],
    comp: Sequence[int],
    label: Sequence[int],
    c: int,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Period and layers of a strongly connected subgraph on >= 2 vertices.

    ``comp`` lists its vertices ascending; they, and no others, have
    ``label[v] == c``. One BFS from ``comp[0]`` gives the levels; the period
    ``h`` is the gcd over inner arcs (u, v) of level(u)+1-level(v), and layer
    ``i`` holds the vertices whose level is ``i`` mod ``h``, ascending.
    """
    root = comp[0]
    level = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        next_level = level[u] + 1
        for v in out_adj[u]:
            if label[v] == c and v not in level:
                level[v] = next_level
                queue.append(v)
    h = 0
    for u in comp:
        next_level = level[u] + 1
        for v in out_adj[u]:
            if label[v] == c:
                h = gcd(h, next_level - level[v])
    # some arc closes a cycle, so h >= 1 here
    layers: list[list[int]] = [[] for _ in range(h)]
    for v in comp:
        layers[level[v] % h].append(v)
    return h, tuple(map(tuple, layers))


@dataclass(frozen=True)
class _Analysis:
    """One structure pass over a graph: its SCCs, and the period and layers
    of every component (0 and no layers for a single vertex)."""

    graph: Digraph
    scc: SccDecomposition
    periods: tuple[int, ...]
    layers: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def period(self) -> int:
        """gcd of all directed cycle lengths; 0 when the graph is acyclic."""
        g = 0
        for h in self.periods:
            g = gcd(g, h)
        return g

    @property
    def strong(self) -> bool:
        return len(self.scc.components) == 1

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


def _analyze(graph: Digraph) -> _Analysis:
    """SCCs from one ``sccs`` call, then one BFS per nontrivial component;
    O(n + m) in all."""
    s = sccs(graph)
    periods, layers = [], []
    for c, comp in enumerate(s.components):
        h, comp_layers = (
            _period_layers(graph.out_adj, comp, s.component_of, c)
            if len(comp) >= 2
            else (0, ())
        )
        periods.append(h)
        layers.append(comp_layers)
    return _Analysis(graph, s, tuple(periods), tuple(layers))


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


@dataclass(frozen=True)
class LayerDecomposition:
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
    layer_of = [0] * graph.n
    for i, layer in enumerate(analysis.layers[0]):
        for v in layer:
            layer_of[v] = i
    return LayerDecomposition(
        h, tuple(layer_of), tuple(map(frozenset, analysis.layers[0]))
    )


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
