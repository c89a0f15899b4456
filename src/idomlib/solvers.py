"""Existence and construction algorithms for independent dominating sets,
plus exhaustive oracles for the domination parameters.

Every solver that answers "found" verifies its set with the independence and
domination checkers before returning, so a returned set is always valid. The
search-based solvers share a global step budget; exhausting it raises
:class:`BudgetExceeded` instead of producing an answer.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._search import _exact
from .digraph import Digraph, _Record, induced_subgraph, is_ids
from .structure import LayerDecomposition, _analyze, _Analysis, _buckets, is_strongly_connected, sccs

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "DEFAULT_BUDGET",
    "InternalError",
    "PropagationResult",
    "SolveOutcome",
    "SolverStats",
    "brute_force_solve",
    "enumerate_ids_brute",
    "forced_sources_closure",
    "idomatic_brute",
    "min_dom_size_brute",
    "min_ids_size_brute",
    "propagate_layer_seed",
    "solve_auto",
    "solve_bipartite",
    "solve_dag",
    "solve_even_period",
    "solve_exact",
    "solve_strong_by_layers",
    "two_disjoint_ids",
]

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """The global work budget ran out before the solver reached an answer."""


class CapExceeded(RuntimeError):
    """The instance is larger than an exhaustive oracle's size guard."""


class InternalError(RuntimeError):
    """A solver's own result failed its verification: a bug, never an answer."""


class SolverStats(_Record):
    """Counters of one solve call: mutable, compared field by field."""

    __slots__ = ("seeds_explored", "subsets_explored", "recursion_depth", "elapsed", "budget_used")

    def __init__(
        self,
        seeds_explored: int = 0,
        subsets_explored: int = 0,
        recursion_depth: int = 0,
        elapsed: float = 0.0,  # seconds of the whole call, analysis and verification included
        budget_used: int = 0,  # steps charged to the search budget; 0 without a search
    ) -> None:
        self.seeds_explored = seeds_explored
        self.subsets_explored = subsets_explored
        self.recursion_depth = recursion_depth
        self.elapsed = elapsed
        self.budget_used = budget_used


class SolveOutcome(NamedTuple):
    status: str  # "found" | "none"
    set: frozenset[int] | None
    method: str
    stats: SolverStats

    @property
    def found(self) -> bool:
        return self.status == "found"


class PropagationResult(NamedTuple):
    consistent: bool
    union: frozenset[int] | None = None
    failed_step: int | None = None


class _Search:
    """Step budget, counters and clock of one public solve call, built on
    entry, so ``elapsed`` covers the whole call."""

    def __init__(self, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"the work budget must be at least 0, got {budget}")
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.stats = SolverStats()
        self.t0 = time.perf_counter()

    def charge(self, steps: int = 1) -> None:
        stats = self.stats
        stats.budget_used += steps
        if stats.budget_used > self.budget:
            raise BudgetExceeded(f"work budget of {self.budget} steps exhausted")

    def finish(
        self, graph: Digraph, members: Iterable[int] | None, method: str
    ) -> SolveOutcome:
        """The call's outcome: "found" with ``members`` once they verify,
        or "none" when ``members`` is None; then the clock stops."""
        if members is not None:
            members = frozenset(members)
            _check_ids(graph, members, f"method {method!r}")
        self.stats.elapsed = time.perf_counter() - self.t0
        status = "none" if members is None else "found"
        return SolveOutcome(status, members, method, self.stats)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _check_ids(graph: Digraph, members: Iterable[int], what: str) -> None:
    """Verify a set a solver is about to return; unlike ``assert``, this
    check also runs under ``python -O``."""
    if not is_ids(graph, members).ids:
        raise InternalError(f"{what} produced an invalid set")


def _take(
    out_adj: Sequence[Sequence[int]], counted: Sequence[Sequence[int]], indeg: list[int]
) -> tuple[list[int], bytearray]:
    """Take every vertex with a count of 0, deleting each with its
    out-neighbors, and keep taking every vertex the deletions leave with a
    count of 0: the source closure, as a queue of in-degree counters (Kahn
    1962), O(n + vertices deleted + their out-arcs).

    Deletions follow ``out_adj``; ``indeg[v]`` counts the alive
    in-neighbors of ``v`` along ``counted``, a part of ``out_adj`` (all of
    it for the source closure); a deleted vertex's count is never read
    again. When every arc counts, a source can only dominate itself, so it
    is in every independent dominating set, and the result does not depend
    on the order in which sources are taken.
    Returns (the vertices taken, the alive flags).
    """
    alive = bytearray(b"\x01") * len(indeg)
    worklist = [v for v, d in enumerate(indeg) if not d]
    taken = []
    while worklist:
        s = worklist.pop()
        if not alive[s]:  # deleted as an out-neighbor after it was queued
            continue
        taken.append(s)
        alive[s] = 0
        for t in out_adj[s]:
            if alive[t]:
                alive[t] = 0
                for x in counted[t]:
                    indeg[x] -= 1
                    if not indeg[x] and alive[x]:
                        worklist.append(x)
    return taken, alive


def _source_closure(graph: Digraph) -> tuple[list[int], bytearray]:
    """The source closure of the whole graph: (taken, alive)."""
    return _take(graph.out_adj, graph.out_adj, list(map(len, graph.in_adj)))


def _kernel(graph: Digraph) -> list[int] | None:
    """The closure that counts only asymmetric in-arcs (those whose reverse
    is absent): its taken vertices if it deletes the whole graph, else None;
    O(n + m). They are independent: if u is taken after w and u -> w, the
    arc is symmetric (else w's count was not 0), so u was deleted with w.
    The closure deletes everything when every directed cycle has a
    symmetric arc (Duchet 1980: such a graph and its reverse have kernels).
    """
    out_adj, in_adj = graph.out_adj, graph.in_adj
    counted: list[Sequence[int]] = []  # v's out-neighbours w with no arc w -> v
    for ws, back in zip(out_adj, in_adj):
        if not back:
            counted.append(ws)
            continue
        keep = []
        j, nb = 0, len(back)
        for w in ws:  # both lists ascend: a merge
            while j < nb and back[j] < w:
                j += 1
            if j == nb or back[j] != w:
                keep.append(w)
        counted.append(keep)
    # v has as many symmetric in-arcs as symmetric out-arcs
    indeg = [len(in_adj[v]) - len(out_adj[v]) + len(counted[v]) for v in range(graph.n)]
    taken, alive = _take(out_adj, counted, indeg)
    return None if any(alive) else taken


def forced_sources_closure(graph: Digraph) -> tuple[frozenset[int], Digraph, tuple[int, ...]]:
    """Repeatedly take every source and delete its closed out-neighborhood.

    A source (in-degree-0 vertex) can only dominate itself, so it belongs to
    every independent dominating set; distinct sources are never adjacent.
    Returns (forced set in original ids, source-free residual, old-id map).
    O(n + m).
    """
    taken, alive = _source_closure(graph)
    residual, old_ids = induced_subgraph(graph, (v for v in range(graph.n) if alive[v]))
    return frozenset(taken), residual, old_ids


def _solve_dag(graph: Digraph, analysis: _Analysis, search: _Search) -> SolveOutcome:
    if analysis.period != 0:
        raise ValueError("graph contains a directed cycle")
    forced, residual, _ = forced_sources_closure(graph)
    if residual.n:  # a nonempty acyclic graph always has a source
        raise InternalError("the source closure left part of an acyclic graph")
    return search.finish(graph, forced, "dag-greedy")


def solve_dag(graph: Digraph) -> SolveOutcome:
    """Greedy solution for acyclic digraphs: the source closure empties them."""
    search = _Search()
    return _solve_dag(graph, _analyze(graph), search)


def _even_odd(analysis: _Analysis) -> list[list[int]]:
    """Even-layer and odd-layer unions of an even-period strongly connected
    graph: with h even, layer ``level mod h`` is even exactly when the
    level is, so the unions come from level parity, without the layers."""
    h = analysis.strong_period()
    if h % 2 == 1:
        raise ValueError(f"period {h} is odd")
    return _buckets(analysis.level, 2)


def _solve_even_period(graph: Digraph, analysis: _Analysis, search: _Search) -> SolveOutcome:
    evens, _ = _even_odd(analysis)
    return search.finish(graph, evens, "even-period")


def solve_even_period(graph: Digraph) -> SolveOutcome:
    """Even-period strongly connected digraphs: take the even layers."""
    search = _Search()
    return _solve_even_period(graph, _analyze(graph), search)


def two_disjoint_ids(graph: Digraph) -> tuple[frozenset[int], frozenset[int]]:
    """Two disjoint verified independent dominating sets of an even-period graph:
    the even-layer union and the odd-layer union."""
    evens, odds = map(frozenset, _even_odd(_analyze(graph)))
    _check_ids(graph, evens, "the even layers")
    _check_ids(graph, odds, "the odd layers")
    return evens, odds


def _two_coloring(graph: Digraph) -> list[int]:
    n, out_adj, in_adj = graph.n, graph.out_adj, graph.in_adj
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in out_adj[u] + in_adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise ValueError("underlying undirected graph is not bipartite")
    return color


def solve_bipartite(graph: Digraph) -> SolveOutcome:
    """Bipartite underlying graph: source closure, then one side of the residual.

    The residual is source-free, so every vertex in it has an in-neighbor,
    necessarily on the other side; taking a whole side therefore dominates.
    """
    search = _Search()
    color = _two_coloring(graph)
    forced, alive = _source_closure(graph)
    side = [v for v in range(graph.n) if alive[v] and color[v] == 0]
    return search.finish(graph, forced + side, "bipartite")


def _step_masks(
    out_adj: tuple[tuple[int, ...], ...], layers: Sequence[Sequence[int]]
) -> list[list[int]]:
    """For member j of layer i (layers list their members ascending, and
    every arc goes from layer i to layer i+1 mod h), its out-neighbors as a
    bitmask over layer i+1, bit p being that layer's p-th member. One
    position list serves every layer; the masks take O(n + m) bits."""
    pos = [0] * len(out_adj)
    for layer in layers:
        for p, v in enumerate(layer):
            pos[v] = p
    steps = []
    for layer in layers:
        row = []
        for v in layer:
            mask = 0
            for w in out_adj[v]:
                mask |= 1 << pos[w]
            row.append(mask)
        steps.append(row)
    return steps


def _propagate(
    steps: list[list[int]], k: int, seed: int
) -> tuple[list[int] | None, int]:
    """Walk a seed (a bitmask over layer k) around the layers: step t fills
    layer k+t with everything not dominated from step t-1. Returns (the
    masks of layers k, k+1, ..., k+h-1, h) if the wrap-around recomputation
    of layer k reproduces the seed, else (None, steps walked): h when it
    comes back different, t when intermediate step t is empty and h is odd
    (a valid set meets every layer of an odd-period graph)."""
    h = len(steps)
    odd = h % 2 == 1
    walk = []
    current = seed
    for t in range(h):
        if not current and odd and t:
            return None, t
        walk.append(current)
        row = steps[(k + t) % h]
        forbidden = 0
        while current:
            j = (current & -current).bit_length() - 1
            current &= current - 1
            forbidden |= row[j]
        current = ((1 << len(steps[(k + t + 1) % h])) - 1) & ~forbidden
    return (walk, h) if current == seed else (None, h)


def _walk_members(layers: Sequence[Sequence[int]], k: int, walk: list[int]) -> list[int]:
    """The vertices a walk from layer k selects."""
    h = len(layers)
    return [layers[(k + t) % h][j] for t, mask in enumerate(walk) for j in _bits(mask)]


def propagate_layer_seed(
    graph: Digraph,
    layers: LayerDecomposition,
    k: int,
    seed: Iterable[int],
) -> PropagationResult:
    """Extend a seed subset of layer k around a strongly connected digraph.

    Each layer is fully determined by the previous one: layer k+t+1 of any
    valid set is exactly that layer minus the out-neighbors of layer k+t.
    A consistent wrap-around yields the unique independent dominating set
    whose layer-k slice equals the seed; it is verified before returning.
    Only ``h`` and ``layer_of`` are read. Raises ValueError unless the graph
    is strongly connected and every arc goes from layer i to layer i+1 mod h.
    """
    seed_set = frozenset(seed)
    layer_of, h = layers.layer_of, layers.h
    if len(layer_of) != graph.n:
        raise ValueError("layers do not cover the graph's vertices")
    if not (0 <= k < h):
        raise ValueError(f"layer index {k} out of range for h={h}")
    if h > graph.n:  # an empty layer; with arcs, the arc check would also catch it
        raise ValueError(f"h={h} layers cannot all be nonempty with {graph.n} vertices")
    if any(layer_of[v] != (layer_of[u] + 1) % h for u, vs in enumerate(graph.out_adj) for v in vs):
        raise ValueError("an arc does not go from layer i to layer i+1 mod h")
    if not is_strongly_connected(graph):
        raise ValueError("graph is not strongly connected")
    members = _buckets(layer_of, h)
    if not seed_set.issubset(members[k]):
        raise ValueError("seed is not a subset of layer k")
    seed_mask = sum(1 << j for j, v in enumerate(members[k]) if v in seed_set)
    walk, walked = _propagate(_step_masks(graph.out_adj, members), k, seed_mask)
    if walk is None:
        return PropagationResult(False, None, walked)
    union = frozenset(_walk_members(members, k, walk))
    _check_ids(graph, union, "layer propagation")
    return PropagationResult(True, union, None)


def solve_strong_by_layers(graph: Digraph, budget: int | None = None) -> SolveOutcome:
    """Layer-seed search for strongly connected digraphs.

    Even period delegates to the even-layer construction. Odd period scans
    the at most 2^{|smallest layer|} seeds over the smallest layer (ties:
    lowest index) in ascending bitmask order, bit j being the layer's j-th
    smallest member, and propagates each around the h layers; each
    consistent propagation is one distinct set, and every set shows up. It
    reports the first one, or that none exists. A seed costs 1 step plus
    the steps its walk takes.
    """
    search = _Search(budget)  # rejects a negative budget on every path
    analysis = _analyze(graph)
    if analysis.strong_period() % 2 == 0:
        return _solve_even_period(graph, analysis, search)
    layers = analysis.layers
    k = min(range(len(layers)), key=lambda i: (len(layers[i]), i))
    steps = _step_masks(graph.out_adj, layers)
    stats = search.stats
    stats.recursion_depth = 1
    for seed in range(1 << len(layers[k])):
        walk, walked = _propagate(steps, k, seed)
        search.charge(1 + walked)
        stats.seeds_explored += 1
        if walk is not None:
            stats.recursion_depth = 2
            return search.finish(graph, _walk_members(layers, k, walk), "layers")
    return search.finish(graph, None, "layers")


def solve_exact(graph: Digraph, budget: int | None = None) -> SolveOutcome:
    """Complete decision procedure for any digraph.

    Starts from the sources, which are in every independent dominating set,
    and branches vertex by vertex, each choice followed by everything it
    forces. Sound and complete; only the step budget can stop it early.
    ``seeds_explored`` counts the branch alternatives tried and
    ``recursion_depth`` is the deepest decision level + 1, so they differ
    by exactly 1 when no branch failed.
    """
    search = _Search(budget)
    return search.finish(graph, _exact(graph, sccs(graph).components, search), "exact")


def solve_auto(graph: Digraph, budget: int | None = None) -> SolveOutcome:
    """Dispatch by structure: acyclic graphs, even-period strongly connected
    graphs and graphs whose asymmetric arcs are acyclic have linear-time
    constructions; everything else goes through the exact solver. The
    structure is analyzed once and shared with the chosen solver."""
    search = _Search(budget)  # rejects a negative budget on every path
    analysis = _analyze(graph)
    if analysis.period == 0:
        return _solve_dag(graph, analysis, search)
    if analysis.strong and analysis.periods[0] % 2 == 0:
        return _solve_even_period(graph, analysis, search)
    # the closure always succeeds when every cycle has a symmetric arc, which
    # a component of period 3 or more, having no 2-cycle, rules out
    if max(analysis.periods) <= 2:
        kernel = _kernel(graph)
        if kernel is not None:
            return search.finish(graph, kernel, "symmetric-arc")
    return search.finish(graph, _exact(graph, analysis.scc.components, search), "exact")


def _ids_mask(out_masks: tuple[int, ...], full: int, mask: int) -> bool:
    cover = mask
    rem = mask
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        outs = out_masks[v]
        if outs & mask:
            return False
        cover |= outs
    return cover == full


def _check_cap(graph: Digraph, cap: int, what: str = "brute-force") -> None:
    if cap < 0:
        raise ValueError(f"the {what} cap must be at least 0, got {cap}")
    if graph.n > cap:
        raise CapExceeded(f"n={graph.n} exceeds {what} cap {cap}")


def _ids_masks(
    graph: Digraph, cap: int, search: _Search, what: str = "brute-force"
) -> Iterator[int]:
    """Every independent dominating set as a bitmask, in ascending order,
    after the cap check; the search is charged for, and counts, every
    subset scanned."""
    _check_cap(graph, cap, what)
    out_masks = graph.out_masks
    full = (1 << graph.n) - 1
    stats = search.stats
    for mask in range(1 << graph.n):
        search.charge()
        stats.subsets_explored += 1
        if _ids_mask(out_masks, full, mask):
            yield mask


def brute_force_solve(
    graph: Digraph, cap: int = 20, budget: int | None = None
) -> SolveOutcome:
    """Scan all subsets in ascending bitmask order; the independent oracle."""
    search = _Search(budget)
    for mask in _ids_masks(graph, cap, search):
        return search.finish(graph, _bits(mask), "brute")
    return search.finish(graph, None, "brute")


def enumerate_ids_brute(graph: Digraph, cap: int = 20) -> list[frozenset[int]]:
    """Every independent dominating set, in ascending bitmask order."""
    return [frozenset(_bits(mask)) for mask in _ids_masks(graph, cap, _Search())]


# The oracles below take the work budget of the solvers: a step is one
# vertex subset scanned (and, for the idomatic number, one family of
# disjoint sets extended), and an exhausted budget raises BudgetExceeded.
# The size scans read every subset, so they charge all 2^n before starting.


def _dominates(out_masks: tuple[int, ...], full: int, mask: int) -> bool:
    cover = mask
    rem = mask
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        cover |= out_masks[v]
    return cover == full


def _min_size(
    graph: Digraph, cap: int, budget: int | None, test: Callable[[tuple[int, ...], int, int], bool]
) -> int | None:
    """Fewest members of a subset that passes ``test``; None when none does."""
    search = _Search(budget)
    _check_cap(graph, cap)
    search.charge(1 << graph.n)
    out_masks = graph.out_masks
    full = (1 << graph.n) - 1
    best = graph.n + 1
    for mask in range(1 << graph.n):
        size = mask.bit_count()
        if size < best and test(out_masks, full, mask):
            best = size
    return best if best <= graph.n else None


def min_ids_size_brute(graph: Digraph, cap: int = 20, budget: int | None = None) -> int | None:
    """Minimum size of an independent dominating set; None when there is none."""
    return _min_size(graph, cap, budget, _ids_mask)


def min_dom_size_brute(graph: Digraph, cap: int = 20, budget: int | None = None) -> int:
    """Minimum size of a (not necessarily independent) dominating set."""
    return _min_size(graph, cap, budget, _dominates)  # the whole vertex set dominates


def idomatic_brute(graph: Digraph, cap: int = 14, budget: int | None = None) -> int:
    """Maximum number of pairwise vertex-disjoint independent dominating sets.

    Lists every set, then searches for the largest disjoint subfamily; 0 when
    the graph has no independent dominating set at all.
    """
    search = _Search(budget)
    masks = list(_ids_masks(graph, cap, search, "idomatic"))
    if not masks:
        return 0
    best = 0

    def extend(start: int, used: int, count: int) -> None:
        nonlocal best
        search.charge()
        best = max(best, count)
        if count + (len(masks) - start) <= best:
            return
        for i in range(start, len(masks)):
            if masks[i] & used == 0:
                extend(i + 1, used | masks[i], count + 1)

    extend(0, 0, 0)
    return best
