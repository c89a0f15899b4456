"""The exact search of :func:`idomlib.solvers.solve_exact`: a depth-first
search over per-vertex states with unit propagation and a trail.

It has a module of its own because every ``idom`` process compiles the
package from source when no bytecode is cached, and that process's memory
peak follows the largest single module it compiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .digraph import Digraph
    from .solvers import _Search

_IN, _OUT = 1, 2  # vertex states of _exact; 0 is undecided


def _assign(
    out_adj: Sequence[Sequence[int]], in_adj: Sequence[Sequence[int]], state: bytearray,
    dom: list[int], cand: list[int], trail: list[int], pending: list[int],
) -> bool:
    """Apply the pending assignments (v: in, ~v: out) of :func:`_exact` and
    all they force, appending them to the trail; False on a conflict.

    ``dom[v]`` counts v's in-neighbors that are in and ``cand[v]`` its
    undecided ones. An in vertex forces its in- and out-neighbors out. An
    undominated vertex that is not in must be dominated by one of its
    options, itself while undecided and its undecided in-neighbors: with
    none left that is a conflict, and a single one goes in."""
    while pending:
        v = pending.pop()
        if v >= 0:
            s = state[v]
            if s == _OUT:
                return False
            if s:
                continue
            state[v] = _IN
            trail.append(v)
            ok = True
            for w in out_adj[v]:
                dom[w] += 1
                cand[w] -= 1
                s = state[w]
                if not s:
                    pending.append(~w)
                elif s == _IN:
                    ok = False
            for u in in_adj[v]:
                s = state[u]
                if not s:
                    pending.append(~u)
                elif s == _IN:
                    ok = False
            if not ok:
                return False
            continue
        v = ~v
        s = state[v]
        if s == _IN:
            return False
        if s:
            continue
        state[v] = _OUT
        trail.append(v)
        # v and its out-neighbors lost an option; an undominated vertex
        # left with none is a conflict, and with one it needs that one
        ok = True
        if not dom[v]:
            k = cand[v]
            if k == 1:
                for u in in_adj[v]:
                    if not state[u]:
                        pending.append(u)
                        break
            elif not k:
                ok = False
        for w in out_adj[v]:
            k = cand[w] = cand[w] - 1
            if dom[w]:
                continue
            s = state[w]
            if not s:
                if not k:  # itself
                    pending.append(w)
            elif s == _OUT:
                if k == 1:
                    for u in in_adj[w]:
                        if not state[u]:
                            pending.append(u)
                            break
                elif not k:
                    ok = False
        if not ok:
            return False
    return True


def _undo(
    out_adj: Sequence[Sequence[int]], state: bytearray, dom: list[int], cand: list[int],
    trail: list[int], mark: int,
) -> None:
    """Take back the assignments of the trail past ``mark``, latest first."""
    while len(trail) > mark:
        v = trail.pop()
        if state[v] == _IN:
            for w in out_adj[v]:
                dom[w] -= 1
                cand[w] += 1
        else:
            for w in out_adj[v]:
                cand[w] += 1
        state[v] = 0


def _exact(
    graph: Digraph, comps: Sequence[tuple[int, ...]], search: _Search
) -> list[int] | None:
    """Depth-first search over per-vertex states (undecided, in, out); see
    :func:`solve_exact`. ``comps`` are the strongly connected components in
    reverse topological order, as :func:`sccs` lists them. Sources start
    in, so the first :func:`_assign` is the source closure.

    Each level branches, in before out, on an undominated vertex of the
    earliest component in topological order that still has one. Out
    vertices come first (on their lowest undecided in-neighbor), then
    undecided ones (on themselves); ties go to the fewest options, then the
    lowest id. An undominated out vertex is an in-neighbor of an in vertex,
    so in a component with no odd cycle its options lie on that vertex's
    side: decisions stay on one side until none is left undominated, and a
    graph with no odd cycle never backtracks. Assignments only ever
    dominate more, so a cursor kept per level finds the component. The
    stack holds one entry per untried alternative, and popping one undoes
    the trail back to its decision. A budget step is one assignment below
    the root; the root propagation is linear, like the analysis.
    """
    n = graph.n
    out_adj, in_adj = graph.out_adj, graph.in_adj
    state = bytearray(n)
    dom = [0] * n
    cand = [len(us) for us in in_adj]
    trail: list[int] = []
    stats = search.stats
    if not _assign(out_adj, in_adj, state, dom, cand, trail, [v for v in range(n) if not cand[v]]):
        # the source closure cannot conflict: a vertex goes in only once all
        # its in-neighbors are out, and each out vertex is dominated
        from .solvers import InternalError  # solvers imports this module

        raise InternalError("the source closure reached a conflict")
    cursor, level = len(comps) - 1, 0
    # entry: (literal, trail length, cursor, decision level); the out
    # alternative is pushed first, so the in alternative is tried first
    stack: list[tuple[int, int, int, int]] = []
    while True:
        stats.recursion_depth = max(stats.recursion_depth, level + 1)
        best, fewest = -1, 2 * n + 2
        while cursor >= 0:
            for v in comps[cursor]:
                s = state[v]
                if s != _IN and not dom[v]:
                    k = cand[v] if s else n + 1 + cand[v]  # out vertices first
                    if k < fewest:
                        best, fewest = v, k
            if best >= 0:
                break
            cursor -= 1
        if best < 0:  # every vertex is in or dominated
            return [v for v in range(n) if state[v] == _IN]
        if state[best]:
            best = next(u for u in in_adj[best] if not state[u])
        stack += (~best, len(trail), cursor, level + 1), (best, len(trail), cursor, level + 1)
        while True:
            if not stack:
                return None
            literal, mark, cursor, level = stack.pop()
            _undo(out_adj, state, dom, cand, trail, mark)
            stats.seeds_explored += 1
            ok = _assign(out_adj, in_adj, state, dom, cand, trail, [literal])
            search.charge(len(trail) - mark)
            if ok:
                break
