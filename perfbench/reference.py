"""Independent reference answers for the benchmark.

Nothing here imports idomlib. Structure comes from networkx, verdicts come
from theorems about the instance families or from an integer-programming
model solved with ``scipy.optimize.milp``, and sets are checked by a plain
loop over the arc list.
"""

from __future__ import annotations

from collections import deque
from math import gcd

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

Arcs = list[tuple[int, int]]


def check_ids(n: int, arcs: Arcs, members) -> tuple[bool, bool]:
    """(independent, dominating) of a vertex set, by looping over the arcs."""
    s = set(members)
    if any(not 0 <= v < n for v in s):
        return False, False
    independent = not any(u in s and v in s for u, v in arcs)
    dominated = set(s)
    dominated.update(v for u, v in arcs if u in s)
    return independent, len(dominated) == n


def is_ids(n: int, arcs: Arcs, members) -> bool:
    return all(check_ids(n, arcs, members))


class Structure:
    """SCCs, condensation sources, period and bipartiteness of one digraph."""

    def __init__(self, n: int, arcs: Arcs) -> None:
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(arcs)
        comps = list(nx.strongly_connected_components(g))
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        fed = {comp_of[v] for u, v in arcs if comp_of[u] != comp_of[v]}
        self.n = n
        self.sccs = len(comps)
        self.source_sccs = len(comps) - len(fed)
        self.strongly_connected = n > 0 and len(comps) == 1
        self.period = 0
        for comp in comps:
            if len(comp) >= 2:
                self.period = gcd(self.period, _component_period(g, comp))
        self.acyclic = self.period == 0
        self.underlying_bipartite = nx.is_bipartite(g.to_undirected())


def _component_period(g: nx.DiGraph, comp: set[int]) -> int:
    """gcd over the component's arcs of level(u) + 1 - level(v), BFS levels."""
    root = min(comp)
    level = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if v in comp and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    p = 0
    for u in comp:
        for v in g.successors(u):
            if v in comp:
                p = gcd(p, abs(level[u] + 1 - level[v]))
    return p


def _ids_rows(n: int, arcs: Arcs, offset: int = 0, independent: bool = True):
    """Constraint rows (coefficients, lower, upper) of 'x is an IDS' on n
    variables starting at column ``offset``."""
    rows, lower, upper = [], [], []
    if independent:
        for u, v in arcs:
            rows.append([offset + u, offset + v])
            lower.append(0)
            upper.append(1)
    into: list[list[int]] = [[v] for v in range(n)]
    for u, v in arcs:
        into[v].append(u)
    for v in range(n):
        rows.append([offset + u for u in into[v]])
        lower.append(1)
        upper.append(np.inf)
    return rows, lower, upper


def _solve(columns: int, rows, lower, upper, objective=None):
    r = [i for i, row in enumerate(rows) for _ in row]
    c = [col for row in rows for col in row]
    matrix = coo_array((np.ones(len(c)), (r, c)), shape=(len(rows), columns))
    res = milp(
        c=np.zeros(columns) if objective is None else objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(columns),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"milp ended with status {res.status}: {res.message}")
    return [i for i, x in enumerate(res.x) if x > 0.5]


def milp_ids(n: int, arcs: Arcs) -> list[int] | None:
    """One independent dominating set, or None when the model is infeasible.
    The returned set is re-checked with the arc-loop verifier."""
    if n == 0:
        return []
    found = _solve(n, *_ids_rows(n, arcs))
    if found is not None and not is_ids(n, arcs, found):
        raise RuntimeError("milp returned a set that is not an IDS")
    return found


def milp_min(n: int, arcs: Arcs, independent: bool) -> int | None:
    """Minimum size of an IDS (independent=True) or of a dominating set."""
    found = _solve(n, *_ids_rows(n, arcs, independent=independent), np.ones(n))
    return None if found is None else len(found)


def milp_idomatic(n: int, arcs: Arcs) -> int:
    """Largest number of pairwise disjoint IDSs: grow t until infeasible."""
    t = 0
    while t < n:
        copies = t + 1
        rows, lower, upper = [], [], []
        for c in range(copies):
            r, lo, up = _ids_rows(n, arcs, offset=c * n)
            rows += r
            lower += lo
            upper += up
        for v in range(n):
            rows.append([c * n + v for c in range(copies)])
            lower.append(0)
            upper.append(1)
        if _solve(copies * n, rows, lower, upper) is None:
            break
        t = copies
    return t


# Family theorems used in place of the model. Each names the structural
# fact it rests on, which ``verdict`` checks against ``Structure``.
THEOREMS = {
    "acyclic": True,  # the source closure empties a DAG
    "even-period": True,  # even layers of a strong digraph with even period
    "oriented-bipartite": True,  # closure, then one side of the residual
    "odd-cycle": False,  # a directed odd cycle has no IDS
    "dhk-free": False,  # the solution-free D_{h,k} of the paper
    "wheel-x-paw": False,  # odd-rim wheel x paw of the paper
    "odd-torus": True,  # explicit construction for C_n x C_n, n odd
}


def verdict(n: int, arcs: Arcs, theorem: str | None, structure: Structure):
    """(exists, source): a theorem when one applies, else the MILP model."""
    if theorem is not None:
        arc_set = set(arcs)
        holds = {
            "acyclic": structure.acyclic,
            "even-period": structure.strongly_connected and structure.period % 2 == 0,
            "oriented-bipartite": structure.underlying_bipartite
            and not any((v, u) in arc_set for u, v in arcs),
            "odd-cycle": structure.strongly_connected
            and structure.period == n == len(arcs)
            and n % 2 == 1,
        }.get(theorem, True)
        if not holds:
            raise RuntimeError(f"theorem {theorem!r} does not apply to this instance")
        return THEOREMS[theorem], f"theorem:{theorem}"
    return milp_ids(n, arcs) is not None, "milp"
