"""Call shims around idomlib's public functions, for the traced run.

``Tracer.install`` replaces each target function in every ``idomlib``
module namespace that binds it with a wrapper that records a span, and
``Tracer.remove`` puts the originals back. A target whose name no longer
exists in its defining module is listed in ``missing`` rather than counted
as zero.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function, metric group). Spans of one group nested in
# another span of the same group add no inclusive time.
TARGETS = [
    ("digraph", "parse_digraph", "digraph.parse"),
    ("digraph", "is_ids", "digraph.verify"),
    ("digraph", "induced_subgraph", "digraph.induced_subgraph"),
    ("structure", "sccs", "structure.sccs"),
    ("structure", "scc_period", "structure.period"),
    ("structure", "period", "structure.period"),
    ("structure", "layer_decomposition", "structure.layer_decomposition"),
    ("structure", "condensation", "structure.condensation"),
    ("solvers", "forced_sources_closure", "solvers.closure"),
    ("solvers", "solve_auto", "solvers.solve"),
    ("solvers", "solve_dag", "solvers.solve"),
    ("solvers", "solve_even_period", "solvers.solve"),
    ("solvers", "solve_bipartite", "solvers.solve"),
    ("solvers", "solve_strong_by_layers", "solvers.solve"),
    ("solvers", "solve_exact", "solvers.solve"),
    ("solvers", "brute_force_solve", "solvers.oracle"),
    ("solvers", "min_ids_size_brute", "solvers.oracle"),
    ("solvers", "min_dom_size_brute", "solvers.oracle"),
    ("solvers", "idomatic_brute", "solvers.oracle"),
    ("generators", "gen_cycle", "generators.build"),
    ("generators", "gen_path", "generators.build"),
    ("generators", "gen_wheel", "generators.build"),
    ("generators", "gen_paw", "generators.build"),
    ("generators", "gen_dhk", "generators.build"),
    ("generators", "cartesian_product", "generators.build"),
    ("generators", "random_dag", "generators.build"),
    ("generators", "random_digraph", "generators.build"),
    ("generators", "random_layered_strong", "generators.build"),
]

NAME, START, END, PARENT, TAG, CHILD_TIME, OUTER = range(7)


class Tracer:
    """In-memory spans: [name, start, end, parent index, tag, child time,
    outermost-in-group flag]. ``tag`` is set by the caller per instance."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, group: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            outer = active.get(group, 0) == 0
            active[group] = active.get(group, 0) + 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, 0.0, outer]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                active[group] -= 1
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD_TIME] += span[END] - span[START]

        return shim

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "idomlib" or k.startswith("idomlib.")]
        self.missing = []
        for mod_name, fn_name, group in TARGETS:
            home = sys.modules.get(f"idomlib.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            shim = self._wrap(fn_name, group, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, shim)

    def remove(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def group_of(name: str) -> str:
    return next(group for _, fn_name, group in TARGETS if fn_name == name)


def summarize(spans: list[list]) -> dict:
    """Per function: calls, inclusive ms (outermost in its group) and self ms."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        d = out.setdefault(s[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        dur = s[END] - s[START]
        d["calls"] += 1
        if s[OUTER]:
            d["ms"] += dur * 1000
        d["self_ms"] += (dur - s[CHILD_TIME]) * 1000
    return out
