"""Command-line interface: analyze, solve, verify, gen, and brute subcommands.

Exit codes: 0 success, 1 negative answer under --status-exit, 2 input or
usage error, 3 work budget or size cap exceeded, 4 internal error (an
unexpected exception; never a verdict). The environment variable IDOM_BUDGET
overrides the step budget of the solvers and the brute oracles; a value
below 0 is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .digraph import (
    ParseError,
    _ints,
    format_arc_list,
    is_ids,
    parse_digraph,
)
from .generators import (
    DhkSpec,
    GenerationError,
    UndirectedGraph,
    cartesian_product,
    double_edges,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    random_dag,
    random_digraph,
    random_layered_strong,
    random_oriented_bipartite,
)
from .solvers import (
    BudgetExceeded,
    CapExceeded,
    brute_force_solve,
    idomatic_brute,
    min_dom_size_brute,
    min_ids_size_brute,
    solve_auto,
    solve_bipartite,
    solve_dag,
    solve_even_period,
    solve_exact,
    solve_strong_by_layers,
)
from .structure import _analyze

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget() -> int | None:
    raw = os.environ.get("IDOM_BUDGET")
    if raw is None:
        return None
    try:
        [budget] = _ints(raw, [raw])
    except ValueError:
        raise ValueError(f"IDOM_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"IDOM_BUDGET must be at least 0, got {budget}")
    return budget


def _load(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    parsed = parse_digraph(text)
    if parsed.duplicate_arcs:
        print(
            f"warning: {parsed.duplicate_arcs} duplicate arc(s) collapsed",
            file=sys.stderr,
        )
    return parsed.graph


def _emit_json(doc: dict) -> None:
    import json  # only --json output needs it; kept off the start path

    print(json.dumps(doc))


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = _load(args.file)
    analysis = _analyze(graph)
    h = analysis.period
    cond = analysis.condensation
    doc: dict = {"period": h, "sccs": cond.dag.n}
    lines = [
        f"period={h}",
        f"sccs={cond.dag.n}",
        "source_sccs=[" + ",".join(map(str, cond.source_components())) + "]",
    ]
    if analysis.layers:
        sizes = [len(layer) for layer in analysis.layers]
        doc["layers"] = sizes
        lines.append("layers=[" + ",".join(map(str, sizes)) + "]")
    if args.json:
        _emit_json(doc)
    else:
        print("\n".join(lines))
    return EXIT_OK


_SOLVERS = {
    "auto": solve_auto,
    "dag": lambda g, budget: solve_dag(g),
    "even": lambda g, budget: solve_even_period(g),
    "bipartite": lambda g, budget: solve_bipartite(g),
    "layers": solve_strong_by_layers,
    "exact": solve_exact,
    "brute": lambda g, budget: brute_force_solve(g, budget=budget),
}


def cmd_solve(args: argparse.Namespace) -> int:
    graph = _load(args.file)
    outcome = _SOLVERS[args.method](graph, _budget())
    elapsed_ms = round(outcome.stats.elapsed * 1000, 3)
    if args.json:
        doc: dict = {"status": outcome.status}
        if outcome.found:
            doc["set"] = sorted(outcome.set)
        doc.update(
            method=outcome.method,
            seeds_explored=outcome.stats.seeds_explored,
            subsets_explored=outcome.stats.subsets_explored,
            elapsed_ms=elapsed_ms,
        )
        _emit_json(doc)
    else:
        if outcome.found:
            print(f"status=found set={','.join(map(str, sorted(outcome.set)))}")
        else:
            print("status=none")
        print(f"method={outcome.method}")
        print(
            f"seeds_explored={outcome.stats.seeds_explored} "
            f"subsets_explored={outcome.stats.subsets_explored} "
            f"elapsed_ms={elapsed_ms}"
        )
    if args.status_exit:
        return EXIT_OK if outcome.found else EXIT_NEGATIVE
    return EXIT_OK


def _parse_set(raw: str) -> frozenset[int]:
    try:
        return frozenset(_ints(raw, raw.split(","))) if raw.strip() else frozenset()
    except ValueError:
        raise ValueError(f"malformed vertex set {raw.strip()!r}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _load(args.file)
    report = is_ids(graph, _parse_set(args.set))
    if args.json:
        _emit_json(
            {
                "independent": report.independent,
                "dominating": report.dominating,
                "ids": report.ids,
                "violations": {
                    "independence": [list(arc) for arc in report.independence_violations],
                    "domination": list(report.domination_violations),
                },
            }
        )
    else:
        fmt = lambda flag: "true" if flag else "false"
        print(f"independent={fmt(report.independent)}")
        print(f"dominating={fmt(report.dominating)}")
        print(f"ids={fmt(report.ids)}")
        arcs = ",".join(f"{u}->{v}" for u, v in report.independence_violations)
        print(f"independence_violations={arcs}")
        print(f"domination_violations={','.join(map(str, report.domination_violations))}")
    return EXIT_OK


def _dhk(h: int, k: int, variant: str):
    return gen_dhk(DhkSpec(h, k, "ids_free" if variant == "free" else "with_ids")).graph


def _double(path: str):
    base = _load(path)
    edges = [(u, v) for u, vs in enumerate(base.out_adj) for v in vs]
    return double_edges(UndirectedGraph.from_edges(base.n, edges))


_SEED = {"type": int, "required": True}
_VARIANT = {"choices": ["free", "ids"], "default": "free"}

# Each `idom gen` family: its arguments, in the order its builder takes them,
# and the builder. A positional argument maps to its type, an option to the
# keywords of its add_argument call.
_FAMILIES = {
    "cycle": ({"n": int}, gen_cycle),
    "path": ({"n": int}, gen_path),
    "wheel": ({"n": int}, gen_wheel),
    "paw": ({}, gen_paw),
    "dhk": ({"h": int, "k": int, "--variant": _VARIANT}, _dhk),
    "product": ({"a": str, "b": str}, lambda a, b: cartesian_product(_load(a), _load(b))),
    "double": ({"g": str}, _double),
    "random-dag": ({"n": int, "p": float, "--seed": _SEED}, random_dag),
    "random-bipartite": (
        {"a": int, "b": int, "p": float, "--seed": _SEED},
        random_oriented_bipartite,
    ),
    "random-layered": (
        {"h": int, "size": int, "p": float, "--seed": _SEED},
        random_layered_strong,
    ),
    "random-digraph": ({"n": int, "p": float, "--seed": _SEED}, random_digraph),
}


def cmd_gen(args: argparse.Namespace) -> int:
    params, build = _FAMILIES[args.family]
    graph = build(*(getattr(args, name.lstrip("-")) for name in params))
    sys.stdout.write(format_arc_list(graph))
    return EXIT_OK


_ORACLES = {
    "exist": lambda g, cap, budget: brute_force_solve(g, cap, budget).found,
    "i": min_ids_size_brute,
    "gamma": min_dom_size_brute,
    "idomatic": idomatic_brute,
}


def cmd_brute(args: argparse.Namespace) -> int:
    graph = _load(args.file)
    what = args.what
    value = _ORACLES[what](graph, args.cap, _budget())
    if args.json:
        _emit_json({"what": what, "value": value})
    else:
        if value is None:
            print("none")
        elif isinstance(value, bool):
            print("true" if value else "false")
        else:
            print(value)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idom",
        description="Independent dominating sets in directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="period, SCCs, and layer sizes of a graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="decide existence of an independent dominating set")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_SOLVERS), default="auto")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--status-exit",
        action="store_true",
        help="exit 0 when a set exists, 1 when none does",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a vertex set against a graph")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a generated graph as an arc list")
    fam = p.add_subparsers(dest="family", required=True)
    for family, (params, _) in _FAMILIES.items():
        q = fam.add_parser(family)
        for name, kind in params.items():
            q.add_argument(name, **(kind if name.startswith("--") else {"type": kind}))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("brute", help="exhaustive oracle values")
    p.add_argument("file")
    p.add_argument("--what", choices=list(_ORACLES), required=True)
    p.add_argument("--cap", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_brute)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # a bug: report it without claiming a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
