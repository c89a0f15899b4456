"""Instance sets of the three benchmark workloads, built from a seed.

Every graph is made by ``idomlib`` itself (its generators, or the
``Digraph`` constructor for the pair chains), so building them is the
benchmark's set-up. Calls go through the ``idomlib`` package attributes at
call time, so the traced run's shims see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import idomlib as il


@dataclass
class Instance:
    name: str
    family: str
    params: dict
    graph: object  # idomlib.Digraph
    theorem: str | None = None  # reference theorem that decides the verdict
    rung: int | None = None  # scale-ladder rung: 0, 1, 2 for n, 2n, 4n
    # Candidates: used only when keep(instance) holds after the reference
    # answers, and then at most `quota` of them per family.
    keep: Callable[["Instance"], bool] | None = None
    quota: int = 0
    brute: bool = False  # cli-mix: also run the brute oracles on it
    oracle: dict | None = None  # reference values of the brute oracles
    # Filled in after set-up and reference.
    path: str = ""
    arcs: list = field(default_factory=list)
    structure: object = None
    exists: bool | None = None
    source: str = ""
    found_set: list | None = None


def _seeds(seed: int):
    rng = random.Random(seed)
    return lambda: rng.randrange(2**31)


def _chain(pairs: int):
    """Antiparallel pairs {2i, 2i+1}; pair i feeds pair i-1 by one arc."""
    arcs = []
    for i in range(pairs):
        arcs += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]
        if i:
            arcs.append((2 * i, 2 * i - 2))
    return il.Digraph(2 * pairs, arcs)


def _torus(k: int):
    return il.cartesian_product(il.gen_cycle(k), il.gen_cycle(k))


def scale_ladder(seed: int) -> list[Instance]:
    draw = _seeds(seed)
    out = []
    for rung, n in enumerate((250, 500, 1000)):
        size, k, pairs = n // 4, (16, 22, 32)[rung], n // 5
        s_dag, s_lay = draw(), draw()
        out += [
            Instance(f"path-{n}", "path", {"n": n}, il.gen_path(n), "acyclic", rung),
            Instance(f"cycle-{n}", "cycle-even", {"n": n}, il.gen_cycle(n), "even-period", rung),
            Instance(f"cycle-{n + 1}", "cycle-odd", {"n": n + 1}, il.gen_cycle(n + 1), "odd-cycle", rung),
            Instance(
                f"dag-{n}", "random-dag", {"n": n, "p": 2 / n, "seed": s_dag},
                il.random_dag(n, 2 / n, s_dag), "acyclic", rung,
            ),
            Instance(
                f"layered-4x{size}", "layered-even",
                {"h": 4, "size": size, "p": 2 / size, "seed": s_lay},
                il.random_layered_strong(4, size, 2 / size, s_lay), "even-period", rung,
            ),
            Instance(f"torus-{k}", "torus-even", {"k": k}, _torus(k), "even-period", rung),
            Instance(f"chain-{pairs}", "pair-chain", {"pairs": pairs}, _chain(pairs), None, rung),
        ]
    return out


def search_hard(seed: int) -> list[Instance]:
    draw = _seeds(seed)
    out = [
        Instance(f"torus-{k}", "torus-odd", {"k": k}, _torus(k), "odd-torus")
        for k in (15, 17, 19, 21)
    ]
    for i in range(8):
        s = draw()
        out.append(Instance(
            f"layered-odd-{i}", "layered-odd", {"h": 3, "size": 13, "p": 0.3, "seed": s},
            il.random_layered_strong(3, 13, 0.3, s),
            keep=lambda inst: inst.exists is False, quota=3,
        ))
    for h, k in ((3, 7), (5, 6), (5, 7), (7, 6), (7, 7)):
        for variant, theorem in (("ids_free", "dhk-free"), ("with_ids", None)):
            spec = il.DhkSpec(h, k, variant)
            out.append(Instance(
                f"dhk-{h}-{k}-{variant}", "dhk", {"h": h, "k": k, "variant": variant},
                il.gen_dhk(spec).graph, theorem,
            ))
    for rim in (5, 9, 15, 21):
        out.append(Instance(
            f"wheel-{rim}-x-paw", "wheel-x-paw", {"rim": rim},
            il.cartesian_product(il.gen_wheel(rim), il.gen_paw()), "wheel-x-paw",
        ))
    for i in range(12):
        s = draw()
        out.append(Instance(
            f"digraph-{i}", "random-digraph", {"n": 10, "p": 0.2, "seed": s},
            il.random_digraph(10, 0.2, s),
            keep=lambda inst: inst.structure.period == 1, quota=8,
        ))
    return out


def cli_mix(seed: int) -> list[Instance]:
    # Random graphs stay at n <= 10, so the brute oracles and the search
    # take a few milliseconds and process start sets the time. The median
    # library solve falls on wheel(5) x paw: four cheaper random graphs, four
    # dearer fixed ones.
    draw = _seeds(seed)
    s = [draw() for _ in range(4)]
    return [
        Instance("dag-10", "random-dag", {"n": 10, "p": 0.25, "seed": s[0]},
                 il.random_dag(10, 0.25, s[0]), "acyclic", brute=True),
        Instance("layered-4x2", "layered-even", {"h": 4, "size": 2, "p": 0.5, "seed": s[1]},
                 il.random_layered_strong(4, 2, 0.5, s[1]), "even-period", brute=True),
        Instance("layered-3x3", "layered-odd", {"h": 3, "size": 3, "p": 0.5, "seed": s[2]},
                 il.random_layered_strong(3, 3, 0.5, s[2]), brute=True),
        Instance("digraph-8", "random-digraph", {"n": 8, "p": 0.3, "seed": s[3]},
                 il.random_digraph(8, 0.3, s[3]), brute=True),
        Instance("dhk-5-4-ids_free", "dhk", {"h": 5, "k": 4, "variant": "ids_free"},
                 il.gen_dhk(il.DhkSpec(5, 4)).graph, "dhk-free"),
        Instance("dhk-3-4-with_ids", "dhk", {"h": 3, "k": 4, "variant": "with_ids"},
                 il.gen_dhk(il.DhkSpec(3, 4, "with_ids")).graph),
        Instance("torus-5", "torus-odd", {"k": 5}, _torus(5), "odd-torus"),
        Instance("torus-7", "torus-odd", {"k": 7}, _torus(7), "odd-torus"),
        Instance("wheel-5-x-paw", "wheel-x-paw", {"rim": 5},
                 il.cartesian_product(il.gen_wheel(5), il.gen_paw()), "wheel-x-paw"),
    ]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Instance]]
    # solve_auto rounds over the instances per pass. Each solve of a round is
    # one lib call, and the tail is the 11th-slowest call. The rounds are
    # chosen so that call falls among the rounds of one fixed instance
    # (path-500 on scale-ladder, torus-7 or D_{5,4} on cli-mix), or inside
    # the block of fixed D_hk and torus instances on search-hard.
    lib_rounds: int
    why: str
    stresses: str
    bypasses: str


WORKLOADS = {
    "scale-ladder": Workload(
        scale_ladder, 3,
        "families at n, 2n and 4n: time goes into parsing, structure, the source "
        "closure and verification, while search explores almost no seeds",
        "digraph, structure, solvers.closure, cli",
        "seed search",
    ),
    "search-hard": Workload(
        search_hard, 1,
        "small instances whose time goes into seed search and the budget: odd tori, "
        "odd-h layered graphs answering none, D_hk, wheel x paw, aperiodic digraphs",
        "solvers search, propagation, budget",
        "structure at scale, parsing",
    ),
    "cli-mix": Workload(
        cli_mix, 9,
        "many graphs with n <= 50 through every subcommand and solve method: process "
        "start, imports, argparse, parsing, formatting and the brute oracles",
        "cli, digraph parse, brute oracles",
        "large graphs, long searches",
    ),
}
