"""A ``Digraph`` stores only its sorted adjacency lists: construction against
a naive model, format output pinned across the change of storage, and no
library path that builds the derived ``arcs`` set."""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from idomlib import (
    Digraph,
    DhkSpec,
    UndirectedGraph,
    brute_force_solve,
    cartesian_product,
    condensation,
    double_edges,
    forced_sources_closure,
    format_arc_list,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    idomatic_brute,
    induced_subgraph,
    layer_decomposition,
    min_dom_size_brute,
    min_ids_size_brute,
    out_closed_removal,
    parse_digraph,
    propagate_layer_seed,
    random_dag,
    random_digraph,
    random_layered_strong,
    random_oriented_bipartite,
    solve_auto,
    solve_bipartite,
    solve_dag,
    solve_even_period,
    solve_exact,
    solve_strong_by_layers,
    two_disjoint_ids,
)

from helpers import record_built_graphs


@st.composite
def arc_lists(draw, max_n: int = 9):
    """(n, arcs): a random list of non-loop arcs, with repeats, in any order."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return n, arcs


class TestConstructionModel:
    @settings(max_examples=300, deadline=None)
    @given(arc_lists(), st.randoms(use_true_random=False))
    def test_matches_naive_model(self, case, rnd):
        n, arcs = case
        g = Digraph(n, arcs)
        model = set(arcs)
        for adj in (g.out_adj, g.in_adj):
            assert all(list(vs) == sorted(set(vs)) for vs in adj)
        out_pairs = {(u, v) for u, vs in enumerate(g.out_adj) for v in vs}
        in_pairs = {(u, v) for v, us in enumerate(g.in_adj) for u in us}
        assert out_pairs == in_pairs == model
        assert g.m == len(model) and g.arcs == frozenset(model)
        assert "arcs" in g.__dict__  # derived once, on the read above

        twin_arcs = arcs + rnd.sample(arcs, len(arcs) // 2)
        rnd.shuffle(twin_arcs)
        twin = Digraph(n, twin_arcs)
        assert twin == g and hash(twin) == hash(g)
        assert Digraph(n + 1, arcs) != g
        if n >= 2:
            flip = tuple(rnd.sample(range(n), 2))
            assert Digraph(n, model ^ {flip}) != g

    def test_validation_order_is_the_arc_order(self):
        with pytest.raises(ValueError, match=r"arc \(0, 3\) out of range"):
            Digraph(3, [(0, 1), (0, 3), (1, 1)])
        with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
            Digraph(3, [(0, 1), (1, 1), (0, 3)])


def _format_corpus(family):
    if family == "basic":
        return (
            [gen_cycle(n) for n in range(2, 10)]
            + [gen_path(n) for n in range(1, 10)]
            + [gen_wheel(n) for n in range(3, 10)]
            + [gen_paw(), Digraph(0), Digraph(3)]
        )
    if family == "dhk":
        return [
            gen_dhk(DhkSpec(h, k, variant), strict=False).graph
            for h in (3, 5, 7)
            for k in (2, 3, 4)
            for variant in ("ids_free", "with_ids")
        ]
    if family == "random":
        return [
            builder(seed)
            for seed in range(60)
            for builder in (
                lambda s: random_dag(1 + s % 25, 0.2, s),
                lambda s: random_digraph(1 + s % 25, (0.05, 0.15, 0.3)[s % 3], s),
                lambda s: random_oriented_bipartite(1 + s % 7, 1 + s % 5, 0.4, s),
                lambda s: random_layered_strong(2 + s % 5, 1 + s % 6, 0.25, s),
            )
        ]
    small = [random_digraph(1 + s % 6, 0.35, 300 + s) for s in range(12)]
    if family == "product":
        return [cartesian_product(a, b) for a in small for b in small[:6]] + [
            cartesian_product(gen_cycle(a), gen_cycle(b)) for a in (2, 3, 5) for b in (3, 4)
        ]
    if family == "double":
        graphs = []
        for s in range(40):
            rng = random.Random(s)
            n = 1 + s % 12
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
            edges = [(u, v) for u, v in edges if u != v]
            graphs.append(double_edges(UndirectedGraph.from_edges(n, edges)))
        return graphs
    bases = [random_digraph(1 + s % 30, (0.04, 0.1, 0.2)[s % 3], 500 + s) for s in range(60)]
    if family == "induced":
        rng = random.Random(7)
        return [
            induced_subgraph(g, [v for v in range(g.n) if rng.random() < 0.6]).graph
            for g in bases
        ]
    return [condensation(g).dag for g in bases]  # "condensation"


@pytest.mark.parametrize(
    "family, digest",
    [
        ("basic", "fa90780954ce7989"),
        ("dhk", "60e3f466252ffd2d"),
        ("random", "e1689593edd20bf2"),
        ("product", "2bcf4767b4140bf2"),
        ("double", "3ec230d8192ac4bb"),
        ("induced", "b806c60f72242d80"),
        ("condensation", "58623d1aba711847"),
    ],
)
def test_format_output_is_pinned(family, digest):
    # taken from the frozenset-of-arcs storage before the adjacency lists
    # became the only stored form; the text must not change
    h = hashlib.sha256()
    for g in _format_corpus(family):
        h.update(format_arc_list(g).encode())
    assert h.hexdigest()[:16] == digest


SOLVE_CASES = [
    (gen_path(30), solve_auto, "dag-greedy"),
    (cartesian_product(gen_cycle(4), gen_cycle(6)), solve_auto, "even-period"),
    (double_edges(UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])),
     solve_auto, "symmetric-arc"),
    (cartesian_product(gen_cycle(5), gen_cycle(5)), solve_auto, "exact"),
    (gen_cycle(7), solve_auto, "exact"),
    (random_dag(25, 0.15, 4), solve_dag, "dag-greedy"),
    (gen_cycle(8), solve_even_period, "even-period"),
    (random_oriented_bipartite(6, 7, 0.4, 2), solve_bipartite, "bipartite"),
    (random_layered_strong(3, 4, 0.3, 9), solve_strong_by_layers, "layers"),
    (cartesian_product(gen_wheel(3), gen_paw()), solve_exact, "exact"),
    (random_digraph(9, 0.25, 11), brute_force_solve, "brute"),
]


class TestNoPathBuildsArcs:
    """Every graph a library path or ``idom`` builds, and the graph it is
    given, still has no ``arcs`` set afterwards."""

    @pytest.mark.parametrize(
        "graph, solve, method", SOLVE_CASES, ids=lambda x: getattr(x, "__name__", None)
    )
    def test_solvers(self, graph, solve, method, monkeypatch):
        built = record_built_graphs(monkeypatch)
        assert solve(graph).method == method
        assert all("arcs" not in g.__dict__ for g in built + [graph])

    def test_structure_generators_and_io(self, monkeypatch):
        built = record_built_graphs(monkeypatch)
        g = random_digraph(20, 0.12, 3)
        torus = cartesian_product(gen_cycle(4), gen_cycle(6))
        layers = layer_decomposition(torus)
        propagate_layer_seed(torus, layers, 0, [min(layers.layers[0])])
        two_disjoint_ids(torus)
        condensation(g)
        forced_sources_closure(g)
        out_closed_removal(g, {0, 5})
        gen_dhk(DhkSpec(3, 3))
        random_layered_strong(4, 3, 0.3, 1)
        parsed = parse_digraph("# doc\n4 4\n0 1\n1 2\n0 1\n3 2\n")
        assert parsed.duplicate_arcs == 1
        format_arc_list(parsed.graph)
        for oracle in (min_ids_size_brute, min_dom_size_brute, idomatic_brute):
            oracle(gen_cycle(6))
        assert len(built) > 10 and all("arcs" not in g.__dict__ for g in built)
