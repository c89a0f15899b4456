import hashlib
import random

import pytest

import idomlib.structure
from idomlib import (
    Digraph,
    DhkSpec,
    cartesian_product,
    condensation,
    cycle_gcd_oracle,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    induced_subgraph,
    is_strongly_connected,
    layer_decomposition,
    period,
    random_dag,
    random_digraph,
    random_layered_strong,
    scc_period,
    sccs,
)

from idomlib.structure import _acyclic, _analyze, _condense, _tarjan

from helpers import antiparallel_chain, disjoint_union, strongly_connected_samples


class UnreadableLists:
    """Adjacency lists that fail on any read."""

    def __getitem__(self, index):
        raise AssertionError("an adjacency list was read")

    def __iter__(self):
        raise AssertionError("the adjacency lists were scanned")


def reachable_from(graph, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.out_adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class TestSccs:
    def test_cycle_is_one_component(self):
        assert sccs(gen_cycle(3)).components == ((0, 1, 2),)

    def test_path_is_singletons(self):
        comps = sccs(gen_path(3)).components
        assert sorted(comps) == [(0,), (1,), (2,)]

    def test_paw_components(self):
        comps = set(sccs(gen_paw()).components)
        assert comps == {(0,), (1, 2, 3)}

    def test_reverse_topological_order(self):
        # cross arcs must go from a later-listed component to an earlier one
        for seed in range(25):
            g = random_digraph(8, 0.2, seed=seed)
            dec = sccs(g)
            for u, v in g.arcs:
                if dec.component_of[u] != dec.component_of[v]:
                    assert dec.component_of[u] > dec.component_of[v]

    def test_partition_and_mutual_reachability(self):
        for seed in range(25):
            g = random_digraph(8, 0.25, seed=100 + seed)
            dec = sccs(g)
            listed = sorted(v for comp in dec.components for v in comp)
            assert listed == list(range(g.n))
            reach = [reachable_from(g, v) for v in range(g.n)]
            for u in range(g.n):
                for v in range(g.n):
                    same = dec.component_of[u] == dec.component_of[v]
                    assert same == (v in reach[u] and u in reach[v])


class TestCondensation:
    def test_paw(self):
        cond = condensation(gen_paw())
        assert cond.dag.n == 2
        pendant = cond.scc.component_of[0]
        triangle = cond.scc.component_of[1]
        assert cond.dag.arcs == frozenset({(pendant, triangle)})
        assert cond.source_components() == [pendant]

    def test_strongly_connected_collapses(self):
        cond = condensation(gen_cycle(5))
        assert cond.dag.n == 1 and cond.dag.m == 0

    @pytest.mark.parametrize(
        "graph", [gen_cycle(5), Digraph(1), Digraph(0)], ids=["cycle", "vertex", "empty"]
    )
    def test_one_component_reads_no_out_list(self, graph):
        # no arc leaves a lone component, so its condensation needs no arc
        scc = sccs(graph)
        graph.out_adj = UnreadableLists()
        cond = _condense(graph, scc)
        assert (cond.dag.n, cond.dag.m) == (len(scc.components), 0) and cond.scc is scc

    def test_disjoint_cycles(self):
        cond = condensation(disjoint_union(gen_cycle(3), gen_cycle(4)))
        assert cond.dag.n == 2 and cond.dag.m == 0
        assert len(cond.source_components()) == 2

    def test_condensation_is_acyclic(self):
        for seed in range(20):
            g = random_digraph(10, 0.2, seed=300 + seed)
            assert cycle_gcd_oracle(condensation(g).dag) == 0


class TestSccPeriod:
    def test_plain_cycles(self):
        assert scc_period(gen_cycle(4)) == 4
        assert scc_period(gen_cycle(2)) == 2

    def test_triangle_with_chord(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert scc_period(g) == cycle_gcd_oracle(g) == 1

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(ValueError, match="not strongly connected"):
            scc_period(gen_path(3))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError, match="no directed cycle"):
            scc_period(Digraph(1))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph has no period"):
            scc_period(Digraph(0))

    def test_matches_oracle_on_strong_samples(self):
        for g in strongly_connected_samples(40):
            assert scc_period(g) == cycle_gcd_oracle(g)

    def test_invariant_under_relabeling(self):
        rng = random.Random(42)
        for g in strongly_connected_samples(15, seed_base=900):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs])
            assert scc_period(relabeled) == scc_period(g)


class TestPeriod:
    def test_acyclic_is_zero(self):
        assert period(gen_path(3)) == 0

    def test_gcd_of_disjoint_cycles(self):
        assert period(disjoint_union(gen_cycle(4), gen_cycle(6))) == 2
        assert period(disjoint_union(gen_cycle(3), gen_cycle(2))) == 1

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(60):
            g = random_digraph(2 + seed % 11, 0.1 + 0.07 * (seed % 5), seed=500 + seed)
            assert period(g) == cycle_gcd_oracle(g)
        for seed in range(20):
            assert period(random_dag(10, 0.3, seed=seed)) == 0


class TestLayerDecomposition:
    def test_cycle_layers_are_singletons(self):
        layers = layer_decomposition(gen_cycle(6))
        assert layers.h == 6
        assert layers.layers == tuple(frozenset({i}) for i in range(6))

    def test_antiparallel_pair(self):
        layers = layer_decomposition(gen_cycle(2))
        assert layers.h == 2
        assert layers.layers == (frozenset({0}), frozenset({1}))

    def test_dhk_example_sizes(self):
        g = gen_dhk(DhkSpec(5, 3)).graph
        layers = layer_decomposition(g)
        assert [len(layer) for layer in layers.layers] == [3, 6, 6, 3, 6]

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(ValueError, match="not strongly connected"):
            layer_decomposition(gen_path(4))

    def test_invariants_on_strong_samples(self):
        for g in strongly_connected_samples(30, seed_base=1500):
            layers = layer_decomposition(g)
            assert layers.layer_of[0] == 0
            listed = sorted(v for layer in layers.layers for v in layer)
            assert listed == list(range(g.n))
            assert all(layers.layers)
            for u, v in g.arcs:
                assert layers.layer_of[v] == (layers.layer_of[u] + 1) % layers.h
            if layers.h > 1:
                for layer in layers.layers:
                    assert not any(u in layer and v in layer for u, v in g.arcs)


class TestCycleGcdOracle:
    def test_cycle(self):
        assert cycle_gcd_oracle(gen_cycle(5)) == 5

    def test_dag(self):
        assert cycle_gcd_oracle(random_dag(9, 0.4, seed=3)) == 0

    def test_triangle_plus_antiparallel_arc(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
        assert cycle_gcd_oracle(g) == 1

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            cycle_gcd_oracle(Digraph(13))


def test_strong_connectivity_checks():
    assert is_strongly_connected(gen_cycle(4))
    assert not is_strongly_connected(gen_path(4))
    assert is_strongly_connected(Digraph(1))
    assert not is_strongly_connected(Digraph(0))


def _pinned_corpus(family):
    if family == "random":
        return [
            random_digraph(1 + seed % 40, (0.02, 0.06, 0.12, 0.25)[seed % 4], seed)
            for seed in range(240)
        ]
    if family == "layered":
        return [
            random_layered_strong(h, size, 0.3, 10 * h + size)
            for h in range(2, 8)
            for size in range(1, 6)
        ]
    if family == "torus":
        return [
            cartesian_product(gen_cycle(a), gen_cycle(b))
            for a in range(2, 10)
            for b in range(2, 10)
        ]
    return [
        gen_dhk(DhkSpec(h, k, variant)).graph
        for h in (3, 5, 7)
        for k in (3, 4, 5)
        for variant in ("ids_free", "with_ids")
    ]


@pytest.mark.parametrize(
    "family, digest",
    [
        ("random", "32c0d46525340fc8"),
        ("layered", "d47943a5f9a7abf8"),
        ("torus", "f6f7cf1129af2597"),
        ("dhk", "4aa572a24686163a"),
    ],
)
def test_structure_output_is_pinned(family, digest):
    # sccs' component order and component_of, and the periods and layers of
    # the structure pass, as taken from the plain Tarjan and BFS before they
    # were tuned; a faster pass must reproduce them exactly
    h = hashlib.sha256()
    for g in _pinned_corpus(family):
        s = sccs(g)
        analysis = _analyze(g)
        h.update(repr((s.component_of, s.components, analysis.periods, analysis.layers)).encode())
    assert h.hexdigest()[:16] == digest


def _reversed_pair_chain(pairs):
    # pair i - 1 feeds pair i, so vertex 0 reaches every vertex
    arcs = []
    for i in range(pairs):
        arcs += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]
        if i:
            arcs.append((2 * i - 2, 2 * i))
    return Digraph(2 * pairs, arcs)


def _joined_cycles(a, b, forward):
    # C_a on 0..a-1 and C_b on a..a+b-1, one arc between them
    arcs = [(i, (i + 1) % a) for i in range(a)]
    arcs += [(a + i, a + (i + 1) % b) for i in range(b)]
    arcs.append((0, a) if forward else (a, 0))
    return Digraph(a + b, arcs)


def _agreement_corpus():
    """Graphs on which the strong test and Tarjan must give one answer:
    random digraphs, strongly connected families and products, and graphs
    with no source and no sink that are not strongly connected."""
    graphs = [Digraph(0), Digraph(1), Digraph(2), Digraph(2, [(0, 1)])]
    graphs += [
        random_digraph(2 + seed % 39, (0.03, 0.08, 0.15, 0.3, 0.5)[seed % 5], 9000 + seed)
        for seed in range(300)
    ]
    graphs += [
        random_layered_strong(h, size, 0.4, 100 * h + size)
        for h in range(2, 7)
        for size in range(1, 5)
    ]
    graphs += [cartesian_product(gen_cycle(a), gen_cycle(b)) for a in range(2, 8) for b in range(2, 8)]
    graphs += [
        gen_dhk(DhkSpec(h, k, variant), strict=False).graph
        for h in (3, 5)
        for k in (2, 3)
        for variant in ("ids_free", "with_ids")
    ]
    graphs += [
        cartesian_product(gen_wheel(3), gen_paw()),
        cartesian_product(gen_paw(), gen_cycle(3)),
        cartesian_product(gen_cycle(3), gen_path(3)),
        cartesian_product(gen_path(3), gen_cycle(4)),
        cartesian_product(gen_cycle(4), gen_cycle(2)),
    ]
    for pairs in (1, 2, 3, 7, 20):
        graphs += [antiparallel_chain(pairs), _reversed_pair_chain(pairs)]
    for a, b in ((2, 2), (3, 4), (5, 3)):
        graphs += [_joined_cycles(a, b, True), _joined_cycles(a, b, False)]
    return graphs


def test_strong_test_agrees_with_tarjan():
    # sccs, the periods and layers of the structure pass, the condensation
    # and is_strongly_connected on the corpus, as the plain Tarjan gave them
    # before sccs tested strong connectivity first
    h = hashlib.sha256()
    for g in _agreement_corpus():
        s = sccs(g)
        analysis = _analyze(g)
        cond = condensation(g)
        h.update(repr((
            s, analysis.periods, analysis.layers, cond.dag.n, cond.dag.out_adj, cond.scc,
            is_strongly_connected(g),
        )).encode())
    assert h.hexdigest()[:16] == "89d6f1dcce1f28c7"


def _path_into_cycle(path_len, cycle_len, tail):
    # a path of path_len arcs into a cycle on cycle_len vertices, whose last
    # vertex feeds a path of ``tail`` more: with a tail, the graph has a
    # source and a sink but is not acyclic
    n = path_len + cycle_len + tail
    arcs = [(i, i + 1) for i in range(path_len)]
    c = path_len
    arcs += [(c + i, c + (i + 1) % cycle_len) for i in range(cycle_len)]
    arcs += [(i, i + 1) for i in range(c + cycle_len - 1, n - 1)]
    return Digraph(n, arcs)


def _peel_corpus():
    graphs = [Digraph(0), Digraph(1), Digraph(3), gen_path(4)]
    graphs += [
        _path_into_cycle(path_len, cycle_len, tail)
        for path_len in (1, 2, 7)  # 1: a source that feeds the cycle
        for cycle_len in (2, 3)
        for tail in (0, 1, 3)
    ]
    graphs += [random_dag(1 + seed % 30, (0.05, 0.15, 0.4)[seed % 3], seed) for seed in range(1500)]
    graphs += [
        random_digraph(1 + seed % 30, (0.02, 0.05, 0.1)[seed % 3], 3000 + seed)
        for seed in range(1500)
    ]
    return graphs


def test_peel_recognises_exactly_the_acyclic_graphs():
    # a graph is acyclic (period 0) exactly when Tarjan finds only
    # one-vertex components, as there are no self-loops
    verdicts = [
        (_acyclic(g.out_adj, g.in_adj), all(len(c) == 1 for c in _tarjan(g).components))
        for g in _peel_corpus()
    ]
    assert len(verdicts) >= 3000
    assert all(peel == tarjan for peel, tarjan in verdicts)
    assert sum(peel for peel, _ in verdicts) == 2403  # both verdicts are common


def _cycle_path_cycle(a, path_len, b):
    # C_a on 0..a-1 feeds a path of path_len vertices into C_b, enters C_b
    # a second time by a direct arc, and feeds a sink vertex: the upstream
    # BFS meets a levelled cycle at two depths and a levelled single vertex
    c = a + path_len  # the first vertex of C_b
    sink = c + b
    arcs = [(i, (i + 1) % a) for i in range(a)]
    arcs += [(i, i + 1) for i in range(a, c - 1)]
    arcs += [(0, a), (c - 1, c)] if path_len else [(0, c)]
    arcs += [(c + i, c + (i + 1) % b) for i in range(b)]
    arcs += [(a - 1, c + b - 1), (a - 1, sink)]
    return Digraph(sink + 1, arcs)


def _component_period_corpus():
    graphs = [
        random_digraph(1 + seed % 12, (0.08, 0.15, 0.25, 0.4)[seed % 4], 4000 + seed)
        for seed in range(400)
    ]
    for a, b in ((2, 2), (3, 4), (5, 3), (4, 6)):
        graphs += [_joined_cycles(a, b, True), _joined_cycles(a, b, False)]
    for pairs in (2, 3, 6):
        graphs += [antiparallel_chain(pairs), _reversed_pair_chain(pairs)]
    graphs += [
        _cycle_path_cycle(a, path_len, b)
        for a in (2, 3, 4)
        for path_len in (0, 1, 3)
        for b in (2, 3, 5)
    ]
    return graphs


def test_component_periods_match_the_oracle():
    # each component's period is that of its own induced subgraph, or 0
    # (and level 0, when the graph has a cycle) for a single vertex, on
    # graphs where one component's BFS runs into components levelled before it
    multi = 0
    for g in _component_period_corpus():
        analysis = _analyze(g)
        components = analysis.scc.components
        assert len(analysis.periods) == len(components)
        multi += sum(len(c) > 1 for c in components) > 1
        for comp, h in zip(components, analysis.periods):
            expected = cycle_gcd_oracle(induced_subgraph(g, comp).graph) if len(comp) > 1 else 0
            assert h == expected, (g, comp)
            if len(comp) == 1 and analysis.period:
                assert analysis.level[comp[0]] == 0
    assert multi >= 40


def test_strong_counts_periods_not_components(monkeypatch):
    # one period per component, so the strong test needs no SCCs: an
    # acyclic graph, which computes none, is refused without them
    graphs = _component_period_corpus() + [Digraph(0), Digraph(1)]
    graphs += [gen_path(n) for n in (2, 3, 10, 50)]
    analyses = [_analyze(g) for g in graphs]
    expected = [len(sccs(g).components) == 1 for g in graphs]

    def unread(graph):
        raise AssertionError("the strong test computed SCCs")

    monkeypatch.setattr(idomlib.structure, "sccs", unread)
    monkeypatch.setattr(idomlib.structure, "_tarjan", unread)
    assert [analysis.strong for analysis in analyses] == expected
    assert sum(expected) >= 40 and not all(expected)
