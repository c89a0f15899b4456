import math
import os
import subprocess
import sys
import ast
import hashlib
import textwrap
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import idomlib._search
import idomlib.solvers
import idomlib.structure
from idomlib import (
    BudgetExceeded,
    CapExceeded,
    Digraph,
    DhkSpec,
    InternalError,
    LayerDecomposition,
    UndirectedGraph,
    brute_force_solve,
    cartesian_product,
    double_edges,
    enumerate_ids_brute,
    forced_sources_closure,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    idomatic_brute,
    is_ids,
    is_strongly_connected,
    layer_decomposition,
    min_dom_size_brute,
    min_ids_size_brute,
    period,
    propagate_layer_seed,
    random_dag,
    random_digraph,
    random_layered_strong,
    random_oriented_bipartite,
    sccs,
    scc_period,
    solve_auto,
    solve_bipartite,
    solve_dag,
    solve_even_period,
    solve_exact,
    solve_strong_by_layers,
    two_disjoint_ids,
)

from helpers import (
    all_ids_by_enumeration,
    antiparallel_chain,
    closure_by_rounds,
    digraphs,
    odd_cycle_free_digraphs,
    strongly_connected_samples,
    symmetric_arc_digraphs,
    without_arc_scans,
)

OUT_STAR = Digraph(4, [(0, 1), (0, 2), (0, 3)])


class TestForcedSourcesClosure:
    def test_path_alternates(self):
        forced, residual, _ = forced_sources_closure(gen_path(3))
        assert forced == {0, 2} and residual.n == 0

    def test_cycle_has_no_sources(self):
        forced, residual, old = forced_sources_closure(gen_cycle(3))
        assert forced == frozenset()
        assert residual == gen_cycle(3) and old == (0, 1, 2)

    def test_paw_empties(self):
        forced, residual, _ = forced_sources_closure(gen_paw())
        assert forced == {0, 1} and residual.n == 0

    def test_forced_set_is_in_every_ids(self):
        # on graphs with any solution at all, the closure is a lower bound
        import random

        rng = random.Random(11)
        for seed in range(40):
            n = 2 + seed % 9
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.25
            ]
            g = Digraph(n, arcs)
            forced, _, _ = forced_sources_closure(g)
            for solution in all_ids_by_enumeration(g):
                assert forced <= solution

    @settings(max_examples=150, deadline=None)
    @given(digraphs(max_n=10))
    def test_matches_round_based_reference(self, g):
        assert forced_sources_closure(g) == closure_by_rounds(g)


class TestSolveDag:
    def test_path(self):
        outcome = solve_dag(gen_path(4))
        assert outcome.found and outcome.set == {0, 2}
        assert outcome.method == "dag-greedy"

    def test_out_star(self):
        assert solve_dag(OUT_STAR).set == {0}

    def test_isolated_vertices(self):
        assert solve_dag(Digraph(3)).set == {0, 1, 2}

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            solve_dag(gen_cycle(3))


class TestSolveEvenPeriod:
    def test_square(self):
        outcome = solve_even_period(gen_cycle(4))
        assert outcome.set == {0, 2} and outcome.method == "even-period"

    def test_antiparallel_pair(self):
        assert solve_even_period(gen_cycle(2)).set == {0}

    def test_random_layered_instance(self):
        g = random_layered_strong(4, 3, 0.5, seed=7)
        outcome = solve_even_period(g)
        assert outcome.found and is_ids(g, outcome.set).ids

    def test_rejects_odd_period(self):
        with pytest.raises(ValueError, match="odd"):
            solve_even_period(gen_cycle(5))

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(ValueError, match="not strongly connected"):
            solve_even_period(gen_path(4))


class TestTwoDisjointIds:
    @pytest.mark.parametrize("n", [4, 6])
    def test_cycles(self, n):
        evens, odds = two_disjoint_ids(gen_cycle(n))
        assert evens == frozenset(range(0, n, 2))
        assert odds == frozenset(range(1, n, 2))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph has no period"):
            two_disjoint_ids(Digraph(0))

    def test_doubled_square(self):
        square = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g = double_edges(square)
        first, second = two_disjoint_ids(g)
        assert not first & second
        assert is_ids(g, first).ids and is_ids(g, second).ids

    @pytest.mark.parametrize(
        "graph",
        [gen_cycle(n) for n in (2, 4, 10, 50)]
        + [
            cartesian_product(gen_cycle(a), gen_cycle(b))
            for a, b in ((2, 2), (2, 6), (4, 4), (4, 6), (8, 12))
        ]
        + [
            random_layered_strong(h, size, 0.4, seed)
            for h in (2, 4, 6)
            for size, seed in ((1, 1), (3, 2), (5, 3))
        ],
    )
    def test_even_and_odd_layer_unions(self, graph):
        # the sets come from level parity; the layers are the reference
        layers = layer_decomposition(graph).layers
        assert len(layers) % 2 == 0
        assert two_disjoint_ids(graph) == (
            frozenset().union(*layers[0::2]), frozenset().union(*layers[1::2]),
        )


class TestSolveBipartite:
    def test_single_arc(self):
        assert solve_bipartite(Digraph(2, [(0, 1)])).set == {0}

    def test_alternating_square(self):
        g = Digraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        outcome = solve_bipartite(g)
        assert outcome.set == {0, 2} and outcome.method == "bipartite"

    def test_random_oriented_bipartite(self):
        g = random_oriented_bipartite(5, 6, 0.4, seed=21)
        outcome = solve_bipartite(g)
        assert outcome.found and is_ids(g, outcome.set).ids

    def test_rejects_odd_cycle(self):
        with pytest.raises(ValueError, match="not bipartite"):
            solve_bipartite(gen_cycle(5))


class TestPropagateLayerSeed:
    def test_triangle_seed_dies(self):
        c3 = gen_cycle(3)
        result = propagate_layer_seed(c3, layer_decomposition(c3), 0, {0})
        assert not result.consistent and result.union is None
        assert result.failed_step == 1

    @pytest.mark.parametrize(
        "graph, seed, step",
        [
            (gen_cycle(5), set(), 2),  # layer 2 comes out empty
            # the walk wraps around to layer 0 as {0, 13}, not {0}
            (cartesian_product(gen_cycle(5), gen_cycle(5)), {0}, 5),
        ],
        ids=["C5-empty", "C5xC5-wraps-different"],
    )
    def test_failed_step(self, graph, seed, step):
        result = propagate_layer_seed(graph, layer_decomposition(graph), 0, seed)
        assert not result.consistent and result.failed_step == step

    def test_square_seed_completes(self):
        c4 = gen_cycle(4)
        result = propagate_layer_seed(c4, layer_decomposition(c4), 0, {0})
        assert result.consistent and result.union == {0, 2}

    def test_layered_family_seed(self):
        g = gen_dhk(DhkSpec(5, 3, "with_ids")).graph
        layers = layer_decomposition(g)
        result = propagate_layer_seed(g, layers, 0, {0})
        assert result.consistent
        assert is_ids(g, result.union).ids

    def test_rejects_foreign_seed(self):
        c4 = gen_cycle(4)
        with pytest.raises(ValueError, match="subset of layer"):
            propagate_layer_seed(c4, layer_decomposition(c4), 0, {1})

    def test_rejects_layers_of_another_graph(self):
        for g, other in [(gen_cycle(3), gen_cycle(5)), (gen_cycle(6), gen_cycle(3))]:
            with pytest.raises(ValueError, match="do not cover"):
                propagate_layer_seed(g, layer_decomposition(other), 0, {0})

    def test_rejects_layer_index_out_of_range(self):
        c3 = gen_cycle(3)
        with pytest.raises(ValueError, match="layer index 3 out of range for h=3"):
            propagate_layer_seed(c3, layer_decomposition(c3), 3, {0})

    def test_rejects_arcs_against_the_layers(self):
        # the reversed 6-cycle has C_6's vertex layers, but its arcs go back
        reversed_c6 = Digraph(6, [((i + 1) % 6, i) for i in range(6)])
        with pytest.raises(ValueError, match="layer i to layer i\\+1"):
            propagate_layer_seed(reversed_c6, layer_decomposition(gen_cycle(6)), 0, {0})

    def test_rejects_non_strongly_connected(self):
        # {0, 2} is an independent dominating set of the path, whose layer-0
        # part is {0}; propagation cannot see it
        with pytest.raises(ValueError, match="not strongly connected"):
            propagate_layer_seed(gen_path(3), layer_decomposition(gen_cycle(3)), 0, {0})

    # records whose ``layers`` disagree with ``layer_of``: the walk reads
    # only ``h`` and ``layer_of``, the map the arc check validates
    def test_seed_is_checked_against_layer_of(self):
        record = LayerDecomposition(2, (0, 1, 0, 1), (frozenset({0, 1}), frozenset({2, 3})))
        with pytest.raises(ValueError, match="seed is not a subset of layer k"):
            propagate_layer_seed(gen_cycle(4), record, 0, {1})

    def test_members_come_from_layer_of(self):
        record = LayerDecomposition(2, (0, 1, 0, 1), (frozenset({0, 2}),))
        result = propagate_layer_seed(gen_cycle(4), record, 1, {1, 3})
        assert result.consistent and result.union == {1, 3}

    def test_rejects_more_layers_than_vertices(self):
        # only an arcless graph passes the arc check with h > n; no layer
        # list is built for it
        record = LayerDecomposition(10**12, (0,), ())
        with pytest.raises(ValueError, match="cannot all be nonempty with 1 vertices"):
            propagate_layer_seed(Digraph(1), record, 0, {0})

    def test_completeness_against_enumeration(self):
        # consistent propagations over all seeds = exactly the solution sets
        for g in strongly_connected_samples(25, max_n=10, seed_base=4200):
            layers = layer_decomposition(g)
            k = min(range(layers.h), key=lambda i: (len(layers.layers[i]), i))
            members = sorted(layers.layers[k])
            reached = set()
            for bits in range(1 << len(members)):
                seed = {members[j] for j in range(len(members)) if bits >> j & 1}
                result = propagate_layer_seed(g, layers, k, seed)
                if result.consistent:
                    reached.add(result.union)
            assert reached == all_ids_by_enumeration(g)


class TestSolveStrongByLayers:
    def test_pentagon_exhausts_two_seeds(self):
        outcome = solve_strong_by_layers(gen_cycle(5))
        assert outcome.status == "none"
        assert outcome.stats.seeds_explored == 2

    def test_square_delegates_to_even(self):
        outcome = solve_strong_by_layers(gen_cycle(4))
        assert outcome.set == {0, 2} and outcome.method == "even-period"

    def test_torus_diagonal(self):
        g = cartesian_product(gen_cycle(3), gen_cycle(3))
        outcome = solve_strong_by_layers(g)
        assert outcome.set == {0, 4, 8}
        assert outcome.status == brute_force_solve(g).status

    def test_seed_bound(self):
        for g in strongly_connected_samples(20, seed_base=5200):
            outcome = solve_strong_by_layers(g)
            h = layer_decomposition(g).h
            assert outcome.stats.seeds_explored <= 2 ** math.ceil(g.n / h)

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(ValueError, match="not strongly connected"):
            solve_strong_by_layers(gen_path(3))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph has no period"):
            solve_strong_by_layers(Digraph(0))

    def test_matches_exact_on_odd_period(self):
        # the seed search gives the direct scan's set and seed count, and the
        # per-vertex search of solve_exact the same verdict
        samples = [
            g for g in strongly_connected_samples(40, seed_base=6100)
            if layer_decomposition(g).h % 2 == 1
        ]
        samples += [
            cartesian_product(gen_cycle(3), gen_cycle(3)),
            gen_dhk(DhkSpec(5, 3, "with_ids")).graph,
        ]
        for g in samples:
            by_layers, exact = solve_strong_by_layers(g), solve_exact(g)
            assert by_layers.method == "layers"
            assert (
                by_layers.status, by_layers.set, by_layers.stats.seeds_explored
            ) == seed_scan(g)
            assert by_layers.status == exact.status


def seed_scan(g):
    """solve_strong_by_layers on an odd-period strongly connected graph, as
    the direct scan: one propagate_layer_seed per seed over the smallest
    layer, ascending."""
    layers = layer_decomposition(g)
    k = min(range(layers.h), key=lambda i: (len(layers.layers[i]), i))
    members = sorted(layers.layers[k])
    for bits in range(1 << len(members)):
        seed = {members[j] for j in range(len(members)) if bits >> j & 1}
        result = propagate_layer_seed(g, layers, k, seed)
        if result.consistent:
            return "found", result.union, bits + 1
    return "none", None, 1 << len(members)


STRONG_SAMPLES = strongly_connected_samples(60, max_n=10, seed_base=8300)


@st.composite
def seed_search_graphs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(STRONG_SAMPLES))
    h = draw(st.sampled_from([3, 5, 7]))
    size = draw(st.integers(1, {3: 5, 5: 3, 7: 2}[h]))
    p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    return random_layered_strong(h, size, p, draw(st.integers(0, 10**6)))


class TestSeedSearch:
    @settings(max_examples=200, deadline=None)
    @given(seed_search_graphs())
    def test_matches_direct_scan_and_budget(self, g):
        if layer_decomposition(g).h % 2 == 0:  # delegated to the even layers
            assert solve_strong_by_layers(g).method == "even-period"
            return
        outcome = solve_strong_by_layers(g)
        status, union, seeds = seed_scan(g)
        assert (outcome.status, outcome.set, outcome.stats.seeds_explored) == (
            status, union, seeds,
        )
        used = outcome.stats.budget_used
        assert solve_strong_by_layers(g, budget=used).stats.budget_used == used
        with pytest.raises(BudgetExceeded):
            solve_strong_by_layers(g, budget=used - 1)


class TestBudget:
    @pytest.mark.parametrize(
        "graph, layers_used, exact_used",
        [
            (gen_cycle(5), 5, 10),
            (cartesian_product(gen_cycle(7), gen_cycle(7)), 59, 49),
            (cartesian_product(gen_cycle(21), gen_cycle(21)), 22509, 441),
            (gen_dhk(DhkSpec(5, 6)).graph, 265, 364),
        ],
        ids=["C5", "C7xC7", "C21xC21", "D5,6"],
    )
    def test_search_budget_used(self, graph, layers_used, exact_used):
        # a seed costs 1 step plus 1 per layer its propagation walks; the
        # per-vertex search costs 1 per assignment below the root
        assert solve_strong_by_layers(graph).stats.budget_used == layers_used
        for solve in (solve_auto, solve_exact):
            assert solve(graph).stats.budget_used == exact_used

    @pytest.mark.parametrize(
        "graph, seeds, used, depth",
        [
            (gen_cycle(5), 2, 10, 1),
            (cartesian_product(gen_cycle(7), gen_cycle(7)), 3, 49, 4),
            (gen_dhk(DhkSpec(5, 6)).graph, 6, 364, 3),
            # the longest trails left when the search ends with no set
            (gen_cycle(1001), 2, 2002, 1),
            (gen_dhk(DhkSpec(7, 7, "ids_free")).graph, 6, 1050, 3),
        ],
        ids=["C5", "C7xC7", "D5,6", "C1001", "D7,7"],
    )
    def test_exact_budget_boundary(self, graph, seeds, used, depth):
        for solve in (solve_exact, solve_auto):
            outcome = solve(graph)
            stats = outcome.stats
            assert (stats.seeds_explored, stats.budget_used, stats.recursion_depth) == (
                seeds, used, depth,
            )
            again = solve(graph, budget=used)
            assert (again.status, again.set, again.stats.budget_used) == (
                outcome.status, outcome.set, used,
            )
            with pytest.raises(BudgetExceeded):
                solve(graph, budget=used - 1)

    def test_brute_budget_used_counts_subsets(self):
        assert brute_force_solve(gen_cycle(3)).stats.budget_used == 8

    def test_constructions_use_no_budget(self):
        for outcome in (
            solve_dag(gen_path(4)),
            solve_auto(gen_path(4)),
            solve_even_period(gen_cycle(4)),
            solve_auto(gen_cycle(4)),
            solve_bipartite(Digraph(2, [(0, 1)])),
        ):
            assert outcome.stats.budget_used == 0

    def test_negative_budget_rejected(self):
        for solve in (solve_exact, solve_strong_by_layers, brute_force_solve):
            with pytest.raises(ValueError, match="at least 0, got -1"):
                solve(gen_cycle(5), budget=-1)

    # one graph per dispatch path of solve_auto: acyclic, even period,
    # symmetric arcs, search
    DISPATCH = [gen_path(3), gen_cycle(4), antiparallel_chain(3), gen_cycle(5)]

    def test_negative_budget_rejected_on_every_path(self):
        for g in self.DISPATCH:
            with pytest.raises(ValueError, match="at least 0, got -1"):
                solve_auto(g, budget=-1)
        for solve in (solve_exact, brute_force_solve):
            with pytest.raises(ValueError, match="at least 0, got -1"):
                solve(gen_path(3), budget=-1)
        # even period: delegated to the construction, which does not search
        with pytest.raises(ValueError, match="at least 0, got -1"):
            solve_strong_by_layers(gen_cycle(4), budget=-1)

    def test_zero_budget(self):
        outcome = solve_exact(gen_path(3), budget=0)
        assert outcome.set == {0, 2} and outcome.stats.budget_used == 0
        with pytest.raises(BudgetExceeded):
            solve_exact(gen_cycle(5), budget=0)
        for g in self.DISPATCH[:3]:
            assert solve_auto(g, budget=0).found
        assert solve_strong_by_layers(gen_cycle(4), budget=0).found
        with pytest.raises(BudgetExceeded):  # legal, but a subset costs one
            brute_force_solve(Digraph(0), budget=0)


def _search_corpus(family):
    if family == "dhk":
        return [
            gen_dhk(DhkSpec(h, k, variant)).graph
            for h in (3, 5, 7)
            for k in range(3, 7)
            for variant in ("ids_free", "with_ids")
        ]
    if family == "torus":
        return [cartesian_product(gen_cycle(k), gen_cycle(k)) for k in range(3, 22, 2)]
    if family == "random":
        return [
            random_digraph(1 + seed % 60, (0.02, 0.05, 0.1, 0.2, 0.4)[seed % 5], seed)
            for seed in range(300)
        ]
    if family == "layered":
        return [random_layered_strong(3, 13, 0.3, seed) for seed in range(12)]
    if family == "wheel-paw":
        return [cartesian_product(gen_wheel(n), gen_paw()) for n in range(3, 10)]
    return [
        gen_cycle(5),
        cartesian_product(gen_cycle(7), gen_cycle(7)),
        cartesian_product(gen_cycle(21), gen_cycle(21)),
        gen_dhk(DhkSpec(5, 6)).graph,
        gen_cycle(1001),
        gen_dhk(DhkSpec(7, 7, "ids_free")).graph,
    ]


@pytest.mark.parametrize(
    "family, digest",
    [
        ("dhk", "6fd11ef33addf783"),
        ("torus", "fddce579f5da7915"),
        ("random", "3eebc81d995ca0a3"),
        ("layered", "486dd92f8abf52cc"),
        ("wheel-paw", "a4cbbf7e01e2d4d5"),
        ("budget", "8048c862f2a7da52"),
    ],
)
def test_search_output_is_pinned(family, digest):
    # the status, set, method and search counters of both solvers, as the
    # search gave them before its propagation left the driver; a reshaped
    # search must reproduce them exactly
    h = hashlib.sha256()
    for g in _search_corpus(family):
        for solve in (solve_auto, solve_exact):
            o = solve(g)
            s = o.stats
            h.update(repr((
                o.status, sorted(o.set or ()), o.method,
                s.seeds_explored, s.budget_used, s.recursion_depth,
            )).encode())
    assert h.hexdigest()[:16] == digest


def _layer_corpus(family):
    if family == "layered":
        return [
            random_layered_strong(h, size, 0.4, seed)
            for h in range(2, 8)
            for size in range(1, 6)
            for seed in range(3)
        ]
    if family == "torus":
        return [cartesian_product(gen_cycle(k), gen_cycle(k)) for k in range(2, 12)]
    if family == "cycle":
        return [gen_cycle(n) for n in range(2, 31)]
    return [
        gen_dhk(DhkSpec(h, k, variant)).graph
        for h in (3, 5, 7)
        for k in (3, 4, 5)
        for variant in ("ids_free", "with_ids")
    ]


def _outcome_or_error(call, *args):
    try:
        return call(*args)
    except ValueError as error:
        return repr(error)


@pytest.mark.parametrize(
    "family, digest",
    [
        ("layered", "098f50361b2b94eb"),
        ("torus", "f026f8b2a471685d"),
        ("cycle", "20a9497442282586"),
        ("dhk", "2d3806d75ce0b642"),
    ],
)
def test_layer_output_is_pinned(family, digest):
    # the layer solvers' answers and counters, the propagation of the first
    # 16 seeds of every layer, the even/odd split and the layers themselves;
    # a regrouped layer map must reproduce them exactly
    h = hashlib.sha256()
    for g in _layer_corpus(family):
        o = solve_strong_by_layers(g)
        s = o.stats
        h.update(repr((
            o.status, sorted(o.set or ()), o.method,
            s.seeds_explored, s.budget_used, s.recursion_depth,
        )).encode())
        layers = layer_decomposition(g)
        h.update(repr((layers.h, layers.layer_of, [sorted(x) for x in layers.layers])).encode())
        for k in range(layers.h):
            members = sorted(layers.layers[k])
            for bits in range(min(16, 1 << len(members))):
                seed = {members[j] for j in range(len(members)) if bits >> j & 1}
                r = propagate_layer_seed(g, layers, k, seed)
                h.update(repr((r.consistent, sorted(r.union or ()), r.failed_step)).encode())
        pair = _outcome_or_error(two_disjoint_ids, g)
        h.update(repr(pair if isinstance(pair, str) else [sorted(x) for x in pair]).encode())
        even = _outcome_or_error(solve_even_period, g)
        h.update(repr(even if isinstance(even, str) else (even.status, sorted(even.set))).encode())
    assert h.hexdigest()[:16] == digest


class TestSolveExact:
    def test_wheel_times_paw_has_none(self):
        g = cartesian_product(gen_wheel(3), gen_paw())
        assert solve_exact(g).status == "none"

    def test_wheel_center(self):
        outcome = solve_exact(gen_wheel(5))
        assert outcome.set == {5} and outcome.method == "exact"

    def test_layered_family_is_free(self):
        g = gen_dhk(DhkSpec(5, 3)).graph
        assert solve_exact(g).status == "none"

    def test_empty_graph(self):
        outcome = solve_exact(Digraph(0))
        assert outcome.found and outcome.set == frozenset()

    def test_matches_brute_on_random_graphs(self):
        from idomlib import random_digraph

        for seed in range(80):
            g = random_digraph(1 + seed % 10, 0.1 + 0.08 * (seed % 5), seed=6000 + seed)
            assert solve_exact(g).status == brute_force_solve(g).status

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceeded):
            solve_exact(gen_cycle(5), budget=1)

    def test_root_conflict_is_an_internal_error(self, monkeypatch):
        # the root propagation is the source closure, which cannot conflict:
        # a conflict there is a bug, never a "none"
        assign = idomlib._search._assign
        calls = []

        def fail_first(*args):
            calls.append(None)
            return len(calls) > 1 and assign(*args)

        monkeypatch.setattr(idomlib._search, "_assign", fail_first)
        for solve in (solve_exact, solve_auto):
            calls.clear()
            with pytest.raises(InternalError, match="source closure"):
                solve(gen_cycle(3))

    def test_set_follows_the_component_order(self):
        # the 2-cycles {0, 1} and {2, 3} are incomparable; the search branches
        # first in the one sccs lists last, which gives {1, 2, 5}, while
        # branching in {0, 1} first would give {0, 3, 5}
        arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 6), (6, 4), (1, 4), (3, 4)]
        g = Digraph(7, arcs)
        assert sccs(g).components == ((4, 5, 6), (0, 1), (2, 3))
        for solve in (solve_exact, solve_auto):
            assert solve(g).set == {1, 2, 5}

    def test_backtracking_returns_to_an_earlier_component(self):
        # failures further down, around the triangle 6 -> 10 -> 7 -> 6, send
        # the search back into the component {0, 1, 3, 4, 8, 9, 11}; each
        # level resumes its scan from the component it branched in
        arcs = [(0, 8), (1, 3), (1, 4), (1, 8), (1, 11), (3, 0), (3, 4), (4, 0), (4, 3),
                (4, 9), (4, 11), (5, 6), (5, 7), (6, 10), (7, 6), (8, 0), (8, 1), (8, 9),
                (9, 1), (9, 3), (9, 4), (9, 5), (9, 8), (9, 11), (10, 7), (11, 1), (11, 3),
                (11, 9)]
        g = Digraph(12, arcs)
        outcome = solve_exact(g)
        assert outcome.set == {2, 4, 5, 8, 10} == brute_force_solve(g).set
        assert outcome.stats.seeds_explored == 9
        assert outcome.stats.recursion_depth == 4

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        digraphs(max_n=12),
        st.builds(
            random_digraph,
            st.integers(1, 12),
            st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.45]),
            st.integers(0, 10**6),
        ),
    ))
    def test_agrees_with_brute(self, g):
        expected = brute_force_solve(g).status
        for solve in (solve_exact, solve_auto):
            outcome = solve(g)
            assert outcome.status == expected
            assert outcome.set is None or is_ids(g, outcome.set).ids

    @pytest.mark.parametrize(
        "args, status",
        [
            ((30, 0.1, 7), "none"),
            ((30, 0.15, 3), "found"),
            ((40, 0.08, 1), "found"),
            ((200, 0.02, 1), "none"),
        ],
    )
    def test_aperiodic_instances_within_budget(self, args, status):
        # each has an aperiodic component of 27 to 194 vertices, which the
        # layer-seed search would scan as 2^size seeds; the verdicts are
        # those of an integer-programming model
        g = random_digraph(*args)
        assert period(g) == 1
        for solve in (solve_exact, solve_auto):
            outcome = solve(g, budget=2 * 10**6)
            assert outcome.status == status and outcome.method == "exact"


class TestBruteForce:
    def test_triangle(self):
        assert brute_force_solve(gen_cycle(3)).status == "none"

    def test_single_vertex(self):
        assert brute_force_solve(Digraph(1)).set == {0}

    def test_paw(self):
        outcome = brute_force_solve(gen_paw())
        assert outcome.set == {0, 1} and outcome.method == "brute"

    def test_subsets_counter(self):
        assert brute_force_solve(gen_cycle(3)).stats.subsets_explored == 8

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_solve(Digraph(21))

    def test_enumeration_matches_oracle(self):
        from idomlib import random_digraph

        for seed in range(25):
            g = random_digraph(2 + seed % 7, 0.3, seed=6500 + seed)
            assert set(enumerate_ids_brute(g)) == all_ids_by_enumeration(g)


class TestBruteParameters:
    def test_min_ids_sizes(self):
        assert min_ids_size_brute(gen_cycle(4)) == 2
        assert min_ids_size_brute(gen_cycle(3)) is None
        torus = cartesian_product(gen_cycle(3), gen_cycle(3))
        assert min_ids_size_brute(torus) == 3

    def test_min_dom_sizes(self):
        assert min_dom_size_brute(OUT_STAR) == 1
        assert min_dom_size_brute(gen_cycle(3)) == 2
        assert min_dom_size_brute(gen_cycle(4)) == 2

    def test_idomatic(self):
        assert idomatic_brute(gen_cycle(3)) == 0
        assert idomatic_brute(gen_cycle(4)) == 2
        assert idomatic_brute(gen_cycle(2)) == 2

    def test_caps(self):
        with pytest.raises(CapExceeded):
            min_ids_size_brute(Digraph(25))
        with pytest.raises(CapExceeded):
            idomatic_brute(Digraph(15))

    @pytest.mark.parametrize(
        "oracle, graph, steps, value",
        [
            (min_ids_size_brute, gen_cycle(3), 8, None),
            (min_dom_size_brute, gen_cycle(3), 8, 2),
            # 16 subsets, then 4 extensions of the family {0,2}, {1,3}
            (idomatic_brute, gen_cycle(4), 20, 2),
        ],
        ids=["i", "gamma", "idomatic"],
    )
    def test_budget(self, oracle, graph, steps, value):
        # a step per subset scanned, as in brute_force_solve; the size
        # scans charge every subset before they start
        assert oracle(graph, budget=steps) == value
        with pytest.raises(BudgetExceeded, match=f"budget of {steps - 1} steps"):
            oracle(graph, budget=steps - 1)
        with pytest.raises(ValueError, match="at least 0, got -1"):
            oracle(graph, budget=-1)

    def test_budget_bounds_a_lifted_cap(self):
        # 2^26 subsets: without a budget this scan would not end in time
        g = random_digraph(26, 0.1, seed=1)
        for oracle in (min_ids_size_brute, min_dom_size_brute, idomatic_brute):
            with pytest.raises(BudgetExceeded):
                oracle(g, cap=30, budget=1000)

    @pytest.mark.parametrize(
        "oracle",
        [brute_force_solve, enumerate_ids_brute, min_ids_size_brute,
         min_dom_size_brute, idomatic_brute],
    )
    def test_negative_cap_is_a_value_error(self, oracle):
        # a usage error like a negative budget, not a graph over the cap
        for graph in (Digraph(0), gen_cycle(3)):
            with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
                oracle(graph, cap=-1)
        oracle(Digraph(0), cap=0)


class TestSolveAuto:
    def test_dag_dispatch(self):
        assert solve_auto(gen_path(5)).method == "dag-greedy"

    def test_even_dispatch(self):
        assert solve_auto(gen_cycle(6)).method == "even-period"

    def test_exact_dispatch(self):
        outcome = solve_auto(gen_cycle(5))
        assert outcome.method == "exact" and outcome.status == "none"

    def test_agrees_with_exact(self):
        from idomlib import random_digraph

        for seed in range(40):
            g = random_digraph(1 + seed % 9, 0.25, seed=7000 + seed)
            assert solve_auto(g).status == solve_exact(g).status

    def test_symmetric_arc_falls_back_to_the_search(self):
        # a triangle with a 2-cycle on vertex 0 has period 1; every vertex
        # has an asymmetric in-arc, so the closure cannot start and the
        # search decides it, unless one of the triangle's arcs is doubled
        arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (1, 3)]
        g = Digraph(4, arcs)
        outcome = solve_auto(g)
        assert outcome.method == "exact"
        assert outcome.status == brute_force_solve(g).status
        outcome = solve_auto(Digraph(4, arcs + [(1, 0)]))
        assert outcome.method == "symmetric-arc" and outcome.found


class TestLinearPathsReadNoArcList:
    """``solve_auto`` on acyclic and even-period graphs never scans
    ``graph.arcs``: analysis, construction and verification all walk the
    adjacency lists."""

    @pytest.mark.parametrize(
        "graph, method",
        [
            (gen_path(50), "dag-greedy"),
            (random_dag(60, 0.1, seed=3), "dag-greedy"),
            (gen_cycle(40), "even-period"),
            (cartesian_product(gen_cycle(6), gen_cycle(8)), "even-period"),
            (random_layered_strong(4, 10, 0.2, seed=5), "even-period"),
        ],
        ids=["path", "random-dag", "C40", "C6xC8", "layered-4x10"],
    )
    def test_solve_auto(self, graph, method):
        expected = solve_auto(graph)
        outcome = solve_auto(without_arc_scans(Digraph(graph.n, graph.arcs)))
        assert (outcome.status, outcome.set, outcome.method) == (
            expected.status, expected.set, method,
        )


class TestKernelPerfect:
    """Digraphs that always have a set: every cycle has a symmetric arc
    (Duchet 1980), or there is no odd cycle (Richardson 1953)."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_arc_digraphs())
    def test_symmetric_arc_agrees_with_brute(self, g):
        outcome = solve_auto(g)
        assert outcome.found and is_ids(g, outcome.set).ids
        assert brute_force_solve(g).found
        h = period(g)
        if h == 0:
            assert outcome.method == "dag-greedy"
        elif h % 2 == 0 and is_strongly_connected(g):
            assert outcome.method == "even-period"
        else:  # e.g. every doubled undirected graph with an odd cycle
            assert outcome.method == "symmetric-arc"
        assert outcome.stats.seeds_explored == outcome.stats.budget_used == 0

    @settings(max_examples=250, deadline=None)
    @given(odd_cycle_free_digraphs())
    def test_odd_cycle_free_never_backtracks(self, g):
        # on an even-period component the empty seed is always consistent,
        # so every level of the search succeeds with its first seed
        assert solve_auto(g).found
        outcome = solve_exact(g)
        assert outcome.found
        assert outcome.stats.seeds_explored == outcome.stats.recursion_depth - 1

    def test_odd_cycle_free_seeds_can_exceed_the_sccs(self):
        # two 2-cycles {2, 3} and {4, 5} joined into one component through
        # 6 and 7, both of which the 2-cycle {0, 1} dominates: once they are
        # out, each 2-cycle takes its own decision, so 2 SCCs take 3 seeds
        arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (3, 6), (6, 4), (5, 7),
                (7, 2), (0, 6), (0, 7), (1, 6), (1, 7)]
        g = Digraph(8, arcs)
        outcome = solve_exact(g)
        assert len(idomlib.structure.sccs(g).components) == 2
        assert outcome.found and outcome.stats.seeds_explored == 3
        assert outcome.stats.recursion_depth == 4

    def test_out_vertices_are_resolved_first(self):
        # one component with no odd cycle; once 0 is in, its in-neighbor 4
        # is out and undominated. Branching on 1 next (fewest options, lowest
        # id) would fail; an in-neighbor of 4 stays on 0's side
        arcs = [(0, 2), (1, 3), (1, 5), (2, 5), (3, 4), (4, 0), (5, 1), (5, 2), (5, 4)]
        outcome = solve_exact(Digraph(6, arcs))
        assert outcome.set == {0, 3, 5}
        assert outcome.stats.seeds_explored == outcome.stats.recursion_depth - 1 == 2


class TestOneStructurePass:
    @pytest.mark.parametrize(
        "graph, calls_expected",
        [
            (gen_cycle(10), 1),
            (cartesian_product(gen_cycle(5), gen_cycle(5)), 1),
            # the peel finds it acyclic, and no SCCs are computed
            (random_dag(40, 0.1, seed=3), 0),
            (antiparallel_chain(50), 1),
        ],
        ids=["cycle", "odd-torus", "dag", "chain"],
    )
    def test_solve_auto_computes_sccs_once(self, graph, calls_expected, monkeypatch):
        calls = []
        real = idomlib.structure.sccs
        monkeypatch.setattr(
            idomlib.structure, "sccs", lambda g: calls.append(g) or real(g)
        )
        assert solve_auto(graph).found
        assert len(calls) == calls_expected

    @pytest.mark.parametrize(
        "graph",
        [gen_path(50), random_dag(40, 0.1, seed=3), Digraph(1)],
        ids=["path", "dag", "single"],
    )
    def test_acyclic_solves_compute_no_sccs(self, graph, monkeypatch):
        calls = []
        for name in ("sccs", "_tarjan"):
            real = getattr(idomlib.structure, name)
            monkeypatch.setattr(
                idomlib.structure, name, lambda g, real=real: calls.append(g) or real(g)
            )
        for solve in (solve_auto, solve_dag):
            assert solve(graph).method == "dag-greedy"
        assert calls == []

    @pytest.mark.parametrize("solve", [solve_strong_by_layers, scc_period])
    def test_refusing_a_path_computes_no_sccs(self, solve, monkeypatch):
        calls = []
        for name in ("sccs", "_tarjan"):
            real = getattr(idomlib.structure, name)
            monkeypatch.setattr(
                idomlib.structure, name, lambda g, real=real: calls.append(g) or real(g)
            )
        with pytest.raises(ValueError, match="not strongly connected"):
            solve(gen_path(50))
        assert calls == []

    @pytest.mark.parametrize(
        "graph",
        [
            random_dag(40, 0.1, seed=3),
            gen_cycle(7),
            cartesian_product(gen_cycle(5), gen_cycle(5)),
            gen_dhk(DhkSpec(5, 4)).graph,
            antiparallel_chain(50),
            cartesian_product(gen_cycle(4), gen_cycle(6)),
        ],
        ids=["dag", "odd-cycle", "odd-torus", "D5,4", "chain", "even-torus"],
    )
    def test_solve_auto_reads_no_layers(self, graph, monkeypatch):
        def unread(analysis):
            raise AssertionError("solve_auto read the layers")

        monkeypatch.setattr(idomlib.structure._Analysis, "layers", property(unread))
        assert solve_auto(graph).method in {"dag-greedy", "even-period", "symmetric-arc", "exact"}


class TestElapsed:
    @pytest.mark.parametrize(
        "solve, graph, method",
        [
            (solve_auto, gen_path(3), "dag-greedy"),
            (solve_auto, gen_cycle(4), "even-period"),
            (solve_auto, antiparallel_chain(3), "symmetric-arc"),
            # period 1: the symmetric-arc closure is tried and fails
            (solve_auto, Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (1, 3)]), "exact"),
            (solve_auto, gen_cycle(5), "exact"),
            (solve_strong_by_layers, gen_cycle(4), "even-period"),
            (solve_strong_by_layers, gen_cycle(5), "layers"),
            (solve_dag, gen_path(3), "dag-greedy"),
            (solve_even_period, gen_cycle(4), "even-period"),
        ],
    )
    def test_elapsed_covers_the_structure_pass(self, solve, graph, method, monkeypatch):
        real = idomlib.solvers._analyze

        def slow(g):
            time.sleep(0.03)
            return real(g)

        monkeypatch.setattr(idomlib.solvers, "_analyze", slow)
        outcome = solve(graph)
        assert outcome.method == method
        assert outcome.stats.elapsed >= 0.03


class TestDeepChains:
    def test_1200_pair_chain(self):
        g = antiparallel_chain(1200)
        outcome = solve_exact(g)
        assert outcome.found and outcome.method == "exact"
        assert is_ids(g, outcome.set).ids
        assert outcome.stats.recursion_depth == 601
        outcome = solve_auto(g)
        assert outcome.found and outcome.method == "symmetric-arc"
        assert is_ids(g, outcome.set).ids
        assert outcome.stats.seeds_explored == 0


class TestMemory:
    def test_odd_cycle_search_memory_is_linear(self):
        # one vertex per layer: component-wide seed masks would take ~n^2/8 bytes
        g = gen_cycle(8001)
        tracemalloc.start()
        try:
            outcome = solve_auto(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status == "none"
        assert peak < 5_000_000

    def test_layered_none_search_memory_is_bounded(self):
        # 32,768 seeds over 99,558 steps: a table kept per seed would take
        # over 1 MB, while each seed's walk is dropped before the next one
        g = random_layered_strong(3, 15, 0.3, 0)
        tracemalloc.start()
        try:
            outcome = solve_strong_by_layers(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status == "none"
        assert outcome.stats.seeds_explored == 32768
        assert outcome.stats.budget_used == 99558
        assert peak < 500_000


class TestVerificationSurvivesOptimize:
    def test_invalid_set_rejected_under_python_O(self):
        # a closure that takes two adjacent vertices makes solve_dag and the
        # symmetric-arc branch of solve_auto return an invalid set, and so
        # does a search that answers two adjacent vertices; the verification
        # must still catch them
        script = textwrap.dedent(
            """
            import idomlib.solvers as solvers
            from idomlib import Digraph, gen_cycle, gen_path

            real = solvers._source_closure
            solvers._source_closure = lambda g: ([0, 1], *real(g)[1:])
            try:
                solvers.solve_dag(gen_path(3))
            except solvers.InternalError as exc:
                print("rejected", __debug__, exc)

            solvers._kernel = lambda g: [0, 1]
            try:
                solvers.solve_auto(Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (2, 0)]))
            except solvers.InternalError as exc:
                print("symmetric-arc rejected", __debug__, exc)

            solvers._exact = lambda graph, comps, search: [0, 1]
            try:
                solvers.solve_exact(gen_cycle(5))
            except solvers.InternalError as exc:
                print("search rejected", __debug__, exc)

            import idomlib.generators as generators
            generators.is_ids = lambda graph, members: solvers.is_ids(graph, {0, 1})
            try:
                generators.cn_box_cn_ids(3)
            except generators.GenerationError as exc:
                print("generation rejected:", exc)
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("rejected False")
        assert "symmetric-arc rejected False method 'symmetric-arc'" in result.stdout
        assert "search rejected False method 'exact'" in result.stdout
        assert "generation rejected:" in result.stdout

    def test_no_assert_statements_in_the_package(self):
        # python -O strips assert statements, so no check may rely on one
        package = os.path.dirname(idomlib.solvers.__file__)
        found = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name)) as f:
                    tree = ast.parse(f.read(), name)
                found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
        assert found == []


class TestStructuralProperties:
    def test_found_sets_meet_every_layer_properly_when_period_odd(self):
        instances = [
            cartesian_product(gen_cycle(3), gen_cycle(3)),
            gen_dhk(DhkSpec(3, 3, "with_ids")).graph,
            gen_dhk(DhkSpec(5, 3, "with_ids")).graph,
        ]
        checked = 0
        for g in instances:
            layers = layer_decomposition(g)
            assert layers.h % 2 == 1 and layers.h > 1
            outcome = solve_strong_by_layers(g)
            assert outcome.found
            for layer in layers.layers:
                inside = layer & outcome.set
                assert inside and inside != layer
            checked += 1
        assert checked == len(instances)

    def test_even_period_instances_have_idomatic_at_least_two(self):
        square = double_edges(
            UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        )
        for g in [gen_cycle(2), gen_cycle(4), gen_cycle(6), square,
                  random_layered_strong(2, 3, 0.5, seed=2)]:
            assert idomatic_brute(g) >= 2
