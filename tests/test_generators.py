import math
import random
import time
import types

import pytest

from idomlib import (
    Digraph,
    DhkSpec,
    GenerationError,
    UndirectedGraph,
    brute_force_solve,
    cartesian_product,
    cn_box_cn_ids,
    cycle_gcd_oracle,
    double_edges,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    is_dominating,
    is_independent,
    is_ids,
    is_strongly_connected,
    layer_decomposition,
    period,
    random_dag,
    random_digraph,
    random_layered_strong,
    random_oriented_bipartite,
    scc_period,
    sccs,
    solve_auto,
    solve_dag,
    solve_exact,
    solve_strong_by_layers,
)
from idomlib import generators
from idomlib.cli import main
from idomlib.digraph import _MAX_ARCS, _MAX_VERTICES, _check_vertices
from idomlib.generators import _CHUNK, _MAX_PAIRS, _hits, _seeded

from helpers import (
    dominating_double_loop,
    independent_double_loop,
    random_dag_by_calls,
    random_digraph_by_calls,
    random_layered_strong_by_calls,
)


class TestBasicFamilies:
    def test_cycle(self):
        assert gen_cycle(3).arcs == frozenset({(0, 1), (1, 2), (2, 0)})
        assert scc_period(gen_cycle(2)) == 2
        assert scc_period(gen_cycle(4)) == 4
        with pytest.raises(ValueError):
            gen_cycle(1)

    def test_path(self):
        assert gen_path(1).m == 0
        assert period(gen_path(3)) == 0
        assert solve_dag(gen_path(5)).set == {0, 2, 4}

    def test_wheel(self):
        w3 = gen_wheel(3)
        assert w3.n == 4 and w3.m == 6
        assert w3.arcs == frozenset(
            {(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)}
        )
        for n in (3, 4, 5, 7):
            assert is_dominating(gen_wheel(n), {n})[0]
        assert solve_exact(gen_wheel(5)).set == {5}
        with pytest.raises(ValueError):
            gen_wheel(2)

    def test_paw(self):
        paw = gen_paw()
        assert paw.m == 4
        assert brute_force_solve(paw).set == {0, 1}
        assert set(sccs(paw).components) == {(0,), (1, 2, 3)}


class TestDhkFamily:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DhkSpec(4, 2)
        with pytest.raises(ValueError):
            DhkSpec(3, 1)
        with pytest.raises(ValueError):
            DhkSpec(3, 2, variant="nope")

    def test_canonical_5_3_shape(self):
        built = gen_dhk(DhkSpec(5, 3))
        assert built.graph.n == 24
        assert [len(layer) for layer in built.layers] == [3, 6, 6, 3, 6]
        assert built.strongly_connected and built.period == 5

    def test_layer_sizes_general(self):
        built = gen_dhk(DhkSpec(7, 3))
        subsets = 2**3 - 2
        assert [len(layer) for layer in built.layers] == [3, subsets, subsets, 3, subsets, 3, subsets]

    def test_arcs_respect_layering(self):
        for spec in (DhkSpec(3, 3), DhkSpec(5, 2, "with_ids"), DhkSpec(7, 3, "with_ids")):
            built = gen_dhk(spec, strict=False)
            layer_of = {}
            for i, layer in enumerate(built.layers):
                for v in layer:
                    layer_of[v] = i
            h = len(built.layers)
            for u, v in built.graph.arcs:
                assert layer_of[v] == (layer_of[u] + 1) % h

    def test_eq_transition_pairs_equal_subsets(self):
        built = gen_dhk(DhkSpec(5, 4))
        first, second = built.layers[1], built.layers[2]
        between = {(u, v) for u, v in built.graph.arcs if u in first}
        assert between == set(zip(first, second))

    def test_smallest_free_case_is_two_triangles(self):
        built = gen_dhk(DhkSpec(3, 2), strict=False)
        assert built.graph.n == 6 and built.graph.m == 6
        assert not built.strongly_connected and built.period == 3
        assert len(sccs(built.graph).components) == 2
        assert brute_force_solve(built.graph).status == "none"

    def test_strict_raises_on_degenerate_cases(self):
        with pytest.raises(GenerationError, match="degenerated"):
            gen_dhk(DhkSpec(3, 2))
        with pytest.raises(GenerationError, match="degenerated"):
            gen_dhk(DhkSpec(3, 2, "with_ids"))

    # the paper's claim: at every odd period, D_{h,k} has a solution-free
    # variant and one with a solution, so the period alone decides nothing
    PAPER_TABLE = [(h, k) for h in (3, 5, 7, 9) for k in range(3, 8)]

    def test_text_rules_certify_free_variants(self):
        for h, k in self.PAPER_TABLE:
            built = gen_dhk(DhkSpec(h, k))
            assert built.strongly_connected and built.period == h
            for solve in (solve_auto, solve_exact, solve_strong_by_layers):
                assert solve(built.graph).status == "none", (h, k, solve.__name__)

    def test_with_ids_variants_have_solutions(self):
        for h, k in self.PAPER_TABLE:
            built = gen_dhk(DhkSpec(h, k, "with_ids"))
            assert built.strongly_connected and built.period == h
            for solve in (solve_auto, solve_exact, solve_strong_by_layers):
                assert solve(built.graph).status == "found", (h, k, solve.__name__)

    def test_one_arc_rule_reading(self, capsys):
        with pytest.raises(TypeError):
            DhkSpec(3, 4, rules="text")
        with pytest.raises(SystemExit) as exc:
            main(["gen", "dhk", "3", "4", "--rules", "text"])
        assert exc.value.code == 2
        assert "--rules" in capsys.readouterr().err


class TestCartesianProduct:
    def test_arc_count_formula(self):
        g = cartesian_product(gen_cycle(3), gen_cycle(3))
        assert g.n == 9 and g.m == 18
        w = cartesian_product(gen_wheel(3), gen_paw())
        assert w.n == 16 and w.m == 6 * 4 + 4 * 4

    def test_identity_factor(self):
        h = random_digraph(5, 0.4, seed=17)
        assert cartesian_product(Digraph(1), h) == h

    def test_period_of_cycle_products(self):
        import math

        for p in (2, 3, 4):
            for q in (2, 3, 4):
                product = cartesian_product(gen_cycle(p), gen_cycle(q))
                oracle = cycle_gcd_oracle(product, max_n=16)
                assert period(product) == oracle == math.gcd(p, q)

    def test_arc_count_on_random_pairs(self):
        for seed in range(10):
            g = random_digraph(4, 0.4, seed=seed)
            h = random_digraph(5, 0.3, seed=seed + 50)
            p = cartesian_product(g, h)
            assert p.m == g.m * h.n + g.n * h.m

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            cartesian_product(Digraph(1000), Digraph(1000))


class TestDoubleEdges:
    def test_triangle_has_period_one(self):
        tri = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        doubled = double_edges(tri)
        assert doubled.m == 6
        assert cycle_gcd_oracle(doubled) == 1

    def test_single_edge(self):
        doubled = double_edges(UndirectedGraph.from_edges(2, [(0, 1)]))
        assert doubled == gen_cycle(2)

    def test_empty(self):
        assert double_edges(UndirectedGraph.from_edges(3, [])).m == 0

    def test_preserves_independence_and_domination(self):
        import random

        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            undirected = UndirectedGraph.from_edges(n, edges)
            doubled = double_edges(undirected)
            adj = [set() for _ in range(n)]
            for u, v in undirected.edges:
                adj[u].add(v)
                adj[v].add(u)
            for mask in range(1 << n):
                s = {v for v in range(n) if mask >> v & 1}
                undirected_independent = not any(w in s for v in s for w in adj[v])
                undirected_dominating = all(
                    v in s or adj[v] & s for v in range(n)
                )
                assert undirected_independent == is_independent(doubled, s)[0]
                assert undirected_dominating == is_dominating(doubled, s)[0]


class TestTorusConstruction:
    def test_smallest_case_is_diagonal(self):
        assert cn_box_cn_ids(3) == {0, 4, 8}

    @pytest.mark.parametrize("n,size", [(3, 3), (5, 10), (7, 21), (9, 36)])
    def test_sizes_and_validity(self, n, size):
        members = cn_box_cn_ids(n)
        assert len(members) == size
        product = cartesian_product(gen_cycle(n), gen_cycle(n))
        assert is_ids(product, members).ids

    @pytest.mark.parametrize("n", [3, 5])
    def test_inclusive_column_range_breaks_independence(self, n):
        # one extra column step per row wraps onto an adjacent column
        literal = frozenset(
            i * n + (i + 2 * j) % n for i in range(n) for j in range(n // 2 + 1)
        )
        product = cartesian_product(gen_cycle(n), gen_cycle(n))
        report = is_ids(product, literal)
        assert not report.independent and report.independence_violations

    def test_rejects_even_or_tiny(self):
        with pytest.raises(ValueError):
            cn_box_cn_ids(4)
        with pytest.raises(ValueError):
            cn_box_cn_ids(1)


class TestRandomGenerators:
    def test_deterministic_by_seed(self):
        assert random_dag(10, 0.3, seed=1) == random_dag(10, 0.3, seed=1)
        assert random_digraph(9, 0.4, seed=2) == random_digraph(9, 0.4, seed=2)
        assert random_oriented_bipartite(4, 4, 0.4, seed=3) == random_oriented_bipartite(
            4, 4, 0.4, seed=3
        )
        assert random_layered_strong(4, 3, 0.5, seed=7) == random_layered_strong(
            4, 3, 0.5, seed=7
        )

    def test_seeded_streams_are_pinned(self):
        assert sorted(random_dag(6, 0.4, seed=1).arcs) == [(0, 4), (2, 1), (3, 5), (5, 0)]
        assert sorted(random_digraph(5, 0.3, seed=1).arcs) == [
            (0, 1), (0, 4), (2, 0), (2, 1), (3, 1), (4, 0), (4, 3)
        ]
        assert sorted(random_oriented_bipartite(3, 3, 0.5, seed=1).arcs) == [
            (0, 5), (1, 5), (2, 5), (3, 0), (3, 1), (4, 2)
        ]
        assert sorted(random_layered_strong(3, 2, 0.5, seed=1).arcs) == [
            (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 0), (4, 1), (5, 1)
        ]

    def test_arc_probability_bounds_are_legal(self):
        assert [random_digraph(4, p, seed=1).m for p in (0, 1)] == [0, 12]
        assert [random_dag(4, p, seed=1).m for p in (0, 1)] == [0, 6]
        assert [random_oriented_bipartite(2, 2, p, seed=1).m for p in (0, 1)] == [0, 4]

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
    def test_arc_probability_outside_unit_interval(self, p):
        builds = [
            lambda: random_dag(5, p, seed=1),
            lambda: random_digraph(5, p, seed=1),
            lambda: random_oriented_bipartite(2, 3, p, seed=1),
            lambda: random_layered_strong(3, 2, p, seed=1),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=r"arc probability must be in \[0, 1\]"):
                build()

    def test_dag_is_acyclic(self):
        for seed in range(20):
            assert period(random_dag(12, 0.35, seed=seed)) == 0

    def test_bipartite_is_oriented_and_cross_only(self):
        for seed in range(20):
            g = random_oriented_bipartite(4, 4, 0.4, seed=seed)
            for u, v in g.arcs:
                assert (v, u) not in g.arcs
                assert (u < 4) != (v < 4)

    def test_layered_hits_exact_period(self):
        assert scc_period(random_layered_strong(4, 3, 0.5, seed=7)) == 4
        for h in (2, 3, 5, 6):
            g = random_layered_strong(h, 2, 0.4, seed=100 + h)
            assert is_strongly_connected(g)
            assert scc_period(g) == h

    def test_layered_resampling_can_exhaust(self):
        # with no extra arcs the spanning cycle forces period h*size
        with pytest.raises(GenerationError, match="could not hit"):
            random_layered_strong(2, 2, 0.0, seed=1)

    def test_double_loop_verifiers_agree_on_random_instances(self):
        for seed in range(10):
            g = random_digraph(7, 0.3, seed=8800 + seed)
            for mask in range(0, 1 << g.n, 5):
                s = {v for v in range(g.n) if mask >> v & 1}
                assert is_independent(g, s)[0] == independent_double_loop(g, s)
                assert is_dominating(g, s)[0] == dominating_double_loop(g, s)


# Probabilities at the edges of the bulk test: the ends of [0, 1], one step
# inside them, limits on a top-byte boundary (1/256, 255/256) and inside a
# top byte (3/512, 0.3), and the sparse values of the scale ladder.
EDGE_PROBS = [
    0, 1, 2**-53, 1 - 2**-53, 1 / 256, 255 / 256, 3 / 512, 0.3, 2 / 250, 2 / 1000, 3 / 8000
]


@pytest.fixture
def streams(monkeypatch):
    """The streams the generators draw from, in the order they are made."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(generators, "random", types.SimpleNamespace(Random=Recorded))
    return made


class TestBulkDraws:
    """``_hits`` draws the pair tests in bulk; every graph and every stream
    must stay what one ``random()`` call per pair gives."""

    @pytest.mark.parametrize("p", EDGE_PROBS)
    def test_hits_match_per_call_tests(self, p):
        for count in (0, 1, 2, 3, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            for seed in (0, 1):
                bulk, calls = random.Random(seed), random.Random(seed)
                expected = [t for t in range(count) if calls.random() < p]
                assert list(_hits(bulk, count, p)) == expected, (count, seed)
                assert bulk.getstate() == calls.getstate(), (count, seed)

    def test_top_byte_ties_go_both_ways(self):
        # 0.3 * 2^53 lies inside top byte 76: a tie needs the whole draw
        p, count = 0.3, 3 * _CHUNK
        calls = random.Random(5)
        draws = [calls.random() for _ in range(count)]
        ties = [x < p for x in draws if int(x * 2**53) >> 45 == 76]
        assert True in ties and False in ties
        bulk = random.Random(5)
        assert list(_hits(bulk, count, p)) == [t for t, x in enumerate(draws) if x < p]
        assert bulk.getstate() == calls.getstate()

    def test_limits_at_and_beside_a_draw(self):
        # p equal to a draw, or one float away from it, puts the limit
        # exactly at that draw's X: the test is strict and rounds p up
        calls = random.Random(9)
        draws = [calls.random() for _ in range(500)]
        for x in draws[:40]:
            for p in (x, math.nextafter(x, 0), math.nextafter(x, 1)):
                bulk = random.Random(9)
                expected = [t for t, y in enumerate(draws) if y < p]
                assert list(_hits(bulk, len(draws), p)) == expected, p

    def test_generators_match_per_call_reference(self, streams):
        for n in (1, 2, 3, 7, 30):
            for p in [*EDGE_PROBS, min(1, 2 / n)]:
                for seed in range(4):
                    for build, reference in (
                        (random_dag, random_dag_by_calls),
                        (random_digraph, random_digraph_by_calls),
                    ):
                        graph, rng = reference(n, p, seed)
                        assert build(n, p, seed) == graph, (build.__name__, n, p, seed)
                        assert streams[-1].getstate() == rng.getstate()

    def test_layered_matches_per_call_reference(self, streams):
        for h, size in ((2, 2), (3, 3), (4, 5), (3, 13)):
            for p in (0.3, 0.5, 2 / size, 1 / 256, 255 / 256, 1):
                for seed in range(4):
                    graph, rng, _ = random_layered_strong_by_calls(h, size, p, seed)
                    try:
                        built = random_layered_strong(h, size, p, seed)
                    except GenerationError:  # every sample missed period h
                        built = None
                    assert built == graph, (h, size, p, seed)
                    assert streams[-1].getstate() == rng.getstate()

    def test_layered_resampling_draws_the_same_samples(self, streams):
        graph, rng, samples = random_layered_strong_by_calls(2, 3, 0.1, 0)
        assert samples == 3
        assert random_layered_strong(2, 3, 0.1, 0) == graph
        assert streams[-1].getstate() == rng.getstate()
        # all 64 samples of an exhausted call
        graph, rng, samples = random_layered_strong_by_calls(2, 2, 0.0, 1)
        assert graph is None
        with pytest.raises(GenerationError, match="could not hit"):
            random_layered_strong(2, 2, 0.0, 1)
        assert streams[-1].getstate() == rng.getstate()

    def test_scale_ladder_instances_match(self, streams):
        for n in (250, 500, 1000):
            size = n // 4
            for seed in (3, 4):
                graph, rng = random_dag_by_calls(n, 2 / n, seed)
                assert random_dag(n, 2 / n, seed) == graph
                assert streams[-1].getstate() == rng.getstate()
                graph, rng, _ = random_layered_strong_by_calls(4, size, 2 / size, seed)
                assert random_layered_strong(4, size, 2 / size, seed) == graph
                assert streams[-1].getstate() == rng.getstate()

    def test_chunk_boundaries_split_no_pair(self, monkeypatch, streams):
        # chunks of 1, 7 and 8 draws: every hit and tie may sit at an edge
        for chunk in (1, 7, 8):
            monkeypatch.setattr(generators, "_CHUNK", chunk)
            for p in (0.3, 255 / 256, 2 / 20):
                for seed in range(3):
                    graph, rng = random_digraph_by_calls(20, p, seed)
                    assert random_digraph(20, p, seed) == graph, (chunk, p, seed)
                    assert streams[-1].getstate() == rng.getstate()
                    graph, rng = random_dag_by_calls(20, p, seed)
                    assert random_dag(20, p, seed) == graph, (chunk, p, seed)
                    assert streams[-1].getstate() == rng.getstate()


def complete_digraph(n, arcs=None):
    """The complete digraph on n vertices, or its first ``arcs`` arcs."""
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v][:arcs])


class TestSizeCaps:
    """One vertex cap for every graph, one cap on the pair tests of a random
    graph and one on the arcs of a generated graph, all checked before
    anything is drawn or allocated."""

    def test_vertex_cap_boundary(self):
        _check_vertices(_MAX_VERTICES)
        with pytest.raises(ValueError, match="exceeds the vertex cap of 200000"):
            _check_vertices(_MAX_VERTICES + 1)
        with pytest.raises(ValueError, match="graph on 200001 vertices exceeds the vertex cap"):
            Digraph(_MAX_VERTICES + 1)

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: gen_cycle(300_000_000), "cycle on 300000000 vertices"),
            (lambda: gen_path(_MAX_VERTICES + 1), "path on 200001 vertices"),
            (lambda: gen_wheel(_MAX_VERTICES), "wheel on 200001 vertices"),
            (lambda: cn_box_cn_ids(449), "product on 201601 vertices"),
            (lambda: random_oriented_bipartite(1, 10**8, 0.5, 1), "graph on 100000001 vertices"),
            (lambda: random_layered_strong(10**6, 1, 0.5, 1), "graph on 1000000 vertices"),
        ],
    )
    def test_generators_refuse_too_many_vertices(self, build, what):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{what} exceeds the vertex cap"):
            build()
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "build, pairs",
        [
            (lambda: random_digraph(200_000, 0.00001, 1), 200_000 * 199_999),
            (lambda: random_dag(100_000, 0.00002, 1), 100_000 * 99_999 // 2),
            (lambda: random_digraph(10_001, 0.5, 1), 10_001 * 10_000),
            (lambda: random_oriented_bipartite(10_001, 10_000, 0.5, 1), 10_001 * 10_000),
            # every one of the 64 samples counts
            (lambda: random_layered_strong(4, 1000, 0.001, 1), 64 * 4 * 1000 * 1000),
        ],
    )
    def test_generators_refuse_too_many_pair_tests(self, build, pairs):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"up to {pairs} pair tests exceed the cap of 100000000"):
            build()
        assert time.perf_counter() - start < 1

    def test_pair_cap_boundary(self):
        assert _seeded(1, _MAX_PAIRS, 0.5, 1).getstate() == random.Random(1).getstate()
        with pytest.raises(ValueError, match="pair tests exceed"):
            _seeded(1, _MAX_PAIRS + 1, 0.5, 1)
        # random_digraph(8000, .) stays legal
        _seeded(8000, 8000 * 7999, 3 / 8000, 1)

    @pytest.mark.parametrize(
        "build, arcs",
        [
            (lambda: random_digraph(8000, 1.0, 1), 8000 * 7999),
            (lambda: random_dag(8000, 0.5, 1), 8000 * 7999 // 4),
            (lambda: random_oriented_bipartite(5000, 4000, 0.75, 1), 15_000_000),
        ],
    )
    def test_generators_refuse_too_many_expected_arcs(self, build, arcs):
        # random_layered_strong cannot reach the arc cap: the pair cap
        # counts all 64 samples, so one sample has at most 1.5625 * 10^6 pairs
        start = time.perf_counter()
        with pytest.raises(
            ValueError, match=f"an expected {arcs} arcs exceed the arc cap of 10000000 per graph"
        ):
            build()
        assert time.perf_counter() - start < 1

    def test_arc_cap_boundary(self):
        pairs = 8000 * 7999
        _seeded(8000, pairs, _MAX_ARCS / pairs, 1, pairs)
        with pytest.raises(ValueError, match="arcs exceed the arc cap"):
            _seeded(8000, pairs, 1.0001 * _MAX_ARCS / pairs, 1, pairs)
        _seeded(8000, pairs, 3 / 8000, 1, pairs)  # random_digraph(8000, 3 / 8000)
        # an input over the pair cap keeps the pair cap's message
        with pytest.raises(ValueError, match="pair tests exceed the cap"):
            _seeded(10_001, 10_001 * 10_000, 1.0, 1, 10_001 * 10_000)

    @pytest.mark.parametrize(
        "factors, arcs",
        [
            # 199,809 vertices, under the vertex cap
            (lambda: (complete_digraph(447), complete_digraph(447)), 2 * 447 * 446 * 447),
            # one row of 2000 arcs over 10^7
            (lambda: (complete_digraph(100, 5001), Digraph(2000)), 10_002_000),
        ],
        ids=["k447-k447", "one-row-over"],
    )
    def test_product_over_the_arc_cap(self, factors, arcs):
        g, h = factors()
        start = time.perf_counter()
        with pytest.raises(
            ValueError, match=f"product with {arcs} arcs exceeds the arc cap of 10000000"
        ):
            cartesian_product(g, h)
        assert time.perf_counter() - start < 1
