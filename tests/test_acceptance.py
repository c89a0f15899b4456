"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. All value checks are exact; the timing figures are informative.
"""

import math
import random
import time

from idomlib import (
    DhkSpec,
    UndirectedGraph,
    brute_force_solve,
    cartesian_product,
    cn_box_cn_ids,
    cycle_gcd_oracle,
    double_edges,
    gen_cycle,
    gen_dhk,
    gen_paw,
    gen_wheel,
    idomatic_brute,
    is_ids,
    layer_decomposition,
    min_dom_size_brute,
    min_ids_size_brute,
    period,
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

from helpers import min_undirected_ids_size


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance] criterion {self.number} {self.title}: "
              f"{verdict} in {elapsed:.2f}s{suffix}")
        assert ok, f"criterion {self.number} ({self.title}) failed"


def test_criterion_01_dag_existence():
    crit = _Criterion(1, "DAG existence")
    ok = True
    for i in range(1000):
        n = 1 + i % 50
        p = (0.05, 0.1, 0.2, 0.4)[i % 4]
        graph = random_dag(n, p, seed=i)
        outcome = solve_dag(graph)
        ok = ok and outcome.found and is_ids(graph, outcome.set).ids
    crit.finish(ok, "1000 instances, n <= 50")


def test_criterion_02_even_period():
    crit = _Criterion(2, "even period existence and disjoint pair")
    ok = True
    count = 0
    for i in range(200):
        h = (2, 4, 6)[i % 3]
        size = 1 + (i * 7) % (60 // h)
        p = 0.3 + 0.1 * (i % 5)
        graph = random_layered_strong(h, size, p, seed=1000 + i)
        assert graph.n <= 60
        outcome = solve_even_period(graph)
        first, second = two_disjoint_ids(graph)
        ok = ok and outcome.found and is_ids(graph, outcome.set).ids
        ok = ok and not (first & second)
        ok = ok and is_ids(graph, first).ids and is_ids(graph, second).ids
        count += 1
    crit.finish(ok, f"{count} layered instances, h in {{2,4,6}}")


def test_criterion_03_cycles():
    crit = _Criterion(3, "odd cycles are free, even cycles are not")
    ok = True
    for n in (3, 5, 7, 9, 11):
        graph = gen_cycle(n)
        ok = ok and solve_exact(graph).status == "none"
        ok = ok and brute_force_solve(graph).status == "none"
    for n in (2, 4, 6, 8, 10, 12):
        graph = gen_cycle(n)
        ok = ok and solve_exact(graph).status == "found"
        if n <= 11:
            ok = ok and brute_force_solve(graph).status == "found"
    crit.finish(ok, "n in 2..12")


def test_criterion_04_wheel_times_paw():
    crit = _Criterion(4, "wheel x paw products are solution-free")
    ok = True
    for n in (3, 5, 7):
        product = cartesian_product(gen_wheel(n), gen_paw())
        ok = ok and solve_exact(product).status == "none"
        if n == 3:
            ok = ok and brute_force_solve(product).status == "none"
    crit.finish(ok, "n in {3,5,7}; brute agreement at n=3")


def test_criterion_05_torus_construction():
    crit = _Criterion(5, "torus products carry the explicit construction")
    ok = True
    for n in (3, 5, 7):
        product = cartesian_product(gen_cycle(n), gen_cycle(n))
        members = cn_box_cn_ids(n)
        ok = ok and is_ids(product, members).ids
        ok = ok and solve_exact(product).status == "found"
    literal = frozenset(
        i * 5 + (i + 2 * j) % 5 for i in range(5) for j in range(5 // 2 + 1)
    )
    product5 = cartesian_product(gen_cycle(5), gen_cycle(5))
    report = is_ids(product5, literal)
    ok = ok and not report.independent and len(report.independence_violations) > 0
    crit.finish(ok, "n in {3,5,7}; inclusive column range fails at n=5")


def test_criterion_06_product_inequality_violations():
    crit = _Criterion(6, "product inequality fails in both directions")
    torus = cartesian_product(gen_cycle(3), gen_cycle(3))
    i_torus = min_ids_size_brute(torus)
    gamma_c3 = min_dom_size_brute(gen_cycle(3))
    i_c3 = min_ids_size_brute(gen_cycle(3))
    ok = i_torus == 3 and gamma_c3 == 2 and i_c3 is None
    for missing_value in (gen_cycle(3).n + 1, math.inf):
        bound = min(missing_value * gamma_c3, gamma_c3 * missing_value)
        ok = ok and i_torus < bound

    product = cartesian_product(gen_wheel(3), gen_paw())
    i_wheel = min_ids_size_brute(gen_wheel(3))
    i_paw = min_ids_size_brute(gen_paw())
    gamma_wheel = min_dom_size_brute(gen_wheel(3))
    gamma_paw = min_dom_size_brute(gen_paw())
    ok = ok and min_ids_size_brute(product, cap=16) is None
    ok = ok and i_wheel == 1 and i_paw == 2
    bound = min(i_wheel * gamma_paw, gamma_wheel * i_paw)
    for missing_value in (product.n + 1, math.inf):
        ok = ok and missing_value > bound
    crit.finish(ok, f"i(torus)=3, gamma(C3)=2, i(W3')=1, i(P')=2, bound={bound}")


def test_criterion_07_layered_families():
    crit = _Criterion(7, "layered subset families")
    ok = True
    details = []
    for h, k in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        free = gen_dhk(DhkSpec(h, k, "ids_free"), strict=False)
        t0 = time.perf_counter()
        ok = ok and solve_exact(free.graph).status == "none"
        details.append(f"({h},{k}) free in {time.perf_counter() - t0:.2f}s")

        with_ids = gen_dhk(DhkSpec(h, k, "with_ids"), strict=False)
        layers = layer_decomposition(with_ids.graph)
        result = propagate_layer_seed(with_ids.graph, layers, 0, {0})
        ok = ok and result.consistent and is_ids(with_ids.graph, result.union).ids
    crit.finish(ok, "; ".join(details))


def test_criterion_08_oracle_equivalence():
    crit = _Criterion(8, "exact solver agrees with brute force")
    ok = True
    disagreements = 0
    for i in range(500):
        n = 1 + i % 12
        p = (0.1, 0.15, 0.25, 0.35, 0.5)[i % 5]
        graph = random_digraph(n, p, seed=2000 + i)
        expected = brute_force_solve(graph).status
        if solve_exact(graph).status != expected or solve_auto(graph).status != expected:
            disagreements += 1
            ok = False
    crit.finish(ok, f"500 instances, {disagreements} disagreements")


def test_criterion_09_period_correctness():
    crit = _Criterion(9, "period equals the cycle-length gcd oracle")
    ok = True
    for i in range(300):
        if i % 3 == 2:
            graph = random_dag(1 + i % 10, 0.3, seed=3000 + i)
            ok = ok and period(graph) == 0 == cycle_gcd_oracle(graph)
        else:
            n = 2 + i % 9
            p = (0.1, 0.2, 0.3, 0.45)[i % 4]
            graph = random_digraph(n, p, seed=3000 + i)
            ok = ok and period(graph) == cycle_gcd_oracle(graph)
    crit.finish(ok, "300 instances, n <= 10")


def test_criterion_10_doubling_reduction():
    crit = _Criterion(10, "antiparallel doubling preserves the minimum size")
    ok = True
    rng = random.Random(4000)
    for i in range(200):
        n = 1 + i % 12
        p = 0.15 + 0.05 * (i % 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        undirected = UndirectedGraph.from_edges(n, edges)
        doubled = double_edges(undirected)
        ok = ok and min_undirected_ids_size(undirected) == min_ids_size_brute(doubled)
    crit.finish(ok, "200 undirected instances, n <= 12")


def _layer_search_corpus():
    graphs = [gen_cycle(n) for n in (3, 5, 7, 9, 11, 4, 6, 8)]
    graphs.append(cartesian_product(gen_cycle(3), gen_cycle(3)))
    graphs.append(cartesian_product(gen_cycle(5), gen_cycle(5)))
    graphs.append(gen_dhk(DhkSpec(3, 3)).graph)
    graphs.append(gen_dhk(DhkSpec(5, 3)).graph)
    graphs.append(gen_dhk(DhkSpec(3, 3, "with_ids")).graph)
    graphs.append(gen_dhk(DhkSpec(5, 3, "with_ids")).graph)
    for seed in range(10):
        graphs.append(random_layered_strong(3, 3, 0.5, seed=4100 + seed))
        graphs.append(random_layered_strong(5, 2, 0.5, seed=4200 + seed))
        graphs.append(random_layered_strong(2, 4, 0.4, seed=4300 + seed))
    return graphs


def test_criterion_11_layer_seed_bound():
    crit = _Criterion(11, "layer search explores at most 2^ceil(n/h) seeds")
    ok = True
    calls = 0
    for graph in _layer_search_corpus():
        h = layer_decomposition(graph).h
        outcome = solve_strong_by_layers(graph)
        ok = ok and outcome.stats.seeds_explored <= 2 ** math.ceil(graph.n / h)
        calls += 1
    crit.finish(ok, f"{calls} invocations")


def test_criterion_12_oriented_bipartite():
    crit = _Criterion(12, "oriented bipartite graphs always solve")
    ok = True
    for i in range(300):
        a = 1 + i % 10
        b = 1 + (i // 10) % 10
        p = (0.15, 0.3, 0.5)[i % 3]
        graph = random_oriented_bipartite(a, b, p, seed=5000 + i)
        outcome = solve_bipartite(graph)
        ok = ok and outcome.found and is_ids(graph, outcome.set).ids
    crit.finish(ok, "300 instances")


def test_criterion_13_layers_meet_solutions_properly():
    crit = _Criterion(13, "solutions meet every layer of odd-period graphs properly")
    ok = True
    checked = 0
    for graph in _layer_search_corpus():
        layers = layer_decomposition(graph)
        if layers.h % 2 == 0 or layers.h == 1:
            continue
        for outcome in (solve_strong_by_layers(graph), solve_exact(graph)):
            if not outcome.found:
                continue
            for layer in layers.layers:
                inside = layer & outcome.set
                ok = ok and inside and inside != layer
            checked += 1
    ok = ok and checked >= 6
    crit.finish(ok, f"{checked} solved odd-period instances")
