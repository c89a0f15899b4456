"""Verdicts past the brute-force cap: agreement with a 0-1 program solved by
scipy's HiGHS, and properties of the status that need no oracle at all."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from idomlib import (
    Digraph,
    DhkSpec,
    cartesian_product,
    gen_cycle,
    gen_dhk,
    gen_paw,
    gen_wheel,
    random_digraph,
    random_layered_strong,
    solve_auto,
    solve_exact,
)

from helpers import digraphs, disjoint_union, milp_has_ids


def _corpus():
    for n in range(20, 201, 20):
        for seed in range(1, 4):
            yield f"random-{n}-{seed}", lambda n=n, seed=seed: random_digraph(n, 3 / n, seed)
    for h in (3, 5, 7):
        for size in (4, 8, 13):
            for seed in range(1, 5):
                yield (
                    f"layered-{h}x{size}-{seed}",
                    lambda h=h, size=size, seed=seed: random_layered_strong(h, size, 0.3, seed),
                )
    small = {
        "c3": lambda: gen_cycle(3),
        "c4": lambda: gen_cycle(4),
        "c5": lambda: gen_cycle(5),
        "c7": lambda: gen_cycle(7),
        "paw": gen_paw,
        "wheel5": lambda: gen_wheel(5),
        "random6": lambda: random_digraph(6, 0.4, 3),
    }
    names = sorted(small)
    for i, a in enumerate(names):
        for b in names[i:]:
            yield (
                f"product-{a}-{b}",
                lambda a=a, b=b: cartesian_product(small[a](), small[b]()),
            )
    for h, ks in ((3, range(3, 7)), (5, range(3, 6)), (7, range(3, 5))):
        for k in ks:
            for variant in ("ids_free", "with_ids"):
                spec = DhkSpec(h, k, variant)
                yield (
                    f"dhk-{h}-{k}-{variant}-text",  # the arc rules of the paper's text
                    lambda spec=spec: gen_dhk(spec, strict=False).graph,
                )


CORPUS = list(_corpus())


@pytest.mark.parametrize("build", [b for _, b in CORPUS], ids=[name for name, _ in CORPUS])
def test_verdicts_agree_with_milp(build):
    pytest.importorskip("scipy")
    graph = build()
    expected = milp_has_ids(graph)
    assert solve_auto(graph).found == expected
    assert solve_exact(graph).found == expected


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=12), st.randoms(use_true_random=False))
def test_status_survives_relabelling(graph, rng):
    label = list(range(graph.n))
    rng.shuffle(label)
    relabelled = Digraph(graph.n, [(label[u], label[v]) for u, v in graph.arcs])
    assert solve_auto(relabelled).status == solve_auto(graph).status


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=8), digraphs(max_n=8))
def test_disjoint_union_needs_both_parts(a, b):
    expected = solve_auto(a).found and solve_auto(b).found
    assert solve_auto(disjoint_union(a, b)).found == expected
    assert solve_exact(disjoint_union(b, a)).found == expected


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=12))
def test_a_dominating_apex_always_gives_a_set(graph):
    n = graph.n
    apex = Digraph(n + 1, [*graph.arcs, *((n, v) for v in range(n))])
    outcome = solve_auto(apex)
    assert outcome.found and outcome.set == {n}
