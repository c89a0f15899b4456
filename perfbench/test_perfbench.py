"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import idomlib as il  # noqa: E402
import reference  # noqa: E402
import shims  # noqa: E402
from run import tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


def _arcs(graph):
    return sorted(graph.arcs)


@pytest.mark.parametrize("seed", range(12))
def test_reference_agrees_with_brute_force(seed):
    graph = il.random_digraph(3 + seed % 6, 0.3, seed)
    n, arcs = graph.n, _arcs(graph)
    brute = il.brute_force_solve(graph)
    assert (reference.milp_ids(n, arcs) is not None) == brute.found
    assert reference.milp_min(n, arcs, independent=True) == il.min_ids_size_brute(graph)
    assert reference.milp_min(n, arcs, independent=False) == il.min_dom_size_brute(graph)
    assert reference.milp_idomatic(n, arcs) == il.idomatic_brute(graph)
    if brute.found:
        assert reference.is_ids(n, arcs, brute.set)


@pytest.mark.parametrize(
    "graph, theorem",
    [
        (il.gen_cycle(4), "even-period"),
        (il.gen_cycle(5), "odd-cycle"),
        (il.gen_cycle(7), "odd-cycle"),
        (il.gen_path(6), "acyclic"),
        (il.random_dag(9, 0.3, 1), "acyclic"),
        (il.random_oriented_bipartite(4, 4, 0.5, 2), "oriented-bipartite"),
        (il.random_layered_strong(4, 2, 0.5, 3), "even-period"),
        (il.cartesian_product(il.gen_cycle(3), il.gen_cycle(3)), "odd-torus"),
        (il.cartesian_product(il.gen_wheel(3), il.gen_paw()), "wheel-x-paw"),
        (il.cartesian_product(il.gen_wheel(5), il.gen_paw()), "wheel-x-paw"),
        (il.gen_dhk(il.DhkSpec(3, 4, "ids_free")).graph, "dhk-free"),
    ],
)
def test_theorems_agree_with_the_model_and_brute_force(graph, theorem):
    n, arcs = graph.n, _arcs(graph)
    structure = reference.Structure(n, arcs)
    exists, source = reference.verdict(n, arcs, theorem, structure)
    assert source == f"theorem:{theorem}"
    assert exists == (reference.milp_ids(n, arcs) is not None)
    if n <= 20:
        assert exists == il.brute_force_solve(graph).found


def test_a_theorem_that_does_not_apply_is_refused():
    graph = il.gen_cycle(5)
    with pytest.raises(RuntimeError):
        reference.verdict(5, _arcs(graph), "acyclic", reference.Structure(5, _arcs(graph)))


def test_structure_matches_idomlib_on_random_graphs():
    for seed in range(20):
        graph = il.random_digraph(10, 0.2, seed)
        st = reference.Structure(graph.n, _arcs(graph))
        cond = il.condensation(graph)
        assert (st.period, st.sccs, st.source_sccs) == (
            il.period(graph), cond.dag.n, len(cond.source_components())
        )


def _namespace_snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "idomlib" or name.startswith("idomlib.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_shims_restore_every_function():
    before = _namespace_snapshot()
    with shims.Tracer() as tracer:
        assert il.solve_auto is not before[("idomlib", "solve_auto")]
        il.solve_auto(il.gen_cycle(11))
        il.brute_force_solve(il.gen_cycle(6))
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == []
    assert tracer.spans


def test_shim_counts_match_an_independent_profile():
    sccs_code = il.structure.sccs.__code__
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is sccs_code:
            seen.append(1)

    graph = il.gen_cycle(10)
    sys.setprofile(profile)
    try:
        il.solve_auto(graph)
    finally:
        sys.setprofile(None)
    with shims.Tracer() as tracer:
        il.solve_auto(graph)
    assert shims.summarize(tracer.spans)["sccs"]["calls"] == len(seen)


def test_self_time_excludes_children():
    with shims.Tracer() as tracer:
        il.solve_auto(il.random_digraph(12, 0.2, 4))
    for s in tracer.spans:
        assert s[shims.END] - s[shims.START] >= s[shims.CHILD_TIME] >= 0


def test_missing_target_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(shims, "TARGETS", shims.TARGETS + [("solvers", "no_such_function", "solvers.solve")])
    with shims.Tracer() as tracer:
        pass
    assert tracer.missing == ["solvers.no_such_function"]


def test_tail_leaves_ten_values_beyond_it():
    for n in (21, 29, 63, 80):
        values = [float(i) for i in range(n)]
        value, pct = tail(values)
        assert sum(v > value for v in values) >= 10
        assert sum(v > value for v in values) < 10 + n / 100 + 1
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload, trace, kind", [("search-hard", 0, "end_to_end"), ("cli-mix", 1, "per_layer")])
def test_result_has_every_metric(workload, trace, kind):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    path = os.path.join(ROOT, "perfbench_out", f"{workload}-seed3-trace{trace}.json")
    with open(path, encoding="ascii") as fh:
        record = json.load(fh)
    assert record["result"] == result
    assert {"seed", "budget", "manifest", "python", "nproc", "commit", "loadavg_start"} <= set(record)
    if trace:
        assert record["missing_shims"] == []
        assert record["sanity"]["solve_auto(gen_cycle(10)) sccs calls"] >= 1


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, "perfbench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("cli-mix", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
