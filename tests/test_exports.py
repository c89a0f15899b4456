"""The package namespace re-exports the modules' ``__all__`` lists, and the
benchmark's call shims still find every function they wrap."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import idomlib

MODULES = ("digraph", "generators", "solvers", "structure")

PUBLIC = {
    "BudgetExceeded", "CapExceeded", "Condensation", "DEFAULT_BUDGET", "DhkGraph",
    "DhkSpec", "Digraph", "GenerationError", "IdsReport", "InternalError",
    "LayerDecomposition", "ParseError", "ParsedArcList", "PropagationResult",
    "SccDecomposition", "SolveOutcome", "SolverStats", "Subgraph", "UndirectedGraph",
    "brute_force_solve", "cartesian_product", "cn_box_cn_ids", "condensation",
    "cycle_gcd_oracle", "double_edges", "enumerate_ids_brute", "forced_sources_closure",
    "format_arc_list", "gen_cycle", "gen_dhk", "gen_path", "gen_paw", "gen_wheel",
    "idomatic_brute", "induced_subgraph", "is_dominating", "is_ids", "is_independent",
    "is_strongly_connected", "layer_decomposition", "min_dom_size_brute",
    "min_ids_size_brute", "out_closed_removal", "parse_digraph", "period",
    "propagate_layer_seed", "random_dag", "random_digraph", "random_layered_strong",
    "random_oriented_bipartite", "scc_period", "sccs", "solve_auto", "solve_bipartite",
    "solve_dag", "solve_even_period", "solve_exact", "solve_strong_by_layers",
    "two_disjoint_ids",
}


def test_public_names_are_the_modules_all_lists():
    public = {
        name
        for name, value in vars(idomlib).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = set()
    for module in MODULES:
        declared.update(importlib.import_module(f"idomlib.{module}").__all__)
    assert len(PUBLIC) == 59
    assert public == declared == PUBLIC


def test_every_shim_target_is_the_package_attribute():
    # the benchmark's shims replace each target wherever it is bound; a
    # target missing from its module would go unmeasured
    path = Path(__file__).resolve().parents[1] / "perfbench" / "shims.py"
    spec = importlib.util.spec_from_file_location("perfbench_shims", path)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    assert shims.TARGETS
    for module, function, _ in shims.TARGETS:
        home = importlib.import_module(f"idomlib.{module}")
        assert getattr(home, function) is getattr(idomlib, function), (module, function)
