"""Independent dominating sets in directed graphs.

A vertex set is independent when it spans no arc and dominating when every
vertex outside it has an in-neighbor inside it. This package decides whether
a digraph has a set that is both, constructs one when possible, analyzes the
structure that governs existence (strongly connected components and the
period / layer decomposition), and generates the graph families used to
exercise all of it.
"""

from .digraph import (
    Digraph,
    IdsReport,
    ParseError,
    ParsedArcList,
    Subgraph,
    format_arc_list,
    induced_subgraph,
    is_dominating,
    is_ids,
    is_independent,
    out_closed_removal,
    parse_digraph,
)
from .generators import (
    DhkGraph,
    DhkSpec,
    GenerationError,
    UndirectedGraph,
    cartesian_product,
    cn_box_cn_ids,
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
    DEFAULT_BUDGET,
    InternalError,
    PropagationResult,
    SolveOutcome,
    SolverStats,
    brute_force_solve,
    enumerate_ids_brute,
    forced_sources_closure,
    idomatic_brute,
    min_dom_size_brute,
    min_ids_size_brute,
    propagate_layer_seed,
    solve_auto,
    solve_bipartite,
    solve_dag,
    solve_even_period,
    solve_exact,
    solve_strong_by_layers,
    two_disjoint_ids,
)
from .structure import (
    Condensation,
    LayerDecomposition,
    SccDecomposition,
    condensation,
    cycle_gcd_oracle,
    is_strongly_connected,
    layer_decomposition,
    period,
    scc_period,
    sccs,
)

__version__ = "0.1.0"
