"""The public result and parameter records: field-wise equality, the
``Name(field=value, ...)`` repr, and immutability where a record is frozen."""

import pytest

from idomlib import (
    DhkSpec,
    PropagationResult,
    SolverStats,
    UndirectedGraph,
    brute_force_solve,
    condensation,
    gen_cycle,
    gen_dhk,
    gen_path,
    is_ids,
    layer_decomposition,
    propagate_layer_seed,
    sccs,
)


def frozen_records():
    c4 = gen_cycle(4)
    return [
        brute_force_solve(gen_path(2)),
        PropagationResult(False),
        propagate_layer_seed(c4, layer_decomposition(c4), 0, {0}),
        is_ids(gen_cycle(3), {0, 1}),
        sccs(gen_cycle(3)),
        condensation(gen_path(3)),
        layer_decomposition(c4),
        DhkSpec(5, 3),
        gen_dhk(DhkSpec(3, 3)),
        UndirectedGraph.from_edges(3, [(1, 0)]),
    ]


class TestSolverStats:
    def test_repr(self):
        assert repr(SolverStats()) == (
            "SolverStats(seeds_explored=0, subsets_explored=0, recursion_depth=0, "
            "elapsed=0.0, budget_used=0)"
        )
        assert repr(SolverStats(1, 2, 3, 0.5, 7)) == (
            "SolverStats(seeds_explored=1, subsets_explored=2, recursion_depth=3, "
            "elapsed=0.5, budget_used=7)"
        )

    def test_fieldwise_equality(self):
        assert SolverStats(1) == SolverStats(seeds_explored=1)
        assert SolverStats() != SolverStats(budget_used=1)
        assert SolverStats() != (0, 0, 0, 0.0, 0)

    def test_mutable_and_unhashable(self):
        stats = SolverStats()
        stats.budget_used += 4
        assert stats == SolverStats(budget_used=4)
        with pytest.raises(TypeError):
            hash(stats)
        with pytest.raises(AttributeError):
            stats.other = 1


class TestFrozenRecords:
    def test_reprs(self):
        assert repr(brute_force_solve(gen_cycle(3)))[:60] == (
            "SolveOutcome(status='none', set=None, method='brute', stats="
        )
        assert repr(PropagationResult(False)) == (
            "PropagationResult(consistent=False, union=None, failed_step=None)"
        )
        assert repr(is_ids(gen_cycle(3), {0, 1})) == (
            "IdsReport(independent=False, dominating=True, "
            "independence_violations=((0, 1),), domination_violations=())"
        )
        assert repr(condensation(gen_path(3))) == (
            "Condensation(dag=Digraph(n=3, m=2), scc=SccDecomposition("
            "component_of=(2, 1, 0), components=((2,), (1,), (0,))))"
        )
        assert repr(layer_decomposition(gen_cycle(2))) == (
            "LayerDecomposition(h=2, layer_of=(0, 1), layers=(frozenset({0}), frozenset({1})))"
        )
        assert repr(gen_dhk(DhkSpec(3, 3))) == (
            "DhkGraph(graph=Digraph(n=15, m=24), layers=((0, 1, 2), (3, 4, 5, 6, 7, 8), "
            "(9, 10, 11, 12, 13, 14)), spec=DhkSpec(h=3, k=3, variant='ids_free'), "
            "strongly_connected=True, period=3)"
        )
        assert repr(UndirectedGraph.from_edges(3, [(1, 0), (2, 1)])) == (
            "UndirectedGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))"
        )

    def test_fieldwise_equality(self):
        for a, b in zip(frozen_records(), frozen_records()):
            if not hasattr(a, "stats"):  # elapsed differs between two solves
                assert a == b and hash(a) == hash(b)
        assert PropagationResult(False) == PropagationResult(False, None, None)
        assert PropagationResult(False) != PropagationResult(False, None, 1)

    @pytest.mark.parametrize(
        "record", frozen_records(), ids=lambda r: type(r).__name__
    )
    def test_fields_cannot_be_assigned(self, record):
        field = (getattr(record, "_fields", None) or record.__slots__)[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestDhkSpec:
    def test_defaults_and_repr(self):
        assert DhkSpec(5, 3) == DhkSpec(h=5, k=3, variant="ids_free")
        assert repr(DhkSpec(3, 4, variant="with_ids")) == (
            "DhkSpec(h=3, k=4, variant='with_ids')"
        )

    def test_hash_and_equality_are_fieldwise(self):
        assert hash(DhkSpec(5, 3)) == hash(DhkSpec(5, 3, "ids_free"))
        assert DhkSpec(5, 3) != DhkSpec(5, 3, "with_ids")
        assert len({DhkSpec(5, 3), DhkSpec(5, 3), DhkSpec(7, 3)}) == 2

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((4, 2), {}, "h must be odd"),
            ((1, 2), {}, "h must be odd"),
            ((3, 1), {}, "k must be at least 2"),
            ((3, 2), {"variant": "nope"}, "unknown variant 'nope'"),
        ],
    )
    def test_validation(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DhkSpec(*args, **kwargs)

    def test_immutable(self):
        spec = DhkSpec(5, 3)
        with pytest.raises(AttributeError):
            spec.k = 4
        with pytest.raises(AttributeError):
            del spec.h
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec == DhkSpec(5, 3)
